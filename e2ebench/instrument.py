"""Host-time instrumentation for the end-to-end benchmark.

Everything here works by replacing class or module attributes of the
program for the duration of one pass and putting the originals back
afterwards, so the program under test carries no benchmark code.

:class:`Probe` is installed on every pass, traced or not. It times each
``ClusterRuntime.build`` and ``Simulator.run`` call, keeps the runtimes a
pass builds so their counters can be read afterwards, and records every
completed request into a per-runtime ledger through the sessions'
``on_request_complete`` hooks (which cost no simulated time).

:class:`Tracer` is installed on traced passes only. It splits host time
by layer:

* every event callback handed to ``Simulator.schedule``/``schedule_at``
  (and so ``call_soon``) is wrapped in a span of the layer that owns the
  callback's ``__module__``;
* a fixed list of entry points of each layer (:data:`ENTRY_POINTS`) is
  wrapped in spans; generator functions such as ``NmInterface.isend`` are
  timed per resumption, not only when the generator is created;
* thread bodies handed to ``MarcelScheduler.spawn`` are application code
  and are timed per resumption as ``apps``.

A layer's self time is the time of its spans minus the time of the spans
nested in them. Spans are kept in memory and written once, at the end of
the run, as a Chrome/Perfetto trace.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from typing import Any, Callable, Iterator

from repro.harness.runner import ClusterRuntime
from repro.sim.events import EventHandle
from repro.sim.kernel import Simulator

__all__ = [
    "LAYERS",
    "ENTRY_POINTS",
    "layer_of_module",
    "Patches",
    "Probe",
    "Ledger",
    "SpanRecorder",
    "Tracer",
    "traced_generator",
    "write_chrome_trace",
]

#: the layers host time is split into; ``unattributed`` is whatever runs
#: inside a pass but outside every span (the benchmark's own workload code)
LAYERS = (
    "harness", "sim", "marcel", "nmad", "pioman", "network", "obs", "apps",
    "unattributed",
)

#: first matching ``repro.<package>`` prefix decides the layer; code from
#: outside the ``repro`` package (the benchmark's own thread bodies) is
#: application code
_LAYER_PREFIXES = (
    ("repro.sim", "sim"),
    ("repro.marcel", "marcel"),
    ("repro.nmad", "nmad"),
    ("repro.mpi", "nmad"),
    ("repro.pioman", "pioman"),
    ("repro.network", "network"),
    ("repro.faults", "network"),
    ("repro.obs", "obs"),
    ("repro.apps", "apps"),
    ("repro", "harness"),
)


@functools.lru_cache(maxsize=None)
def layer_of_module(module: str | None) -> str:
    """Layer owning code defined in ``module``."""
    if module is None:
        return "sim"  # builtins scheduled directly as callbacks
    for prefix, layer in _LAYER_PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "apps"


#: layer entry points timed on traced passes: (module, class or None,
#: attribute, kind). ``call`` is a plain function or method, ``gen`` a
#: generator function timed per resumption. The layer is taken from the
#: module, so it agrees with how callbacks are attributed.
ENTRY_POINTS: tuple[tuple[str, str | None, str, str], ...] = (
    ("repro.harness.experiments", None, "experiment_fig5", "call"),
    ("repro.harness.experiments", None, "experiment_fig6", "call"),
    ("repro.harness.experiments", None, "experiment_table1", "call"),
    ("repro.marcel.scheduler", "MarcelScheduler", "idle_core_indices", "call"),
    ("repro.marcel.scheduler", "MarcelScheduler", "busy_core_count", "call"),
    ("repro.marcel.scheduler", "MarcelScheduler", "kick_idle", "call"),
    ("repro.marcel.scheduler", "MarcelScheduler", "wake", "call"),
    ("repro.nmad.interface", "NmInterface", "isend", "gen"),
    ("repro.nmad.interface", "NmInterface", "irecv", "gen"),
    ("repro.nmad.interface", "NmInterface", "swait", "gen"),
    ("repro.nmad.interface", "NmInterface", "rwait", "gen"),
    ("repro.nmad.interface", "NmInterface", "wait", "gen"),
    ("repro.nmad.interface", "NmInterface", "wait_all", "gen"),
    ("repro.nmad.interface", "NmInterface", "wait_any", "gen"),
    ("repro.nmad.interface", "NmInterface", "send", "gen"),
    ("repro.nmad.interface", "NmInterface", "recv", "gen"),
    ("repro.nmad.core", "SessionCore", "add_gate", "call"),
    ("repro.nmad.core", "SessionCore", "post_send", "call"),
    ("repro.nmad.core", "SessionCore", "post_recv", "call"),
    ("repro.nmad.core", "SessionCore", "progress", "call"),
    ("repro.nmad.core", "SessionCore", "poll_completions", "call"),
    ("repro.nmad.core", "SessionCore", "has_work", "call"),
    ("repro.nmad.core", "SessionCore", "has_completions", "call"),
    ("repro.nmad.core", "SessionCore", "has_pending_ops", "call"),
    ("repro.nmad.progress", "SequentialEngine", "isend", "gen"),
    ("repro.nmad.progress", "SequentialEngine", "irecv", "gen"),
    ("repro.nmad.progress", "SequentialEngine", "wait", "gen"),
    ("repro.pioman.engine", "PiomanEngine", "isend", "gen"),
    ("repro.pioman.engine", "PiomanEngine", "irecv", "gen"),
    ("repro.pioman.engine", "PiomanEngine", "wait", "gen"),
    # Marcel calls these through hook lists bound at engine construction,
    # which happens after the patch is installed
    ("repro.pioman.engine", "PiomanEngine", "_idle_hook", "call"),
    ("repro.pioman.engine", "PiomanEngine", "_tick_hook", "call"),
    ("repro.pioman.engine", "PiomanEngine", "_switch_hook", "call"),
    ("repro.network.fabric", "Fabric", "transmit", "call"),
    ("repro.network.nic", "Nic", "submit_pio", "call"),
    ("repro.network.nic", "Nic", "submit_dma", "call"),
    ("repro.network.nic", "Nic", "deliver", "call"),
    ("repro.network.nic", "Nic", "poll", "call"),
    ("repro.network.nic", "Nic", "has_completions", "call"),
    ("repro.obs.registry", "Histogram", "observe", "call"),
    ("repro.apps.traffic", "OpenLoop", "schedule", "call"),
    # the experiments module imported these by name, so patch that name
    ("repro.harness.experiments", None, "run_overlap", "call"),
    ("repro.harness.experiments", None, "run_convolution", "call"),
)

#: entry points whose calls are counted, by counter name
_COUNTED = {
    ("MarcelScheduler", "idle_core_indices"): "marcel.idle_scans",
    ("MarcelScheduler", "busy_core_count"): "marcel.idle_scans",
}


class Patches:
    """Attribute replacements undone in reverse order by :meth:`restore`."""

    _MISSING = object()

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def set(self, owner: Any, name: str, value: Any) -> None:
        self._saved.append((owner, name, vars(owner).get(name, self._MISSING)))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._saved:
            owner, name, old = self._saved.pop()
            if old is self._MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, old)


# ---------------------------------------------------------------- probe


class Ledger:
    """Completed requests of one runtime, in completion order.

    A send record is ``("s", src, dst, tag, size, posted_at, completed_at,
    None)``; a receive record is ``("r", src, dst, tag, received_size,
    posted_at, completed_at, data)``.
    """

    __slots__ = ("records",)

    def __init__(self) -> None:
        self.records: list[tuple] = []

    def __call__(self, req: Any) -> None:
        if req.kind == "send":
            self.records.append(
                ("s", req.node_index, req.peer, req.tag, req.size,
                 req.posted_at, req.completed_at, None)
            )
        else:
            self.records.append(
                ("r", req.source, req.node_index, req.tag, req.received_size,
                 req.posted_at, req.completed_at, req.data)
            )


class Probe:
    """Build and run timing plus request ledgers for one pass."""

    def __init__(self) -> None:
        self.build_s = 0.0
        self.run_s = 0.0
        #: (runtime, ledger) for every build of the pass, in build order
        self.builds: list[tuple[ClusterRuntime, Ledger]] = []
        self._patches = Patches()

    def install(self) -> None:
        orig_build = vars(ClusterRuntime)["build"].__func__
        orig_run = Simulator.run
        probe = self

        def build(cls: type, *args: Any, **kwargs: Any) -> ClusterRuntime:
            t0 = time.perf_counter()
            rt = orig_build(cls, *args, **kwargs)
            probe.build_s += time.perf_counter() - t0
            ledger = Ledger()
            for nrt in rt.nodes:
                nrt.session.on_request_complete.append(ledger)
            probe.builds.append((rt, ledger))
            return rt

        def run(self: Simulator, *args: Any, **kwargs: Any) -> float:
            t0 = time.perf_counter()
            try:
                return orig_run(self, *args, **kwargs)
            finally:
                probe.run_s += time.perf_counter() - t0

        self._patches.set(ClusterRuntime, "build", classmethod(build))
        self._patches.set(Simulator, "run", run)

    def restore(self) -> None:
        self._patches.restore()

    def __enter__(self) -> "Probe":
        self.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.restore()


# ---------------------------------------------------------------- tracing


class SpanRecorder:
    """Nested host-time spans with per-layer self time.

    Each open span is ``[layer, name, start, child_seconds]``. Closing a
    span adds its duration minus ``child_seconds`` to its layer's self
    time and its whole duration to the parent's ``child_seconds``.
    """

    def __init__(self, keep: int = 0, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.stack: list[list[Any]] = []
        self.self_s: dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        #: closed spans kept for the trace file: (name, layer, start, dur, depth)
        self.spans: list[tuple[str, str, float, float, int]] = []
        self.keep = keep
        self.dropped = 0

    def enter(self, layer: str, name: str) -> None:
        self.stack.append([layer, name, self.clock(), 0.0])

    def exit(self) -> None:
        end = self.clock()
        layer, name, start, child = self.stack.pop()
        dur = end - start
        self.self_s[layer] += dur - child
        if self.stack:
            self.stack[-1][3] += dur
        if len(self.spans) < self.keep:
            self.spans.append((name, layer, start, dur, len(self.stack)))
        else:
            self.dropped += 1

    def call(self, layer: str, span: str, fn: Callable[..., Any], /, *args: Any, **kwargs: Any) -> Any:
        self.enter(layer, span)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit()


def traced_generator(rec: SpanRecorder, layer: str, name: str, gen: Any) -> Iterator[Any]:
    """Forward ``gen`` transparently, with one span per resumption."""
    resume = gen.send
    arg: Any = None
    while True:
        rec.enter(layer, name)
        try:
            item = resume(arg)
        except StopIteration as stop:
            return stop.value
        finally:
            rec.exit()
        try:
            arg = yield item
            resume = gen.send
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # thrown into the wrapper: pass it on
            resume, arg = gen.throw, exc


def _qualname(fn: Any) -> str:
    name = getattr(fn, "__qualname__", None)
    if name is None:
        inner = getattr(fn, "func", None)  # functools.partial
        name = getattr(inner, "__qualname__", type(fn).__name__)
    return name


def _callback_layer(fn: Any) -> str:
    module = getattr(fn, "__module__", None)
    if module is None:
        inner = getattr(fn, "func", None) or getattr(fn, "__self__", None)
        module = getattr(inner, "__module__", None) if inner is not None else None
    return layer_of_module(module)


class Tracer:
    """Layer spans and counters for one traced pass."""

    def __init__(self, keep_spans: int = 0) -> None:
        self.rec = SpanRecorder(keep=keep_spans)
        self.counts: dict[str, int] = {
            "sim.scheduled": 0,
            "sim.cancelled": 0,
            "marcel.idle_scans": 0,
            "nmad.progress_calls": 0,
            "nmad.progress_useful": 0,
        }
        self._patches = Patches()

    # -- wrappers -------------------------------------------------------

    def _wrap_callback(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        rec, layer, name = self.rec, _callback_layer(fn), _qualname(fn)

        def callback(*args: Any) -> Any:
            rec.enter(layer, name)
            try:
                return fn(*args)
            finally:
                rec.exit()

        return callback

    def _wrap_call(self, layer: str, name: str, fn: Callable[..., Any], counter: str | None) -> Any:
        rec, counts = self.rec, self.counts

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if counter is not None:
                counts[counter] += 1
            rec.enter(layer, name)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.exit()

        return wrapper

    def _wrap_gen(self, layer: str, name: str, fn: Callable[..., Any]) -> Any:
        rec = self.rec

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return traced_generator(rec, layer, name, fn(*args, **kwargs))

        return wrapper

    # -- install --------------------------------------------------------

    def install(self) -> None:
        rec, counts, patches = self.rec, self.counts, self._patches
        wrap_cb = self._wrap_callback
        orig_schedule = Simulator.schedule
        orig_schedule_at = Simulator.schedule_at
        orig_call_soon = Simulator.call_soon
        orig_run = Simulator.run
        orig_cancel = EventHandle.cancel

        # call_soon delegates to schedule_at, which wraps the callback; the
        # call_soon wrapper only adds its own span
        def schedule(self: Simulator, delay: float, fn: Any, *args: Any, **kw: Any) -> Any:
            counts["sim.scheduled"] += 1
            rec.enter("sim", "Simulator.schedule")
            try:
                return orig_schedule(self, delay, wrap_cb(fn), *args, **kw)
            finally:
                rec.exit()

        def schedule_at(self: Simulator, at: float, fn: Any, *args: Any, **kw: Any) -> Any:
            counts["sim.scheduled"] += 1
            rec.enter("sim", "Simulator.schedule_at")
            try:
                return orig_schedule_at(self, at, wrap_cb(fn), *args, **kw)
            finally:
                rec.exit()

        def call_soon(self: Simulator, fn: Any, *args: Any, **kw: Any) -> Any:
            return rec.call("sim", "Simulator.call_soon", orig_call_soon, self, fn, *args, **kw)

        def run(self: Simulator, *args: Any, **kw: Any) -> Any:
            return rec.call("sim", "Simulator.run", orig_run, self, *args, **kw)

        def cancel(self: EventHandle) -> None:
            if not (self.cancelled or self.fired):
                counts["sim.cancelled"] += 1
            orig_cancel(self)

        patches.set(Simulator, "schedule", schedule)
        patches.set(Simulator, "schedule_at", schedule_at)
        patches.set(Simulator, "call_soon", call_soon)
        patches.set(Simulator, "run", run)
        patches.set(EventHandle, "cancel", cancel)

        orig_build = vars(ClusterRuntime)["build"].__func__

        def build(cls: type, *args: Any, **kw: Any) -> Any:
            return rec.call("harness", "ClusterRuntime.build", orig_build, cls, *args, **kw)

        patches.set(ClusterRuntime, "build", classmethod(build))

        from repro.marcel.scheduler import MarcelScheduler

        orig_spawn = MarcelScheduler.spawn
        spawn_layer = layer_of_module(MarcelScheduler.__module__)

        def spawn(self: Any, body: Callable[..., Any], *args: Any, **kw: Any) -> Any:
            name, layer = _qualname(body), _callback_layer(body)

            def traced_body(ctx: Any) -> Any:
                return traced_generator(rec, layer, name, body(ctx))

            return rec.call(spawn_layer, "MarcelScheduler.spawn", orig_spawn, self, traced_body, *args, **kw)

        patches.set(MarcelScheduler, "spawn", spawn)

        from repro.nmad.core import SessionCore

        orig_progress = SessionCore.progress

        def progress(self: Any, *args: Any, **kw: Any) -> bool:
            counts["nmad.progress_calls"] += 1
            did = rec.call("nmad", "SessionCore.progress", orig_progress, self, *args, **kw)
            if did:
                counts["nmad.progress_useful"] += 1
            return did

        for module_name, cls_name, attr, kind in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = getattr(module, cls_name) if cls_name else module
            if (cls_name, attr) == ("SessionCore", "progress"):
                patches.set(owner, attr, progress)
                continue
            fn = getattr(owner, attr)
            layer = layer_of_module(getattr(fn, "__module__", module_name))
            name = f"{cls_name}.{attr}" if cls_name else attr
            if kind == "gen":
                patches.set(owner, attr, self._wrap_gen(layer, name, fn))
            else:
                counter = _COUNTED.get((cls_name, attr)) if cls_name else None
                patches.set(owner, attr, self._wrap_call(layer, name, fn, counter))

    def restore(self) -> None:
        self._patches.restore()


def write_chrome_trace(path: str, spans: list[tuple[str, str, float, float, int]]) -> None:
    """Write closed spans as a Chrome/Perfetto trace (complete events)."""
    if not spans:
        return
    origin = min(s[2] for s in spans)
    events = [
        {
            "name": name,
            "cat": layer,
            "ph": "X",
            "ts": round((start - origin) * 1e6, 3),
            "dur": round(dur * 1e6, 3),
            "pid": 1,
            "tid": 1,
        }
        for name, layer, start, dur, _depth in spans
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
