"""Property tests: the kernel's calendar queue fires events exactly as a
sorted reference queue.

Hypothesis generates random scheduling programs — delays, priorities,
cancellations, events that schedule and cancel more events from inside
their own callbacks, interleaved bounded runs — and executes each program
on two queues: :class:`~repro.sim.kernel.Simulator` (the calendar queue
and its inlined run loop) and :class:`_Oracle`, a plain list fired in
sorted ``(time, priority, seq)`` order over the non-cancelled entries.
Every observable (full fire log, final clock, ``events_fired``, pending
count, ``peek_time``) must agree element-for-element.
"""

from __future__ import annotations

from typing import Any, Callable

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.events import Priority
from repro.sim.kernel import Simulator

_PRIORITIES = [
    Priority.INTERRUPT,
    Priority.TASKLET,
    Priority.NORMAL,
    Priority.LOW,
    Priority.IDLE,
]

# Coarse delays deliberately collide at the same instant (same-time ordering
# is where an implementation diverges first); fine delays exercise
# bucket-width adaptation; huge delays exercise sparse cursor jumps.
delays = st.one_of(
    st.integers(min_value=0, max_value=12).map(float),
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False, allow_infinity=False),
    st.floats(min_value=1e4, max_value=1e6, allow_nan=False, allow_infinity=False),
)
priorities = st.sampled_from(_PRIORITIES)

# Bounds land exactly on coarse event times as often as between them.
bounds = st.one_of(
    st.integers(min_value=0, max_value=60).map(float),
    st.floats(min_value=0.0, max_value=60.0, allow_nan=False, allow_infinity=False),
)

# One scheduling instruction: (delay, priority, n_children, child_delay,
# child_priority, cancel_child, cancel_self_reschedule). Children are
# scheduled from inside a firing callback, so they exercise insertion
# into the active batch and recycled handles.
ops = st.tuples(
    delays,
    priorities,
    st.integers(min_value=0, max_value=3),
    delays,
    priorities,
    st.booleans(),
    st.booleans(),
)


class _Entry:
    def __init__(self, key: tuple[float, int, int], fn: Callable[..., Any], args: tuple) -> None:
        self.key = key
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.fired = False

    def cancel(self) -> None:
        if not self.fired:
            self.cancelled = True


class _Oracle:
    """Reference kernel: every step fires the least ``(time, priority,
    seq)`` key among the stored, non-cancelled, unfired entries, with the
    bounded-run clock rule of :meth:`Simulator.run`."""

    def __init__(self) -> None:
        self.now = 0.0
        self.events_fired = 0
        self._seq = 0
        self._entries: list[_Entry] = []
        self._observers: list[Callable[[float], None]] = []

    def schedule(
        self, delay: float, fn: Callable[..., Any], *args: Any, priority: int = Priority.NORMAL
    ) -> _Entry:
        self._seq += 1
        entry = _Entry((self.now + delay, priority, self._seq), fn, args)
        self._entries.append(entry)
        return entry

    def add_observer(self, fn: Callable[[float], None]) -> None:
        self._observers.append(fn)

    def _live(self) -> list[_Entry]:
        return sorted(
            (e for e in self._entries if not (e.cancelled or e.fired)), key=lambda e: e.key
        )

    def pending_count(self) -> int:
        return len(self._live())

    def peek_time(self) -> float | None:
        live = self._live()
        return live[0].key[0] if live else None

    def run(self, until: float | None = None) -> float:
        while True:
            live = self._live()
            if not live or (until is not None and live[0].key[0] > until):
                if until is not None and until > self.now:
                    self.now = until
                return self.now
            entry = live[0]
            entry.fired = True
            self.now = entry.key[0]
            self.events_fired += 1
            entry.fn(*entry.args)
            for ob in self._observers:
                ob(self.now)


def _both() -> list[Any]:
    return [Simulator(), _Oracle()]


def _execute(sim: Any, program, mid_until: float) -> dict:
    """Run one generated program on one kernel and collect every
    observable the determinism contract covers."""
    log: list[tuple[float, str]] = []

    def fire(tag: str, children, child_delay, child_prio, cancel_child, rearm) -> None:
        log.append((sim.now, tag))
        handles = [
            sim.schedule(
                child_delay, fire, f"{tag}.{i}", 0, 0.0, 0, False, False,
                priority=child_prio,
            )
            for i in range(children)
        ]
        if cancel_child and handles:
            handles[0].cancel()
            log.append((sim.now, f"{tag}:cancelled-child"))
        if rearm:
            # schedule-then-cancel from inside a callback: the classic
            # retransmit-timer shape
            sim.schedule(
                child_delay + 1.0, fire, f"{tag}:ghost", 0, 0.0, 0, False, False
            ).cancel()

    pre_cancel = []
    for i, (delay, prio, children, child_delay, child_prio, cancel_child, rearm) in enumerate(
        program
    ):
        h = sim.schedule(
            delay, fire, f"op{i}", children, child_delay, child_prio, cancel_child, rearm,
            priority=prio,
        )
        if i % 7 == 3:
            pre_cancel.append(h)
    for h in pre_cancel:
        h.cancel()

    # first a bounded run (forces the pushback/resume path), then drain
    mid = sim.run(until=mid_until)
    mid_pending = sim.pending_count()
    mid_peek = sim.peek_time()
    end = sim.run()
    return {
        "log": log,
        "mid": mid,
        "mid_pending": mid_pending,
        "mid_peek": mid_peek,
        "end": end,
        "fired": sim.events_fired,
        "final_pending": sim.pending_count(),
    }


@settings(max_examples=100, deadline=None)
@given(st.lists(ops, min_size=1, max_size=25), bounds)
def test_queues_observationally_identical(program, mid_until):
    kernel, oracle = (_execute(sim, program, mid_until) for sim in _both())
    assert kernel == oracle


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(delays, priorities), min_size=1, max_size=40),
    st.sets(st.integers(min_value=0, max_value=39)),
)
def test_cancellation_sets_agree_across_queues(entries, cancel_idx):
    """Static schedules with arbitrary cancellation subsets fire the
    surviving set in sorted order."""
    outcomes = []
    for sim in _both():
        fired: list[int] = []
        handles = [
            sim.schedule(d, lambda i=i: fired.append(i), priority=p)
            for i, (d, p) in enumerate(entries)
        ]
        for i in cancel_idx:
            if i < len(handles):
                handles[i].cancel()
        sim.run()
        outcomes.append((fired, sim.now, sim.events_fired))
    assert outcomes[0] == outcomes[1]


@settings(max_examples=40, deadline=None)
@given(
    st.lists(delays, min_size=1, max_size=30),
    st.lists(bounds, min_size=1, max_size=4),
)
def test_segmented_runs_agree_across_queues(all_delays, horizons):
    """run(until=...) segments in any order, then a final drain: the clock
    trajectory and fire log match the oracle (and the clock advances to
    each horizon even when the queue drains early — the drained-branch
    regression)."""
    outcomes = []
    for sim in _both():
        fired: list[tuple[float, float]] = []
        for d in all_delays:
            sim.schedule(d, lambda d=d: fired.append((sim.now, d)))
        clocks = [sim.run(until=h) for h in sorted(horizons)]
        clocks.append(sim.run())
        outcomes.append((fired, clocks, sim.events_fired))
        # monotone clock trajectory, each bounded run lands >= its horizon
        for h, c in zip(sorted(horizons), clocks):
            assert c >= h
        assert clocks == sorted(clocks)
    assert outcomes[0] == outcomes[1]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(delays, priorities), min_size=1, max_size=30))
def test_pending_count_and_peek_agree_during_run(entries):
    """Mid-run observables sampled from an observer — pending_count and
    peek_time after every event — match the oracle."""
    samples = []
    for sim in _both():
        seen: list[tuple[float, int, float | None]] = []
        sim.add_observer(
            lambda now: seen.append((now, sim.pending_count(), sim.peek_time()))
        )
        for d, p in entries:
            sim.schedule(d, lambda: None, priority=p)
        sim.run()
        samples.append(seen)
    assert samples[0] == samples[1]
