"""End-to-end benchmark of the simulator: host time to produce its results.

Usage, from the root of a checkout::

    python3 e2ebench/run.py --workload eager_storm --seed 1 --seconds 10 --trace 0

One run measures one workload in this process on one thread. After one
warm-up pass it repeats the workload's pass until ``--seconds`` have
passed (at least three measured passes) and reports medians over passes.
Every pass is checked: each message delivered exactly once with its size
and payload, every request complete, the paper figures equal to
EXPERIMENTS.md, and the virtual-time digest equal across passes.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and reports the per-layer split of host time,
the per-layer counts of one pass and the tracing overhead; it also checks
that traced passes produce the untraced digest, and writes the spans of
the first traced pass to ``e2ebench/out/`` as a Chrome/Perfetto trace.

Names ending in ``_s`` are host seconds, names ending in ``_us`` are
simulated microseconds. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is the full result record. The exit code
is 0 when every check passed, 1 when one failed and 2 when the program
cannot be imported from this checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent

#: measured passes per run, at least
MIN_PASSES = 3
#: spans of the first traced pass kept for the trace file
KEEP_SPANS = 100_000

END_TO_END_UNITS = {
    "events_per_s": "1/s",
    "msgs_per_s": "1/s",
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "harness.build_s": "s",
    "harness.self_s": "s",
    "harness.gates": "count",
    "sim.self_s": "s",
    "sim.events": "count",
    "sim.cancelled_ratio": "ratio",
    "marcel.self_s": "s",
    "marcel.idle_scans": "count",
    "marcel.switches": "count",
    "marcel.core_busy_frac": "ratio",
    "nmad.self_s": "s",
    "nmad.progress_calls": "count",
    "nmad.progress_useful_ratio": "ratio",
    "nmad.packets_per_msg": "ratio",
    "pioman.self_s": "s",
    "pioman.offloaded_ops": "count",
    "pioman.useful_ratio": "ratio",
    "network.self_s": "s",
    "network.frames": "count",
    "network.bytes": "B",
    "network.link_queued_us": "sim_us",
    "obs.self_s": "s",
    "apps.self_s": "s",
    "unattributed.self_s": "s",
    "trace_overhead_pct": "%",
}

#: per-layer counts that must repeat exactly from pass to pass
EXACT_COUNTS = (
    "harness.gates",
    "sim.events",
    "network.frames",
    "marcel.idle_scans",
    "pioman.offloaded_ops",
)


@dataclass
class PassResult:
    wall_s: float
    build_s: float
    run_s: float
    events: int
    msgs: int
    digest: str
    attempted: int
    failed: int
    problems: list[str]
    latencies_us: list[float]
    extras: dict[str, Any]
    #: per-layer counts read from the runtimes (and the tracer, if any)
    counts: dict[str, float] = field(default_factory=dict)
    #: per-layer self seconds (traced passes only)
    self_s: dict[str, float] = field(default_factory=dict)


def _runtime_counts(builds: list) -> dict[str, float]:
    """Per-layer counters of every runtime a pass built."""
    from repro.pioman.engine import PiomanEngine

    c = dict.fromkeys(
        ("gates", "events", "switches", "busy_us", "core_us", "offloaded", "activations",
         "frames", "bytes", "queued_us", "submits", "sends"),
        0,
    )
    for rt, _ledger in builds:
        end = rt.sim.now
        c["events"] += rt.sim.events_fired
        for nrt in rt.nodes:
            c["gates"] += len(nrt.session.gates)
            c["sends"] += nrt.session.stats["sends"]
            st = nrt.scheduler.stats()
            c["switches"] += st["switches"]
            c["busy_us"] += st["busy_us"] + st["service_us"]
            c["core_us"] += len(nrt.scheduler.cores) * end
            if isinstance(nrt.engine, PiomanEngine):
                e = nrt.engine
                c["offloaded"] += e.offloaded_ops
                c["activations"] += e.idle_activations + e.tick_activations + e.switch_activations
            for drv in nrt.drivers:
                d = drv.stats()
                c["submits"] += sum(
                    d[k] for k in ("pio_sends", "eager_sends", "zero_copy_sends",
                                   "inline_sends", "rdma_writes", "control_sends")
                )
        for fabric in rt.fabrics:
            c["frames"] += fabric.packets_carried
            c["bytes"] += fabric.bytes_carried
            c["queued_us"] += fabric.model.queued_us()
    return {
        "harness.gates": c["gates"],
        "sim.events": c["events"],
        "marcel.switches": c["switches"],
        "marcel.core_busy_frac": c["busy_us"] / c["core_us"] if c["core_us"] else 0.0,
        "nmad.packets_per_msg": c["submits"] / c["sends"] if c["sends"] else 0.0,
        "pioman.offloaded_ops": c["offloaded"],
        "pioman.useful_ratio": c["offloaded"] / c["activations"] if c["activations"] else 0.0,
        "network.frames": c["frames"],
        "network.bytes": c["bytes"],
        "network.link_queued_us": c["queued_us"],
    }


def run_pass(workload: Any, inputs: Any, tracer: Any = None) -> PassResult:
    """One pass of ``workload``, checked and digested."""
    from e2ebench import checks
    from e2ebench.instrument import Probe
    from e2ebench.workloads import Outcome, backlog_problems

    gc.collect()
    out = Outcome()
    error = None
    probe = Probe()
    t0 = time.perf_counter()
    with probe:
        if tracer is not None:
            tracer.install()
            tracer.rec.enter("unattributed", f"pass:{workload.name}")
        try:
            workload.run(inputs, out)
        except Exception as exc:  # the pass fails; its messages are still checked
            traceback.print_exc()
            error = f"{type(exc).__name__}: {exc}"
        finally:
            if tracer is not None:
                tracer.rec.exit()
                tracer.restore()
    wall = time.perf_counter() - t0

    problems = list(out.problems) + ([error] if error else [])
    digests, records_all = [], []
    msgs = 0
    for rt, ledger in probe.builds:
        records = ledger.records
        records_all.extend(records)
        digests.append(checks.build_digest(rt.sim.now, rt.sim.events_fired, records))
        problems.extend(checks.check_complete(rt, records))
        msgs += sum(1 for r in records if r[0] == "r")
    if out.expected is not None:
        mc = checks.check_expected(records_all, out.expected)
    else:
        mc = checks.check_paired(ledger.records for _rt, ledger in probe.builds)
    problems.extend(mc.problems)
    if out.expected and all(e.due_us is not None for e in out.expected.values()):
        problems.extend(backlog_problems(out.expected, mc.latencies_us))
    counts = _runtime_counts(probe.builds)
    result = PassResult(
        wall_s=wall,
        build_s=probe.build_s,
        run_s=probe.run_s,
        events=int(counts["sim.events"]),
        msgs=msgs,
        digest=checks.combine_digests(digests),
        attempted=mc.attempted,
        failed=mc.failed,
        problems=problems,
        latencies_us=list(mc.latencies_us.values()),
        extras=out.extras,
        counts=counts,
    )
    if tracer is not None:
        tc = tracer.counts
        result.counts.update({
            "marcel.idle_scans": tc["marcel.idle_scans"],
            "nmad.progress_calls": tc["nmad.progress_calls"],
            "nmad.progress_useful_ratio": (
                tc["nmad.progress_useful"] / tc["nmad.progress_calls"]
                if tc["nmad.progress_calls"] else 0.0
            ),
            "sim.cancelled_ratio": (
                tc["sim.cancelled"] / tc["sim.scheduled"] if tc["sim.scheduled"] else 0.0
            ),
        })
        result.self_s = dict(tracer.rec.self_s)
    return result


def _percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def _git_sha() -> str:
    """HEAD of the checkout's git repository, read from its files, if any."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(workload: Any, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """Run the passes of one benchmark run; return the result record."""
    from e2ebench.instrument import Tracer, write_chrome_trace
    from e2ebench.workloads import Inputs

    inputs = Inputs(seed)
    warm = run_pass(workload, inputs)
    plain: list[PassResult] = []
    traced: list[PassResult] = []
    first_tracer = None
    deadline = time.perf_counter() + seconds
    while len(plain) < MIN_PASSES or time.perf_counter() < deadline or (trace and len(traced) < MIN_PASSES):
        if trace and len(traced) < len(plain):
            tracer = Tracer(keep_spans=KEEP_SPANS if first_tracer is None else 0)
            first_tracer = first_tracer or tracer
            traced.append(run_pass(workload, inputs, tracer))
        else:
            plain.append(run_pass(workload, inputs))

    passes = [warm, *plain, *traced]
    problems = list(dict.fromkeys(p for r in passes for p in r.problems))
    digests = {r.digest for r in passes}
    if len(digests) != 1:
        problems.append(f"virtual-time digest differs between passes: {sorted(digests)}")
    lat = warm.latencies_us
    record: dict[str, Any] = {
        "workload": workload.name,
        "why": workload.why,
        "supersedes": workload.supersedes,
        "seed": seed,
        "trace": int(trace),
        "digest": warm.digest,
        "host": platform.node(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "passes": len(plain),
        "traced_passes": len(traced),
        "attempted": sum(r.attempted for r in passes),
        "failed": sum(r.failed for r in passes),
        "sim_p50_us": {"value": _percentile(lat, 50), "samples": len(lat)},
        "sim_p99_us": {"value": _percentile(lat, 99), "samples": len(lat)},
        "extras": warm.extras,
    }
    record["fail_ratio"] = record["failed"] / record["attempted"] if record["attempted"] else 0.0

    med = statistics.median
    metrics: dict[str, float]
    if not trace:
        metrics = {
            "events_per_s": med(r.events / r.run_s for r in plain),
            "msgs_per_s": med(r.msgs / r.run_s for r in plain),
            "setup_s": med(r.build_s for r in plain),
            "wall_s": med(r.wall_s for r in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    else:
        for name in EXACT_COUNTS:
            seen = {r.counts[name] for r in passes if name in r.counts}
            if len(seen) != 1:
                problems.append(f"{name} differs between passes: {sorted(seen)}")
        metrics = {name: traced[0].counts[name] for name in PER_LAYER_UNITS if name in traced[0].counts}
        # build time as the untraced passes pay it, the figure setup_s sums
        metrics["harness.build_s"] = med(r.build_s for r in plain)
        for layer in traced[0].self_s:
            metrics[f"{layer}.self_s"] = med(r.self_s[layer] for r in traced)
        metrics["trace_overhead_pct"] = (
            med(r.wall_s for r in traced) / med(r.wall_s for r in plain) - 1.0
        ) * 100.0
        units = PER_LAYER_UNITS
        rec = first_tracer.rec
        out_dir = ROOT / "e2ebench" / "out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"{workload.name}-seed{seed}.trace.json"
        write_chrome_trace(str(trace_path), rec.spans)
        record["trace_file"] = str(trace_path.relative_to(ROOT))
        record["trace_spans_dropped"] = rec.dropped
    record["metrics"] = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    record["problems"] = problems
    record["correct"] = not problems and record["failed"] == 0
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from e2ebench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    record = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))

    name = record["workload"]
    for metric, m in record["metrics"].items():
        print(f"{name:>14}  {metric:<28} {m['value']:>16.6g} {m['unit']}")
    for metric in ("sim_p50_us", "sim_p99_us"):
        m = record[metric]
        print(f"{name:>14}  {metric:<28} {m['value']:>16.6g} sim_us  (n={m['samples']})")
    print(f"{name:>14}  {'fail_ratio':<28} {record['fail_ratio']:>16.6g} ratio")
    if "paper_err_pct" in record["extras"]:
        print(f"{name:>14}  {'paper_err_pct':<28} {record['extras']['paper_err_pct']:>16.6g} %")
    if "gen_late_us" in record["extras"]:
        late = record["extras"]["gen_late_us"]
        print(f"{name:>14}  {'gen_late_us':<28} {late['p99']:>16.6g} sim_us  (p99; max {late['max']:.6g})")
    print(f"{name:>14}  {'digest':<28} {record['digest']:>32}")
    for problem in record["problems"][:20]:
        print(f"FAILED: {problem}")
    print(json.dumps({"record": record}, default=str))
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
