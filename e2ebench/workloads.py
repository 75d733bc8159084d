"""The benchmark's four workloads.

Each workload is one *pass*: a fixed piece of work that is a pure function
of the seed. The runner repeats passes for the run's duration; every pass
of one seed must produce the same virtual-time digest.

A workload function takes the seed's :class:`Inputs` and fills an
:class:`Outcome` with the messages it expects (or leaves None when the
program generates its own messages) before it runs the program, so a run
that raises still leaves every message accounted for. Building, running
and reading the cluster go through the program's public API.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from repro.apps.traffic import FixedSize, OpenLoop, PoissonArrivals
from repro.config import EngineKind
from repro.harness import experiments
from repro.harness.executors import ExecutionConfig
from repro.harness.runner import ClusterRuntime
from repro.units import KiB

from .checks import Expect, compare_experiments, paper_error_pct, parse_experiments

__all__ = ["Inputs", "Outcome", "Workload", "WORKLOADS"]

ROOT = Path(__file__).resolve().parent.parent

#: bytes of seeded random data every payload is a slice of
_POOL_BYTES = 1 << 20


class Inputs:
    """Everything a workload draws from the seed.

    Payloads are ``memoryview`` slices of one seeded random buffer, at
    seeded offsets, so a pass carries real, checkable data without
    allocating every message's bytes.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._pool = np.random.default_rng([seed, 0]).bytes(_POOL_BYTES)

    def rng(self, stream: str) -> np.random.Generator:
        """Independent generator per named stream of this seed."""
        return np.random.default_rng([self.seed, *stream.encode()])

    def payloads(self, stream: str, count: int, size: int) -> list[memoryview]:
        offsets = self.rng(stream).integers(0, _POOL_BYTES - size, count)
        view = memoryview(self._pool)
        return [view[o : o + size] for o in offsets.tolist()]


@dataclass
class Outcome:
    """What a pass expected, beyond what the ledgers record."""

    #: (src, dst, tag) -> Expect, or None for programs that generate
    #: their own messages (then sends and receives must pair up)
    expected: Optional[dict[tuple, Expect]] = None
    problems: list[str] = field(default_factory=list)
    #: workload-specific figures for the result record
    extras: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    run: Callable[[Inputs, Outcome], None]
    why: str
    supersedes: str


# ------------------------------------------------------------- eager_storm


def eager_storm(
    inputs: Inputs,
    out: Outcome,
    *,
    rounds: int = 64,
    burst: int = 32,
    size: int = KiB(1),
    faults: Any = None,
    recover: bool = True,
) -> None:
    """Closed loop on the paper testbed: the sender isends a burst of
    ``burst`` messages and waits for all of them; the receiver pre-posts
    each burst."""
    data = inputs.payloads("eager_storm", rounds * burst, size)
    out.expected = {(0, 1, t): Expect(size, data[t]) for t in range(rounds * burst)}
    rt = ClusterRuntime.build(engine=EngineKind.PIOMAN, faults=faults, recover=recover)

    def sender(ctx: Any) -> Any:
        nm = ctx.env["nm"]
        for r in range(rounds):
            reqs = []
            for t in range(r * burst, (r + 1) * burst):
                req = yield from nm.isend(ctx, 1, t, payload=data[t])
                reqs.append(req)
            yield from nm.wait_all(ctx, reqs)

    def receiver(ctx: Any) -> Any:
        nm = ctx.env["nm"]
        for r in range(rounds):
            reqs = []
            for t in range(r * burst, (r + 1) * burst):
                req = yield from nm.irecv(ctx, 0, t, size)
                reqs.append(req)
            yield from nm.wait_all(ctx, reqs)

    rt.spawn(0, sender, name="storm.tx")
    rt.spawn(1, receiver, name="storm.rx")
    try:
        rt.run()
    finally:
        rt.close()


# ------------------------------------------------------------- paper_figs


_EXPERIMENTS = ("fig5", "fig6", "table1")


def paper_figs(inputs: Inputs, out: Outcome) -> None:
    """Fig. 5, Fig. 6 and Table 1 as ``repro all`` runs them, on a serial
    executor. The seed only permutes the order of the three grids, which
    must not change any result."""
    doc = parse_experiments((ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8"))
    order = [_EXPERIMENTS[i] for i in inputs.rng("paper_figs").permutation(3)]
    serial = ExecutionConfig.serial()
    results = {name: getattr(experiments, f"experiment_{name}")(execution=serial) for name in order}
    out.problems.extend(compare_experiments(results, doc))
    out.extras["order"] = order
    out.extras["paper_err_pct"] = paper_error_pct(results["table1"], doc)


# ------------------------------------------------------------- ring_256


def ring(
    inputs: Inputs, out: Outcome, *, nodes: int = 256, rounds: int = 2, size: int = KiB(1)
) -> None:
    """Every node exchanges ``size`` bytes with both ring neighbours per
    round: tag ``2r`` travels right, ``2r + 1`` travels left."""
    data = inputs.payloads("ring", nodes * rounds * 2, size)

    def key(n: int, r: int, right: bool) -> tuple[int, int, int]:
        return (n, (n + 1) % nodes if right else (n - 1) % nodes, 2 * r + (0 if right else 1))

    def payload(n: int, r: int, right: bool) -> memoryview:
        return data[(n * rounds + r) * 2 + (0 if right else 1)]

    out.expected = {
        key(n, r, right): Expect(size, payload(n, r, right))
        for n in range(nodes)
        for r in range(rounds)
        for right in (True, False)
    }
    rt = ClusterRuntime.build(engine=EngineKind.PIOMAN, nodes=nodes)

    def body(ctx: Any) -> Any:
        nm, n = ctx.env["nm"], ctx.env["node"]
        left, right = (n - 1) % nodes, (n + 1) % nodes
        for r in range(rounds):
            reqs = [
                (yield from nm.irecv(ctx, left, 2 * r, size)),
                (yield from nm.irecv(ctx, right, 2 * r + 1, size)),
                (yield from nm.isend(ctx, right, 2 * r, payload=payload(n, r, True))),
                (yield from nm.isend(ctx, left, 2 * r + 1, payload=payload(n, r, False))),
            ]
            yield from nm.wait_all(ctx, reqs)

    for n in range(nodes):
        rt.spawn(n, body, name=f"ring{n}")
    try:
        rt.run()
    finally:
        rt.close()


# ------------------------------------------------------------- fabric_shared

#: FatTree(4) places hosts pod-major, four per pod. Job A sends from pod 0
#: and job B from pod 1, both into pods 2 and 3, so the two jobs share the
#: core and downlink hops.
FABRIC_JOBS = {
    "A": ((0, 8), (1, 9), (2, 12), (3, 13)),
    "B": ((4, 10), (5, 11), (6, 14), (7, 15)),
}

#: second-half over first-half latency, per percentile, above which the
#: open loop is building a backlog. At the 40 us gap, 160 seeds gave p50
#: ratios of at most 1.18 and p99 ratios of at most 1.66 (p99 of 1200
#: samples moves with single bursts); at a saturating 20 us gap the p50
#: ratio is 2.2 to 2.6
_BACKLOG_RATIOS = {50: 1.5, 99: 2.0}


def fabric_shared(
    inputs: Inputs,
    out: Outcome,
    *,
    messages: int = 300,
    mean_gap_us: float = 40.0,
    size: int = KiB(16),
) -> None:
    """Open-loop Poisson flows of two jobs on one contended fat-tree.

    Each message is timed from its due time ``at_us``, so a sender that
    falls behind its schedule shows up as latency; how late the sender
    actually injected is reported as generator lateness.
    """
    out.expected = {}
    rt = ClusterRuntime.build(
        engine=EngineKind.PIOMAN,
        nodes=16,
        sockets=1,
        cores_per_socket=2,
        topology="fattree:4",
        ingress_contention=True,
    )
    workload = OpenLoop(PoissonArrivals(mean_gap_us), FixedSize(size), messages)
    lateness: list[float] = []
    for job, flows in FABRIC_JOBS.items():
        for src, dst in flows:
            stream = f"fabric.{job}.{src}->{dst}"
            schedule = workload.schedule(inputs.rng(stream))
            data = inputs.payloads(stream, messages, size)
            for msg in schedule:
                out.expected[(src, dst, msg.seq)] = Expect(msg.size, data[msg.seq], msg.at_us)
            rt.spawn(src, _open_loop_sender(dst, schedule, data, lateness), name=f"{job}.tx{src}")
            rt.spawn(dst, _receiver(src, schedule), name=f"{job}.rx{dst}")
    try:
        rt.run()
    finally:
        rt.close()
    out.extras["gen_late_us"] = {
        "mean": float(np.mean(lateness)),
        "p99": float(np.percentile(lateness, 99)),
        "max": max(lateness),
        "samples": len(lateness),
    }


def backlog_problems(expected: dict[tuple, Expect], latencies: dict[tuple, float]) -> list[str]:
    """Open loops only: compare the p50 and p99 latency of the first half
    of the messages (by due time) with the second half."""
    keys = sorted(latencies, key=lambda k: expected[k].due_us)
    if len(keys) < 200:
        return []
    half = len(keys) // 2
    first = [latencies[k] for k in keys[:half]]
    second = [latencies[k] for k in keys[half:]]
    problems = []
    for q, ratio in _BACKLOG_RATIOS.items():
        p1, p2 = float(np.percentile(first, q)), float(np.percentile(second, q))
        if p2 > ratio * p1:
            problems.append(
                f"growing backlog: p{q} {p1:.1f}us in the first half, {p2:.1f}us in the second"
            )
    return problems


def _open_loop_sender(dst: int, schedule: list, data: list, lateness: list[float]) -> Any:
    def body(ctx: Any) -> Any:
        nm = ctx.env["nm"]
        pending = []
        for msg in schedule:
            if msg.at_us > ctx.now:
                yield ctx.sleep(msg.at_us - ctx.now)
            lateness.append(ctx.now - msg.at_us)
            req = yield from nm.isend(ctx, dst, msg.seq, payload=data[msg.seq])
            pending.append(req)
        yield from nm.wait_all(ctx, pending)

    return body


def _receiver(src: int, schedule: list) -> Any:
    def body(ctx: Any) -> Any:
        nm = ctx.env["nm"]
        for msg in schedule:
            yield from nm.recv(ctx, src, msg.seq, msg.size)

    return body


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "eager_storm",
            eager_storm,
            why="per-message software cost of nmad, pioman and marcel on the "
            "paper testbed; network and build cost almost nothing",
            supersedes="BENCH_msgpath.json eager_storm and BENCH_kernel.json "
            "(kernel events/s measured inside a whole message path)",
        ),
        Workload(
            "paper_figs",
            paper_figs,
            why="the reproduction itself: few messages, rendezvous up to 512 KiB, "
            "compute-heavy threads, timer-heavy sim, many small builds",
            supersedes="the Fig. 5/6 and Table 1 tables of benchmarks/ (no BENCH "
            "file); BENCH_pdes.json stays, the partitioned kernel is not measured",
        ),
        Workload(
            "ring_256",
            ring,
            why="build dominates: gates and strategies grow as N^2 at 256 nodes, "
            "idle scans grow with cores; the 2-node workloads predict no change",
            supersedes="the ring rows of ROADMAP.md's scale table (no BENCH file)",
        ),
        Workload(
            "fabric_shared",
            fabric_shared,
            why="only workload where interconnect routing and per-link cursors "
            "do real work: two jobs' open-loop flows share a fat-tree",
            supersedes="BENCH_topo.json fat-tree interference; BENCH_nbc.json stays, "
            "collectives are not measured",
        ),
    )
}
