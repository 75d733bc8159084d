"""Gates open on first use, from every path that needs one.

A session starts with no gate. Posting a send, answering a rendezvous
RTS with a CTS, or retransmitting over a degraded rail opens the gate to
that peer on demand; an ``ANY_SOURCE`` receive needs none. These tests
drive each path on a 3-node cluster, on both engines, and check both the
delivered data and exactly which gates exist afterwards.
"""

from __future__ import annotations

import pytest

from repro.config import EngineKind
from repro.faults import FaultPlan
from repro.harness.runner import ClusterRuntime
from repro.nmad.tags import ANY
from repro.units import KiB


def _gates(rt: ClusterRuntime) -> list[list[int]]:
    return [sorted(nrt.session.gates) for nrt in rt.nodes]


def test_any_source_receive_from_unaddressed_peer(engine_kind):
    """n0 receives from ANY_SOURCE without a gate, then replies to the
    sender it learned from the message: that reply opens n0's gate."""
    rt = ClusterRuntime.build(engine=engine_kind, nodes=3)
    got: dict[str, object] = {}

    def server(ctx):
        nm = ctx.env["nm"]
        req = yield from nm.recv(ctx, ANY, 7, KiB(1))
        got["request"] = req.data
        got["gates_at_recv"] = sorted(rt.node(0).session.gates)
        yield from nm.send(ctx, req.source, 8, payload=b"pong")

    def client(ctx):
        nm = ctx.env["nm"]
        yield from nm.send(ctx, 0, 7, payload=b"ping" * 256)
        req = yield from nm.recv(ctx, 0, 8, 4)
        got["reply"] = req.data

    rt.spawn(0, server)
    rt.spawn(2, client)
    rt.run()
    assert got["request"] == b"ping" * 256
    assert got["reply"] == b"pong"
    assert got["gates_at_recv"] == []
    assert _gates(rt) == [[2], [], [0]]
    rt.close()


@pytest.mark.parametrize("late_recv", [False, True], ids=["posted", "unexpected"])
def test_rendezvous_cts_opens_gate_back(engine_kind, late_recv):
    """n2 never addresses n1: the CTS answering n1's RTS opens the gate,
    whether the receive was posted first or matched a buffered RTS."""
    size = KiB(64)
    rt = ClusterRuntime.build(engine=engine_kind, nodes=3)
    payload = bytes(range(256)) * (size // 256)
    out: dict[str, object] = {}

    def sender(ctx):
        nm = ctx.env["nm"]
        out["send"] = yield from nm.send(ctx, 2, 3, payload=payload)

    def receiver(ctx):
        nm = ctx.env["nm"]
        if late_recv:
            yield ctx.compute(50.0)
        req = yield from nm.recv(ctx, 1, 3, size)
        out["data"] = req.data

    rt.spawn(1, sender)
    rt.spawn(2, receiver)
    rt.run()
    assert out["send"].protocol == "rdv"
    assert out["data"] == payload
    assert _gates(rt) == [[], [2], [1]]
    if engine_kind == EngineKind.PIOMAN:
        # idle cores handle the RTS before the late receive is posted; the
        # sequential engine only sees it at its next library call
        assert rt.node(2).session.stats["unexpected_rts"] == (1 if late_recv else 0)
    rt.close()


def test_aggregation_window_on_lazily_opened_gate(engine_kind):
    """The aggreg strategy with a flush window is built per gate on first
    use, keeps its kwargs, and still coalesces a burst."""
    count = 8
    rt = ClusterRuntime.build(
        engine=engine_kind,
        nodes=3,
        strategy="aggreg",
        strategy_kwargs={"flush_window_us": 5.0},
    )
    got: list[object] = []

    def sender(ctx):
        nm = ctx.env["nm"]
        reqs = []
        for i in range(count):
            reqs.append((yield from nm.isend(ctx, 2, i, payload=bytes([i]) * 64)))
        yield from nm.wait_all(ctx, reqs)

    def receiver(ctx):
        nm = ctx.env["nm"]
        for i in range(count):
            req = yield from nm.recv(ctx, 0, i, 64)
            got.append(req.data)

    rt.spawn(0, sender)
    rt.spawn(2, receiver)
    rt.run()
    assert got == [bytes([i]) * 64 for i in range(count)]
    assert _gates(rt) == [[2], [], []]
    strategy = rt.node(0).session.gate_to(2).strategy
    assert strategy.name == "aggreg"
    assert strategy.flush_window_us == 5.0  # type: ignore[attr-defined]
    metrics = rt.metrics()
    assert metrics["n0.aggreg.windows_opened"] > 0
    if engine_kind == EngineKind.PIOMAN:
        # the sequential engine closes each window at the next isend
        assert metrics["n0.aggreg.aggregated_requests"] == count
    rt.close()


@pytest.mark.faults
def test_drop_recovery_on_new_gates(engine_kind):
    """With a lossy wire and recovery on, rail filtering (post_send) and
    rail selection (CTS, retransmit) run on gates that open mid-run."""
    rt = ClusterRuntime.build(
        engine=engine_kind,
        nodes=3,
        rails=2,
        faults=FaultPlan.uniform_drop(0.2, seed=4),
        recover=True,
    )
    small, big = b"e" * KiB(2), b"r" * KiB(64)
    got: dict[int, list[object]] = {0: [], 1: [], 2: []}

    def root(ctx):
        nm = ctx.env["nm"]
        reqs = [
            (yield from nm.isend(ctx, 1, 1, payload=small)),
            (yield from nm.isend(ctx, 2, 1, payload=big)),
        ]
        yield from nm.wait_all(ctx, reqs)
        for _ in range(2):
            req = yield from nm.recv(ctx, ANY, 2, KiB(2))
            got[0].append((req.source, req.data))
        yield from nm.drain(ctx)

    def leaf(ctx):
        nm, n = ctx.env["nm"], ctx.env["node"]
        req = yield from nm.recv(ctx, ANY, 1, KiB(64))
        got[n].append(req.data)
        yield from nm.send(ctx, req.source, 2, payload=bytes([n]) * KiB(2))
        yield from nm.drain(ctx)

    rt.spawn(0, root)
    rt.spawn(1, leaf)
    rt.spawn(2, leaf)
    rt.run()
    assert got[1] == [small] and got[2] == [big]
    assert sorted(got[0]) == [(1, b"\x01" * KiB(2)), (2, b"\x02" * KiB(2))]
    assert rt.fault_injector.stats()["drops"] > 0
    assert rt.recovery_stats()["retransmits"] > 0
    for nrt in rt.nodes:
        assert all(len(g.rails) == 2 for g in nrt.session.gates.values())
    rt.close()
