"""Cluster state scales with the peers a program talks to, not with N².

A 1,024-node ring where every node exchanges with its two neighbours
must end with exactly two gates per node, and deliver every message
exactly once. Counts, not timings: the test guards against eager
all-pairs wiring coming back, whatever the host speed.
"""

from __future__ import annotations

from collections import Counter

from repro.config import EngineKind
from repro.harness.runner import ClusterRuntime
from repro.units import KiB

NODES = 1024
ROUNDS = 2
SIZE = KiB(1)


def test_ring_1024_opens_two_gates_per_node():
    rt = ClusterRuntime.build(engine=EngineKind.PIOMAN, nodes=NODES)
    assert sum(len(nrt.session.gates) for nrt in rt.nodes) == 0
    received: Counter = Counter()
    sends_done = 0

    def body(ctx):
        nonlocal sends_done
        nm, n = ctx.env["nm"], ctx.env["node"]
        left, right = (n - 1) % NODES, (n + 1) % NODES
        for r in range(ROUNDS):
            reqs = [
                (yield from nm.irecv(ctx, left, 2 * r, SIZE)),
                (yield from nm.irecv(ctx, right, 2 * r + 1, SIZE)),
                (yield from nm.isend(ctx, right, 2 * r, SIZE, payload=(n, right, 2 * r))),
                (yield from nm.isend(ctx, left, 2 * r + 1, SIZE, payload=(n, left, 2 * r + 1))),
            ]
            yield from nm.wait_all(ctx, reqs)
            for req in reqs[:2]:
                assert req.data == (req.source, n, req.tag)
                assert req.received_size == SIZE
                received[req.data] += 1
            sends_done += 2

    for n in range(NODES):
        rt.spawn(n, body, name=f"ring{n}")
    rt.run()
    rt.close()

    expected = {
        (n, (n + d) % NODES, 2 * r + (0 if d == 1 else 1))
        for n in range(NODES)
        for r in range(ROUNDS)
        for d in (1, -1)
    }
    assert set(received) == expected
    assert set(received.values()) == {1}
    assert sends_done == len(expected)
    for nrt in rt.nodes:
        n = nrt.index
        assert sorted(nrt.session.gates) == sorted({(n - 1) % NODES, (n + 1) % NODES})
    assert sum(len(nrt.session.gates) for nrt in rt.nodes) == 2 * NODES
