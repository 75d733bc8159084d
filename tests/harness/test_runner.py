"""Tests for cluster assembly and program execution."""

from __future__ import annotations

import pytest

from repro.config import EngineKind
from repro.errors import ConfigError, HarnessError, ProtocolError
from repro.harness.runner import ClusterRuntime
from repro.nmad.progress import SequentialEngine
from repro.pioman.engine import PiomanEngine


class TestBuild:
    def test_default_is_paper_testbed(self):
        rt = ClusterRuntime.build()
        assert len(rt.nodes) == 2
        assert len(rt.node(0).scheduler.cores) == 8
        assert rt.cluster.interconnect == "mx"

    def test_engine_selection(self):
        assert isinstance(ClusterRuntime.build(engine="pioman").node(0).engine, PiomanEngine)
        assert isinstance(
            ClusterRuntime.build(engine="sequential").node(0).engine, SequentialEngine
        )

    def test_invalid_engine_rejected(self):
        with pytest.raises(Exception):
            ClusterRuntime.build(engine="magic")

    def test_invalid_rails_rejected(self):
        with pytest.raises(HarnessError):
            ClusterRuntime.build(rails=0)

    def test_invalid_interconnect_rejected(self):
        with pytest.raises(HarnessError):
            ClusterRuntime.build(interconnect="carrier-pigeon")

    def test_no_gates_after_build(self):
        rt = ClusterRuntime.build(nodes=3)
        for nrt in rt.nodes:
            assert nrt.session.gates == {}

    def test_gates_open_on_first_use(self):
        rt = ClusterRuntime.build(nodes=3, rails=2)
        session = rt.node(1).session
        own = session.gate_to(1)
        assert [d.name for d in own.rails] == ["shm"]
        assert own.strategy.name == "default"
        peer = session.gate_to(2)
        assert peer.rails == rt.node(1).drivers[:2]
        assert [d.name for d in peer.rails] == ["mx", "mx"]
        assert sorted(session.gates) == [1, 2]
        assert session.gate_to(2) is peer  # opened once

    @pytest.mark.parametrize("peer", [3, 7, -1])
    def test_out_of_range_peer_has_no_gate(self, peer):
        rt = ClusterRuntime.build(nodes=3)
        with pytest.raises(ProtocolError, match="no gate"):
            rt.node(0).session.gate_to(peer)
        assert rt.node(0).session.gates == {}

    @pytest.mark.parametrize("nodes", [1, 2])
    def test_bad_strategy_rejected_at_build(self, nodes):
        with pytest.raises(ValueError, match="unknown strategy"):
            ClusterRuntime.build(nodes=nodes, strategy="quantum")
        with pytest.raises(ValueError, match="bad arguments"):
            ClusterRuntime.build(
                nodes=nodes, strategy="aggreg", strategy_kwargs={"split_threshold": 64}
            )
        with pytest.raises(ConfigError, match="flush_window_us"):
            ClusterRuntime.build(
                nodes=nodes, strategy="aggreg", strategy_kwargs={"flush_window_us": -1.0}
            )

    @pytest.mark.parametrize("rails", [1, 2])
    @pytest.mark.parametrize("nodes", [1, 2, 3, 5])
    def test_driver_order_matches_peer_ordered_wiring(self, nodes, rails):
        """Drivers are polled in attach order and each poll costs virtual
        CPU: the order must be the one wiring every gate in peer order
        gave (the self gate's shm driver lands at node i's i-th gate)."""
        rt = ClusterRuntime.build(nodes=nodes, rails=rails)
        for nrt in rt.nodes:
            *rail_drivers, shm = nrt.drivers
            expected: list = []
            for peer in range(nodes):
                for drv in [shm] if peer == nrt.index else rail_drivers:
                    if not any(drv is e for e in expected):
                        expected.append(drv)
            assert [id(d) for d in nrt.session.drivers] == [id(d) for d in expected]
            # opening every gate attaches nothing new
            for peer in range(nodes):
                nrt.session.gate_to(peer)
            assert [id(d) for d in nrt.session.drivers] == [id(d) for d in expected]

    def test_multirail_attaches_n_nics(self):
        rt = ClusterRuntime.build(rails=2)
        assert len(rt.node(0).nics) == 2
        gate = rt.node(0).session.gate_to(1)
        assert len(gate.rails) == 2

    def test_self_gate_uses_shm(self):
        rt = ClusterRuntime.build()
        gate = rt.node(0).session.gate_to(0)
        assert gate.rails[0].name == "shm"

    def test_node_lookup_bounds(self):
        rt = ClusterRuntime.build()
        with pytest.raises(HarnessError):
            rt.node(5)


class TestRun:
    def test_spawn_env_bindings(self):
        rt = ClusterRuntime.build()
        seen = {}

        def body(ctx):
            seen["nm"] = ctx.env["nm"]
            seen["node"] = ctx.env["node"]
            seen["runtime"] = ctx.env["runtime"]
            yield ctx.compute(1.0)

        rt.spawn(1, body)
        rt.run()
        assert seen["node"] == 1
        assert seen["nm"] is rt.interface(1)
        assert seen["runtime"] is rt

    def test_custom_env_merged(self):
        rt = ClusterRuntime.build()
        seen = {}

        def body(ctx):
            seen["extra"] = ctx.env["extra"]
            yield ctx.compute(1.0)

        rt.spawn(0, body, env={"extra": 99})
        rt.run()
        assert seen["extra"] == 99

    def test_total_stats_structure(self):
        rt = ClusterRuntime.build()

        def body(ctx):
            yield ctx.compute(5.0)

        rt.spawn(0, body)
        rt.run()
        stats = rt.total_stats()
        assert stats["engine"] == EngineKind.PIOMAN
        assert stats["time_us"] == pytest.approx(5.0)
        assert "n0.sched" in stats and "n1.session" in stats

    def test_tcp_interconnect_works_end_to_end(self):
        rt = ClusterRuntime.build(engine="pioman", interconnect="tcp")
        out = {}

        def sender(ctx):
            nm = ctx.env["nm"]
            req = yield from nm.isend(ctx, 1, 0, 4096, payload="over-tcp")
            yield from nm.swait(ctx, req)

        def receiver(ctx):
            nm = ctx.env["nm"]
            req = yield from nm.recv(ctx, 0, 0, 4096)
            out["data"] = req.data
            out["t"] = ctx.now

        rt.spawn(0, sender)
        rt.spawn(1, receiver)
        rt.run()
        assert out["data"] == "over-tcp"
        # gigabit-ethernet latency: much slower than MX
        assert out["t"] > 25.0

    def test_tcp_rendezvous_without_zero_copy(self):
        rt = ClusterRuntime.build(engine="pioman", interconnect="tcp")
        out = {}

        def sender(ctx):
            nm = ctx.env["nm"]
            req = yield from nm.isend(ctx, 1, 0, 128 * 1024, payload="big")
            out["req"] = req
            yield from nm.swait(ctx, req)

        def receiver(ctx):
            nm = ctx.env["nm"]
            req = yield from nm.recv(ctx, 0, 0, 128 * 1024)
            out["data"] = req.data

        rt.spawn(0, sender)
        rt.spawn(1, receiver)
        rt.run()
        assert out["data"] == "big"
        assert out["req"].protocol == "rdv"
