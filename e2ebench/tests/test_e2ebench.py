"""Tests of the benchmark's own machinery: span arithmetic, digests,
failure counting and tracing transparency.

Run from the root of a checkout::

    python3 -m pytest e2ebench/tests -q
"""

from __future__ import annotations

import functools
import json
import random
from pathlib import Path

import pytest

from e2ebench import checks, run
from e2ebench.instrument import SpanRecorder, Tracer, traced_generator
from e2ebench.workloads import (
    WORKLOADS,
    Inputs,
    Workload,
    backlog_problems,
    eager_storm,
    fabric_shared,
    ring,
)
from repro.faults import FaultAction, FaultPlan, FaultRule
from repro.harness import experiments
from repro.harness.executors import ExecutionConfig
from repro.harness.runner import ClusterRuntime
from repro.sim.kernel import Simulator

ROOT = Path(__file__).resolve().parents[2]


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def small(fn, name: str, **kwargs) -> Workload:
    return Workload(name, functools.partial(fn, **kwargs), why="test", supersedes="")


# ---------------------------------------------------------------- spans


def test_self_time_of_nested_spans() -> None:
    clock = FakeClock()
    rec = SpanRecorder(keep=10, clock=clock)
    rec.enter("harness", "a")
    clock.t = 1.0
    rec.enter("sim", "b")
    clock.t = 3.0
    rec.enter("nmad", "c")
    clock.t = 4.0
    rec.exit()
    clock.t = 6.0
    rec.exit()
    clock.t = 10.0
    rec.exit()
    assert rec.self_s["harness"] == 5.0
    assert rec.self_s["sim"] == 4.0
    assert rec.self_s["nmad"] == 1.0
    assert sum(rec.self_s.values()) == 10.0
    assert [(s[0], s[3], s[4]) for s in rec.spans] == [("c", 1.0, 2), ("b", 5.0, 1), ("a", 10.0, 0)]


def test_generator_spans_cover_each_resumption_only() -> None:
    clock = FakeClock()
    rec = SpanRecorder(keep=10, clock=clock)

    def inner():
        clock.t += 2.0
        x = yield "a"
        clock.t += 3.0
        return x * 2

    def outer():
        clock.t += 1.0
        r = yield from traced_generator(rec, "nmad", "inner", inner())
        clock.t += 1.0
        return r

    gen = traced_generator(rec, "apps", "outer", outer())
    rec.enter("unattributed", "pass")
    assert next(gen) == "a"
    clock.t += 100.0  # suspended: counts only for the enclosing pass span
    with pytest.raises(StopIteration) as stop:
        gen.send(5)
    rec.exit()
    assert stop.value.value == 10
    assert rec.self_s["apps"] == 2.0
    assert rec.self_s["nmad"] == 5.0
    assert rec.self_s["unattributed"] == 100.0
    assert [s[0] for s in rec.spans].count("inner") == 2
    assert rec.stack == []


def test_generator_span_passes_exceptions_through() -> None:
    rec = SpanRecorder(keep=10, clock=FakeClock())

    def body():
        try:
            yield 1
        except KeyError:
            yield "caught"

    gen = traced_generator(rec, "apps", "body", body())
    next(gen)
    assert gen.throw(KeyError()) == "caught"
    with pytest.raises(ValueError):
        gen.throw(ValueError())
    assert rec.stack == []


# ---------------------------------------------------------------- digests


def test_digest_ignores_record_and_build_order() -> None:
    records = [("s", 0, 1, t, 1024, 0.0, float(t), None) for t in range(50)]
    records += [("r", 0, 1, t, 1024, 0.0, float(t) + 0.5, b"x") for t in range(50)]
    shuffled = records[:]
    random.Random(7).shuffle(shuffled)
    assert checks.build_digest(12.5, 99, records) == checks.build_digest(12.5, 99, shuffled)
    assert checks.build_digest(12.5, 99, records) != checks.build_digest(12.5, 100, records)
    digests = ["a", "b", "c"]
    assert checks.combine_digests(digests) == checks.combine_digests(reversed(digests))


def test_digest_independent_of_id_counters_and_workload_order() -> None:
    storm = small(eager_storm, "storm", rounds=2, burst=8)
    ring8 = small(ring, "ring", nodes=8, rounds=2)
    inputs = Inputs(3)
    first = [run.run_pass(w, inputs).digest for w in (storm, ring8)]
    second = [run.run_pass(w, inputs).digest for w in (ring8, storm)]
    assert first == second[::-1]


def test_payload_seed_changes_payloads_not_digest() -> None:
    storm = small(eager_storm, "storm", rounds=1, burst=4)
    a, b = run.run_pass(storm, Inputs(1)), run.run_pass(storm, Inputs(2))
    assert a.failed == b.failed == 0
    assert a.digest == b.digest
    assert Inputs(1).payloads("s", 1, 64)[0] != Inputs(2).payloads("s", 1, 64)[0]


# ---------------------------------------------------------------- failures


def test_drops_without_recovery_count_as_failed_messages() -> None:
    plan = FaultPlan(rules=[FaultRule(FaultAction.DROP, every_nth=5)], seed=1)
    lossy = small(eager_storm, "lossy", rounds=2, burst=8, faults=plan, recover=False)
    result = run.run_pass(lossy, Inputs(1))
    assert result.attempted == 16
    assert 0 < result.failed < result.attempted
    assert result.problems


def test_wrong_payload_counts_as_failed() -> None:
    expected = {(0, 1, 0): checks.Expect(4, b"abcd"), (0, 1, 1): checks.Expect(4, b"efgh")}
    records = [
        ("s", 0, 1, 0, 4, 0.0, 1.0, None),
        ("r", 0, 1, 0, 4, 0.0, 2.0, b"abcd"),
        ("s", 0, 1, 1, 4, 0.0, 1.0, None),
        ("r", 0, 1, 1, 4, 0.0, 2.0, b"efgX"),
        ("r", 0, 1, 1, 4, 0.0, 3.0, b"efgh"),  # and delivered twice
    ]
    result = checks.check_expected(records, expected)
    assert (result.attempted, result.failed) == (2, 1)
    assert list(result.latencies_us) == [(0, 1, 0)]


def test_backlog_check_flags_growing_latency() -> None:
    expected = {i: checks.Expect(1, None, float(i)) for i in range(400)}
    steady = {i: 100.0 + (i % 10) for i in range(400)}
    growing = {i: 100.0 + i for i in range(400)}
    assert backlog_problems(expected, steady) == []
    assert backlog_problems(expected, growing)


def test_saturated_fabric_fails_the_backlog_check() -> None:
    saturated = small(fabric_shared, "saturated", mean_gap_us=20.0)
    result = run.run_pass(saturated, Inputs(1))
    assert result.failed == 0
    assert any("growing backlog: p50" in p for p in result.problems)


# ---------------------------------------------------------------- tracing


@pytest.mark.parametrize(
    "workload",
    [
        small(eager_storm, "storm", rounds=2, burst=8),
        small(fabric_shared, "fabric", messages=20),
    ],
    ids=["eager_storm", "fabric_shared"],
)
def test_traced_pass_keeps_digest_and_attributes_every_layer(workload: Workload) -> None:
    originals = (Simulator.schedule, Simulator.run, vars(ClusterRuntime)["build"])
    inputs = Inputs(5)
    plain = run.run_pass(workload, inputs)
    traced = run.run_pass(workload, inputs, Tracer())
    assert traced.digest == plain.digest
    assert traced.problems == plain.problems == []
    for name in run.EXACT_COUNTS:
        assert traced.counts[name] == plain.counts.get(name, traced.counts[name])
    for layer in ("harness", "sim", "marcel", "nmad", "pioman", "network", "apps"):
        assert traced.self_s[layer] > 0.0, layer
    assert sum(traced.self_s.values()) <= traced.wall_s
    assert (Simulator.schedule, Simulator.run, vars(ClusterRuntime)["build"]) == originals


# ---------------------------------------------------------------- paper figures


def test_paper_figures_match_experiments_md() -> None:
    serial = ExecutionConfig.serial()
    results = {
        name: getattr(experiments, f"experiment_{name}")(execution=serial)
        for name in ("fig5", "fig6", "table1")
    }
    doc = checks.parse_experiments((ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8"))
    assert checks.compare_experiments(results, doc) == []
    assert 0.0 < checks.paper_error_pct(results["table1"], doc) < 5.0

    doc["table1"]["measured — offloading"][0] = "999"
    doc["fig6"]["rdv progression"][0] = "1.0"
    assert len(checks.compare_experiments(results, doc)) == 2


# ---------------------------------------------------------------- contract


def test_benchmark_json_names_what_the_runner_prints() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert spec["paths"] == ["e2ebench"]
