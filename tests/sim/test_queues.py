"""Unit tests for the kernel's event queue (:mod:`repro.sim.queues`).

Ordering against a sorted reference is pinned by the property suite;
this module covers the queue mechanics themselves — calendar resizing,
cancelled-entry compaction (the retransmit-timer bloat fix), incursion
ordering, handle pooling, and the bloat regression guards.
"""

from __future__ import annotations

import pytest

from repro.sim.events import Priority
from repro.sim.kernel import Simulator, _POOL_MAX
from repro.sim.queues import _COMPACT_MIN, CalendarQueue

# -- stats ---------------------------------------------------------------------


def test_queue_stats_shape():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    stats = sim.queue_stats()
    assert stats["entries"] == 1
    assert stats["cancelled"] == 0
    assert "compactions" in stats


def test_timing_model_defaults_to_calendar():
    """No timing knob selects a queue: a runtime built from the default
    timing model runs its kernel on the calendar queue."""
    from repro.config import TimingModel
    from repro.harness.runner import ClusterRuntime

    rt = ClusterRuntime.build(timing=TimingModel())
    assert isinstance(rt.sim.queue, CalendarQueue)
    assert not hasattr(TimingModel(), "kernel")


# -- calendar resizing ---------------------------------------------------------


def test_calendar_grows_buckets_under_load():
    sim = Simulator()
    fired = []
    for i in range(4_000):
        sim.schedule(float(i) * 0.5 + 1.0, fired.append, i)
    sim.run()
    assert fired == list(range(4_000))
    stats = sim.queue_stats()
    assert stats["resizes"] >= 1
    assert stats["batches"] >= 1


def test_calendar_shrinks_after_drain_burst():
    sim = Simulator()
    peak = [0]
    sim.add_observer(
        lambda _now: peak.__setitem__(0, max(peak[0], sim.queue_stats()["buckets"])))
    # a dense burst forces growth mid-run...
    for i in range(3_000):
        sim.schedule(float(i) * 0.1, lambda: None)
    sim.run()
    stats = sim.queue_stats()
    assert peak[0] >= 1_024  # grew to hold the burst
    assert stats["buckets"] <= 64  # ...and shrank back as it drained
    assert stats["resizes"] >= 2  # at least one grow and one shrink


def test_calendar_handles_sparse_far_future_jumps():
    """Cursor must jump over long empty stretches, not crawl bucket by
    bucket for each of the 10^6 widths between events."""
    sim = Simulator()
    fired = []
    sim.schedule(0.5, fired.append, "near")
    sim.schedule(1_000_000.0, fired.append, "far")
    sim.run()
    assert fired == ["near", "far"]
    assert sim.now == 1_000_000.0


def test_calendar_batch_incursion_preserves_priority_order():
    """An event scheduled mid-batch for the current instant at INTERRUPT
    priority must fire before same-time NORMAL events already extracted
    into the batch — strict ``(time, priority, seq)`` order."""
    sim = Simulator()
    log = []

    def first():
        log.append("first")
        sim.call_soon(lambda: log.append("soon-interrupt"), priority=Priority.INTERRUPT)
        sim.call_soon(lambda: log.append("soon-normal"))

    sim.schedule(1.0, first)
    for i in range(4):
        sim.schedule(1.0, log.append, f"tail{i}")
    sim.run()
    assert log == [
        "first", "soon-interrupt", "tail0", "tail1", "tail2", "tail3", "soon-normal"]
    assert sim.now == 1.0


def test_calendar_push_behind_skipped_cursor():
    """A callback scheduling into a region the cursor already skipped past
    (possible after a sparse jump) must still fire in time order."""
    sim = Simulator()
    fired = []

    def at_far():
        fired.append(sim.now)
        # now is huge; schedule slightly ahead — lands behind the cursor's
        # absolute index after the sparse jump unless the queue rewinds
        sim.schedule(0.25, lambda: fired.append(sim.now))

    sim.schedule(500_000.0, at_far)
    sim.run()
    assert fired == [500_000.0, 500_000.25]


# -- cancelled-entry compaction (the bloat fix) --------------------------------


def test_cancelled_far_future_timers_are_compacted():
    """The historical heap carried every ack-cancelled retransmit timer
    until its timestamp surfaced — hours of virtual time away. The queue
    must keep stored entries bounded while cancelling far-future
    timers en masse."""
    sim = Simulator()
    n = 20_000
    peak = 0

    def churn(i: int) -> None:
        nonlocal peak
        h = sim.schedule(1e9, lambda: None)  # retransmit timer, RTO ~forever
        h.cancel()  # ack arrives immediately
        peak = max(peak, len(sim.queue))
        if i + 1 < n:
            sim.schedule(1.0, churn, i + 1)

    sim.schedule(1.0, churn, 0)
    sim.run()
    assert peak < 2 * _COMPACT_MIN + 64, f"queue bloated to {peak} entries"
    assert sim.queue_stats()["compactions"] >= 1


def test_compaction_preserves_live_entries():
    sim = Simulator()
    fired = []
    keep = [sim.schedule(float(i) + 2.0, fired.append, i) for i in range(10)]
    for _ in range(2 * _COMPACT_MIN):
        sim.schedule(1e9, lambda: None).cancel()
    assert sim.queue_stats()["compactions"] >= 1
    sim.run()
    assert fired == list(range(10))
    assert all(h.fired for h in keep)


def test_cancel_before_run_with_no_queue_is_safe():
    # a handle constructed directly (never pushed) can still be cancelled
    from repro.sim.events import EventHandle

    h = EventHandle(1.0, Priority.NORMAL, 1, lambda: None, (), "")
    h.cancel()
    assert h.cancelled


# -- handle pooling ------------------------------------------------------------


def test_fired_handles_are_recycled():
    sim = Simulator()

    def rearm(i: int) -> None:
        if i < 200:
            sim.schedule(1.0, rearm, i + 1)

    sim.schedule(1.0, rearm, 0)
    sim.run()
    assert len(sim._pool) >= 1  # the dropped handles fed the pool
    assert len(sim._pool) <= _POOL_MAX


def test_retained_handles_are_never_recycled():
    """A handle the caller kept a reference to must not be reused for a
    later event — its fields (fired, time, label) stay readable."""
    sim = Simulator()
    kept = [sim.schedule(float(i) + 1.0, lambda: None, label=f"ev{i}") for i in range(50)]
    for i in range(50):
        sim.schedule(float(i) + 1.5, lambda: None)  # interleaved churn
    sim.run()
    assert all(h.fired for h in kept)
    assert [h.label for h in kept] == [f"ev{i}" for i in range(50)]
    assert all(h not in sim._pool for h in kept)


@pytest.mark.parametrize("bounded", [False, True], ids=["free", "bounded"])
def test_unretained_cancelled_handles_are_recycled(bounded):
    """A cancelled entry nobody holds (an ack'd timer whose owner dropped
    the handle) feeds the pool when it surfaces, in bounded runs too."""
    sim = Simulator()
    for i in range(20):
        sim.schedule(float(i) + 1.0, lambda: None).cancel()
    kept = sim.schedule(50.0, lambda: None)
    kept.cancel()
    if bounded:
        sim.run(until=100.0)
    else:
        sim.run()
    assert len(sim._pool) == 20
    assert kept not in sim._pool and kept.cancelled and not kept.fired


def test_pool_reuse_resets_all_fields():
    sim = Simulator()
    log = []
    sim.schedule(1.0, log.append, "a", priority=Priority.TASKLET, label="first")
    sim.run()
    assert len(sim._pool) == 1
    recycled = sim._pool[-1]
    h = sim.schedule(2.0, log.append, "b", label="second")
    assert h is recycled
    assert (h.time, h.priority, h.label, h.fired, h.cancelled) == (
        3.0, Priority.NORMAL, "second", False, False)
    sim.run()
    assert log == ["a", "b"]
    assert h.fired


# -- bloat regression guard (perf lane) ---------------------------------------


@pytest.mark.perf
def test_reliability_ack_storm_queue_stays_bounded():
    """Ack-heavy reliability traffic: every send arms a retransmit timer
    the ack cancels almost immediately. Stored entries — sampled from an
    observer after every event — must stay bounded instead of growing
    with message count."""
    sim = Simulator()
    n = 20_000
    peak = [0]
    sim.add_observer(lambda _now: peak.__setitem__(0, max(peak[0], len(sim.queue))))

    def send(i: int) -> None:
        timer = sim.schedule(1e8, lambda: None)  # RTO far beyond the run
        sim.schedule(0.5, timer.cancel)  # the ack
        if i + 1 < n:
            sim.schedule(1.0, send, i + 1)

    sim.schedule(1.0, send, 0)
    sim.run()
    assert peak[0] < 2 * _COMPACT_MIN + 256, (
        f"queue bloated to {peak[0]} entries for {n} sends")
