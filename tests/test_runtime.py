"""Discrete-event runtime: kernel, channels, one-tenant DAG replay."""

import pytest

from repro.errors import SimulationError
from repro.runtime import (
    Channel,
    QueryScheduler,
    Request,
    SimKernel,
)


# ---------------------------------------------------------------------------
# Kernel
# ---------------------------------------------------------------------------


def test_kernel_runs_events_in_time_order():
    kernel = SimKernel()
    fired = []
    kernel.schedule(2.0, lambda: fired.append(("b", kernel.now)))
    kernel.schedule(1.0, lambda: fired.append(("a", kernel.now)))
    kernel.schedule(3.0, lambda: fired.append(("c", kernel.now)))
    assert kernel.run() == 3.0
    assert fired == [("a", 1.0), ("b", 2.0), ("c", 3.0)]
    assert kernel.events_processed == 3


def test_kernel_breaks_ties_by_scheduling_order():
    kernel = SimKernel()
    fired = []
    for tag in ("first", "second", "third"):
        kernel.schedule(1.0, lambda tag=tag: fired.append(tag))
    kernel.run()
    assert fired == ["first", "second", "third"]


def test_kernel_callbacks_can_schedule_followups():
    kernel = SimKernel()
    fired = []
    kernel.schedule(1.0, lambda: kernel.schedule(0.5, lambda: fired.append(kernel.now)))
    assert kernel.run() == 1.5
    assert fired == [1.5]


def test_kernel_rejects_past_events():
    kernel = SimKernel()
    with pytest.raises(SimulationError, match="past"):
        kernel.schedule(-1.0, lambda: None)
    kernel.schedule(5.0, lambda: None)
    kernel.run()
    with pytest.raises(SimulationError, match="causality"):
        kernel.schedule_at(1.0, lambda: None)


# ---------------------------------------------------------------------------
# Channels
# ---------------------------------------------------------------------------


def _drain(kernel, channel, durations):
    done = []
    for duration in durations:
        channel.submit(Request(duration=duration, on_complete=done.append))
    makespan = kernel.run()
    return makespan, done


def test_single_lane_serialises_requests():
    kernel = SimKernel()
    channel = Channel(kernel, "p0", concurrency=1)
    makespan, done = _drain(kernel, channel, [1.0, 1.0, 1.0])
    assert makespan == 3.0
    assert [r.started_at for r in done] == [0.0, 1.0, 2.0]
    assert channel.stats.completed == 3
    assert channel.stats.busy_seconds == 3.0


def test_lanes_overlap_up_to_concurrency():
    kernel = SimKernel()
    channel = Channel(kernel, "p0", concurrency=3)
    makespan, done = _drain(kernel, channel, [1.0, 1.0, 1.0, 1.0])
    # Three start immediately, the fourth waits for the first free lane.
    assert makespan == 2.0
    assert sorted(r.started_at for r in done) == [0.0, 0.0, 0.0, 1.0]
    # In-flight counts serving + queued: all four are outstanding at t=0.
    assert channel.stats.peak_in_flight == 4


def test_in_flight_window_defers_admission_not_completion_order():
    kernel = SimKernel()
    channel = Channel(kernel, "p0", concurrency=2, max_in_flight=2)
    makespan, done = _drain(kernel, channel, [1.0] * 6)
    assert makespan == 3.0  # same as without the window (FIFO service)
    assert channel.stats.peak_backlog > 0
    # Admission happened in waves as the window freed.
    assert sorted(r.admitted_at for r in done) == [0, 0, 1, 1, 2, 2]


def test_wait_accounting():
    kernel = SimKernel()
    channel = Channel(kernel, "p0", concurrency=1)
    _, done = _drain(kernel, channel, [2.0, 1.0])
    assert done[1].waited == 2.0
    assert channel.stats.wait_seconds == 2.0


def test_channel_validation():
    kernel = SimKernel()
    with pytest.raises(SimulationError, match="concurrency"):
        Channel(kernel, "p0", concurrency=0)
    with pytest.raises(SimulationError, match="max_in_flight"):
        Channel(kernel, "p0", concurrency=4, max_in_flight=2)


# ---------------------------------------------------------------------------
# One-tenant replay: a single query's request DAG on QueryScheduler
# ---------------------------------------------------------------------------


def _solo(**kwargs):
    """A scheduler with one registered tenant, the single-query case."""
    scheduler = QueryScheduler(**kwargs)
    return scheduler, scheduler.tenant("solo")


def test_independent_requests_overlap():
    scheduler, query = _solo(concurrency=2)
    query.submit("p0", 1.0)
    query.submit("p1", 2.0)
    assert scheduler.makespan() == 2.0
    assert scheduler.busy_seconds() == 3.0


def test_dependency_chain_serialises():
    scheduler, query = _solo()
    first = query.submit("p0", 1.0)
    second = query.submit("p1", 2.0, after=[first])
    third = query.submit("p0", 0.5, after=[second])
    assert scheduler.makespan() == 3.5
    timeline = scheduler.timeline()
    assert [h.completed_at for h in timeline] == [1.0, 3.0, 3.5]


def test_fan_out_then_join():
    # A wave of three requests, then one request gated on all of them.
    scheduler, query = _solo(concurrency=4)
    wave = [query.submit(f"p{i}", 1.0 + i) for i in range(3)]
    joined = query.submit("p0", 1.0, after=wave)
    assert scheduler.makespan() == 4.0  # slowest dep (3.0) + 1.0
    assert scheduler.timeline()[joined.index].started_at == 3.0


def test_channel_contention_limits_overlap():
    scheduler, query = _solo(concurrency=1)
    for _ in range(4):
        query.submit("p0", 1.0)
    assert scheduler.makespan() == 4.0
    stats = scheduler.channel_stats()["p0"]
    assert stats.completed == 4
    assert stats.busy_seconds == 4.0


def test_release_time_delays_arrival():
    scheduler, query = _solo()
    handle = query.submit("p0", 1.0, release=5.0)
    assert scheduler.makespan() == 6.0
    assert scheduler.timeline()[handle.index].arrived_at == 5.0


def test_replay_is_deterministic_and_cached():
    def build():
        scheduler, query = _solo(concurrency=2)
        wave = [query.submit("p0", 0.25) for _ in range(5)]
        query.submit("p1", 1.0, after=wave[:2])
        query.submit("p1", 1.0, after=wave)
        return scheduler, query

    (first, query), (second, _) = build(), build()
    assert first.makespan() == second.makespan() == 1.75
    assert [h.completed_at for h in first.timeline()] == [
        h.completed_at for h in second.timeline()
    ]
    # Cached until the DAG changes; a new submit invalidates.  The p2
    # request has no dependencies and a fresh channel, so it runs from
    # t=0 and alone sets the makespan.
    query.submit("p2", 10.0)
    assert first.makespan() == 10.0


def test_makespan_never_exceeds_busy_seconds():
    scheduler, query = _solo(concurrency=3)
    previous = []
    for i in range(7):
        previous = [query.submit(f"p{i % 2}", 0.5, after=previous[-1:])]
    assert scheduler.makespan() <= scheduler.busy_seconds() + 1e-12


def test_scheduler_validation():
    with pytest.raises(SimulationError, match="concurrency"):
        QueryScheduler(concurrency=0)
    scheduler, query = _solo()
    with pytest.raises(SimulationError, match="negative"):
        query.submit("p0", -1.0)
