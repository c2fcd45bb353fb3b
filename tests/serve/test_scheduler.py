"""Deadline scheduler: EDF order, priority weighting, aging, FIFO heads."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.serve import (
    DeadlineScheduler,
    FrameArrival,
    SchedulerConfig,
    SessionConfig,
    SessionRegistry,
    StreamSession,
)
from repro.testing import make_pipeline
from tests.serve.pressure_oracle import backlogged


def arrival(stream_id: str, seq: int, t: float,
            deadline: float) -> FrameArrival:
    return FrameArrival(stream_id=stream_id, seq=seq, frame=np.zeros(4),
                        arrival_ms=t, deadline_ms=deadline)


def registry_of(*specs, weights=None):
    """Sessions from ``(stream_id, priority, [queued arrivals])`` specs."""
    registry = SessionRegistry()
    for i, (stream_id, priority, queued) in enumerate(specs):
        weight = weights[i] if weights else 1.0
        session = StreamSession(
            stream_id, make_pipeline(seed=0),
            SessionConfig(priority=priority, queue_capacity=64,
                          weight=weight))
        for item in queued:
            session.queue.offer(item)
        registry.add(session)
    return registry


class TestConfig:
    def test_batch_size_positive(self):
        with pytest.raises(ConfigurationError):
            SchedulerConfig(batch_size=0)

    def test_negative_weights_rejected(self):
        with pytest.raises(ConfigurationError):
            SchedulerConfig(priority_weight_ms=-1.0)
        with pytest.raises(ConfigurationError):
            SchedulerConfig(aging_rate=-0.1)

    def test_unknown_fairness_rejected(self):
        with pytest.raises(ConfigurationError):
            SchedulerConfig(fairness="lottery")


class TestSelection:
    def test_earliest_deadline_first(self):
        registry = registry_of(
            ("late", 0, [arrival("late", 0, 0.0, 200.0)]),
            ("soon", 0, [arrival("soon", 0, 0.0, 50.0)]))
        scheduler = DeadlineScheduler(SchedulerConfig(batch_size=2))
        batch = scheduler.next_batch(backlogged(registry), now_ms=0.0)
        assert [(s.stream_id, a.seq) for s, a in batch] == [
            ("soon", 0), ("late", 0)]

    def test_priority_shifts_deadline(self):
        # same absolute deadline: the premium stream must win
        registry = registry_of(
            ("basic", 0, [arrival("basic", 0, 0.0, 100.0)]),
            ("premium", 1, [arrival("premium", 0, 0.0, 100.0)]))
        scheduler = DeadlineScheduler(
            SchedulerConfig(batch_size=1, priority_weight_ms=50.0))
        batch = scheduler.next_batch(backlogged(registry), now_ms=0.0)
        assert batch[0][0].stream_id == "premium"

    def test_aging_prevents_starvation(self):
        # the low-priority frame has waited long enough that aging
        # outweighs the other stream's priority edge
        registry = registry_of(
            ("old", 0, [arrival("old", 0, 0.0, 100.0)]),
            ("vip", 2, [arrival("vip", 0, 990.0, 1090.0)]))
        scheduler = DeadlineScheduler(SchedulerConfig(
            batch_size=1, priority_weight_ms=50.0, aging_rate=1.0))
        batch = scheduler.next_batch(backlogged(registry), now_ms=1000.0)
        assert batch[0][0].stream_id == "old"

    def test_exact_ties_break_by_registration_order(self):
        registry = registry_of(
            ("second", 0, [arrival("second", 0, 0.0, 100.0)]),
            ("first", 0, [arrival("first", 0, 0.0, 100.0)]))
        scheduler = DeadlineScheduler(SchedulerConfig(batch_size=2))
        batch = scheduler.next_batch(backlogged(registry), now_ms=0.0)
        # "second" registered first, so it wins the exact tie
        assert [s.stream_id for s, _ in batch] == ["second", "first"]

    def test_batch_size_caps_selection(self):
        queued = [arrival("a", seq, 0.0, 100.0 + seq) for seq in range(5)]
        registry = registry_of(("a", 0, queued))
        scheduler = DeadlineScheduler(SchedulerConfig(batch_size=3))
        batch = scheduler.next_batch(backlogged(registry), now_ms=0.0)
        assert len(batch) == 3
        assert registry.get("a").queue.depth == 2

    def test_per_stream_fifo_even_with_inverted_deadlines(self):
        # seq 1 has the *earlier* deadline, but only heads are eligible:
        # FIFO order within a stream must survive
        queued = [arrival("a", 0, 0.0, 500.0), arrival("a", 1, 1.0, 50.0)]
        registry = registry_of(("a", 0, queued))
        scheduler = DeadlineScheduler(SchedulerConfig(batch_size=2))
        batch = scheduler.next_batch(backlogged(registry), now_ms=10.0)
        assert [a.seq for _, a in batch] == [0, 1]

    def test_empty_queues_give_empty_batch(self):
        registry = registry_of(("a", 0, []))
        scheduler = DeadlineScheduler()
        assert scheduler.next_batch(backlogged(registry), now_ms=0.0) == []

    def test_interleaves_streams_by_urgency(self):
        a_frames = [arrival("a", s, 0.0, 100.0 + 20 * s) for s in range(2)]
        b_frames = [arrival("b", s, 0.0, 110.0 + 20 * s) for s in range(2)]
        registry = registry_of(("a", 0, a_frames), ("b", 0, b_frames))
        scheduler = DeadlineScheduler(SchedulerConfig(batch_size=4))
        batch = scheduler.next_batch(backlogged(registry), now_ms=0.0)
        assert [(s.stream_id, a.seq) for s, a in batch] == [
            ("a", 0), ("b", 0), ("a", 1), ("b", 1)]


class TestFairness:
    def test_hot_stream_cannot_fill_whole_batch(self):
        # "hot" has 10 frames, every one more urgent than "cold"'s two.
        # Water-filling over equal weights with demands (10, 2) and 8
        # slots saturates "cold" at 2 and caps "hot" at 6.
        hot = [arrival("hot", s, 0.0, 50.0 + s) for s in range(10)]
        cold = [arrival("cold", s, 0.0, 400.0 + s) for s in range(2)]
        registry = registry_of(("hot", 0, hot), ("cold", 0, cold))
        scheduler = DeadlineScheduler(SchedulerConfig(batch_size=8))
        batch = scheduler.next_batch(backlogged(registry), now_ms=0.0)
        counts = {"hot": 0, "cold": 0}
        for session, _ in batch:
            counts[session.stream_id] += 1
        assert counts == {"hot": 6, "cold": 2}

    def test_fairness_none_restores_pure_edf(self):
        hot = [arrival("hot", s, 0.0, 50.0 + s) for s in range(10)]
        cold = [arrival("cold", s, 0.0, 400.0 + s) for s in range(2)]
        registry = registry_of(("hot", 0, hot), ("cold", 0, cold))
        scheduler = DeadlineScheduler(
            SchedulerConfig(batch_size=8, fairness="none"))
        batch = scheduler.next_batch(backlogged(registry), now_ms=0.0)
        assert all(s.stream_id == "hot" for s, _ in batch)

    def test_caps_proportional_to_weights(self):
        # both streams have deep backlogs; a 3:1 weight split of 8
        # slots gives caps 6 and 2
        a = [arrival("a", s, 0.0, 100.0 + s) for s in range(20)]
        b = [arrival("b", s, 0.0, 100.0 + s) for s in range(20)]
        registry = registry_of(("a", 0, a), ("b", 0, b),
                               weights=[3.0, 1.0])
        scheduler = DeadlineScheduler(SchedulerConfig(batch_size=8))
        batch = scheduler.next_batch(backlogged(registry), now_ms=0.0)
        counts = {"a": 0, "b": 0}
        for session, _ in batch:
            counts[session.stream_id] += 1
        assert counts == {"a": 6, "b": 2}

    def test_every_backlogged_stream_gets_a_slot(self):
        # ceil-integerised caps: even a tiny-weight stream is eligible
        # for one slot per batch
        specs = [(f"s{i}", 0, [arrival(f"s{i}", s, 0.0, 100.0 + s)
                               for s in range(50)]) for i in range(4)]
        registry = registry_of(*specs, weights=[10.0, 1.0, 1.0, 1.0])
        scheduler = DeadlineScheduler(SchedulerConfig(batch_size=8))
        batch = scheduler.next_batch(backlogged(registry), now_ms=0.0)
        served = {s.stream_id for s, _ in batch}
        assert served == {"s0", "s1", "s2", "s3"}

    def test_single_stream_unaffected_by_fairness(self):
        queued = [arrival("a", s, 0.0, 100.0 + s) for s in range(10)]
        registry = registry_of(("a", 0, queued))
        scheduler = DeadlineScheduler(SchedulerConfig(batch_size=8))
        batch = scheduler.next_batch(backlogged(registry), now_ms=0.0)
        assert len(batch) == 8


class TestDeadlineAwareCapping:
    def test_batch_stops_before_overrunning_deadline(self):
        # completion of frame n is now + overhead + cost * n; with
        # deadline 10, cost 3 and overhead 1 only 3 frames fit
        queued = [arrival("a", s, 0.0, 10.0) for s in range(8)]
        registry = registry_of(("a", 0, queued))
        scheduler = DeadlineScheduler(SchedulerConfig(batch_size=8))
        batch = scheduler.next_batch(backlogged(registry), now_ms=0.0,
                                     frame_cost_ms=3.0, overhead_ms=1.0)
        assert len(batch) == 3

    def test_first_frame_always_taken(self):
        # even a frame that can no longer make its deadline is selected
        # alone, so batch formation cannot stall
        queued = [arrival("a", s, 0.0, 1.0) for s in range(4)]
        registry = registry_of(("a", 0, queued))
        scheduler = DeadlineScheduler(SchedulerConfig(batch_size=4))
        batch = scheduler.next_batch(backlogged(registry), now_ms=0.0,
                                     frame_cost_ms=5.0, overhead_ms=1.0)
        assert len(batch) == 1

    def test_no_cost_model_means_no_capping(self):
        queued = [arrival("a", s, 0.0, 10.0) for s in range(8)]
        registry = registry_of(("a", 0, queued))
        scheduler = DeadlineScheduler(SchedulerConfig(batch_size=8))
        batch = scheduler.next_batch(backlogged(registry), now_ms=0.0)
        assert len(batch) == 8

    def test_deadline_aware_false_disables_capping(self):
        queued = [arrival("a", s, 0.0, 10.0) for s in range(8)]
        registry = registry_of(("a", 0, queued))
        scheduler = DeadlineScheduler(
            SchedulerConfig(batch_size=8, deadline_aware=False))
        batch = scheduler.next_batch(backlogged(registry), now_ms=0.0,
                                     frame_cost_ms=3.0, overhead_ms=1.0)
        assert len(batch) == 8
