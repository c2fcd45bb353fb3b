"""DriftServer properties: conservation, order, bit-identity, determinism.

These are the contracts the serving layer is allowed to promise:

- **conservation** -- every arrival ends in exactly one of processed /
  degraded / shed / rejected, per stream and in total;
- **order** -- cross-stream micro-batching never reorders one stream's
  frames relative to each other;
- **bit-identity** -- one unconstrained stream served through the full
  admission/scheduling machinery produces *exactly* the result of
  :meth:`DriftAwareAnalytics.process_batched` on the same frames;
- **determinism** -- a run is a pure function of (sessions, arrivals,
  config): repeating it, or attaching a recorder, changes nothing.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ServeError
from repro.obs.recorder import Recorder
from repro.serve import (
    DriftServer,
    FrameArrival,
    OverloadConfig,
    SchedulerConfig,
    ServeConfig,
    SessionConfig,
    SessionRegistry,
    StreamSession,
    WorkloadConfig,
    capacity_fps,
    generate_arrivals,
)
from repro.testing import make_pipeline
from tests.serve.conftest import (
    gaussian_stream,
    make_session,
    result_sig,
    unconstrained,
)

CAPACITY = capacity_fps()


def overload_arrivals(seed, n_frames=60, load=2.0, pattern="poisson",
                      streams=("a", "b"), deadline_ms=60.0):
    """Per-stream traces at ``load`` x capacity split across streams."""
    per_stream_rate = load * CAPACITY / len(streams)
    arrivals = []
    for i, stream_id in enumerate(streams):
        frames = gaussian_stream(seed + i, [(0.0, n_frames)])
        arrivals.extend(generate_arrivals(
            frames, WorkloadConfig(rate_fps=per_stream_rate,
                                   pattern=pattern),
            stream_id=stream_id, deadline_ms=deadline_ms, seed=seed + i))
    return arrivals


def outcome_counts(slo):
    return (slo.arrivals, slo.processed, slo.degraded, slo.shed_total,
            slo.rejected)


class TestConservation:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10**4),
           load=st.floats(min_value=0.5, max_value=3.0),
           policy=st.sampled_from(["drop-oldest", "drop-newest",
                                   "degrade"]),
           capacity=st.integers(2, 12),
           pattern=st.sampled_from(["poisson", "burst", "diurnal"]))
    def test_every_arrival_has_exactly_one_outcome(self, seed, load,
                                                   policy, capacity,
                                                   pattern):
        arrivals = overload_arrivals(seed, n_frames=40, load=load,
                                     pattern=pattern)
        sessions = [
            make_session("a", seed, queue_capacity=capacity,
                         shed_policy=policy),
            make_session("b", seed + 1, queue_capacity=capacity,
                         shed_policy=policy, priority=1),
        ]
        result = DriftServer(sessions).run(arrivals)
        for slo in result.streams.values():
            assert slo.arrivals == (slo.processed + slo.degraded
                                    + slo.shed_total + slo.rejected)
            # frames admitted to the queue either complete the full path
            # or are evicted by drop-oldest / expiry
            evicted = (slo.shed.get("drop-oldest", 0)
                       + slo.shed.get("expired", 0))
            assert slo.admitted == slo.processed + evicted
        assert result.arrivals == sum(
            slo.arrivals for slo in result.streams.values())

    def test_malformed_frames_are_rejected_not_served(self):
        frames = gaussian_stream(2, [(0.0, 30)])
        frames[7, 0] = np.nan
        frames[19, 2] = np.inf
        arrivals = generate_arrivals(
            frames, WorkloadConfig(rate_fps=CAPACITY * 0.5),
            stream_id="cam", deadline_ms=1e9, seed=5)
        session = unconstrained("cam", 2)
        result = DriftServer([session]).run(arrivals)
        slo = result.streams["cam"]
        assert slo.rejected == 2
        assert slo.processed == 28
        assert slo.arrivals == 30
        # quarantined frames never reach the pipeline
        assert len(result.pipeline_results["cam"].records) == 28


class TestOrderPreservation:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10**4),
           batch_size=st.sampled_from([1, 3, 8, 16]),
           load=st.floats(min_value=0.8, max_value=2.5))
    def test_per_stream_seq_strictly_increases(self, seed, batch_size,
                                               load):
        arrivals = overload_arrivals(seed, n_frames=40, load=load,
                                     streams=("a", "b", "c"))
        sessions = [make_session(sid, seed + i, queue_capacity=8,
                                 priority=i % 2)
                    for i, sid in enumerate(("a", "b", "c"))]
        server = DriftServer(sessions, ServeConfig(
            scheduler=SchedulerConfig(batch_size=batch_size)))
        served = []
        original = server.scheduler.next_batch

        def spy(candidates, now_ms, **kwargs):
            batch = original(candidates, now_ms, **kwargs)
            served.extend((s.stream_id, a.seq) for s, a in batch)
            return batch

        server.scheduler.next_batch = spy
        server.run(arrivals)
        assert served, "nothing was served"
        last = {}
        for stream_id, seq in served:
            assert seq > last.get(stream_id, -1), (
                f"stream {stream_id} reordered: seq {seq} after "
                f"{last.get(stream_id)}")
            last[stream_id] = seq


class TestBitIdentity:
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 100),
           batch_size=st.sampled_from([1, 4, 16, 64]),
           rate_mult=st.floats(min_value=0.3, max_value=1.5),
           pattern=st.sampled_from(["poisson", "burst", "diurnal"]))
    def test_unconstrained_serve_equals_process_batched(
            self, seed, batch_size, rate_mult, pattern):
        frames = gaussian_stream(seed, [(0.0, 30), (6.0, 30)])
        reference = make_pipeline(seed=seed).process_batched(
            frames, batch_size=batch_size)
        session = unconstrained("cam", seed)
        arrivals = generate_arrivals(
            frames, WorkloadConfig(rate_fps=rate_mult * CAPACITY,
                                   pattern=pattern),
            stream_id="cam", deadline_ms=1e12, seed=seed + 1)
        server = DriftServer([session], ServeConfig(
            scheduler=SchedulerConfig(batch_size=batch_size)))
        result = server.run(arrivals)
        assert result_sig(result.pipeline_results["cam"]) == result_sig(
            reference)
        slo = result.streams["cam"]
        assert slo.processed == 60
        assert slo.shed_total == slo.rejected == slo.degraded == 0

    def test_unconstrained_serve_bit_identical_with_odin_monitor(self):
        """Bit-identity holds at the monitor-protocol seam, not just for
        the default Drift Inspector: a session whose kernel is backed by
        ODIN-Detect (scalar-fallback batching -- no ``observe_batch``, no
        snapshots) still serves exactly what offline processing emits."""
        from repro.baselines.odin.detect import OdinConfig, OdinDetect

        def odin_monitor(bundle):
            detect = OdinDetect(config=OdinConfig())
            detect.seed_cluster(bundle.name, bundle.sigma,
                                model_name=bundle.name)
            return detect

        frames = gaussian_stream(23, [(0.0, 30), (6.0, 40)])
        reference = make_pipeline(
            seed=23, monitor_factory=odin_monitor).process_batched(
                frames, batch_size=16)
        session = StreamSession(
            "cam", make_pipeline(seed=23, monitor_factory=odin_monitor),
            SessionConfig(queue_capacity=1 << 20, deadline_ms=1e12))
        arrivals = generate_arrivals(
            frames, WorkloadConfig(rate_fps=CAPACITY),
            stream_id="cam", deadline_ms=1e12, seed=24)
        server = DriftServer([session], ServeConfig(
            scheduler=SchedulerConfig(batch_size=16)))
        result = server.run(arrivals)
        assert result_sig(result.pipeline_results["cam"]) == result_sig(
            reference)
        assert result.pipeline_results["cam"].detections

    def test_scheduler_batch_size_cannot_change_pipeline_results(self):
        """Chunking invariance survives the serving layer: an
        unconstrained stream's drift decisions are identical whatever
        micro-batch size the scheduler uses."""
        frames = gaussian_stream(11, [(0.0, 30), (6.0, 30)])
        arrivals = generate_arrivals(
            frames, WorkloadConfig(rate_fps=2.0 * CAPACITY),
            stream_id="cam", deadline_ms=1e12, seed=13)
        signatures = []
        for batch_size in (1, 5, 32):
            session = unconstrained("cam", 11)
            server = DriftServer([session], ServeConfig(
                scheduler=SchedulerConfig(batch_size=batch_size)))
            result = server.run(arrivals)
            signatures.append(result_sig(result.pipeline_results["cam"]))
        assert signatures[0] == signatures[1] == signatures[2]


class TestDeterminism:
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 10**4),
           policy=st.sampled_from(["drop-oldest", "drop-newest",
                                   "degrade"]))
    def test_identical_runs_produce_identical_reports(self, seed, policy):
        arrivals = overload_arrivals(seed, n_frames=40, load=2.0)

        def run_once():
            sessions = [
                make_session("a", seed, queue_capacity=6,
                             shed_policy=policy, priority=1),
                make_session("b", seed + 1, queue_capacity=6,
                             shed_policy=policy),
            ]
            result = DriftServer(sessions).run(arrivals)
            return (result.slo_entry(2.0, 2 * CAPACITY),
                    {sid: result_sig(r)
                     for sid, r in result.pipeline_results.items()},
                    result.backend_ledger)

        assert run_once() == run_once()

    def test_recorder_attachment_is_a_noop(self):
        """Observability is passive: recording every serving decision
        must not change a single one of them."""
        arrivals = overload_arrivals(77, n_frames=50, load=2.0)

        def run_once(recorder):
            sessions = [make_session("a", 77, queue_capacity=6),
                        make_session("b", 78, queue_capacity=6)]
            result = DriftServer(sessions, recorder=recorder).run(arrivals)
            return (result.slo_entry(2.0, 2 * CAPACITY),
                    result.backend_ledger)

        recorder = Recorder()
        assert run_once(None) == run_once(recorder)
        summary = recorder.snapshot()["summary"]
        assert summary["counters"]["serve.arrivals"] == 100.0

    def test_telemetry_counters_match_slo_totals(self):
        arrivals = overload_arrivals(31, n_frames=40, load=2.0)
        sessions = [make_session("a", 31, queue_capacity=6,
                                 shed_policy="degrade"),
                    make_session("b", 32, queue_capacity=6)]
        recorder = Recorder()
        result = DriftServer(sessions, recorder=recorder).run(arrivals)
        counters = recorder.snapshot()["summary"]["counters"]
        assert counters["serve.arrivals"] == result.arrivals
        assert counters["serve.processed"] == result.processed
        assert counters["serve.degraded"] == result.degraded
        assert counters["serve.shed"] == result.shed_total
        assert counters["serve.rejected"] == result.rejected
        assert counters.get("serve.rejected_infeasible", 0) == (
            result.rejected_infeasible)
        assert counters["serve.deadline_misses"] == result.deadline_misses


class TestServingPolicies:
    def test_overload_degrades_instead_of_collapsing(self):
        arrivals = overload_arrivals(5, n_frames=80, load=2.0)
        sessions = [make_session("a", 5, queue_capacity=8),
                    make_session("b", 6, queue_capacity=8)]
        result = DriftServer(sessions).run(arrivals)
        # the controller turns the 2x excess into degraded answers and
        # infeasibility rejections instead of queueing doomed frames
        assert result.degraded > 0
        assert result.shed_total + result.rejected_infeasible > 0
        # ... so goodput holds near capacity instead of collapsing
        assert result.goodput_fps >= 0.8 * result.capacity_fps
        assert result.throughput_fps >= 0.7 * result.capacity_fps

    def test_degrade_policy_serves_overflow_on_cheap_path(self):
        arrivals = overload_arrivals(9, n_frames=80, load=2.0)
        sessions = [make_session("a", 9, queue_capacity=8,
                                 shed_policy="degrade"),
                    make_session("b", 10, queue_capacity=8,
                                 shed_policy="degrade")]
        result = DriftServer(sessions).run(arrivals)
        assert result.degraded > 0
        assert result.shed_total == 0
        # every degraded frame still got an answer: served = arrivals
        assert result.served == result.arrivals
        # degraded frames bypass the inspector: the pipelines only saw
        # the fully-processed frames
        for sid, slo in result.streams.items():
            assert len(result.pipeline_results[sid].records) == (
                slo.processed)

    def test_expired_frames_shed_when_enabled(self):
        arrivals = overload_arrivals(21, n_frames=80, load=2.0,
                                     deadline_ms=15.0)
        # overload control would reject these doomed frames at arrival;
        # disable it so queue-resident expiry is what gets exercised
        sessions = [make_session("a", 21, queue_capacity=64),
                    make_session("b", 22, queue_capacity=64)]
        result = DriftServer(sessions, ServeConfig(
            shed_expired=True,
            overload=OverloadConfig(enabled=False))).run(arrivals)
        expired = sum(slo.shed.get("expired", 0)
                      for slo in result.streams.values())
        assert expired > 0
        # a frame shed for expiry never completes, so it cannot miss
        for slo in result.streams.values():
            assert slo.deadline_misses <= slo.processed + slo.degraded

    def test_breaker_fast_fails_after_consecutive_sheds(self):
        arrivals = overload_arrivals(41, n_frames=120, load=3.0,
                                     streams=("a",))
        session = make_session("a", 41, queue_capacity=4,
                               breaker_threshold=3)
        recorder = Recorder()
        result = DriftServer([session], recorder=recorder).run(arrivals)
        slo = result.streams["a"]
        assert slo.shed.get("breaker", 0) > 0
        by_kind = recorder.snapshot()["summary"]["events"]["by_kind"]
        assert by_kind.get("breaker_open", 0) >= 1


class TestServeErrors:
    def test_unknown_stream_rejected(self):
        session = make_session("a", 1)
        arrival = FrameArrival("ghost", 0, np.zeros(6), 0.0, 100.0)
        with pytest.raises(ServeError, match="unregistered"):
            DriftServer([session]).run([arrival])

    def test_out_of_order_seq_rejected(self):
        session = make_session("a", 1)
        arrivals = [FrameArrival("a", 1, np.zeros(6), 0.0, 100.0),
                    FrameArrival("a", 0, np.zeros(6), 1.0, 101.0)]
        with pytest.raises(ServeError, match="out of\\s+order"):
            DriftServer([session]).run(arrivals)

    def test_negative_arrival_time_rejected(self):
        session = make_session("a", 1)
        arrival = FrameArrival("a", 0, np.zeros(6), -1.0, 100.0)
        with pytest.raises(ServeError, match="non-negative"):
            DriftServer([session]).run([arrival])

    def test_duplicate_stream_ids_rejected(self):
        with pytest.raises(ServeError, match="duplicate"):
            SessionRegistry([make_session("a", 1), make_session("a", 2)])

    def test_finish_before_begin_rejected(self):
        with pytest.raises(ServeError, match="before begin"):
            make_session("a", 1).finish()

    def test_empty_registry_rejected(self):
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            DriftServer([])

    def test_session_snapshot_exposes_tenant_state(self):
        frames = gaussian_stream(3, [(0.0, 20)])
        arrivals = generate_arrivals(
            frames, WorkloadConfig(rate_fps=CAPACITY * 0.5),
            stream_id="cam", deadline_ms=1e9, seed=2)
        session = unconstrained("cam", 3)
        DriftServer([session]).run(arrivals)
        snapshot = session.snapshot()
        assert snapshot["stream_id"] == "cam"
        assert snapshot["processed"] == 20
        assert snapshot["queue_depth"] == 0
        assert "inspector" in snapshot
