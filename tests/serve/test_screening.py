"""Tier-0 screening of degraded frames at the serving edge.

When overload diverts frames to the cheap pass, a session backed by a
cascade (or the bare pixel-stat screen) still watches them for drift
through the stateless ``peek_suspicion`` -- observability only: no clock
charge, no monitor state touched, so attaching the screen cannot change
any serving decision or the full path's bit-identity.
"""

from __future__ import annotations

from repro.cascade import CascadeMonitor
from repro.detectors import zoo
from repro.detectors.tier0 import PixelStatMonitor
from repro.obs.recorder import Recorder
from repro.serve import (
    DriftServer,
    SessionConfig,
    StreamSession,
    WorkloadConfig,
    capacity_fps,
    generate_arrivals,
)
from repro.testing import make_pipeline
from tests.serve.conftest import gaussian_stream

CAPACITY = capacity_fps()


def cascade_factory(bundle):
    return CascadeMonitor(PixelStatMonitor(bundle.sigma),
                          zoo.build("inspector", bundle))


def screened_session(stream_id: str, seed: int,
                     monitor_factory=cascade_factory) -> StreamSession:
    pipeline = make_pipeline(seed=seed, monitor_factory=monitor_factory)
    return StreamSession(stream_id, pipeline,
                         SessionConfig(queue_capacity=8, deadline_ms=60.0))


def overload_arrivals(seed: int, streams=("a", "b"), n_frames: int = 80,
                      load: float = 1.5):
    """The 1.5x two-stream sweep the overload suite certifies actually
    exercises the degraded path."""
    per_stream_rate = load * CAPACITY / len(streams)
    arrivals = []
    for i, stream_id in enumerate(streams):
        frames = gaussian_stream(seed + i, [(0.0, n_frames)])
        arrivals.extend(generate_arrivals(
            frames, WorkloadConfig(rate_fps=per_stream_rate),
            stream_id=stream_id, deadline_ms=60.0, seed=seed + i))
    return arrivals


def sessions(seed: int, monitor_factory=cascade_factory):
    return [screened_session(sid, seed + i, monitor_factory)
            for i, sid in enumerate(("a", "b"))]


class TestDegradedScreening:
    def test_every_degraded_frame_is_screened(self):
        recorder = Recorder()
        server = DriftServer(sessions(11), recorder=recorder)
        result = server.run(overload_arrivals(11))
        assert result.degraded > 0
        assert recorder.counter("serve.degraded_screened").value == \
            result.degraded
        assert recorder.histogram("serve.screen_suspicion").total == \
            result.degraded

    def test_sessions_without_a_screen_are_untouched(self):
        """The default Drift Inspector offers no ``peek_suspicion``:
        degraded frames flow exactly as before the screen existed."""
        recorder = Recorder()
        server = DriftServer(sessions(11, monitor_factory=None),
                             recorder=recorder)
        result = server.run(overload_arrivals(11))
        assert result.degraded > 0
        assert recorder.counter("serve.degraded_screened").value == 0

    def test_screening_changes_no_serving_outcome(self):
        """Screened and unscreened backends make identical decisions:
        the peek is pure observability."""
        def outcome(monitor_factory):
            server = DriftServer(sessions(7, monitor_factory))
            result = server.run(overload_arrivals(7))
            return [(slo.arrivals, slo.processed, slo.degraded,
                     slo.shed_total, slo.rejected)
                    for slo in result.streams.values()]

        # same tier-1 monitor both times; only the screen differs
        screened = outcome(cascade_factory)
        bare = outcome(lambda bundle: zoo.build("inspector", bundle))
        assert screened == bare

    def test_screening_is_deterministic(self):
        def counters():
            recorder = Recorder()
            server = DriftServer(sessions(23), recorder=recorder)
            server.run(overload_arrivals(23))
            return (recorder.counter("serve.degraded_screened").value,
                    recorder.histogram("serve.screen_suspicion").total,
                    recorder.histogram("serve.screen_suspicion").sum)

        assert counters() == counters()

    def test_non_finite_degraded_frame_is_not_screened(self):
        """A NaN frame on the degraded pass yields no suspicion instead of
        raising out of the serving loop (the screen declines it)."""
        clean = gaussian_stream(3, [(0.0, 1)])[0]
        frame = clean.copy()
        frame[0] = float("nan")
        for factory in (cascade_factory, zoo.factory("pixelstat")):
            session = screened_session("a", 3, factory)
            assert session.screen_degraded(frame) is None
            assert session.screen_degraded(clean) is not None
