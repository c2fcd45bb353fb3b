"""Property and unit tests for the tier-0 pixel-stat screen.

The statistics make exact claims -- bounded in ``[0, 1]``, exactly
``1.0`` on identical frames, bitwise symmetric, edge masks invariant to
a constant integer brightness offset -- so they are tested as exact
claims, not approximations.  The monitor's batched path is pinned
bit-identical to sequential observation (the property the kernel's
optimistic rollback relies on).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detectors.tier0 import (
    STAT_NAMES,
    PixelStatMonitor,
    edge_iou,
    edge_mask,
    gradient_magnitude,
    ssim_index,
)
from repro.errors import (
    CheckpointError,
    ConfigurationError,
    DimensionMismatchError,
    EmptyReferenceError,
    FrameValidationError,
)
from repro.testing import DIM, gaussian_stream, make_registry

from .tier0_oracle import OraclePixelStatMonitor


@pytest.fixture(scope="module")
def bundle():
    return make_registry().get("low")


def _vector(seed: int, scale: float = 1.0) -> np.ndarray:
    return np.random.default_rng(seed).normal(0.0, scale, size=DIM)


def _image(seed: int, side: int = 12) -> np.ndarray:
    """Integer-valued image: every gradient is exact in float64, so the
    offset-invariance claims hold bit for bit."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(side, side)).astype(np.float64)


class TestSsimProperties:
    @given(seed=st.integers(0, 2000), scale=st.floats(0.1, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_bounded_on_latent_vectors(self, seed, scale):
        a = _vector(seed, scale)
        b = _vector(seed + 1, scale)
        assert 0.0 <= ssim_index(a, b) <= 1.0

    @given(seed=st.integers(0, 2000))
    @settings(max_examples=25, deadline=None)
    def test_bounded_on_images(self, seed):
        assert 0.0 <= ssim_index(_image(seed), _image(seed + 1)) <= 1.0

    @given(seed=st.integers(0, 2000))
    @settings(max_examples=40, deadline=None)
    def test_identical_frames_score_exactly_one(self, seed):
        a = _vector(seed)
        assert ssim_index(a, a) == 1.0
        img = _image(seed)
        assert ssim_index(img, img) == 1.0

    @given(seed=st.integers(0, 2000))
    @settings(max_examples=40, deadline=None)
    def test_bitwise_symmetric(self, seed):
        a, b = _vector(seed), _vector(seed + 1)
        assert ssim_index(a, b) == ssim_index(b, a)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError, match="equally-sized"):
            ssim_index(np.zeros(4), np.zeros(5))

    def test_empty_frames_rejected(self):
        with pytest.raises(DimensionMismatchError, match="non-empty"):
            ssim_index(np.zeros(0), np.zeros(0))

    def test_constant_frames_well_defined(self):
        """Zero-span inputs hit the numerical floor, not a division by
        zero."""
        a = np.full(DIM, 3.0)
        assert ssim_index(a, a) == 1.0
        assert 0.0 <= ssim_index(a, np.full(DIM, 4.0)) <= 1.0


class TestEdgeProperties:
    @given(seed=st.integers(0, 2000))
    @settings(max_examples=40, deadline=None)
    def test_iou_bounded_symmetric_and_one_on_identity(self, seed):
        a, b = _image(seed), _image(seed + 1)
        score = edge_iou(a, b)
        assert 0.0 <= score <= 1.0
        assert edge_iou(b, a) == score
        assert edge_iou(a, a) == 1.0

    @given(seed=st.integers(0, 2000), offset=st.integers(-64, 64))
    @settings(max_examples=40, deadline=None)
    def test_mask_invariant_to_constant_integer_offset(self, seed, offset):
        """A constant shifts no gradient; on integer-valued frames the
        Sobel arithmetic is exact, so the mask -- and hence the IoU --
        is unchanged bit for bit."""
        a, b = _image(seed), _image(seed + 1)
        assert np.array_equal(edge_mask(a + offset), edge_mask(a))
        assert edge_iou(a + offset, b) == edge_iou(a, b)

    @given(seed=st.integers(0, 2000))
    @settings(max_examples=25, deadline=None)
    def test_iou_on_latent_vectors_bounded(self, seed):
        a, b = _vector(seed), _vector(seed + 1)
        assert 0.0 <= edge_iou(a, b) <= 1.0

    def test_flat_frames_have_no_edges_and_agree(self):
        flat = np.full((8, 8), 7.0)
        assert not edge_mask(flat).any()
        assert edge_iou(flat, flat * 2.0) == 1.0

    def test_gradient_of_short_vector_is_zero(self):
        assert np.array_equal(gradient_magnitude(np.ones(1)), np.zeros(1))

    def test_gradient_collapses_channels(self):
        img = _image(3)
        stacked = np.repeat(img[..., None], 3, axis=-1)
        assert np.array_equal(gradient_magnitude(stacked),
                              gradient_magnitude(img))

    def test_gradient_rejects_higher_rank(self):
        with pytest.raises(DimensionMismatchError, match="1-D, 2-D or 3-D"):
            gradient_magnitude(np.zeros((2, 2, 2, 2)))

    def test_mask_tau_validated(self):
        with pytest.raises(ConfigurationError, match="tau"):
            edge_mask(_image(0), tau=0.0)
        with pytest.raises(ConfigurationError, match="tau"):
            edge_mask(_image(0), tau=1.5)

    def test_iou_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError, match="equally-shaped"):
            edge_iou(np.zeros(4), np.zeros(6))


class TestMonitorConstruction:
    def test_reference_must_be_a_sample(self, bundle):
        with pytest.raises(EmptyReferenceError, match="N>=5"):
            PixelStatMonitor(np.zeros(DIM))
        with pytest.raises(EmptyReferenceError, match="N>=5"):
            PixelStatMonitor(bundle.sigma[:3])

    def test_knobs_validated(self, bundle):
        with pytest.raises(ConfigurationError, match="smoothing"):
            PixelStatMonitor(bundle.sigma, smoothing=0)
        with pytest.raises(ConfigurationError, match="drift_z"):
            PixelStatMonitor(bundle.sigma, drift_z=0.0)
        with pytest.raises(ConfigurationError, match="drift_confirm"):
            PixelStatMonitor(bundle.sigma, drift_confirm=0)


class TestMonitorBehaviour:
    def test_stationary_stream_stays_quiet(self, bundle):
        monitor = PixelStatMonitor(bundle.sigma)
        for frame in gaussian_stream(5, [(0.0, 240)]):
            monitor.observe(frame)
        assert not monitor.drift_detected
        assert monitor.drift_frame is None
        assert monitor.frames_seen == 240

    def test_shifted_stream_latches_after_onset(self, bundle):
        monitor = PixelStatMonitor(bundle.sigma)
        decisions = [monitor.observe(frame) for frame in
                     gaussian_stream(5, [(0.0, 120), (6.0, 120)])]
        assert monitor.drift_detected
        assert monitor.drift_frame >= 120
        # the latch is sticky: every decision after it reports drift
        assert all(d.drift for d in decisions[monitor.drift_frame:])
        assert all(set(d.zscores) == set(STAT_NAMES) for d in decisions)

    def test_suspicion_rises_after_onset(self, bundle):
        monitor = PixelStatMonitor(bundle.sigma)
        decisions = [monitor.observe(frame) for frame in
                     gaussian_stream(7, [(0.0, 120), (6.0, 120)])]
        pre = max(d.suspicion for d in decisions[:120])
        post = max(d.suspicion for d in decisions[120:])
        assert post > pre
        assert all(d.suspicion >= 0.0 for d in decisions)

    def test_reset_rearms(self, bundle):
        monitor = PixelStatMonitor(bundle.sigma)
        for frame in gaussian_stream(5, [(0.0, 60), (6.0, 60)]):
            monitor.observe(frame)
        assert monitor.drift_detected
        monitor.reset()
        assert not monitor.drift_detected
        assert monitor.frames_seen == 0
        assert monitor.state_dict()["streak"] == 0
        assert all(not window for window in
                   monitor.state_dict()["windows"].values())

    def test_peek_suspicion_touches_no_state(self, bundle):
        monitor = PixelStatMonitor(bundle.sigma)
        for frame in gaussian_stream(9, [(0.0, 40)]):
            monitor.observe(frame)
        before = monitor.state_dict()
        calm = monitor.peek_suspicion(gaussian_stream(1, [(0.0, 1)])[0])
        wild = monitor.peek_suspicion(gaussian_stream(1, [(9.0, 1)])[0])
        assert monitor.state_dict() == before
        assert wild > calm >= 0.0


class TestMonitorSnapshotAndBatch:
    @given(seed=st.integers(0, 500), split=st.integers(1, 119),
           batch=st.sampled_from([1, 3, 16, 240]))
    @settings(max_examples=15, deadline=None)
    def test_batched_and_restored_runs_are_bit_identical(self, seed, split,
                                                         batch, bundle):
        frames = gaussian_stream(seed, [(0.0, 60), (6.0, 60)])
        sequential = PixelStatMonitor(bundle.sigma)
        seq_decisions = [sequential.observe(frame) for frame in frames]

        batched = PixelStatMonitor(bundle.sigma)
        batch_decisions = []
        for start in range(0, len(frames), batch):
            batch_decisions.extend(
                batched.observe_batch(frames[start:start + batch]))
        assert batch_decisions == seq_decisions
        assert batched.state_dict() == sequential.state_dict()

        resumed = PixelStatMonitor(bundle.sigma)
        prefix = [resumed.observe(frame) for frame in frames[:split]]
        restored = PixelStatMonitor(bundle.sigma)
        restored.load_state_dict(resumed.state_dict())
        tail = [restored.observe(frame) for frame in frames[split:]]
        assert prefix + tail == seq_decisions
        assert restored.state_dict() == sequential.state_dict()

    def test_single_frame_promoted_to_batch_of_one(self, bundle):
        monitor = PixelStatMonitor(bundle.sigma)
        decisions = monitor.observe_batch(gaussian_stream(2, [(0.0, 1)])[0])
        assert len(decisions) == 1
        assert monitor.frames_seen == 1


class TestNonFinitePolicy:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_observe_rejects_without_touching_state(self, bundle, bad):
        monitor = PixelStatMonitor(bundle.sigma)
        frames = gaussian_stream(4, [(0.0, 12)])
        monitor.observe_batch(frames[:5])
        before = monitor.state_dict()
        frame = frames[5].copy()
        frame[2] = bad
        with pytest.raises(FrameValidationError, match="non-finite"):
            monitor.observe(frame)
        stack = frames[5:9].copy()
        stack[2, 0] = bad
        with pytest.raises(FrameValidationError, match="frame 2"):
            monitor.observe_batch(stack)
        assert monitor.state_dict() == before
        assert monitor.frames_seen == 5

    def test_non_finite_reference_rejected(self, bundle):
        reference = bundle.sigma.copy()
        reference[3, 1] = np.nan
        with pytest.raises(FrameValidationError, match="reference"):
            PixelStatMonitor(reference)

    def test_peek_declines_non_finite_frames(self, bundle):
        monitor = PixelStatMonitor(bundle.sigma)
        frame = gaussian_stream(1, [(0.0, 1)])[0].copy()
        frame[0] = np.inf
        assert monitor.peek_suspicion(frame) is None

    def test_non_numeric_frame_is_a_validation_error(self, bundle):
        monitor = PixelStatMonitor(bundle.sigma)
        with pytest.raises(FrameValidationError, match="numeric"):
            monitor.observe(np.array(["a"] * DIM))

    def test_wrong_frame_shape_rejected(self, bundle):
        monitor = PixelStatMonitor(bundle.sigma)
        with pytest.raises(DimensionMismatchError, match="shape"):
            monitor.observe(np.zeros(DIM + 1))

    def test_nan_frame_no_longer_blinds_a_brightness_shift(self, bundle):
        """Regression: on the per-frame monitor a single NaN frame made
        three statistics' rolling means NaN for ``smoothing`` frames, so
        a +10 sigma brightness shift right after it read as quiet for 7
        frames.  The NaN frame is now rejected and the shift is seen at
        once, exactly as by a monitor that never saw the NaN."""
        frames = gaussian_stream(5, [(0.0, 40)])
        blinded = OraclePixelStatMonitor(bundle.sigma)
        screened = PixelStatMonitor(bundle.sigma)
        clean = PixelStatMonitor(bundle.sigma)
        for monitor in (blinded, screened, clean):
            monitor.observe_batch(frames[:20])
        nan = frames[20].copy()
        nan[0] = np.nan
        blinded.observe(nan)
        with pytest.raises(FrameValidationError):
            screened.observe(nan)
        brightness_sigma = np.std([row.mean() for row in bundle.sigma])
        shifted = frames[21:29] + 10.0 * brightness_sigma
        old = [blinded.observe(frame).suspicion for frame in shifted]
        new = screened.observe_batch(shifted)
        assert new == clean.observe_batch(shifted)
        assert max(old[:7]) < screened.drift_z  # the old blind spot
        assert new[1].suspicion >= screened.drift_z
        assert screened.drift_frame == 22


class TestStateValidation:
    def test_unequal_windows_rejected(self, bundle):
        monitor = PixelStatMonitor(bundle.sigma)
        monitor.observe_batch(gaussian_stream(2, [(0.0, 3)]))
        state = monitor.state_dict()
        state["windows"]["ssim"] = state["windows"]["ssim"][:-1]
        with pytest.raises(CheckpointError, match="unequal"):
            PixelStatMonitor(bundle.sigma).load_state_dict(state)
