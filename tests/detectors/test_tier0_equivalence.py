"""The tier-0 stack kernel against the frozen per-frame oracle.

``tier0_oracle`` keeps the frame-by-frame statistics and monitor the
stack kernel replaced.  These properties hold the kernel to it bit for
bit -- decisions (suspicion including the sign of zero, every z-score),
``state_dict``, the drift latch and ``peek_suspicion`` -- across frame
ranks, degenerate frames, arbitrary chunkings, and ``reset`` /
``state_dict`` splits taken while a rolling window is still filling.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detectors.tier0 import STAT_NAMES, PixelStatMonitor

from .tier0_oracle import OraclePixelStatMonitor

#: Frame shapes per rank: 1-D latents, 2-D images, 3-D channel-last.
_SHAPES = {
    "latent": [(1,), (2,), (3,), (8,)],
    "image": [(1, 5), (4, 4), (6, 9), (12, 12)],
    "channels": [(4, 4, 1), (5, 6, 3)],
}


def _frames(rng, shape, count, style):
    """``count`` frames of one ``style``: gaussian, integer-valued,
    constant (zero spread), or mixed with flat (edgeless) frames."""
    frames = rng.normal(rng.normal(0.0, 2.0), 1.0 + rng.random(),
                        size=(count,) + shape)
    if style == "integer":
        frames = np.round(frames * 8.0)
    elif style == "constant":
        frames = np.full((count,) + shape, float(rng.integers(-3, 4)))
    elif style == "flat":
        flat = rng.random(count) < 0.4
        frames[flat] = np.round(frames[flat].mean(axis=tuple(
            range(1, frames.ndim)), keepdims=True))
    return frames


def _assert_same_decisions(expected, actual):
    assert len(actual) == len(expected)
    for want, got in zip(expected, actual):
        assert got.drift == want.drift
        assert got.suspicion == want.suspicion
        assert math.copysign(1.0, got.suspicion) == \
            math.copysign(1.0, want.suspicion)
        assert list(got.zscores) == list(STAT_NAMES)
        for name in STAT_NAMES:
            assert np.float64(got.zscores[name]).tobytes() == \
                np.float64(want.zscores[name]).tobytes(), name


def _chunks(frames, sizes):
    start, index = 0, 0
    while start < len(frames):
        size = sizes[index % len(sizes)]
        yield frames[start:start + size]
        start += size
        index += 1


_settings = settings(max_examples=40, deadline=None)


@given(seed=st.integers(0, 10_000),
       rank=st.sampled_from(sorted(_SHAPES)),
       shape_pick=st.integers(0, 3),
       style=st.sampled_from(["gaussian", "integer", "constant", "flat"]),
       reference_style=st.sampled_from(["gaussian", "integer", "constant"]),
       smoothing=st.integers(1, 12),
       sizes=st.lists(st.integers(1, 17), min_size=1, max_size=5))
@_settings
def test_batched_kernel_matches_the_per_frame_oracle(
        seed, rank, shape_pick, style, reference_style, smoothing, sizes):
    rng = np.random.default_rng(seed)
    shape = _SHAPES[rank][shape_pick % len(_SHAPES[rank])]
    reference = _frames(rng, shape, int(rng.integers(5, 30)),
                        reference_style)
    frames = _frames(rng, shape, 48, style)
    oracle = OraclePixelStatMonitor(reference, smoothing=smoothing,
                                    drift_z=2.0)
    kernel = PixelStatMonitor(reference, smoothing=smoothing, drift_z=2.0)

    expected = [oracle.observe(frame) for frame in frames]
    actual = []
    for chunk in _chunks(frames, sizes):
        actual.extend(kernel.observe_batch(chunk))
    _assert_same_decisions(expected, actual)
    assert kernel.state_dict() == oracle.state_dict()
    for frame in frames[:4]:
        assert kernel.peek_suspicion(frame) == oracle.peek_suspicion(frame)


@given(seed=st.integers(0, 10_000),
       rank=st.sampled_from(sorted(_SHAPES)),
       smoothing=st.integers(2, 12),
       split_pick=st.integers(0, 100),
       sizes=st.lists(st.integers(1, 17), min_size=1, max_size=4))
@_settings
def test_reset_and_restore_while_a_window_fills(seed, rank, smoothing,
                                                split_pick, sizes):
    """Split a run by ``state_dict`` / ``load_state_dict`` and by
    ``reset`` at a point where the rolling windows are still short."""
    rng = np.random.default_rng(seed)
    shape = _SHAPES[rank][seed % len(_SHAPES[rank])]
    reference = _frames(rng, shape, 12, "gaussian")
    frames = _frames(rng, shape, 40, "gaussian")
    split = 1 + split_pick % (smoothing - 1)  # inside the filling window

    oracle = OraclePixelStatMonitor(reference, smoothing=smoothing)
    expected = [oracle.observe(frame) for frame in frames[:split]]
    checkpoint = oracle.state_dict()
    expected += [oracle.observe(frame) for frame in frames[split:20]]
    oracle.reset()
    expected += [oracle.observe(frame) for frame in frames[20:]]

    first = PixelStatMonitor(reference, smoothing=smoothing)
    actual = []
    for chunk in _chunks(frames[:split], sizes):
        actual.extend(first.observe_batch(chunk))
    assert first.state_dict() == checkpoint
    resumed = PixelStatMonitor(reference, smoothing=smoothing)
    resumed.load_state_dict(checkpoint)
    for chunk in _chunks(frames[split:20], sizes):
        actual.extend(resumed.observe_batch(chunk))
    resumed.reset()
    for chunk in _chunks(frames[20:], sizes):
        actual.extend(resumed.observe_batch(chunk))
    _assert_same_decisions(expected, actual)
    assert resumed.state_dict() == oracle.state_dict()


@pytest.mark.parametrize("shape", [(8,), (6, 6), (4, 4, 3)])
def test_scalar_observe_is_the_kernel_on_one_frame(shape):
    rng = np.random.default_rng(3)
    reference = rng.normal(size=(20,) + shape)
    frames = rng.normal(0.5, 1.5, size=(30,) + shape)
    oracle = OraclePixelStatMonitor(reference)
    kernel = PixelStatMonitor(reference)
    _assert_same_decisions([oracle.observe(frame) for frame in frames],
                           [kernel.observe(frame) for frame in frames])
    assert kernel.state_dict() == oracle.state_dict()


def test_suspicion_zero_keeps_its_sign():
    """An all-quiet frame scores exactly +0.0 suspicion in both paths."""
    reference = np.full((6, 8), 2.0)
    oracle = OraclePixelStatMonitor(reference)
    kernel = PixelStatMonitor(reference)
    want = oracle.observe(np.full(8, 2.0))
    got = kernel.observe_batch(np.full((1, 8), 2.0))[0]
    assert want.suspicion == 0.0
    _assert_same_decisions([want], [got])
