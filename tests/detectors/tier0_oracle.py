"""Frozen per-frame reference implementation of the tier-0 screen.

A verbatim copy of the scalar statistics and the frame-by-frame
``PixelStatMonitor`` that the stack kernel in
:mod:`repro.detectors.tier0` replaced.  The equivalence tests hold the
kernel to this oracle bit for bit: suspicions (including the sign of
zero), per-frame z-scores, ``state_dict`` and the drift latch.  Do not
edit it to follow the kernel; it is the contract the kernel must meet.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional

import numpy as np

from repro.detectors.tier0 import STAT_NAMES, Tier0Decision, _DROP_STATS
from repro.errors import (
    ConfigurationError,
    DimensionMismatchError,
    EmptyReferenceError,
)

_FLOOR = 1e-9


def ssim_index(a: np.ndarray, b: np.ndarray) -> float:
    """Global SSIM between two equally-shaped frames, in ``[0, 1]``.

    The standard SSIM form with whole-frame moments (no sliding window):
    ``((2 mu_a mu_b + C1)(2 cov + C2)) / ((mu_a^2 + mu_b^2 + C1)
    (var_a + var_b + C2))`` with ``C1 = (0.01 L)^2``, ``C2 = (0.03 L)^2``
    and ``L`` the combined data range of both frames.  Every term is
    computed symmetrically, so ``ssim_index(a, b) == ssim_index(b, a)``
    bit for bit, and identical frames score exactly ``1.0``.
    """
    x = np.asarray(a, dtype=np.float64).ravel()
    y = np.asarray(b, dtype=np.float64).ravel()
    if x.shape != y.shape:
        raise DimensionMismatchError(
            f"ssim_index needs equally-sized frames, got {np.shape(a)} "
            f"vs {np.shape(b)}")
    if x.size == 0:
        raise DimensionMismatchError("ssim_index needs non-empty frames")
    span = max(float(max(x.max(), y.max())) - float(min(x.min(), y.min())),
               _FLOOR)
    c1 = (0.01 * span) ** 2
    c2 = (0.03 * span) ** 2
    mu_x, mu_y = float(x.mean()), float(y.mean())
    dx, dy = x - mu_x, y - mu_y
    var_x, var_y = float((dx * dx).mean()), float((dy * dy).mean())
    cov = float((dx * dy).mean())
    score = (((2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2))
             / ((mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)))
    return float(min(max(score, 0.0), 1.0))


def gradient_magnitude(frame: np.ndarray) -> np.ndarray:
    """Per-element gradient magnitude of a frame.

    Latent vectors (1-D) use central differences; images (2-D) use the
    3x3 Sobel operator over an edge-padded frame; channel-last images
    (3-D) are collapsed to their channel mean first.  All arithmetic is
    exact on integer-valued frames, so the magnitude -- and every edge
    mask derived from it -- is invariant to a constant integer offset.
    """
    arr = np.asarray(frame, dtype=np.float64)
    if arr.ndim == 3:
        arr = arr.mean(axis=-1)
    if arr.ndim == 1:
        if arr.size < 2:
            return np.zeros_like(arr)
        return np.abs(np.gradient(arr))
    if arr.ndim != 2:
        raise DimensionMismatchError(
            f"gradient_magnitude expects a 1-D, 2-D or 3-D frame, got "
            f"shape {arr.shape}")
    padded = np.pad(arr, 1, mode="edge")
    gx = (padded[:-2, 2:] + 2.0 * padded[1:-1, 2:] + padded[2:, 2:]
          - padded[:-2, :-2] - 2.0 * padded[1:-1, :-2] - padded[2:, :-2])
    gy = (padded[2:, :-2] + 2.0 * padded[2:, 1:-1] + padded[2:, 2:]
          - padded[:-2, :-2] - 2.0 * padded[:-2, 1:-1] - padded[:-2, 2:])
    return np.sqrt(gx * gx + gy * gy)


def edge_mask(frame: np.ndarray, tau: float = 0.25) -> np.ndarray:
    """Boolean edge mask: gradient magnitude ``>= tau * peak``.

    A flat frame (zero peak gradient) has *no* edges -- the mask is empty
    rather than vacuously full.
    """
    if not 0.0 < tau <= 1.0:
        raise ConfigurationError(f"tau must be in (0, 1], got {tau}")
    magnitude = gradient_magnitude(frame)
    peak = float(magnitude.max()) if magnitude.size else 0.0
    if peak <= 0.0:
        return np.zeros(magnitude.shape, dtype=bool)
    return magnitude >= tau * peak


def edge_iou(a: np.ndarray, b: np.ndarray, tau: float = 0.25) -> float:
    """Intersection-over-union of the two frames' edge masks, in
    ``[0, 1]``.  Symmetric, exactly ``1.0`` on identical frames, and
    ``1.0`` when both frames are flat (two edgeless frames agree)."""
    mask_a, mask_b = edge_mask(a, tau), edge_mask(b, tau)
    if mask_a.shape != mask_b.shape:
        raise DimensionMismatchError(
            f"edge_iou needs equally-shaped frames, got {np.shape(a)} "
            f"vs {np.shape(b)}")
    union = int(np.logical_or(mask_a, mask_b).sum())
    if union == 0:
        return 1.0
    intersection = int(np.logical_and(mask_a, mask_b).sum())
    return intersection / union



class OraclePixelStatMonitor:
    """Screen frames with rolling z-scores of cheap pixel statistics.

    Parameters
    ----------
    reference:
        The deployed bundle's reference sample, shape ``(N >= 5, ...)``
        (one frame per row).  The row mean is the reference frame the
        similarity statistics compare against, and the per-row statistic
        distribution calibrates each statistic's baseline mean / spread.
    smoothing:
        Rolling-window length per statistic.  The z-score of a window of
        ``n`` observations uses the standard-error scale
        ``sigma / sqrt(n)``, so suspicion is comparable while the window
        fills.
    drift_z / drift_confirm:
        The standalone latch: suspicion at or above ``drift_z`` for
        ``drift_confirm`` consecutive frames latches ``drift_detected``
        (cleared only by :meth:`reset`).  The cascade keeps these at
        their conservative defaults and acts on ``suspicion`` instead.
    """

    def __init__(self, reference: np.ndarray, smoothing: int = 8,
                 drift_z: float = 6.0, drift_confirm: int = 2) -> None:
        ref = np.asarray(reference, dtype=np.float64)
        if ref.ndim < 2 or ref.shape[0] < 5:
            raise EmptyReferenceError(
                f"reference must be (N>=5, ...), got {ref.shape}")
        if smoothing < 1:
            raise ConfigurationError(f"smoothing must be >= 1: {smoothing}")
        if drift_z <= 0:
            raise ConfigurationError(f"drift_z must be positive: {drift_z}")
        if drift_confirm < 1:
            raise ConfigurationError(
                f"drift_confirm must be >= 1: {drift_confirm}")
        self.smoothing = int(smoothing)
        self.drift_z = float(drift_z)
        self.drift_confirm = int(drift_confirm)
        self.reference_frame = ref.mean(axis=0)
        samples: Dict[str, list] = {name: [] for name in STAT_NAMES}
        for row in ref:
            for name, value in self._stats(row).items():
                samples[name].append(value)
        self._mu = {name: float(np.mean(values))
                    for name, values in samples.items()}
        self._sigma = {name: float(max(np.std(values), _FLOOR))
                       for name, values in samples.items()}
        self._windows: Dict[str, Deque[float]] = {
            name: deque(maxlen=self.smoothing) for name in STAT_NAMES}
        self._streak = 0
        self._frame_index = 0
        self._drift_frame: Optional[int] = None

    # ------------------------------------------------------------------
    @property
    def drift_detected(self) -> bool:
        return self._drift_frame is not None

    @property
    def drift_frame(self) -> Optional[int]:
        return self._drift_frame

    @property
    def frames_seen(self) -> int:
        return self._frame_index

    # ------------------------------------------------------------------
    def _stats(self, frame: np.ndarray) -> Dict[str, float]:
        arr = np.asarray(frame, dtype=np.float64)
        return {
            "ssim": ssim_index(arr, self.reference_frame),
            "edge_iou": edge_iou(arr, self.reference_frame),
            "brightness": float(arr.mean()),
            "variance": float(arr.var()),
        }

    @staticmethod
    def _suspicion_of(zscores: Dict[str, float]) -> float:
        return float(max(
            max(0.0, -score) if name in _DROP_STATS else abs(score)
            for name, score in zscores.items()))

    def peek_suspicion(self, frame: np.ndarray) -> float:
        """Single-frame suspicion with *no* state touched: the z-score of
        the frame's statistics against the calibrated baselines.  The
        serving layer's degraded pass uses this to keep screening frames
        it will not run the full monitor on."""
        stats = self._stats(frame)
        zscores = {name: (stats[name] - self._mu[name]) / self._sigma[name]
                   for name in STAT_NAMES}
        return self._suspicion_of(zscores)

    # ------------------------------------------------------------------
    def observe(self, pixels: np.ndarray) -> Tier0Decision:
        stats = self._stats(pixels)
        zscores: Dict[str, float] = {}
        for name in STAT_NAMES:
            window = self._windows[name]
            window.append(stats[name])
            scale = self._sigma[name] / float(np.sqrt(len(window)))
            zscores[name] = (float(np.mean(window)) - self._mu[name]) / scale
        suspicion = self._suspicion_of(zscores)
        if suspicion >= self.drift_z:
            self._streak += 1
        else:
            self._streak = 0
        if self._streak >= self.drift_confirm and self._drift_frame is None:
            self._drift_frame = self._frame_index
        self._frame_index += 1
        return Tier0Decision(drift=self.drift_detected, suspicion=suspicion,
                             zscores=zscores)

    def observe_batch(self, frames: np.ndarray) -> list:
        """Observe a ``(B, ...)`` stack frame by frame.

        The loop *is* the implementation, so batched observation is
        definitionally bit-identical to sequential observation; combined
        with :meth:`state_dict` it qualifies the screen for the kernel's
        optimistic batched-rollback path.
        """
        arr = np.asarray(frames)
        if arr.ndim == np.ndim(self.reference_frame):
            arr = arr[None, ...]
        return [self.observe(frame) for frame in arr]

    def reset(self) -> None:
        """Re-arm against the current reference (the
        :class:`~repro.runtime.protocols.DriftMonitor` contract)."""
        for window in self._windows.values():
            window.clear()
        self._streak = 0
        self._frame_index = 0
        self._drift_frame = None

    # ------------------------------------------------------------------
    # Snapshotable: dynamic state only (baselines are configuration,
    # rebuilt from the deployed bundle on restore)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        return {
            "frame_index": self._frame_index,
            "drift_frame": self._drift_frame,
            "streak": self._streak,
            "windows": {name: list(window)
                        for name, window in self._windows.items()},
        }

    def load_state_dict(self, state: dict) -> None:
        self._frame_index = int(state["frame_index"])
        drift_frame = state["drift_frame"]
        self._drift_frame = None if drift_frame is None else int(drift_frame)
        self._streak = int(state["streak"])
        for name in STAT_NAMES:
            self._windows[name].clear()
            self._windows[name].extend(
                float(value) for value in state["windows"][name])
