"""Tier-0 drift screening from raw pixel statistics (no VAE, no model).

The runtime kernel's monitoring seam usually carries the paper's VAE+DI
path -- ~3 ms of simulated cost per frame, dominated by the encode.  Most
frames in a stationary stream carry no drift signal, so production drift
stacks put a *screen* in front of the expensive detector: a handful of
numpy-only statistics that cost microseconds and are compared against the
reference sample with rolling z-scores.  This module is that screen:

- :func:`ssim_index` -- a global structural-similarity index between a
  frame and the reference frame (luminance x contrast x structure, the
  standard SSIM form with the windowing collapsed to whole-frame
  moments).  Bounded in ``[0, 1]``, bitwise symmetric, and exactly ``1.0``
  on identical frames.
- :func:`edge_iou` -- intersection-over-union of gradient-magnitude edge
  masks (Sobel for images, central differences for flat latent vectors).
  Bounded in ``[0, 1]``, symmetric, exactly ``1.0`` on identical frames,
  and invariant to a constant brightness offset (a constant shifts no
  gradient).
- brightness (frame mean) and variance, tracked as plain scalars.

:class:`PixelStatMonitor` turns the four statistics into a
:class:`~repro.runtime.protocols.DriftMonitor`: per-statistic baselines
(mean / spread) are calibrated from the reference sample at construction,
every observed frame updates a rolling window per statistic, and the
monitor's *suspicion* is the worst alarm-side z-score across statistics
(similarity statistics alarm on a drop, brightness / variance on any
two-sided deviation).  Sustained suspicion latches a standalone drift
verdict; the cascade layer (:mod:`repro.cascade`) instead reads the
per-frame suspicion to decide when to escalate to a tier-1 detector.

All four statistics are computed by one stack kernel: a ``(B, ...)``
stack is reduced to per-row moments along an axis, its Sobel gradients
come from slicing one padded 3-D stack, and the reference frame's
moments and edge mask are computed once, at construction.  Calibration,
``observe_batch``, ``observe`` (a batch of one) and ``peek_suspicion``
all run that kernel, and every reduction adds in the same order as the
frame-by-frame formulation it replaced, so batched observation is bit
for bit identical to sequential observation (pinned against a frozen
per-frame oracle in the tests).  The monitor is fully
:class:`~repro.runtime.protocols.Snapshotable`, so the kernel's
optimistic batched-rollback path applies.

Non-finite frames are rejected: ``observe`` / ``observe_batch`` raise
:class:`~repro.errors.FrameValidationError` before touching any state,
``peek_suspicion`` returns ``None``, and a non-finite reference sample is
refused at construction.  (A NaN in a rolling window would otherwise
blind three of the four statistics for ``smoothing`` frames.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.errors import (
    CheckpointError,
    ConfigurationError,
    DimensionMismatchError,
    EmptyReferenceError,
    FrameValidationError,
)

#: The tracked statistics, in a fixed order (baselines, rolling windows
#: and state dicts are all keyed by these names).
STAT_NAMES: Tuple[str, ...] = ("ssim", "edge_iou", "brightness", "variance")

#: Similarity statistics: drift manifests as a *drop*, so only the
#: negative side of their z-score raises suspicion.
_DROP_STATS = frozenset({"ssim", "edge_iou"})

#: Numerical floor for spans and spreads (avoids division by zero on
#: degenerate constant references).
_FLOOR = 1e-9

#: Reference rows per calibration pass: bounds the kernel's transient
#: memory on large reference samples.
_CALIBRATION_CHUNK = 64


def _py_max(a: np.ndarray, b) -> np.ndarray:
    """Elementwise ``max(a, b)`` with Python's semantics (``a`` unless
    ``b > a``), so NaNs and signed zeros resolve as the scalar form."""
    return np.where(b > a, b, a)


def _py_min(a: np.ndarray, b) -> np.ndarray:
    """Elementwise ``min(a, b)`` with Python's semantics."""
    return np.where(b < a, b, a)


class _Moments(NamedTuple):
    """Whole-frame moments of a ``(B, N)`` stack, one row per frame."""

    mean: np.ndarray
    dev: np.ndarray
    var: np.ndarray
    high: np.ndarray
    low: np.ndarray

    @classmethod
    def of(cls, flat: np.ndarray) -> "_Moments":
        # ``mean`` / ``var`` reduce each contiguous row exactly as
        # ``frame.mean()`` / ``frame.var()`` reduce one frame
        mean = flat.mean(axis=1)
        dev = flat - mean[:, None]
        return cls(mean, dev, (dev * dev).mean(axis=1),
                   flat.max(axis=1), flat.min(axis=1))


def _ssim(x: _Moments, y: _Moments) -> np.ndarray:
    """Global SSIM of every row of ``x`` against the rows of ``y``
    (equal count, or one row broadcast)."""
    spans = [max(span, _FLOOR) for span in
             (_py_max(x.high, y.high) - _py_min(x.low, y.low)).tolist()]
    # Python's ``**`` (libm pow), not numpy's squaring: the constants
    # stay bit-identical to the scalar form
    c1 = np.array([(0.01 * span) ** 2 for span in spans])
    c2 = np.array([(0.03 * span) ** 2 for span in spans])
    cov = (x.dev * y.dev).mean(axis=1)
    mu_x, mu_y = x.mean, y.mean
    score = (((2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2))
             / ((mu_x * mu_x + mu_y * mu_y + c1) * (x.var + y.var + c2)))
    return _py_min(_py_max(score, 0.0), 1.0)


def ssim_index(a: np.ndarray, b: np.ndarray) -> float:
    """Global SSIM between two equally-shaped frames, in ``[0, 1]``.

    The standard SSIM form with whole-frame moments (no sliding window):
    ``((2 mu_a mu_b + C1)(2 cov + C2)) / ((mu_a^2 + mu_b^2 + C1)
    (var_a + var_b + C2))`` with ``C1 = (0.01 L)^2``, ``C2 = (0.03 L)^2``
    and ``L`` the combined data range of both frames.  Every term is
    computed symmetrically, so ``ssim_index(a, b) == ssim_index(b, a)``
    bit for bit, and identical frames score exactly ``1.0``.
    """
    x, y = (np.ascontiguousarray(frame, dtype=np.float64).reshape(1, -1)
            for frame in (a, b))
    if x.shape != y.shape:
        raise DimensionMismatchError(
            f"ssim_index needs equally-sized frames, got {np.shape(a)} "
            f"vs {np.shape(b)}")
    if x.size == 0:
        raise DimensionMismatchError("ssim_index needs non-empty frames")
    return float(_ssim(_Moments.of(x), _Moments.of(y))[0])


def _check_frame_rank(shape: Tuple[int, ...]) -> None:
    if not 1 <= len(shape) <= 3:
        raise DimensionMismatchError(
            f"gradient_magnitude expects a 1-D, 2-D or 3-D frame, got "
            f"shape {shape}")


def _gradient_stack(stack: np.ndarray) -> np.ndarray:
    """Gradient magnitude of every frame in a ``(B, ...)`` float64 stack
    of 1-D, 2-D or channel-last 3-D frames."""
    if stack.ndim == 4:
        stack = stack.mean(axis=-1)
    if stack.ndim == 2:
        if stack.shape[1] < 2:
            return np.zeros_like(stack)
        return np.abs(np.gradient(stack, axis=1))
    # edge padding by copies (``np.pad(mode="edge")`` without its
    # per-call overhead)
    count, height, width = stack.shape
    padded = np.empty((count, height + 2, width + 2))
    padded[:, 1:-1, 1:-1] = stack
    padded[:, 0, 1:-1] = stack[:, 0]
    padded[:, -1, 1:-1] = stack[:, -1]
    padded[:, :, 0] = padded[:, :, 1]
    padded[:, :, -1] = padded[:, :, -2]
    # the Sobel sums, added term by term in the scalar operator's
    # left-to-right order, in place
    double = 2.0 * padded
    gx = padded[:, :-2, 2:] + double[:, 1:-1, 2:]
    gx += padded[:, 2:, 2:]
    gx -= padded[:, :-2, :-2]
    gx -= double[:, 1:-1, :-2]
    gx -= padded[:, 2:, :-2]
    gy = padded[:, 2:, :-2] + double[:, 2:, 1:-1]
    gy += padded[:, 2:, 2:]
    gy -= padded[:, :-2, :-2]
    gy -= double[:, :-2, 1:-1]
    gy -= padded[:, :-2, 2:]
    gx *= gx
    gy *= gy
    gx += gy
    return np.sqrt(gx, out=gx)


def gradient_magnitude(frame: np.ndarray) -> np.ndarray:
    """Per-element gradient magnitude of a frame.

    Latent vectors (1-D) use central differences; images (2-D) use the
    3x3 Sobel operator over an edge-padded frame; channel-last images
    (3-D) are collapsed to their channel mean first.  All arithmetic is
    exact on integer-valued frames, so the magnitude -- and every edge
    mask derived from it -- is invariant to a constant integer offset.
    """
    arr = np.asarray(frame, dtype=np.float64)
    _check_frame_rank(arr.shape)
    return _gradient_stack(arr[None, ...])[0]


def _edge_masks(stack: np.ndarray, tau: float = 0.25) -> np.ndarray:
    """Edge masks of every frame in a ``(B, ...)`` stack, flattened to
    ``(B, M)``."""
    magnitude = _gradient_stack(stack)
    flat = magnitude.reshape(len(magnitude), -1)
    if flat.shape[1] == 0:
        return flat.astype(bool)
    peak = flat.max(axis=1)
    mask = flat >= (tau * peak)[:, None]
    mask[peak <= 0.0] = False
    return mask


def edge_mask(frame: np.ndarray, tau: float = 0.25) -> np.ndarray:
    """Boolean edge mask: gradient magnitude ``>= tau * peak``.

    A flat frame (zero peak gradient) has *no* edges -- the mask is empty
    rather than vacuously full.
    """
    if not 0.0 < tau <= 1.0:
        raise ConfigurationError(f"tau must be in (0, 1], got {tau}")
    arr = np.asarray(frame, dtype=np.float64)
    _check_frame_rank(arr.shape)
    mask = _edge_masks(arr[None, ...], tau)[0]
    return mask.reshape(arr.shape[:2] if arr.ndim == 3 else arr.shape)


def _iou(masks: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """IoU of every ``(B, M)`` mask row against the reference row(s);
    ``1.0`` where both are empty."""
    union = np.count_nonzero(masks | reference, axis=1)
    intersection = np.count_nonzero(masks & reference, axis=1)
    return np.where(union == 0, 1.0,
                    intersection / np.maximum(union, 1))


def edge_iou(a: np.ndarray, b: np.ndarray, tau: float = 0.25) -> float:
    """Intersection-over-union of the two frames' edge masks, in
    ``[0, 1]``.  Symmetric, exactly ``1.0`` on identical frames, and
    ``1.0`` when both frames are flat (two edgeless frames agree)."""
    mask_a, mask_b = edge_mask(a, tau), edge_mask(b, tau)
    if mask_a.shape != mask_b.shape:
        raise DimensionMismatchError(
            f"edge_iou needs equally-shaped frames, got {np.shape(a)} "
            f"vs {np.shape(b)}")
    return float(_iou(mask_a.reshape(1, -1), mask_b.reshape(1, -1))[0])


@dataclass(frozen=True)
class Tier0Decision:
    """One observed frame's screen verdict.

    ``drift`` is the latched standalone verdict (the
    :class:`~repro.runtime.protocols.DriftMonitor` contract);
    ``suspicion`` is the worst alarm-side rolling z-score across the
    statistics, in reference-sigma units -- the cascade's escalation
    signal; ``zscores`` carries the per-statistic scores for diagnostics.
    """

    drift: bool
    suspicion: float
    zscores: Dict[str, float]


class PixelStatMonitor:
    """Screen frames with rolling z-scores of cheap pixel statistics.

    Parameters
    ----------
    reference:
        The deployed bundle's reference sample, shape ``(N >= 5, ...)``
        (one frame per row, every value finite).  The row mean is the
        reference frame the similarity statistics compare against, and
        the per-row statistic distribution calibrates each statistic's
        baseline mean / spread.
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
        _check_frame_rank(ref.shape[1:])
        if ref[0].size == 0:
            raise DimensionMismatchError("tier-0 needs non-empty frames")
        _require_finite(ref, "reference sample row")
        self.smoothing = int(smoothing)
        self.drift_z = float(drift_z)
        self.drift_confirm = int(drift_confirm)
        self.reference_frame = ref.mean(axis=0)
        reference_stack = np.ascontiguousarray(self.reference_frame[None])
        self._ref_moments = _Moments.of(reference_stack.reshape(1, -1))
        self._ref_edges = _edge_masks(reference_stack)
        samples = np.concatenate(
            [self._stats(np.ascontiguousarray(ref[i:i + _CALIBRATION_CHUNK]))
             for i in range(0, len(ref), _CALIBRATION_CHUNK)], axis=1)
        self._mu = np.array([float(np.mean(row)) for row in samples])
        self._sigma = np.array([float(max(np.std(row), _FLOOR))
                                for row in samples])
        self._drift_frame: Optional[int] = None
        self.reset()

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
    # the stack kernel
    # ------------------------------------------------------------------
    def _stats(self, stack: np.ndarray) -> np.ndarray:
        """The four statistics of a contiguous ``(B, ...)`` stack, as a
        ``(len(STAT_NAMES), B)`` array in ``STAT_NAMES`` order."""
        moments = _Moments.of(stack.reshape(len(stack), -1))
        return np.stack([
            _ssim(moments, self._ref_moments),
            _iou(_edge_masks(stack), self._ref_edges),
            moments.mean,
            moments.var,
        ])

    @staticmethod
    def _suspicion(zscores: np.ndarray) -> np.ndarray:
        """Per-frame worst alarm-side z-score: Python's ``max`` over the
        statistics in ``STAT_NAMES`` order (a NaN never wins, a tie keeps
        the earlier term)."""
        worst = None
        for name, z in zip(STAT_NAMES, zscores):
            term = _py_max(0.0, -z) if name in _DROP_STATS else np.abs(z)
            worst = term if worst is None else _py_max(worst, term)
        return worst

    def _stack(self, frames: np.ndarray, single: bool) -> np.ndarray:
        """Validate and coerce input to a contiguous ``(B, ...)`` stack:
        one frame when ``single``, else a stack (a lone frame is promoted
        to a batch of one).  Raises before any state is touched."""
        try:
            arr = np.asarray(frames, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise FrameValidationError(
                f"tier-0 frames must be numeric: {exc}") from exc
        shape = self.reference_frame.shape
        if single or arr.ndim == len(shape):
            arr = arr[None, ...]
        if arr.shape[1:] != shape:
            raise DimensionMismatchError(
                f"tier-0 frames must have the reference frame's shape "
                f"{shape}, got {np.shape(frames)}")
        _require_finite(arr, "frame")
        return np.ascontiguousarray(arr)

    def _window_means(self, stats: np.ndarray) -> Tuple[np.ndarray,
                                                        np.ndarray]:
        """Rolling-window means after appending each frame of a batch,
        plus each window's length.  Every window is reduced as one
        contiguous row, the same pairwise order ``np.mean`` uses on the
        window on its own."""
        tail_len, count = self._tail.shape[1], stats.shape[1]
        combined = np.concatenate([self._tail, stats], axis=1)
        ends = np.arange(tail_len + 1, tail_len + count + 1)
        lengths = np.minimum(ends, self.smoothing)
        means = np.empty_like(stats)
        filling = int(np.count_nonzero(ends < self.smoothing))
        for j in range(filling):  # short windows, still filling
            means[:, j] = np.ascontiguousarray(
                combined[:, :ends[j]]).mean(axis=1)
        if filling < count:
            first = ends[filling] - self.smoothing
            windows = sliding_window_view(combined, self.smoothing,
                                          axis=1)[:, first:]
            means[:, filling:] = np.ascontiguousarray(windows).mean(axis=2)
        self._tail = combined[:, -self.smoothing:].copy()
        return means, lengths

    def _observe_stack(self, stack: np.ndarray) -> List["Tier0Decision"]:
        if len(stack) == 0:
            return []
        means, lengths = self._window_means(self._stats(stack))
        scale = self._sigma[:, None] / np.sqrt(lengths)
        zscores = (means - self._mu[:, None]) / scale
        decisions = []
        for suspicion, row in zip(self._suspicion(zscores).tolist(),
                                  zscores.T.tolist()):
            if suspicion >= self.drift_z:
                self._streak += 1
            else:
                self._streak = 0
            if (self._streak >= self.drift_confirm
                    and self._drift_frame is None):
                self._drift_frame = self._frame_index
            self._frame_index += 1
            decisions.append(Tier0Decision(
                drift=self.drift_detected, suspicion=suspicion,
                zscores=dict(zip(STAT_NAMES, row))))
        return decisions

    # ------------------------------------------------------------------
    def peek_suspicion(self, frame: np.ndarray) -> Optional[float]:
        """Single-frame suspicion with *no* state touched: the z-score of
        the frame's statistics against the calibrated baselines.  The
        serving layer's degraded pass uses this to keep screening frames
        it will not run the full monitor on.  ``None`` for a non-finite
        frame, which carries no screenable signal."""
        try:
            stack = self._stack(frame, single=True)
        except FrameValidationError:
            return None
        zscores = (self._stats(stack) - self._mu[:, None]) \
            / self._sigma[:, None]
        return float(self._suspicion(zscores)[0])

    def observe(self, pixels: np.ndarray) -> Tier0Decision:
        """Observe one frame (the stack kernel on a batch of one)."""
        return self._observe_stack(self._stack(pixels, single=True))[0]

    def observe_batch(self, frames: np.ndarray) -> List[Tier0Decision]:
        """Observe a ``(B, ...)`` stack in one pass of the stack kernel.

        Bit-identical to calling :meth:`observe` once per frame -- the
        kernel's reductions add in the per-frame order -- so combined
        with :meth:`state_dict` the screen qualifies for the kernel's
        optimistic batched-rollback path.  A single frame is promoted to
        a batch of one; a non-finite frame anywhere in the stack raises
        :class:`~repro.errors.FrameValidationError` with no state
        touched.
        """
        return self._observe_stack(self._stack(frames, single=False))

    def reset(self) -> None:
        """Re-arm against the current reference (the
        :class:`~repro.runtime.protocols.DriftMonitor` contract)."""
        self._tail = np.empty((len(STAT_NAMES), 0))
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
            "windows": dict(zip(STAT_NAMES, self._tail.tolist())),
        }

    def load_state_dict(self, state: dict) -> None:
        windows = [[float(value) for value in state["windows"][name]]
                   [-self.smoothing:] for name in STAT_NAMES]
        if len({len(window) for window in windows}) != 1:
            raise CheckpointError(
                "tier-0 state has rolling windows of unequal length")
        self._tail = np.array(windows, dtype=np.float64)
        self._frame_index = int(state["frame_index"])
        drift_frame = state["drift_frame"]
        self._drift_frame = None if drift_frame is None else int(drift_frame)
        self._streak = int(state["streak"])


def _require_finite(stack: np.ndarray, what: str) -> None:
    """Raise :class:`FrameValidationError` naming the first row of a
    ``(B, ...)`` stack holding a NaN or infinity."""
    finite = np.isfinite(stack).all(axis=tuple(range(1, stack.ndim)))
    if not finite.all():
        index = int(np.argmin(finite))
        raise FrameValidationError(
            f"tier-0 {what} {index} has non-finite values; the screen "
            f"accepts finite frames only")
