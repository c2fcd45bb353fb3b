"""The two-tier cascade monitor and its deterministic escalation policy.

``CascadeMonitor`` screens every frame with a cheap tier-0 monitor and
feeds only *escalated* frames to the expensive tier-1 detector.  The
whole composition satisfies :class:`~repro.runtime.protocols.DriftMonitor`
-- and, when both tiers qualify, :class:`~repro.runtime.protocols.
Snapshotable` plus ``observe_batch`` -- so a cascade is interchangeable
with a flat detector everywhere the kernel's ``monitor_factory`` seam is
accepted: sequential, batched, serve and fleet substrates all stay
bit-identical because escalation is a pure function of the tier-0
statistics and the policy's counters.

Escalation semantics (:class:`EscalationPolicy`):

- suspicion at or above ``threshold`` escalates the breaching frame and
  opens an escalation window covering the next ``window`` frames;
- any breach *inside* an open window refreshes it (sticky escalation: a
  sustained drift keeps the tier-1 detector fed until it rules);
- when a window drains without re-breach, ``cooldown`` frames must pass
  before the policy re-arms -- the hysteresis that stops a suspicion
  level hovering at the threshold from flapping the expensive tier.

The tier-1 monitor is the *authority* on drift: the cascade latches its
own ``drift_frame`` (in cascade frame indices, since tier 1 only sees a
subsequence) the first time the tier-1 detector flags.  Per-tier cost is
accounted two ways: an optional :class:`~repro.sim.clock.SimulatedClock`
is charged the tier's operations per observed frame, and the recorder
(when one is attached) carries ``cascade.frames`` /
``cascade.escalated_frames`` counters, per-tier simulated-microsecond
histograms, and a ``cascade.escalated`` logical event per window opening.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import CascadeError, CheckpointError, ConfigurationError
from repro.obs.recorder import NULL_RECORDER
from repro.runtime.monitoring import MonitorStage
from repro.runtime.protocols import DriftMonitor, Snapshotable
from repro.sim.costs import CostProfile, PAPER_COSTS

#: Simulated operations one tier-0 screen costs per frame.
TIER0_OPS: Tuple[str, ...] = ("pixelstat_screen",)

#: Simulated operations one tier-1 (VAE+DI) observation costs per frame.
TIER1_OPS: Tuple[str, ...] = ("vae_encode", "knn_nonconformity",
                              "martingale_update")

#: Histogram boundaries for the per-tier simulated-microsecond cost.
_US_BUCKETS: Tuple[float, ...] = (10.0, 50.0, 100.0, 500.0, 1000.0,
                                  2500.0, 5000.0, 10000.0)


class EscalationPolicy:
    """Deterministic threshold + window + hysteresis-cooldown machine.

    The policy is pure state-machine logic over the suspicion values it
    is shown -- no RNG, no clock -- so two policies with equal
    configuration and equal ``state_dict`` produce identical escalation
    sequences on identical inputs (the property the conformance kit's
    determinism clause pins).
    """

    def __init__(self, threshold: float = 3.5, window: int = 16,
                 cooldown: int = 32) -> None:
        if threshold <= 0:
            raise ConfigurationError(
                f"escalation threshold must be positive: {threshold}")
        if window < 1:
            raise ConfigurationError(
                f"escalation window must be >= 1: {window}")
        if cooldown < 0:
            raise ConfigurationError(
                f"cooldown must be non-negative: {cooldown}")
        self.threshold = float(threshold)
        self.window = int(window)
        self.cooldown = int(cooldown)
        self._window_left = 0
        self._cooldown_left = 0

    @property
    def escalated(self) -> bool:
        """Whether an escalation window is currently open."""
        return self._window_left > 0

    def decide(self, suspicion: float) -> bool:
        """Advance the machine one frame; returns whether this frame is
        escalated to tier 1."""
        if self._window_left > 0:
            self._window_left -= 1
            if suspicion >= self.threshold:
                self._window_left = self.window
            if self._window_left == 0:
                self._cooldown_left = self.cooldown
            return True
        if self._cooldown_left > 0:
            self._cooldown_left -= 1
            return False
        if suspicion >= self.threshold:
            self._window_left = self.window
            return True
        return False

    def reset(self) -> None:
        self._window_left = 0
        self._cooldown_left = 0

    def state_dict(self) -> dict:
        return {"window_left": self._window_left,
                "cooldown_left": self._cooldown_left}

    def load_state_dict(self, state: dict) -> None:
        self._window_left = int(state["window_left"])
        self._cooldown_left = int(state["cooldown_left"])


@dataclass(frozen=True)
class CascadeDecision:
    """One frame's cascade verdict: the latched drift flag (tier-1
    authority), whether this frame was escalated, and the tier-0
    suspicion that drove the decision."""

    drift: bool
    escalated: bool
    suspicion: float


def _tier_qualifies(monitor: object) -> bool:
    """Whether a tier individually qualifies for the optimistic batched
    path: a callable ``observe_batch`` *and* Snapshotable -- the same
    rule :class:`~repro.runtime.monitoring.MonitorStage` applies."""
    return (callable(getattr(monitor, "observe_batch", None))
            and isinstance(monitor, Snapshotable))


class CascadeMonitor:
    """Compose a cheap tier-0 screen with an expensive tier-1 detector.

    Parameters
    ----------
    tier0 / tier1:
        Any two :class:`~repro.runtime.protocols.DriftMonitor` instances.
        Tier 0 should expose a ``suspicion`` attribute on its decisions
        (as :class:`~repro.detectors.tier0.Tier0Decision` does); a
        bool-only tier 0 degrades gracefully -- a raised flag counts as
        threshold-level suspicion.
    policy:
        The :class:`EscalationPolicy`; defaults are tuned for the
        gaussian certification fixtures.
    clock / profile / recorder:
        Optional cost and observability plumbing.  The clock is charged
        ``tier0_ops`` per frame and ``tier1_ops`` per escalated frame;
        the recorder gets counters, per-tier cost histograms and a
        ``cascade.escalated`` event per window opening.  Both default to
        inert (zoo-built cascades run bare).

    ``observe_batch`` is only *bound* when both tiers individually
    qualify for the kernel's optimistic batched path (callable
    ``observe_batch`` + Snapshotable).  A tier-1 monitor without a
    batched path (e.g. ODIN) has not certified snapshot-replay
    semantics, so the cascade refuses to advertise one on its behalf --
    :attr:`~repro.runtime.monitoring.MonitorStage.supports_rollback`
    then reports ``False`` and the kernel drives the cascade frame by
    frame, exactly as it drives the bare tier-1 monitor.
    """

    def __init__(self, tier0: DriftMonitor, tier1: DriftMonitor,
                 policy: Optional[EscalationPolicy] = None,
                 clock: Optional[object] = None,
                 profile: Optional[CostProfile] = None,
                 recorder: Optional[object] = None,
                 tier0_ops: Tuple[str, ...] = TIER0_OPS,
                 tier1_ops: Tuple[str, ...] = TIER1_OPS) -> None:
        for label, tier in (("tier0", tier0), ("tier1", tier1)):
            if not isinstance(tier, DriftMonitor):
                raise CascadeError(
                    f"cascade {label} monitor {type(tier).__name__} does "
                    f"not satisfy the DriftMonitor protocol")
        self.tier0 = tier0
        self.tier1 = tier1
        self.policy = policy if policy is not None else EscalationPolicy()
        self.clock = clock
        self.obs = recorder if recorder is not None else NULL_RECORDER
        self.tier0_ops = tuple(tier0_ops)
        self.tier1_ops = tuple(tier1_ops)
        costs = profile if profile is not None else PAPER_COSTS
        self._tier0_us = 1000.0 * sum(costs.cost(op)
                                      for op in self.tier0_ops)
        self._tier1_us = 1000.0 * sum(costs.cost(op)
                                      for op in self.tier1_ops)
        self._frame_index = 0
        self._drift_frame: Optional[int] = None
        self._frames_escalated = 0
        self._escalations = 0
        if _tier_qualifies(tier0) and _tier_qualifies(tier1):
            # the stage forwards tier 1's bit-exactness knobs (the Drift
            # Inspector's ``exact_embed``) exactly as the kernel would
            self._tier1_stage = MonitorStage(tier1)
            self.observe_batch = self._observe_batch

    # ------------------------------------------------------------------
    @property
    def drift_detected(self) -> bool:
        return self._drift_frame is not None

    @property
    def drift_frame(self) -> Optional[int]:
        return self._drift_frame

    @property
    def escalated(self) -> bool:
        return self.policy.escalated

    @property
    def frames_seen(self) -> int:
        return self._frame_index

    @property
    def frames_escalated(self) -> int:
        return self._frames_escalated

    @property
    def escalations(self) -> int:
        """How many escalation windows have been opened."""
        return self._escalations

    # ------------------------------------------------------------------
    def _suspicion_of(self, decision: object) -> float:
        suspicion = getattr(decision, "suspicion", None)
        if suspicion is not None:
            return float(suspicion)
        # bool-only tier 0: a raised flag is exactly threshold suspicion
        flagged = bool(getattr(decision, "drift", decision))
        return self.policy.threshold if flagged else 0.0

    def peek_suspicion(self, pixels: np.ndarray) -> Optional[float]:
        """Stateless tier-0 suspicion for one frame (``None`` when the
        tier-0 monitor offers no peek, or declines the frame); the
        serving layer's degraded pass screens with this."""
        peek = getattr(self.tier0, "peek_suspicion", None)
        suspicion = None if peek is None else peek(pixels)
        return None if suspicion is None else float(suspicion)

    # ------------------------------------------------------------------
    def _step(self, suspicion: float) -> Tuple[bool, bool]:
        """Run the escalation policy on one frame's suspicion; returns
        ``(escalated, opened)`` -- whether the frame goes to tier 1 and
        whether it opened a new escalation window."""
        was_open = self.policy.escalated
        escalated = self.policy.decide(suspicion)
        return escalated, escalated and not was_open

    def _account(self, suspicion: float, escalated: bool,
                 opened: bool) -> None:
        """Charge the clock and the recorder for the current frame."""
        if self.clock is not None:
            for op in self.tier0_ops:
                self.clock.charge(op)
        if escalated:
            self._frames_escalated += 1
            if opened:
                self._escalations += 1
                self.obs.event("cascade.escalated", frame=self._frame_index,
                               suspicion=round(suspicion, 6))
            if self.clock is not None:
                for op in self.tier1_ops:
                    self.clock.charge(op)
            self.obs.histogram("cascade.tier1_us", _US_BUCKETS).observe(
                self._tier1_us)
        self.obs.counter("cascade.frames").inc()
        if escalated:
            self.obs.counter("cascade.escalated_frames").inc()
        self.obs.histogram("cascade.tier0_us", _US_BUCKETS).observe(
            self._tier0_us)

    def _latch(self, frame_index: int) -> None:
        if self._drift_frame is None:
            self._drift_frame = frame_index

    def observe(self, pixels: np.ndarray) -> CascadeDecision:
        suspicion = self._suspicion_of(self.tier0.observe(pixels))
        escalated, opened = self._step(suspicion)
        self._account(suspicion, escalated, opened)
        if escalated:
            verdict = self.tier1.observe(pixels)
            if MonitorStage.drift_of(verdict) or self.tier1.drift_detected:
                self._latch(self._frame_index)
        self._frame_index += 1
        return CascadeDecision(drift=self.drift_detected,
                               escalated=escalated, suspicion=suspicion)

    def _observe_batch(self, frames: np.ndarray) -> List[CascadeDecision]:
        """Observe a ``(B, ...)`` stack with one tier-0 ``observe_batch``
        call and one tier-1 ``observe_batch`` call per contiguous run of
        escalated frames.

        Escalation depends only on tier-0 suspicion, so the policy runs
        frame by frame on the screened stack and the escalated runs are
        known before tier 1 sees them.  A run is handed to tier 1 before
        the next window opens, so events, counters and the clock ledger
        match :meth:`observe` per frame bit for bit.  A single frame (of
        tier 0's frame rank) is promoted to a batch of one.  Bound as
        ``observe_batch`` only when both tiers qualify -- see the class
        docstring.
        """
        arr = np.asarray(frames)
        reference = getattr(self.tier0, "reference_frame", None)
        if arr.ndim == (1 if reference is None else np.ndim(reference)):
            arr = arr[None, ...]
        screened = self.tier0.observe_batch(arr)
        first_index = self._frame_index
        escalations: List[Tuple[bool, float]] = []
        run_start: Optional[int] = None
        for offset, decision in enumerate(screened):
            suspicion = self._suspicion_of(decision)
            escalated, opened = self._step(suspicion)
            if run_start is not None and (opened or not escalated):
                self._tier1_run(arr, run_start, offset, first_index)
                run_start = None
            if escalated and run_start is None:
                run_start = offset
            self._account(suspicion, escalated, opened)
            self._frame_index += 1
            escalations.append((escalated, suspicion))
        if run_start is not None:
            self._tier1_run(arr, run_start, len(escalations), first_index)
        latched = self._drift_frame
        return [CascadeDecision(
                    drift=latched is not None
                    and latched <= first_index + offset,
                    escalated=escalated, suspicion=suspicion)
                for offset, (escalated, suspicion) in enumerate(escalations)]

    def _tier1_run(self, frames: np.ndarray, start: int, stop: int,
                   first_index: int) -> None:
        """Feed ``frames[start:stop]`` (escalated, contiguous) to tier 1 and
        latch the cascade verdict at the first frame tier 1 flags (the
        run's first frame when tier 1 had already latched), as
        :meth:`observe` would per frame."""
        detected_before = self.tier1.drift_detected
        flags = self._tier1_stage.observe_batch(frames[start:stop])
        for offset, flagged in enumerate(flags, start):
            if flagged or detected_before:
                self._latch(first_index + offset)
                return

    def reset(self) -> None:
        """Re-arm both tiers and the escalation machine."""
        self.tier0.reset()
        self.tier1.reset()
        self.policy.reset()
        self._frame_index = 0
        self._drift_frame = None
        self._frames_escalated = 0
        self._escalations = 0

    # ------------------------------------------------------------------
    # Snapshotable (when both tiers are)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        for label, tier in (("tier0", self.tier0), ("tier1", self.tier1)):
            if not isinstance(tier, Snapshotable):
                raise CheckpointError(
                    f"cascade {label} monitor {type(tier).__name__} is not "
                    f"Snapshotable; the cascade cannot be checkpointed")
        return {
            "frame_index": self._frame_index,
            "drift_frame": self._drift_frame,
            "frames_escalated": self._frames_escalated,
            "escalations": self._escalations,
            "policy": self.policy.state_dict(),
            "tier0": self.tier0.state_dict(),
            "tier1": self.tier1.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        self._frame_index = int(state["frame_index"])
        drift_frame = state["drift_frame"]
        self._drift_frame = None if drift_frame is None else int(drift_frame)
        self._frames_escalated = int(state["frames_escalated"])
        self._escalations = int(state["escalations"])
        self.policy.load_state_dict(state["policy"])
        self.tier0.load_state_dict(state["tier0"])
        self.tier1.load_state_dict(state["tier1"])
