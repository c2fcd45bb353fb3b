"""Deadline-aware cross-stream micro-batch scheduling.

The backend serves one micro-batch at a time.  :class:`DeadlineScheduler`
forms each batch with earliest-deadline-first selection over the queue
*heads* (only heads are eligible -- per-stream FIFO order is an invariant
the property suite pins), refined two ways:

- **priority** -- each priority level moves a tenant's frames
  ``priority_weight_ms`` earlier in deadline space, so a premium stream
  wins ties against best-effort ones;
- **aging** -- a frame's effective deadline advances by ``aging_rate`` x
  its waiting time, so under sustained pressure from high-priority
  tenants a low-priority frame eventually becomes the most urgent
  (starvation-freedom).

Two overload refinements bound what EDF may pick:

- **weighted max-min fairness** -- when several streams compete for one
  batch, per-stream caps from a water-filling allocation over the
  tenants' ``SessionConfig.weight`` stop one hot stream from filling the
  whole batch.  Caps are ceil-integerised, so every backlogged stream is
  eligible for at least one slot per batch and EDF order decides among
  the eligible heads.
- **deadline-aware batch capping** -- because every frame in a batch
  completes together at batch end, growing the batch can push its
  earliest member past its deadline.  When the server passes its cost
  model (``frame_cost_ms`` / ``overhead_ms``), batch formation stops
  before the projected completion overruns any already-selected frame's
  deadline (the first frame is always taken, so the loop cannot stall).

Selection is fully deterministic: exact effective-deadline ties fall back
to registration order, then to the per-stream sequence number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.serve.arrivals import FrameArrival
from repro.serve.session import StreamSession

#: Fairness policies for cross-stream batch formation.
FAIRNESS_POLICIES = ("weighted-max-min", "none")

#: Tolerance for float comparisons in caps / completion projections.
_EPS = 1e-9


@dataclass
class SchedulerConfig:
    """Micro-batch formation knobs."""

    batch_size: int = 16
    priority_weight_ms: float = 50.0
    aging_rate: float = 0.1
    fairness: str = "weighted-max-min"
    deadline_aware: bool = True

    def __post_init__(self) -> None:
        if self.batch_size <= 0:
            raise ConfigurationError(
                f"batch_size must be positive: {self.batch_size}")
        if self.priority_weight_ms < 0:
            raise ConfigurationError(
                f"priority_weight_ms must be non-negative: "
                f"{self.priority_weight_ms}")
        if self.aging_rate < 0:
            raise ConfigurationError(
                f"aging_rate must be non-negative: {self.aging_rate}")
        if self.fairness not in FAIRNESS_POLICIES:
            raise ConfigurationError(
                f"fairness must be one of {FAIRNESS_POLICIES}, "
                f"got {self.fairness!r}")


class DeadlineScheduler:
    """EDF with priority weighting, aging, fairness caps and deadline-aware
    batch capping over session queue heads."""

    def __init__(self, config: SchedulerConfig = None) -> None:
        self.config = config or SchedulerConfig()

    # ------------------------------------------------------------------
    def effective_deadline(self, arrival: FrameArrival,
                           session: StreamSession, now_ms: float) -> float:
        """The urgency key: smaller = scheduled sooner."""
        waited = max(0.0, now_ms - arrival.arrival_ms)
        return (arrival.deadline_ms
                - session.config.priority * self.config.priority_weight_ms
                - waited * self.config.aging_rate)

    def _sort_key(self, arrival: FrameArrival, session: StreamSession,
                  index: int, now_ms: float) -> Tuple[float, int, int]:
        return (self.effective_deadline(arrival, session, now_ms),
                index, arrival.seq)

    # ------------------------------------------------------------------
    def fair_caps(self,
                  candidates: List[Tuple[int, StreamSession]],
                  total: int) -> Dict[int, int]:
        """Weighted max-min share of ``total`` batch slots per stream.

        Water-filling: the fill level rises until the demand-bounded
        shares ``min(depth_i, level * weight_i)`` absorb ``total``.
        Saturated streams (backlog below their share) keep their full
        demand; the rest get ``ceil`` of their share, so any backlogged
        stream is eligible for at least one slot (no structural
        starvation), with EDF order arbitrating the small overshoot.
        """
        demands = {i: s.queue.depth for i, s in candidates}
        weights = {i: s.config.weight for i, s in candidates}
        total = min(total, sum(demands.values()))
        caps: Dict[int, int] = {i: 0 for i, _ in candidates}
        if total <= 0:
            return caps
        order = sorted(demands, key=lambda i: (demands[i] / weights[i], i))
        level = 0.0
        remaining = float(total)
        active_weight = sum(weights.values())
        for position, i in enumerate(order):
            saturation = demands[i] / weights[i]
            need = (saturation - level) * active_weight
            if need <= remaining + _EPS:
                remaining -= need
                level = saturation
                caps[i] = demands[i]
                active_weight -= weights[i]
            else:
                level += remaining / active_weight
                for j in order[position:]:
                    caps[j] = min(demands[j],
                                  math.ceil(level * weights[j] - _EPS))
                break
        return caps

    # ------------------------------------------------------------------
    def next_batch(self, candidates: List[Tuple[int, StreamSession]],
                   now_ms: float, *,
                   frame_cost_ms: Optional[float] = None,
                   overhead_ms: float = 0.0,
                   ) -> List[Tuple[StreamSession, FrameArrival]]:
        """Pop up to ``batch_size`` frames, most urgent head first.

        ``candidates`` are the backlogged streams as ``(registration
        index, session)`` pairs in registration order; the server tracks
        them, so no idle session is visited.  Returns ``(session,
        arrival)`` pairs in scheduling order; frames of one stream appear
        in queue (FIFO) order because only heads are ever eligible.
        Empty list when there are no candidates.  When the caller
        supplies ``frame_cost_ms`` (and ``deadline_aware`` is on), the
        batch stops growing before its projected completion
        ``now + overhead + cost * n`` would overrun the deadline of any
        frame already selected or about to be added.
        """
        batch: List[Tuple[StreamSession, FrameArrival]] = []
        if self.config.fairness == "weighted-max-min" and len(candidates) > 1:
            caps = self.fair_caps(candidates, self.config.batch_size)
        else:
            caps = {i: s.queue.depth for i, s in candidates}
        earliest = math.inf
        while candidates and len(batch) < self.config.batch_size:
            best = min(
                candidates,
                key=lambda entry: self._sort_key(
                    entry[1].queue.peek(), entry[1], entry[0], now_ms))
            index, session = best
            head = session.queue.peek()
            if (self.config.deadline_aware and frame_cost_ms is not None
                    and batch):
                completion = (now_ms + overhead_ms
                              + frame_cost_ms * (len(batch) + 1))
                if completion > min(earliest, head.deadline_ms) + _EPS:
                    break
            batch.append((session, session.queue.pop()))
            earliest = min(earliest, head.deadline_ms)
            caps[index] -= 1
            if session.queue.depth == 0 or caps[index] <= 0:
                candidates = [(i, s) for i, s in candidates if i != index]
        return batch
