"""Per-tenant serving state: :class:`StreamSession` + :class:`SessionRegistry`.

A session ties one tenant's drift-aware pipeline (and therefore its
:class:`~repro.core.drift_inspector.DriftInspector` state) to the serving
knobs that distinguish tenants sharing a backend: scheduling priority,
per-frame deadline budget, queue capacity and load-shedding policy.  The
registry keys sessions by stream id in registration order -- the order is
part of the deterministic contract (scheduler tie-breaks and report
sections follow it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.core.pipeline import DriftAwareAnalytics
from repro.errors import ConfigurationError, ServeError
from repro.faults.guard import CircuitBreaker, FrameGuard
from repro.serve.arrivals import FrameArrival
from repro.serve.queues import SHED_POLICIES, BoundedFrameQueue


@dataclass
class SessionConfig:
    """Per-tenant serving knobs.

    ``priority`` biases the deadline scheduler (higher = served sooner);
    ``deadline_ms`` is the default per-frame latency budget used when the
    workload generator stamps arrivals for this stream; ``queue_capacity``
    and ``shed_policy`` configure the bounded queue;
    ``breaker_threshold`` consecutive sheds trip the admission circuit
    breaker (arrivals are then fast-failed until the queue drains below
    its low watermark); ``guard_policy`` is the admission-time
    :class:`~repro.faults.guard.FrameGuard` policy (``skip`` quarantines
    malformed frames at the serving edge, ``raise`` fails fast).

    ``weight`` is this tenant's share of the backend under the
    scheduler's weighted max-min fairness and in the server's admission
    ETA estimate.  The server totals the backlogged tenants' weights per
    tenant class (tenants with equal ``weight``, ``deadline_ms`` and
    ``queue_capacity``), as ``weight x backlogged count`` summed over
    the classes, rather than tenant by tenant.  For integer or dyadic weights
    (``k / 2**m``, e.g. 0.25, 1.5, 2.0) both sums are exact, so every
    decision equals a tenant-by-tenant scan bit for bit.  For other
    floats the two sums may differ in the last ulps (relative error at
    most about ``(backlogged tenants + classes) * 2**-53``), and so may
    the load pressure and admission ETA derived from them; the serve
    suite holds them to a relative tolerance of ``1e-12``.
    ``degraded_allowed`` controls what happens to arrivals
    whose full-path completion cannot meet the deadline -- when true the
    overload controller may divert them to the cheap degraded pass (or
    shed them while SHEDDING), when false they are rejected at arrival
    (``rejected_infeasible``), modelling a tenant that insists on
    full-quality answers.
    """

    priority: int = 0
    deadline_ms: float = 100.0
    queue_capacity: int = 64
    shed_policy: str = "drop-oldest"
    breaker_threshold: int = 16
    guard_policy: str = "skip"
    weight: float = 1.0
    degraded_allowed: bool = True

    def __post_init__(self) -> None:
        if self.deadline_ms <= 0:
            raise ConfigurationError(
                f"deadline_ms must be positive: {self.deadline_ms}")
        if self.queue_capacity <= 0:
            raise ConfigurationError(
                f"queue_capacity must be positive: {self.queue_capacity}")
        if self.shed_policy not in SHED_POLICIES:
            raise ConfigurationError(
                f"shed_policy must be one of {SHED_POLICIES}, "
                f"got {self.shed_policy!r}")
        if self.breaker_threshold <= 0:
            raise ConfigurationError(
                f"breaker_threshold must be positive: "
                f"{self.breaker_threshold}")
        if self.guard_policy not in ("raise", "skip"):
            raise ConfigurationError(
                f"guard_policy must be 'raise' or 'skip', "
                f"got {self.guard_policy!r}")
        if self.weight <= 0:
            raise ConfigurationError(
                f"weight must be positive: {self.weight}")


@dataclass
class SessionStats:
    """Serving-side accounting for one stream (the pipeline keeps its own
    :class:`~repro.sim.metrics.FaultStats` independently)."""

    arrivals: int = 0
    admitted: int = 0
    processed: int = 0
    degraded: int = 0
    rejected: int = 0
    rejected_infeasible: int = 0  # subset of ``rejected``
    deadline_misses: int = 0
    shed: Dict[str, int] = field(default_factory=dict)
    latencies_ms: List[float] = field(default_factory=list)

    @property
    def shed_total(self) -> int:
        return sum(self.shed.values())

    def count_shed(self, reason: str) -> None:
        self.shed[reason] = self.shed.get(reason, 0) + 1


class StreamSession:
    """One tenant's serving context around a drift-aware pipeline.

    The pipeline is injected (built by the caller exactly as it would be
    for :meth:`~repro.core.pipeline.DriftAwareAnalytics.process_batched`),
    so the serve path starts from the same deterministic state as offline
    processing -- the single-stream bit-identity property depends on it.
    """

    def __init__(self, stream_id: str, pipeline: DriftAwareAnalytics,
                 config: Optional[SessionConfig] = None) -> None:
        if not stream_id:
            raise ConfigurationError("stream_id must be non-empty")
        self.stream_id = stream_id
        self.pipeline = pipeline
        self.config = config or SessionConfig()
        self.queue = BoundedFrameQueue(self.config.queue_capacity,
                                       policy=self.config.shed_policy)
        self.guard = FrameGuard(policy=self.config.guard_policy)
        self.breaker = CircuitBreaker(threshold=self.config.breaker_threshold)
        self.stats = SessionStats()
        self.next_seq = 0  # next per-stream seq the full path must emit
        self._started = False

    # ------------------------------------------------------------------
    def begin(self) -> None:
        """Start the underlying pipeline session and reset serving state."""
        self.pipeline.start()
        self.queue = BoundedFrameQueue(self.config.queue_capacity,
                                       policy=self.config.shed_policy)
        self.guard.reset()
        self.breaker.reset()
        self.stats = SessionStats()
        self.next_seq = 0
        self._started = True

    def finish(self):
        """Flush the pipeline and return its :class:`PipelineResult`."""
        if not self._started:
            raise ServeError(
                f"session {self.stream_id!r} finished before begin()")
        self.pipeline.flush()
        return self.pipeline.result()

    # ------------------------------------------------------------------
    def degraded_predict(self, pixels: np.ndarray) -> int:
        """The cheap pass: predict with the deployed model, skip the
        drift inspector entirely (no RNG or martingale state is touched,
        so degraded frames cannot perturb the full path's decisions)."""
        return self.pipeline.predict_degraded(pixels)

    def screen_degraded(self, pixels: np.ndarray):
        """Stateless tier-0 suspicion for a degraded frame (``None``
        when the session's monitor offers no screen); same isolation
        contract as :meth:`degraded_predict`."""
        return self.pipeline.screen_degraded(pixels)

    def deadline_feasible(self, arrival: FrameArrival, now_ms: float,
                          eta_ms: float, eps: float = 1e-9) -> bool:
        """Can the full path still meet ``arrival``'s deadline, given the
        server's projected completion delay ``eta_ms``?  Infeasible
        arrivals are handled by the overload controller instead of being
        queued, served late and counted as misses."""
        return eta_ms <= (arrival.deadline_ms - now_ms) + eps

    def snapshot(self) -> dict:
        """Per-tenant state for introspection / migration: the drift
        inspector's dynamic state plus serving-side accounting."""
        return {
            "stream_id": self.stream_id,
            "deployed_model": self.pipeline.deployed_model,
            "inspector": self.pipeline.inspector.state_dict(),
            "queue_depth": self.queue.depth,
            "under_backpressure": self.queue.under_backpressure,
            "breaker_open": self.breaker.is_open,
            "arrivals": self.stats.arrivals,
            "processed": self.stats.processed,
            "rejected_infeasible": self.stats.rejected_infeasible,
        }


class SessionRegistry:
    """Insertion-ordered registry of serving sessions.

    Registration order is semantic: the scheduler breaks ties and the SLO
    report orders its sections by it.
    """

    def __init__(self, sessions: Optional[List[StreamSession]] = None) -> None:
        self._sessions: Dict[str, StreamSession] = {}
        self._order: Dict[str, int] = {}
        for session in sessions or []:
            self.add(session)

    def add(self, session: StreamSession) -> StreamSession:
        if session.stream_id in self._sessions:
            raise ServeError(
                f"duplicate session for stream {session.stream_id!r}")
        self._order[session.stream_id] = len(self._sessions)
        self._sessions[session.stream_id] = session
        return session

    def get(self, stream_id: str) -> StreamSession:
        try:
            return self._sessions[stream_id]
        except KeyError:
            raise ServeError(f"unknown stream {stream_id!r}; registered: "
                             f"{len(self._sessions)} session(s)") from None

    def index_of(self, stream_id: str) -> int:
        """Registration index (the deterministic tie-break key).  O(1):
        with thousands of sessions behind one server, a linear scan here
        turns every scheduler tie-break quadratic."""
        try:
            return self._order[stream_id]
        except KeyError:
            raise ServeError(f"unknown stream {stream_id!r}") from None

    def __contains__(self, stream_id: str) -> bool:
        return stream_id in self._sessions

    def __iter__(self) -> Iterator[StreamSession]:
        return iter(self._sessions.values())

    def __len__(self) -> int:
        return len(self._sessions)

    def ids(self) -> List[str]:
        return list(self._sessions)
