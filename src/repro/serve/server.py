"""The deterministic multi-tenant serving loop (:class:`DriftServer`).

A :class:`DriftServer` multiplexes many tenants' drift-aware pipelines
over one simulated inference backend.  It is a discrete-event simulation
in the same virtual time the rest of the repo charges
(:class:`~repro.sim.clock.SimulatedClock` against a
:class:`~repro.sim.costs.CostProfile`), so every run is a pure function
of ``(sessions, arrivals, config)`` -- replayable bit for bit, with no
wall-clock anywhere in the results.

The loop alternates two phases:

1. **Admission** -- every arrival due by the current virtual time passes
   the session's :class:`~repro.faults.guard.FrameGuard` (malformed
   frames are quarantined at the edge), then its admission
   :class:`~repro.faults.guard.CircuitBreaker` (opened by consecutive
   hard sheds, it fast-fails arrivals until the queue drains), then the
   bounded queue's load-shedding policy.  ``degrade`` overflows are
   served immediately on the cheap pass (prediction only, no drift
   inspection), charging only the degraded cost.  Before a frame is
   queued, the :class:`~repro.serve.overload.OverloadController` checks
   deadline feasibility: arrivals whose projected full-path completion
   overruns their deadline are diverted by controller state -- degraded
   while DEGRADED, shed while SHEDDING, rejected otherwise -- so the
   queues only ever hold work the backend can finish in time.
2. **Service** -- the :class:`~repro.serve.scheduler.DeadlineScheduler`
   forms a cross-stream micro-batch from the queue heads; the batch is
   grouped by stream and each group is fed to that stream's pipeline via
   :meth:`~repro.core.pipeline.DriftAwareAnalytics.step_batch`, which is
   bit-identical to sequential processing for any chunking -- so a
   single unconstrained stream served here reproduces
   :meth:`~repro.core.pipeline.DriftAwareAnalytics.process_batched`
   exactly (the property suite pins this).

Backend time charges the full per-frame monitor cost for batched frames,
the degraded cost for degrade-path frames, a per-batch overhead, and an
``serve_idle`` ledger entry while waiting for arrivals; drift-resolution
work (selection / retraining) stays on each pipeline's own clock, i.e.
the backend models the data path, not the control plane.  Every queue and
scheduler decision is surfaced through ``repro.obs``: arrival / shed /
degrade counters, per-stream queue-depth gauges, latency and batch-size
histograms, and logical events for sheds, backpressure transitions and
breaker trips.

Control work per arrival does not grow with the session count: every
queue-depth change goes through one backlog tracker, which keeps the
backlogged streams and, per tenant class (sessions with equal weight,
deadline and queue capacity), the backlogged count and deepest queue.
The run loop, the overload controller's pressure signal (at most two
terms per class) and the scheduler (backlogged streams only) read it
instead of scanning every session.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError, ServeError
from repro.faults.guard import QUARANTINED
from repro.obs.metrics import DEFAULT_MS_BUCKETS
from repro.obs.recorder import NULL_RECORDER
from repro.serve.arrivals import (
    DEGRADED_FRAME_OPS,
    MONITOR_FRAME_OPS,
    FrameArrival,
    capacity_fps,
    frame_cost_ms,
)
from repro.serve.overload import (
    DEGRADED,
    NORMAL,
    SHEDDING,
    OverloadConfig,
    OverloadController,
)
from repro.serve.queues import DEGRADE, ENQUEUED, SHED_NEWEST, SHED_OLDEST
from repro.serve.report import ServeResult, StreamSLO
from repro.serve.scheduler import DeadlineScheduler, SchedulerConfig
from repro.serve.session import SessionRegistry, StreamSession
from repro.sim.clock import SimulatedClock
from repro.sim.costs import CostProfile, PAPER_COSTS

#: Fixed buckets for the micro-batch-size histogram.
_BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)

#: Tier-0 suspicion boundaries (reference-sigma units) for the
#: degraded-pass screen histogram.
_SUSPICION_BUCKETS = (0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0)

#: Tolerance when comparing virtual timestamps (pure float accumulation).
_EPS = 1e-9


@dataclass
class ServeConfig:
    """Server-level knobs (per-tenant knobs live in ``SessionConfig``)."""

    batch_overhead_ms: float = 0.5
    shed_expired: bool = False
    profile: Optional[CostProfile] = None
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    overload: OverloadConfig = field(default_factory=OverloadConfig)
    monitor_ops: Tuple[str, ...] = MONITOR_FRAME_OPS
    degraded_ops: Tuple[str, ...] = DEGRADED_FRAME_OPS

    def __post_init__(self) -> None:
        if self.batch_overhead_ms < 0:
            raise ConfigurationError(
                f"batch_overhead_ms must be non-negative: "
                f"{self.batch_overhead_ms}")


class _TenantClass:
    """Sessions sharing every per-session input of the pressure signal:
    ``(weight, deadline_ms, queue capacity)``.

    Only the depths backlogged members occupy are stored, so the state is
    sized by the backlog, never by ``capacity``.
    """

    def __init__(self, weight: float, deadline_ms: float,
                 capacity: int) -> None:
        self.weight = weight
        self.deadline_ms = deadline_ms
        self.capacity = capacity
        self.members = 0
        self.backlogged = 0
        self.deepest = 0
        self._at_depth: Dict[int, int] = {}  # depth -> members queued there

    def move(self, old: int, new: int) -> None:
        """One member's queue went from depth ``old`` to ``new``."""
        at_depth = self._at_depth
        if old:
            left = at_depth[old] - 1
            if left:
                at_depth[old] = left
            else:
                del at_depth[old]
        if new:
            at_depth[new] = at_depth.get(new, 0) + 1
        self.backlogged += (new > 0) - (old > 0)
        if new > self.deepest:
            self.deepest = new
        elif old == self.deepest and old not in at_depth:
            # the walk stops at ``new`` at the latest, so it is bounded
            # by the frames that just left the queue
            depth = old - 1
            while depth > 0 and depth not in at_depth:
                depth -= 1
            self.deepest = depth

    def pressure_depths(self) -> Tuple[int, ...]:
        """The depths whose pressure terms can be the class maximum."""
        depths = (self.deepest,) if self.backlogged else ()
        if self.members > self.backlogged:
            depths += (0,)
        return depths


class _Backlog:
    """Queue depths as of the last change, tracked on admission, on the
    scheduler's pops and on expiry pops, so the run loop, the pressure
    signal and the scheduler read the backlog without scanning every
    session."""

    def __init__(self, registry: SessionRegistry) -> None:
        self._registry = registry
        self._sessions = list(registry)
        self._depths = [0] * len(self._sessions)
        #: registration indices of the sessions with a queued frame
        self.backlogged: Set[int] = set()
        classes: Dict[Tuple[float, float, int], _TenantClass] = {}
        self._class_of: List[_TenantClass] = []
        for session in self._sessions:
            key = (session.config.weight, session.config.deadline_ms,
                   session.queue.capacity)
            if key not in classes:
                classes[key] = _TenantClass(*key)
            classes[key].members += 1
            self._class_of.append(classes[key])
        self.classes = list(classes.values())
        self._active: float = 0.0
        self._active_stale = False

    def sync(self, session: StreamSession) -> None:
        """Record ``session``'s current depth; call after every change."""
        index = self._registry.index_of(session.stream_id)
        new, old = session.queue.depth, self._depths[index]
        if new == old:
            return
        self._depths[index] = new
        self._class_of[index].move(old, new)
        if not old:
            self.backlogged.add(index)
            self._active_stale = True
        elif not new:
            self.backlogged.discard(index)
            self._active_stale = True

    def active_weight(self) -> float:
        """Total weight of the backlogged streams (the competition a newly
        queued frame faces for the backend), from per-class counts."""
        if self._active_stale:
            self._active = sum(group.weight * group.backlogged
                               for group in self.classes)
            self._active_stale = False
        return self._active

    def candidates(self) -> List[Tuple[int, StreamSession]]:
        """Backlogged ``(registration index, session)`` pairs, in
        registration order."""
        return [(index, self._sessions[index])
                for index in sorted(self.backlogged)]


class DriftServer:
    """Serve many tenants' streams over one simulated backend.

    Parameters
    ----------
    sessions:
        A :class:`SessionRegistry` or an iterable of
        :class:`StreamSession`; registration order is the deterministic
        tie-break everywhere.
    config:
        :class:`ServeConfig`; ``None`` uses the defaults.
    recorder:
        Optional :class:`~repro.obs.recorder.Recorder`, bound to the
        server's virtual clock.  Recording is passive: attaching one
        cannot change any serving decision or result.
    """

    def __init__(self,
                 sessions: Union[SessionRegistry, Iterable[StreamSession]],
                 config: Optional[ServeConfig] = None,
                 recorder: Optional[object] = None) -> None:
        self.registry = (sessions if isinstance(sessions, SessionRegistry)
                         else SessionRegistry(list(sessions)))
        if len(self.registry) == 0:
            raise ConfigurationError("at least one session is required")
        self.config = config or ServeConfig()
        self.profile = self.config.profile or PAPER_COSTS
        self.clock = SimulatedClock(self.profile)
        self.scheduler = DeadlineScheduler(self.config.scheduler)
        self.controller = OverloadController(self.config.overload)
        self.obs = recorder if recorder is not None else NULL_RECORDER
        self.obs.bind_clock(self.clock)
        self._c_arrivals = self.obs.counter("serve.arrivals")
        self._c_admitted = self.obs.counter("serve.admitted")
        self._c_processed = self.obs.counter("serve.processed")
        self._c_degraded = self.obs.counter("serve.degraded")
        self._c_screened = self.obs.counter("serve.degraded_screened")
        self._h_suspicion = self.obs.histogram("serve.screen_suspicion",
                                               _SUSPICION_BUCKETS)
        self._c_shed = self.obs.counter("serve.shed")
        self._c_rejected = self.obs.counter("serve.rejected")
        self._c_infeasible = self.obs.counter("serve.rejected_infeasible")
        self._c_transitions = self.obs.counter("serve.overload_transitions")
        self._c_batches = self.obs.counter("serve.batches")
        self._c_misses = self.obs.counter("serve.deadline_misses")
        self._h_latency = self.obs.histogram("serve.latency_ms",
                                             DEFAULT_MS_BUCKETS)
        self._h_batch = self.obs.histogram("serve.batch_frames",
                                           _BATCH_BUCKETS)

    # ------------------------------------------------------------------
    @property
    def frame_cost_ms(self) -> float:
        return frame_cost_ms(self.profile, self.config.monitor_ops)

    @property
    def degraded_cost_ms(self) -> float:
        return frame_cost_ms(self.profile, self.config.degraded_ops)

    @property
    def capacity_fps(self) -> float:
        """Sustainable full-path backend throughput, frames/second."""
        return capacity_fps(self.profile, self.config.monitor_ops)

    # ------------------------------------------------------------------
    def _merge(self, arrivals: Iterable[FrameArrival]) -> List[FrameArrival]:
        """One deterministic timeline from per-stream traces."""
        merged = list(arrivals)
        for arrival in merged:
            if arrival.stream_id not in self.registry:
                raise ServeError(
                    f"arrival for unregistered stream "
                    f"{arrival.stream_id!r}; registered: "
                    f"{self.registry.ids()}")
            if arrival.arrival_ms < 0:
                raise ServeError(
                    f"arrival_ms must be non-negative, got "
                    f"{arrival.arrival_ms} on {arrival.stream_id!r}")
        order = {sid: i for i, sid in enumerate(self.registry.ids())}
        merged.sort(key=lambda a: (a.arrival_ms, order[a.stream_id], a.seq))
        last_seq: Dict[str, int] = {}
        for arrival in merged:
            previous = last_seq.get(arrival.stream_id)
            if previous is not None and arrival.seq <= previous:
                raise ServeError(
                    f"stream {arrival.stream_id!r} arrivals are out of "
                    f"order: seq {arrival.seq} after {previous}")
            last_seq[arrival.stream_id] = arrival.seq
        return merged

    def _now(self) -> float:
        return self.clock.elapsed_ms - self._t0

    def _queue_gauge(self, session: StreamSession) -> None:
        self.obs.gauge(
            f"serve.queue_depth.{session.stream_id}").set(
                session.queue.depth)

    def _note_backpressure(self, session: StreamSession) -> None:
        transition = session.queue.update_backpressure()
        if transition is None:
            return
        kind = "backpressure_on" if transition else "backpressure_off"
        self.obs.event(kind, stream=session.stream_id,
                       depth=session.queue.depth)

    def _wire_breaker(self, session: StreamSession) -> None:
        stream_id = session.stream_id

        def on_trip(breaker) -> None:
            self.obs.event("breaker_open", stream=stream_id,
                           failures=breaker.failures, trips=breaker.trips)

        def on_close(breaker) -> None:
            self.obs.event("breaker_close", stream=stream_id,
                           trips=breaker.trips)

        session.breaker.on_trip = on_trip
        session.breaker.on_close = on_close

    # ------------------------------------------------------------------
    # overload control: pressure signals, feasibility, state transitions
    # ------------------------------------------------------------------
    def _eta(self, weight: float, depth: int, active: float) -> float:
        """Projected completion delay for one more frame of a stream with
        ``weight`` and ``depth`` queued: its queue (plus the new frame)
        drains at the stream's weighted max-min share of the backend,
        plus amortised batch overhead.  ``active`` is the weight of the
        backlogged streams."""
        if depth == 0:
            active += weight
        share = weight / active
        frames = depth + 1
        batches = -(-frames // self._batch_frames)
        return (frames * self._frame_cost_ms / share
                + batches * self.config.batch_overhead_ms)

    def _eta_ms(self, session: StreamSession) -> float:
        return self._eta(session.config.weight, session.queue.depth,
                         self._backlog.active_weight())

    def _load_pressure(self) -> float:
        """Worst per-stream pressure: queue occupancy or projected
        completion over the deadline budget, whichever is higher.

        Both grow with depth within a tenant class (IEEE rounding is
        monotone), so each class's deepest queue and, if it has one, an
        empty queue are the only candidates for the maximum: the result
        equals a scan over every session bit for bit."""
        pressure = 0.0
        active = self._backlog.active_weight()
        for group in self._backlog.classes:
            for depth in group.pressure_depths():
                occupancy = depth / group.capacity
                slack = (self._eta(group.weight, depth, active)
                         / group.deadline_ms)
                pressure = max(pressure, occupancy, slack)
        return pressure

    def _update_controller(self) -> None:
        now = self._now()
        transition = self.controller.update(now, self._load_pressure())
        if transition is None:
            return
        old, new = transition
        self._c_transitions.inc()
        self.obs.event("overload_transition", previous=old, state=new,
                       now_ms=now,
                       degrade_share=self.controller.degrade_share())
        self.obs.gauge("serve.overload_state").set(
            float((NORMAL, DEGRADED, SHEDDING).index(new)))

    def _reject_infeasible(self, session: StreamSession,
                           arrival: FrameArrival, eta_ms: float) -> None:
        session.stats.rejected += 1
        session.stats.rejected_infeasible += 1
        self._c_rejected.inc()
        self._c_infeasible.inc()
        self.obs.event("frame_rejected", stream=session.stream_id,
                       seq=arrival.seq, reason="infeasible",
                       eta_ms=eta_ms)

    def _admit_infeasible(self, session: StreamSession,
                          arrival: FrameArrival, eta_ms: float) -> None:
        """Route an arrival the full path cannot serve in time.

        The controller state decides: while DEGRADED a degradable frame
        takes the cheap pass immediately (if even that fits the budget);
        while SHEDDING degradable frames are dropped outright (the cheap
        pass itself is saturating the backend); everything else --
        including every frame of a tenant with ``degraded_allowed=False``
        -- is rejected at arrival instead of being queued, served late
        and counted as a miss.
        """
        state = self.controller.state
        budget = arrival.deadline_ms - self._now()
        if state == DEGRADED and session.config.degraded_allowed \
                and budget > self._degraded_cost_ms + _EPS:
            self._serve_degraded(session, arrival, reason="overload")
        elif state == SHEDDING and session.config.degraded_allowed:
            self._shed(session, arrival, "overload")
        else:
            self._reject_infeasible(session, arrival, eta_ms)

    # ------------------------------------------------------------------
    def _complete(self, session: StreamSession, arrival: FrameArrival,
                  completion_ms: float) -> None:
        """Latency / deadline accounting for one served frame."""
        latency = completion_ms - arrival.arrival_ms
        session.stats.latencies_ms.append(latency)
        self._h_latency.observe(latency)
        if completion_ms > arrival.deadline_ms + _EPS:
            session.stats.deadline_misses += 1
            self._c_misses.inc()

    def _shed(self, session: StreamSession, arrival: FrameArrival,
              reason: str) -> None:
        session.stats.count_shed(reason)
        self._c_shed.inc()
        self.obs.event("frame_shed", stream=session.stream_id,
                       seq=arrival.seq, reason=reason)

    def _serve_degraded(self, session: StreamSession,
                        arrival: FrameArrival,
                        reason: str = "queue-policy") -> None:
        """The cheap fast-lane pass: predict without drift inspection.

        This is the *only* place degraded frames are counted and
        completed, whether the queue's ``degrade`` policy or the
        overload controller diverted them -- so a frame can never be
        double-counted as both degraded and completed.
        """
        for op in self.config.degraded_ops:
            self.clock.charge(op)
        prediction = session.degraded_predict(arrival.frame)
        # tier-0 screening: sessions backed by a cascade (or the bare
        # pixel-stat screen) still watch degraded frames for drift via a
        # stateless suspicion peek -- observability only, no clock charge
        # and no monitor state touched, so the full path stays bit-exact
        suspicion = session.screen_degraded(arrival.frame)
        if suspicion is not None:
            self._c_screened.inc()
            self._h_suspicion.observe(suspicion)
        session.stats.degraded += 1
        self._c_degraded.inc()
        self.obs.event("frame_degraded", stream=session.stream_id,
                       seq=arrival.seq, prediction=prediction,
                       reason=reason)
        self._complete(session, arrival, self._now())
        self.controller.note_degraded(self._degraded_cost_ms, self._now())

    def _admit_one(self, arrival: FrameArrival) -> None:
        session = self.registry.get(arrival.stream_id)
        session.stats.arrivals += 1
        self._c_arrivals.inc()
        report = session.guard.admit(arrival.frame)
        if report.status == QUARANTINED:
            session.stats.rejected += 1
            self._c_rejected.inc()
            self.obs.event("frame_rejected", stream=session.stream_id,
                           seq=arrival.seq, reason=report.reason)
            return
        if session.breaker.is_open:
            self._shed(session, arrival, "breaker")
            return
        if self.config.overload.enabled:
            self._update_controller()
            eta = self._eta_ms(session)
            if not session.deadline_feasible(arrival, self._now(), eta,
                                             eps=_EPS):
                self._admit_infeasible(session, arrival, eta)
                self._queue_gauge(session)
                return
        verdict = session.queue.offer(arrival)
        self._backlog.sync(session)
        if verdict.status == ENQUEUED:
            session.stats.admitted += 1
            self._c_admitted.inc()
            session.breaker.record_success()
        elif verdict.status == SHED_OLDEST:
            session.stats.admitted += 1
            self._c_admitted.inc()
            self._shed(session, verdict.shed, "drop-oldest")
            session.breaker.record_failure()
        elif verdict.status == SHED_NEWEST:
            self._shed(session, arrival, "drop-newest")
            session.breaker.record_failure()
        else:
            assert verdict.status == DEGRADE
            self._serve_degraded(session, arrival)
        self._note_backpressure(session)
        self._queue_gauge(session)

    # ------------------------------------------------------------------
    def _shed_expired(self, now: float) -> None:
        for _, session in self._backlog.candidates():
            changed = False
            while (session.queue.depth > 0
                   and session.queue.peek().deadline_ms < now - _EPS):
                self._shed(session, session.queue.pop(), "expired")
                changed = True
            if changed:
                self._backlog.sync(session)
                self._note_backpressure(session)
                self._queue_gauge(session)

    def _serve_batch(self, now: float) -> int:
        """Form and execute one micro-batch; returns frames served."""
        batch = self.scheduler.next_batch(
            self._backlog.candidates(), now,
            frame_cost_ms=self._frame_cost_ms,
            overhead_ms=self.config.batch_overhead_ms)
        if not batch:
            return 0
        served = list({id(s): s for s, _ in batch}.values())
        for session in served:
            self._backlog.sync(session)
        with self.obs.span("serve.batch"):
            self.clock.charge_ms("serve_batch_overhead",
                                 self.config.batch_overhead_ms)
            groups: Dict[str, List[FrameArrival]] = {}
            for session, arrival in batch:
                groups.setdefault(session.stream_id, []).append(arrival)
            for stream_id, group in groups.items():
                session = self.registry.get(stream_id)
                frames = np.stack([a.frame for a in group])
                with self.obs.span(f"serve.stream.{stream_id}"):
                    session.pipeline.step_batch(frames,
                                                batch_size=len(group))
                for op in self.config.monitor_ops:
                    self.clock.charge(op, times=len(group))
                session.stats.processed += len(group)
                self._c_processed.inc(len(group))
                session.next_seq = group[-1].seq + 1
        completion = self._now()
        for session, arrival in batch:
            self._complete(session, arrival, completion)
        self._c_batches.inc()
        self._h_batch.observe(float(len(batch)))
        for session in served:
            if (session.breaker.is_open
                    and session.queue.depth <= session.queue.low_watermark):
                session.breaker.record_success()
            self._note_backpressure(session)
            self._queue_gauge(session)
        if self.config.overload.enabled:
            self._update_controller()
        return len(batch)

    # ------------------------------------------------------------------
    def run(self, arrivals: Iterable[FrameArrival]) -> ServeResult:
        """Serve ``arrivals`` to completion; returns the SLO result.

        The loop admits everything due by the current virtual time, then
        serves one micro-batch (or idles until the next arrival when all
        queues are empty), until the timeline is exhausted and every
        queue has drained.  Pipelines are flushed at the end exactly as
        ``process_batched`` flushes, so per-stream
        :class:`~repro.core.pipeline.PipelineResult` objects come back
        inside the :class:`~repro.serve.report.ServeResult`.
        """
        timeline = self._merge(arrivals)
        self._t0 = self.clock.elapsed_ms
        self._frame_cost_ms = self.frame_cost_ms
        self._degraded_cost_ms = self.degraded_cost_ms
        self._batch_frames = max(1, self.config.scheduler.batch_size)
        for session in self.registry:
            session.begin()
            self._wire_breaker(session)
        self._backlog = _Backlog(self.registry)
        self.obs.event("serve_start", sessions=len(self.registry),
                       arrivals=len(timeline))
        self.obs.gauge("serve.sessions").set(len(self.registry))
        i, n = 0, len(timeline)
        while True:
            while (i < n
                   and timeline[i].arrival_ms <= self._now() + _EPS):
                self._admit_one(timeline[i])
                i += 1
            if self.config.shed_expired:
                self._shed_expired(self._now())
            if not self._backlog.backlogged:
                if i >= n:
                    break
                gap = timeline[i].arrival_ms - self._now()
                if gap > 0:
                    self.clock.charge_ms("serve_idle", gap)
                continue
            self._serve_batch(self._now())
        makespan = self._now()
        pipeline_results = {}
        streams: Dict[str, StreamSLO] = {}
        for session in self.registry:
            pipeline_results[session.stream_id] = session.finish()
            slo = StreamSLO.from_session(session)
            streams[session.stream_id] = slo
            self.obs.gauge(
                f"serve.goodput_fps.{session.stream_id}").set(
                    slo.goodput_fps(makespan))
        self.obs.event("serve_done", makespan_ms=makespan,
                       overload_state=self.controller.state,
                       overload_transitions=self.controller.transitions)
        return ServeResult(
            streams=streams,
            pipeline_results=pipeline_results,
            makespan_ms=makespan,
            capacity_fps=self.capacity_fps,
            frame_cost_ms=self._frame_cost_ms,
            degraded_cost_ms=self._degraded_cost_ms,
            batch_overhead_ms=self.config.batch_overhead_ms,
            backend_ledger=self.clock.ledger(),
            overload_transitions=self.controller.transitions,
        )
