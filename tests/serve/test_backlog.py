"""The server's backlog tracker: exact against the per-session scan, and
flat in the session count.

:class:`~repro.serve.server.DriftServer` keeps queue depths per tenant
class instead of scanning every session per arrival.  Two contracts:

- **exactness** -- at every controller update and every batch, the load
  pressure, the admission ETA and the scheduler's candidates equal the
  frozen O(sessions) scan in :mod:`tests.serve.pressure_oracle` bit for
  bit whenever weights are integer or dyadic (their sums do not depend
  on order), and within a stated tolerance for arbitrary float weights;
- **flat cost** -- per controller update and per batch, the work done
  depends on the number of tenant classes and backlogged streams, not
  on the number of sessions.  It is counted with spies, not timed.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ServeError
from repro.serve import (
    DriftServer,
    OverloadConfig,
    ServeConfig,
    SessionConfig,
    SessionRegistry,
    StreamSession,
    WorkloadConfig,
    capacity_fps,
    generate_arrivals,
)
from repro.serve.queues import BoundedFrameQueue
from repro.testing import make_pipeline, make_registry
from tests.serve import pressure_oracle as oracle
from tests.serve.conftest import gaussian_stream, make_session

#: Relative tolerance for arbitrary float weights (see
#: ``SessionConfig.weight``): the tracker sums weight x backlogged count
#: per class, the scan sums tenant by tenant.
FLOAT_WEIGHT_REL = 1e-12


def exact(value, expected):
    assert value == expected


def within_float_tolerance(value, expected):
    assert value == pytest.approx(expected, rel=FLOAT_WEIGHT_REL)


def tenant_arrivals(configs, seed, load, n_frames=30):
    """Each tenant's trace, stamped with its own deadline budget."""
    rate = load * capacity_fps() / len(configs)
    arrivals = []
    for i, config in enumerate(configs):
        frames = gaussian_stream(seed + i, [(0.0, n_frames)])
        arrivals.extend(generate_arrivals(
            frames, WorkloadConfig(rate_fps=rate, pattern="poisson"),
            stream_id=f"s{i}", deadline_ms=config.deadline_ms,
            seed=seed + i))
    return arrivals


def held_to_oracle(server, compare):
    """Wrap ``server`` so every pressure handed to the controller, every
    admission ETA and every batch's candidates are checked against the
    scan; returns the counts of checks made."""
    checks = Counter()
    update, eta_ms = server.controller.update, server._eta_ms
    next_batch = server.scheduler.next_batch

    def checked_update(now_ms, load_pressure):
        compare(load_pressure, oracle.load_pressure(server))
        checks["updates"] += 1
        return update(now_ms, load_pressure)

    def checked_eta(session):
        eta = eta_ms(session)
        compare(eta, oracle.eta_ms(server, session))
        checks["etas"] += 1
        return eta

    def checked_next_batch(candidates, now_ms, **kwargs):
        assert candidates == oracle.backlogged(server.registry)
        # also covers runs with overload control off, where the tracker
        # is moved by expiry pops but no controller reads it
        compare(server._load_pressure(), oracle.load_pressure(server))
        checks["batches"] += 1
        return next_batch(candidates, now_ms, **kwargs)

    server.controller.update = checked_update
    server._eta_ms = checked_eta
    server.scheduler.next_batch = checked_next_batch
    return checks


def tenant(weights):
    return st.builds(
        SessionConfig,
        weight=weights,
        deadline_ms=st.sampled_from([15.0, 40.0, 60.0, 200.0]),
        queue_capacity=st.integers(1, 12),
        shed_policy=st.sampled_from(["drop-oldest", "drop-newest",
                                     "degrade"]),
        priority=st.integers(0, 2),
        degraded_allowed=st.booleans())


def run_held_to_oracle(configs, seed, load, shed_expired, overload,
                       compare):
    sessions = [StreamSession(f"s{i}", make_pipeline(seed=seed + i), config)
                for i, config in enumerate(configs)]
    server = DriftServer(sessions, ServeConfig(
        shed_expired=shed_expired,
        overload=OverloadConfig(enabled=overload)))
    checks = held_to_oracle(server, compare)
    result = server.run(tenant_arrivals(configs, seed, load))
    assert checks["batches"] > 0
    assert (checks["updates"] > 0) == overload
    return result


class TestTrackerMatchesOracle:
    @settings(max_examples=25, deadline=None)
    @given(configs=st.lists(
               tenant(st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 3.0])),
               min_size=1, max_size=6),
           seed=st.integers(0, 10**4),
           load=st.floats(min_value=0.8, max_value=3.0),
           shed_expired=st.booleans(),
           overload=st.booleans())
    def test_dyadic_weights_match_scan_exactly(self, configs, seed, load,
                                               shed_expired, overload):
        run_held_to_oracle(configs, seed, load, shed_expired, overload,
                           exact)

    @settings(max_examples=10, deadline=None)
    @given(configs=st.lists(
               tenant(st.floats(min_value=0.05, max_value=20.0)),
               min_size=2, max_size=6),
           seed=st.integers(0, 10**4),
           load=st.floats(min_value=0.8, max_value=3.0),
           shed_expired=st.booleans())
    def test_float_weights_match_scan_within_tolerance(
            self, configs, seed, load, shed_expired):
        run_held_to_oracle(configs, seed, load, shed_expired, True,
                           within_float_tolerance)

    def test_expiry_pops_keep_tracker_exact(self):
        # the overload controller would reject doomed frames at arrival;
        # with it off they queue and leave through ``_shed_expired``
        configs = [SessionConfig(queue_capacity=64, deadline_ms=15.0),
                   SessionConfig(queue_capacity=64, deadline_ms=15.0,
                                 weight=2.0)]
        result = run_held_to_oracle(configs, seed=21, load=2.0,
                                    shed_expired=True, overload=False,
                                    compare=exact)
        assert sum(slo.shed.get("expired", 0)
                   for slo in result.streams.values()) > 0


# ----------------------------------------------------------------------
# flat cost: counted, not timed
# ----------------------------------------------------------------------
SIZES = (4, 64, 1000)
#: Arrivals per size stay in the same range: fewer frames per stream as
#: the session count grows.
TOTAL_FRAMES = 512


def two_class_server(n_sessions):
    """Two tenant classes, as in the serving benchmark: odd-indexed
    premium tenants (weight 2, no degraded pass) beside basic ones, at
    1.5x the backend's capacity."""
    registry = make_registry()
    sessions, arrivals = [], []
    frames_each = max(2, TOTAL_FRAMES // n_sessions)
    rate = 1.5 * capacity_fps() / n_sessions
    for i in range(n_sessions):
        premium = bool(i % 2)
        stream_id = f"cam-{i:04d}"
        sessions.append(StreamSession(
            stream_id, make_pipeline(seed=i, registry=registry),
            SessionConfig(priority=int(premium), deadline_ms=60.0,
                          queue_capacity=8, weight=2.0 if premium else 1.0,
                          degraded_allowed=not premium)))
        arrivals.extend(generate_arrivals(
            gaussian_stream(i, [(0.0, frames_each)]),
            WorkloadConfig(rate_fps=rate), stream_id=stream_id,
            deadline_ms=60.0, seed=i))
    return DriftServer(sessions), arrivals


@contextmanager
def counting_spies(server):
    """Count pressure terms per controller update, and the sessions whose
    queues a batch (candidates, scheduling, bookkeeping) touches beyond
    the ones backlogged when it started."""
    counts = {"terms": [], "extra_visits": []}
    in_update, visited = False, None
    load_pressure, eta = server._load_pressure, server._eta
    serve_batch = server._serve_batch

    def counted_eta(weight, depth, active):
        if in_update:
            counts["terms"][-1] += 1
        return eta(weight, depth, active)

    def counted_load_pressure():
        nonlocal in_update
        counts["terms"].append(0)
        in_update = True
        try:
            return load_pressure()
        finally:
            in_update = False

    def counted_serve_batch(now_ms):
        nonlocal visited
        backlogged = {id(s.queue) for s in server.registry if len(s.queue)}
        visited = set()
        try:
            return serve_batch(now_ms)
        finally:
            counts["extra_visits"].append(len(visited - backlogged))
            visited = None

    def touching(name):
        member = getattr(BoundedFrameQueue, name)
        getter = member.fget if isinstance(member, property) else member

        def touched(queue, *args):
            if visited is not None:
                visited.add(id(queue))
            return getter(queue, *args)
        return property(touched) if isinstance(member, property) \
            else touched

    server._eta = counted_eta
    server._load_pressure = counted_load_pressure
    server._serve_batch = counted_serve_batch
    with pytest.MonkeyPatch.context() as patch:
        for name in ("depth", "peek", "pop"):
            patch.setattr(BoundedFrameQueue, name, touching(name))
        yield counts


@pytest.fixture(scope="module")
def two_class_runs():
    runs = {}
    for n_sessions in SIZES:
        server, arrivals = two_class_server(n_sessions)
        with counting_spies(server) as counts:
            result = server.run(arrivals)
        runs[n_sessions] = (result, arrivals, counts)
    return runs


class TestFlatControlCost:
    def test_pressure_terms_per_update_do_not_grow_with_sessions(
            self, two_class_runs):
        # at most the deepest and one empty queue per class
        worst = {n: max(counts["terms"])
                 for n, (_, _, counts) in two_class_runs.items()}
        assert set(worst.values()) == {4}, worst

    def test_scheduler_visits_only_backlogged_sessions(self, two_class_runs):
        for n_sessions, (_, _, counts) in two_class_runs.items():
            assert counts["extra_visits"], n_sessions
            assert set(counts["extra_visits"]) == {0}, n_sessions

    def test_every_arrival_has_one_outcome_at_1000_sessions(
            self, two_class_runs):
        result, arrivals, _ = two_class_runs[1000]
        assert len(result.streams) == 1000
        assert result.arrivals == len(arrivals)
        for slo in result.streams.values():
            assert slo.arrivals == (slo.processed + slo.degraded
                                    + slo.shed_total + slo.rejected)
        # the overload machinery was exercised, not idle
        assert result.degraded > 0 and result.rejected_infeasible > 0


def test_flat_registry_index_of_is_constant_time():
    """The O(1) index map agrees with enumeration order at scale."""
    sessions = [make_session(f"s-{i:04d}", seed=i) for i in range(300)]
    registry = SessionRegistry(sessions)
    for expected, stream_id in enumerate(registry.ids()):
        assert registry.index_of(stream_id) == expected
    with pytest.raises(ServeError, match="unknown"):
        registry.index_of("missing")
