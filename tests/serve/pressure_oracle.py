"""The per-session scan the server's backlog tracker replaces, frozen.

Before it tracked its backlog, :class:`~repro.serve.server.DriftServer`
recomputed the active weight, every session's ETA and the load pressure
by walking the whole registry on each controller update, and the
scheduler picked its candidates the same way.  These functions keep that
O(sessions) arithmetic verbatim, in registration order, so the suite can
hold the incremental tracker to it exactly.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.serve import DriftServer, SessionRegistry, StreamSession


def backlogged(registry: SessionRegistry) -> List[Tuple[int, StreamSession]]:
    """Backlogged ``(registration index, session)`` pairs, in order."""
    return [(i, session) for i, session in enumerate(registry)
            if session.queue.depth > 0]


def active_weight(registry: SessionRegistry) -> float:
    return sum(session.config.weight for session in registry
               if session.queue.depth > 0)


def eta_ms(server: DriftServer, session: StreamSession,
           active: float = None) -> float:
    weight = session.config.weight
    if active is None:
        active = active_weight(server.registry)
    if session.queue.depth == 0:
        active += weight
    share = weight / active
    frames = session.queue.depth + 1
    batches = -(-frames // max(1, server.config.scheduler.batch_size))
    return (frames * server.frame_cost_ms / share
            + batches * server.config.batch_overhead_ms)


def load_pressure(server: DriftServer) -> float:
    pressure = 0.0
    active = active_weight(server.registry)
    for session in server.registry:
        occupancy = session.queue.depth / session.queue.capacity
        slack = eta_ms(server, session, active) / session.config.deadline_ms
        pressure = max(pressure, occupancy, slack)
    return pressure
