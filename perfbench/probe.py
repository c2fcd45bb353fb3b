"""Host-speed probe and the normalisation it drives.

The probe is a fixed piece of work -- the same mix of small numpy calls
and interpreter work the workloads spend their time in -- that imports
nothing from ``repro``, so no change to the program under test can move
it.  It is FROZEN: editing ``probe_once`` or its constants invalidates
every recorded number, because ``PROBE_REF_S`` is its median duration
on the reference host.

A timed interval ``t`` measured next to probe readings ``p`` is
reported as ``t * PROBE_REF_S / p``: the time the interval would have
taken on the reference host.  Back-to-back processes on a small shared
sandbox run the same code at speeds ±30% apart, and neither CPU time nor
``/proc/stat`` steal accounting sees it; a probe interleaved with the
workload does (see README.md).
"""

from __future__ import annotations

import time
from statistics import mean, median
from typing import List

import numpy as np

#: Median ``probe_once`` duration, seconds, on the reference host
#: (2-vCPU x86-64 sandbox, CPython 3.11, numpy 2.4 on single-threaded
#: OpenBLAS 0.3.31).
PROBE_REF_S = 0.0065

#: One probe "frame" mirrors the per-frame work of both monitored
#: paths: a dense encoder and decoder on one 32x32 frame, a posterior
#: sample, a reconstruction error, row/column profiles, a k-NN distance
#: against a 240-point reference bag and a conformal rank (the VAE+DI
#: path), then an edge mask, its IoU with a reference frame and
#: whole-frame moments (the tier-0 screen), then two scans of a
#: serving control loop -- many small numpy calls with Python between
#: them, as in the program.
_FRAMES = 12
_rng = np.random.default_rng(20250101)
_X = _rng.random((_FRAMES, 1024))
_W1 = _rng.standard_normal((1024, 128)) / 32.0
_W2 = _rng.standard_normal((128, 128)) / 11.0
_WM = _rng.standard_normal((128, 16)) / 11.0
_D1 = _rng.standard_normal((8, 128)) / 3.0
_D2 = _rng.standard_normal((128, 1024)) / 11.0
_BAG = _rng.standard_normal((240, 9))
_EPS = _rng.standard_normal((_FRAMES, 8))
_REF = _rng.random((32, 32))
del _rng


def _edges(grid: np.ndarray) -> np.ndarray:
    gx = grid[1:-1, 2:] - grid[1:-1, :-2]
    gy = grid[2:, 1:-1] - grid[:-2, 1:-1]
    magnitude = np.hypot(gx, gy)
    return magnitude > 0.25 * max(float(magnitude.max()), 1e-12)


_REF_EDGES = _edges(_REF)

#: Per-tenant state of a serving control loop (queue depth, capacity,
#: weight, deadline), scanned like the overload controller's
#: load-pressure pass: interpreter work with no numpy in it.
_TENANTS = [{"depth": i % 9, "capacity": 8, "weight": 1.0 + (i & 1),
             "deadline_ms": 60.0} for i in range(64)]


def _pressure() -> float:
    active = sum(t["weight"] for t in _TENANTS if t["depth"] > 0)
    worst = 0.0
    for tenant in _TENANTS:
        share = tenant["weight"] / (active + tenant["weight"])
        eta_ms = (tenant["depth"] + 1) * 0.6 / share + 0.5
        worst = max(worst, tenant["depth"] / tenant["capacity"],
                    eta_ms / tenant["deadline_ms"])
    return worst


def probe_once() -> float:
    """Run the frozen probe once; returns its wall duration in seconds."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(_FRAMES):
        x = _X[i:i + 1]
        h = np.maximum(x @ _W1, 0.0)
        h = np.maximum(h @ _W2, 0.0)
        heads = h @ _WM
        z = heads[:, :8] + _EPS[i] * np.exp(0.5 * np.clip(heads[:, 8:],
                                                          -5.0, 5.0))
        recon = 1.0 / (1.0 + np.exp(-(np.maximum(z @ _D1, 0.0) @ _D2)))
        err = float(np.mean((recon - x) ** 2))
        grid = x.reshape(32, 32)
        profile = np.concatenate([grid.mean(axis=0), grid.mean(axis=1)])
        point = np.append(z[0], err)
        dist = np.sqrt(((_BAG - point) ** 2).sum(axis=1))
        score = float(np.partition(dist, 5)[:5].mean())
        rank = int(np.sum(dist > score))
        p = (rank + 1.0) / (len(dist) + 1.0)
        edges = _edges(grid)
        union = int(np.logical_or(edges, _REF_EDGES).sum())
        iou = int(np.logical_and(edges, _REF_EDGES).sum()) / max(union, 1)
        span = (float(max(grid.max(), _REF.max()))
                - float(min(grid.min(), _REF.min())))
        cov = float(np.mean((grid - grid.mean()) * (_REF - _REF.mean())))
        acc += (min(p, 1.0 - p) + float(profile[0]) + score + iou + span
                + cov + float(grid.var()) + _pressure() + _pressure())
    elapsed = time.perf_counter() - start
    if acc != acc:  # keeps the work observable; NaN would mean a bad host
        raise FloatingPointError("probe produced NaN")
    return elapsed


#: Back-to-back probe runs in one reading (the reading is their median).
REPS = 3
#: Readings on each side of a gap that set the factor of the slice timed
#: in it.
RADIUS = 2


def probe() -> float:
    """The median of ``REPS`` back-to-back probe runs (one reading)."""
    return median(probe_once() for _ in range(REPS))


class Normaliser:
    """Interleaved probe readings and the scale factor they imply.

    Call :meth:`read` between slices of the workload.  A slice that ran
    between readings ``i`` and ``i + 1`` is scaled by
    :meth:`factor_between`: ``PROBE_REF_S`` over the mean of the
    readings within ``RADIUS`` of that gap.  The mean, not the median:
    the host flips between fast and slow states within a second, and
    the work done across a window follows the average speed, where a
    median would pick one state.  Each reading is already the median of
    ``REPS`` probe runs, so one preempted probe run does not reach it.
    """

    def __init__(self) -> None:
        self.readings: List[float] = []

    def read(self) -> int:
        """Take one reading; returns its index."""
        self.readings.append(probe())
        return len(self.readings) - 1

    def factor_between(self, left: int, right: int) -> float:
        """Scale factor for a slice timed between readings ``left`` and
        ``right`` (``right >= left``)."""
        if not self.readings:
            raise ValueError("no probe readings taken")
        lo = max(0, left - RADIUS)
        hi = min(len(self.readings), right + RADIUS + 1)
        return PROBE_REF_S / mean(self.readings[lo:hi])
