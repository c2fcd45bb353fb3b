"""Pure helpers behind the reported numbers (checked by ``selfcheck.py``)."""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

#: A percentile is reported only with this many samples beyond it.
TAIL_SAMPLES = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``values``.

    Raises ``ValueError`` unless at least :data:`TAIL_SAMPLES` samples
    lie strictly beyond the returned rank, so a tail figure is never
    read off a handful of points.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100): {q}")
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < TAIL_SAMPLES:
        raise ValueError(
            f"p{q:g} of {n} samples has {n - rank} beyond it; "
            f"need {TAIL_SAMPLES}")
    return ordered[rank - 1]


def segment_onsets(labels: Sequence[object]) -> List[int]:
    """Ground-truth drift onsets: indices where the segment label changes."""
    return [i for i in range(1, len(labels)) if labels[i] != labels[i - 1]]


def match_detections(onsets: Sequence[int], detections: Sequence[int],
                     length: int) -> Dict[str, object]:
    """Attribute detection frames to ground-truth onsets.

    The first detection at or after an onset, and before the next onset
    (or the stream's end, ``length``), is that onset's true detection;
    its delay is ``detection - onset``.  An onset with no such detection
    is missed and is charged its whole segment as delay.  Every other
    detection is a false alarm.
    """
    bounds = list(onsets) + [length]
    delays: List[int] = []
    matched = set()
    missed = 0
    for onset, end in zip(bounds[:-1], bounds[1:]):
        hits = [d for d in detections if onset <= d < end]
        if hits:
            delays.append(hits[0] - onset)
            matched.add(hits[0])
        else:
            delays.append(end - onset)
            missed += 1
    return {"delays": delays, "missed": missed,
            "false_alarms": sum(1 for d in detections if d not in matched)}


def interquartile_mean(values: Sequence[float]) -> float:
    """Mean of the middle half of ``values`` (a quarter trimmed from each
    end): continuous like a mean, robust like a median."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    middle = ordered[cut:len(ordered) - cut]
    return sum(middle) / len(middle)


def quartile_spread(values: Sequence[float]) -> float:
    """Interquartile range over the median (``statistics.quantiles``)."""
    from statistics import median, quantiles
    q1, _, q3 = quantiles(values, n=4)
    mid = median(values)
    return (q3 - q1) / abs(mid) if mid else float("inf")
