"""In-memory spans around public methods of objects the benchmark owns.

The traced run replaces a public method with a wrapper stored as an
instance attribute, so only the objects the benchmark constructed (or
received through a public hook such as ``monitor_factory``) are timed,
and :meth:`Tracer.restore` puts every replaced attribute back.  The
wrapper keeps the original's signature (``functools.wraps``), because
the runtime inspects ``observe_batch`` parameters to decide how to call
it.

Spans stay in memory as ``[layer, start, end, parent, frames]`` rows and
are written once, when the run ends.  A layer's *self* time is its
spans' durations minus the part covered by their direct child spans.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

_MISSING = object()


def rows_of(args: tuple) -> int:
    """Frames in a batch call: the length of its first argument."""
    return len(args[0])


def one_frame(args: tuple) -> int:
    """Frames in a single-frame call."""
    return 1


class Tracer:
    """Span recorder plus the bookkeeping to undo its wrappers."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._replaced: List[tuple] = []

    # ------------------------------------------------------------------
    def _open(self, layer: str, frames: int) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, 0.0, 0.0, parent, frames])
        self._stack.append(index)
        return index

    def _close(self, index: int, start: float, end: float) -> None:
        self._stack.pop()
        span = self.spans[index]
        span[1], span[2] = start, end

    @contextmanager
    def span(self, layer: str, frames: int = 0):
        """Time a call the benchmark itself makes."""
        index = self._open(layer, frames)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(index, start, time.perf_counter())

    def wrap(self, obj: object, method: str, layer: str,
             frames_of: Optional[Callable[[tuple], int]] = None) -> None:
        """Replace ``obj.method`` with a timed wrapper (instance attribute)."""
        original = getattr(obj, method)
        self._replaced.append((obj, method,
                               obj.__dict__.get(method, _MISSING)))

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = self._open(layer, frames_of(args) if frames_of else 0)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self._close(index, start, time.perf_counter())

        setattr(obj, method, traced)

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        for obj, method, previous in reversed(self._replaced):
            if previous is _MISSING:
                delattr(obj, method)
            else:
                setattr(obj, method, previous)
        self._replaced.clear()

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, dict]:
        """Per layer: ``calls``, ``frames``, ``busy_s`` (outermost spans
        only, so a layer re-entering itself is not double counted) and
        ``self_s``."""
        return layer_summary(self.spans)

    def top_level_s(self) -> float:
        """Total duration of the spans that have no parent."""
        return sum(end - start for _, start, end, parent, _ in self.spans
                   if parent < 0)

    def write(self, path: str) -> None:
        """Write the spans as JSON (microseconds from the first span)."""
        origin = self.spans[0][1] if self.spans else 0.0
        layers = sorted({span[0] for span in self.spans})
        ids = {name: i for i, name in enumerate(layers)}
        rows = [[ids[layer], round((start - origin) * 1e6, 1),
                 round((end - start) * 1e6, 1), parent, frames]
                for layer, start, end, parent, frames in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"layers": layers,
                       "columns": ["layer", "start_us", "dur_us", "parent",
                                   "frames"],
                       "spans": rows}, handle)


def layer_summary(spans: List[list]) -> Dict[str, dict]:
    """Aggregate span rows ``[layer, start, end, parent, frames]``."""
    child_time = [0.0] * len(spans)
    for layer, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: Dict[str, dict] = {}
    for index, (layer, start, end, parent, frames) in enumerate(spans):
        entry = out.setdefault(layer, {"calls": 0, "frames": 0,
                                       "busy_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["frames"] += frames
        entry["self_s"] += (end - start) - child_time[index]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != layer:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["busy_s"] += end - start
    return out
