"""Self-checks of the benchmark's own helpers.

Run before every benchmark run (they take milliseconds) and on their
own with ``python3 perfbench/selfcheck.py``.  A failure raises
``AssertionError`` and the benchmark prints no result.
"""

from __future__ import annotations

import inspect
import os
import sys


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise AssertionError(f"perfbench self-check failed: {what}")


def check_percentile_rule() -> None:
    from stats import percentile
    values = list(range(1, 1001))
    _require(percentile(values, 99) == 990,
             "p99 of 1..1000 is rank 990, ten samples beyond it")
    _require(percentile(values, 50) == 500, "p50 of 1..1000 is 500")
    _require(percentile(list(range(20)), 50) == 9, "p50 of 0..19 is 9")
    try:
        percentile(values[:999], 99)
    except ValueError:
        return
    raise AssertionError("perfbench self-check failed: p99 of 999 samples "
                         "(nine beyond it) must be refused")


def check_self_time() -> None:
    from spans import Tracer, layer_summary
    # push [0, 10] with children di [2, 5] and vae [6, 7]; vae has a
    # child of the push layer [6.2, 6.5] (a layer re-entered below itself)
    spans = [["push", 0.0, 10.0, -1, 16],
             ["di", 2.0, 5.0, 0, 16],
             ["vae", 6.0, 7.0, 0, 1],
             ["push", 6.2, 6.5, 2, 0]]
    summary = layer_summary(spans)

    def close(a: float, b: float) -> bool:
        return abs(a - b) < 1e-12

    _require(close(summary["push"]["self_s"], 6.0 + 0.3),
             "push self time is its spans minus their direct children")
    _require(close(summary["push"]["busy_s"], 10.0),
             "busy time counts only the outermost span of a layer")
    _require(summary["push"]["calls"] == 2, "every span is a call")
    _require(close(summary["vae"]["self_s"], 0.7),
             "vae self time excludes its nested push span")
    _require(close(summary["di"]["self_s"], 3.0), "di self time")
    _require(close(sum(e["self_s"] for e in summary.values()), 10.0),
             "self times add up to the top-level span")

    class Monitor:
        def observe_batch(self, frames, exact_embed=False):
            return [exact_embed] * len(frames)

    monitor = Monitor()
    tracer = Tracer()
    tracer.wrap(monitor, "observe_batch", "di", lambda args: len(args[0]))
    parameters = inspect.signature(monitor.observe_batch).parameters
    # the runtime reads this signature to decide to pass exact_embed
    _require("exact_embed" in parameters,
             "a wrapper keeps the wrapped method's signature")
    _require(monitor.observe_batch([1, 2], exact_embed=True) == [True, True],
             "a wrapper passes arguments and results through")
    _require(tracer.summary()["di"]["frames"] == 2,
             "a wrapper counts the frames of the call")
    tracer.restore()
    _require("observe_batch" not in vars(monitor),
             "restore removes the instance attribute")


def check_normalisation() -> None:
    from probe import PROBE_REF_S, Normaliser
    norm = Normaliser()
    norm.readings = [2 * PROBE_REF_S] * 6 + [PROBE_REF_S] * 6
    _require(abs(norm.factor_between(0, 1) - 0.5) < 1e-12,
             "a host at half speed halves every interval")
    _require(abs(norm.factor_between(5, 6) - 1 / 1.5) < 1e-12,
             "a window that spans a change of speed takes the mean speed")
    _require(abs(norm.factor_between(10, 11) - 1.0) < 1e-12,
             "readings beyond the window do not count")


def check_onset_matching() -> None:
    from repro.scenarios.script import DriftEvent
    from stats import match_detections, segment_onsets
    labels = ["day"] * 5 + ["night"] * 5 + ["rain"] * 5
    onsets = segment_onsets(labels)
    _require(onsets == [5, 10], "onsets are where the segment changes")
    events = [DriftEvent(frame=5, factors=("lighting",), kind="abrupt",
                         magnitude=1.0),
              DriftEvent(frame=10, factors=("noise",), kind="abrupt",
                         magnitude=1.0)]
    _require([event.frame for event in events] == onsets,
             "segment onsets agree with DriftEvent ground truth")
    found = match_detections(onsets, [2, 6, 7, 12], len(labels))
    _require(found == {"delays": [1, 2], "missed": 0, "false_alarms": 2},
             "first detection after each onset is true, the rest false")
    found = match_detections(onsets, [6], len(labels))
    _require(found == {"delays": [1, 5], "missed": 1, "false_alarms": 0},
             "a missed onset is charged its whole segment")


def run_all() -> None:
    check_percentile_rule()
    check_self_time()
    check_normalisation()
    check_onset_matching()


if __name__ == "__main__":
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    run_all()
    print("perfbench self-checks passed")
