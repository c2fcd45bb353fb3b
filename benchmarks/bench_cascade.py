"""Accuracy/cost frontier for the tiered monitoring cascade.

Runs the cascade (swept over escalation thresholds), the always-on Drift
Inspector, and the tier-0 pixel-stat screen alone through the runtime
kernel on the scenario matrix from :mod:`repro.detectors.bench`, and
scores each mode's detection delay, false alarms, escalation share and
simulated per-frame cost into ``BENCH_cascade.json``.

The committed report is the frontier contract: ``scripts/check.sh``
re-validates it against ``CASCADE_SCHEMA`` and holds the headline
cascade mode to its bars (stationary escalation <= 20% at >= 3x lower
cost than always-on DI, abrupt delay within 2x) on every run.
Every mode and scenario is also re-run per frame on the first seed and
must reproduce its batched run exactly, or the run fails.  ``--quick``
halves every scenario and drops to one seed for the CI smoke pass and is
flagged in the report.  Run via
``scripts/bench.sh cascade``.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "src"))

from repro.cascade.bench import (
    DEFAULT_THRESHOLDS,
    run_benchmark,
    write_cascade_report,
)
from repro.detectors.bench import DEFAULT_SEEDS

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_OUTPUT = os.path.join(_REPO_ROOT, "BENCH_cascade.json")


def _fmt(value, width: int) -> str:
    if value is None:
        return f"{'-':>{width}}"
    return f"{value:>{width}.1f}"


def _print_report(report: dict) -> None:
    scenarios = list(report["scenarios"])
    seeds = report["scenarios"][scenarios[0]]["seeds"]
    print(f"cascade frontier: {len(report['modes'])} modes x "
          f"{len(scenarios)} scenarios, {len(seeds)} seed(s) "
          f"(delay frames / escalated % / simulated us per frame)")
    header = f"{'mode':>14}"
    for name in scenarios:
        header += f" {name[:12]:>19}"
    print(header)
    for mode, entry in report["modes"].items():
        row = f"{mode:>14}"
        for name in scenarios:
            cell = entry["scenarios"][name]
            row += (f" {_fmt(cell['detection_delay'], 6)}/"
                    f"{cell['escalated_pct']:>5.1f}/"
                    f"{cell['us_per_frame']:>6.0f}")
        print(row)
    headline = report["default_mode"]
    print(f"headline mode: {headline}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="halved scenarios, one seed: CI smoke pass")
    parser.add_argument("--output", default=DEFAULT_OUTPUT,
                        help="where to write the JSON report")
    parser.add_argument("--thresholds", default=None,
                        help="comma-separated escalation thresholds "
                             "(default: "
                             f"{','.join(map(str, DEFAULT_THRESHOLDS))})")
    parser.add_argument("--seeds", default=None,
                        help="comma-separated seeds (default: "
                             f"{','.join(map(str, DEFAULT_SEEDS))})")
    args = parser.parse_args(argv)

    thresholds = (tuple(float(t) for t in args.thresholds.split(","))
                  if args.thresholds else DEFAULT_THRESHOLDS)
    if args.seeds:
        seeds = tuple(int(seed) for seed in args.seeds.split(","))
    else:
        seeds = (DEFAULT_SEEDS[:1] if args.quick else DEFAULT_SEEDS)

    report = run_benchmark(thresholds=thresholds, seeds=seeds,
                           quick=args.quick)
    _print_report(report)
    print(f"fast path: observe_batch == observe and process_batched == "
          f"process() for every mode and scenario (seed {seeds[0]})")
    write_cascade_report(args.output, report)
    print(f"\nwrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
