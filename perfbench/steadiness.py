"""Run-to-run steadiness of the end-to-end metrics.

Runs ``run.py`` once per seed (1-10) and workload, in two sets, one
process at a time, and reports for every end-to-end metric the spread
of each set -- the interquartile range over the median of its runs --
and how far the median moved between sets, against the metric's bound
in ``BENCHMARK.json``.  It also requires the deterministic metrics and
detection quality to be identical for the same seed in every set.

    python3 perfbench/steadiness.py --out perfbench/evidence/steadiness.json
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from stats import quartile_spread  # noqa: E402

#: Metrics that are a pure function of the seed.
DETERMINISTIC = ("served_frac", "query_accuracy")
#: Detection quality from each run's diagnostics, also a pure function
#: of the seed.
DETECTION = ("false_alarms", "detection_delay_frames")
SETS = 2
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} failed "
                           f"({proc.returncode}): {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    diagnostics = json.loads(lines[-2])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect output "
                           f"{diagnostics['failures']}")
    return {"seed": seed, "elapsed_s": time.perf_counter() - started,
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "raw": diagnostics.get("raw", {}),
            "selection_push_share": diagnostics.get("selection_push_share"),
            "detection": {k: diagnostics[k] for k in DETECTION},
            "probe_median_s": median(diagnostics["probe_s"])}


def summarise(bench: dict, sets: list) -> dict:
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    report = {}
    for workload in sets[0]:
        rows = {}
        for name, spec in bounds.items():
            per_set = [[run["metrics"][name] for run in s[workload]]
                       for s in sets]
            medians = [median(values) for values in per_set]
            spreads = [quartile_spread(values) for values in per_set]
            worse = [((m - medians[0]) / medians[0]
                      if spec["better"] == "lower"
                      else (medians[0] - m) / medians[0])
                     for m in medians[1:]]
            rows[name] = {
                "medians": medians, "spreads": spreads,
                "bound": spec["bound"],
                "spread_within_third": all(
                    sp < spec["bound"] / 3 for sp in spreads),
                "median_shift_worse": worse,
                "shift_within_bound": all(w <= spec["bound"] for w in worse),
            }
            if name in DETERMINISTIC:
                rows[name]["identical_across_sets"] = all(
                    values == per_set[0] for values in per_set)
        for name in DETECTION:
            per_set = [[run["detection"][name] for run in s[workload]]
                       for s in sets]
            rows[name] = {"identical_across_sets": all(
                values == per_set[0] for values in per_set)}
        raw = [[run["raw"].get("frames_per_s") for run in s[workload]]
               for s in sets]
        rows["raw_frames_per_s"] = {"spreads": [quartile_spread(v)
                                                for v in raw]}
        report[workload] = rows
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    sets = []
    started = time.time()
    for index in range(SETS):
        runs = {}
        for workload in workloads:
            runs[workload] = []
            for seed in SEEDS:
                runs[workload].append(run_once(workload, seed,
                                               bench["run_seconds"]))
                print(f"set {index} {workload} seed {seed} done "
                      f"({time.time() - started:.0f} s)", flush=True)
        sets.append(runs)
    report = {"seeds": list(SEEDS), "run_seconds": bench["run_seconds"],
              "summary": summarise(bench, sets), "sets": sets}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    for workload, rows in report["summary"].items():
        for name, row in rows.items():
            print(workload, name, json.dumps(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
