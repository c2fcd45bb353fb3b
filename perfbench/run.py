"""The repository benchmark: one command, three workloads, one process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload pixel-di --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs untraced
and traced passes alternately and prints the per-layer metrics.  The
last line of standard output is the JSON result; the line before it is
a JSON object of diagnostics (raw wall-clock values, probe readings,
host fingerprint) that are not compared between commits.  Any output
check that fails makes ``correct`` false and the exit code 1.  See
README.md for the workloads, metrics and normalisation.
"""

from __future__ import annotations

import os
import sys

# BLAS threads must be pinned before numpy is first imported: extra
# OpenBLAS threads compete with the benchmark on a small host, and the
# VAE's batched matmuls are bit-stable only on one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _pin_allocator() -> str:
    """Fix glibc's mmap and trim thresholds.

    By default glibc raises its mmap threshold to the size of each large
    block freed so far, so whether a large temporary array is served
    from the heap or by fresh, page-faulting mmap depends on everything
    allocated before it: the same VAE fit took 0 or about 56,000 minor
    page faults depending on the set-ups that ran before it.  With both
    thresholds fixed every set-up and pass meets the same allocator.
    """
    import ctypes
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # not glibc: leave it alone
        return "default"
    m_trim_threshold, m_mmap_threshold = -1, -3
    fixed = (mallopt(m_mmap_threshold, 32 << 20)
             and mallopt(m_trim_threshold, 256 << 20))
    return "glibc, fixed thresholds" if fixed else "default"


MALLOC = _pin_allocator()

import argparse
import gc
import json
import platform
import resource
import time
import traceback
from statistics import median

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRACE_DIR = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("pixel-di", "pixel-cascade", "serve-64")
#: Set-ups timed before the measured phase (``setup_s`` is their median).
SETUPS = 5
#: Probe readings on each side of a set-up, besides those the set-up
#: takes between its stages.
SETUP_READINGS = 3
#: p99 needs ten samples beyond it.
MIN_PUSHES = 1000
#: Hard stop for the measured phase, far inside the 180 s run limit.
MAX_PHASE_S = 90.0


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _host() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "machine": platform.machine(),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "malloc": MALLOC}


def _make(name: str, seed: int):
    from workloads import PixelWorkload, ServeWorkload
    if name == "serve-64":
        return ServeWorkload(seed)
    return PixelWorkload(seed, cascade=(name == "pixel-cascade"))


class Bench:
    """One benchmark run: inputs, set-up, measured passes, checks."""

    def __init__(self, args) -> None:
        from probe import Normaliser
        self.args = args
        self.workload = _make(args.workload, args.seed)
        self.serve = args.workload == "serve-64"
        self.norm = Normaliser()
        self.trace_dir = TRACE_DIR
        self.setup_raw, self.setup_norm = [], []
        self.failures = []
        self.attempted = self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)

    # ------------------------------------------------------------------
    def timed_setup(self):
        """One set-up, timed in the slices between the workload's
        ``mark()`` calls with a probe reading at every mark, so the
        factor follows the host's speed through a set-up of seconds."""
        gc.collect()
        for _ in range(SETUP_READINGS - 1):
            self.norm.read()
        slices = []
        left = self.norm.read()
        start = time.perf_counter()

        def mark():
            nonlocal left, start
            slices.append((time.perf_counter() - start, left))
            left = self.norm.read()
            start = time.perf_counter()

        state = self.workload.setup(mark)
        mark()
        for _ in range(SETUP_READINGS - 1):
            self.norm.read()
        self.setup_raw.append(sum(raw for raw, _ in slices))
        self.setup_norm.append(sum(
            raw * self.norm.factor_between(i, i + 1) for raw, i in slices))
        return state

    def prepare(self, setups: int):
        self.workload.generate()
        # only the first state and the newest are kept alive, so peak RSS
        # does not grow with the number of set-ups
        first = self.state = self.timed_setup()
        for _ in range(setups - 1):
            self.state = None
            self.state = self.timed_setup()
            self.check(self.workload.same_state(first, self.state),
                       "set-up is not deterministic")
        del first
        self.reference = self.workload.reference(self.state)
        self.expected = None

    def one_pass(self, tracer=None):
        """Run one pass and check its outputs; a pass that raised counts
        its frames as failed and returns an empty result."""
        from workloads import PassResult
        if self.state is None:
            self.state = self.timed_setup()
        # every pass starts from a collected heap, so when the cyclic
        # collector runs, and peak RSS, do not depend on earlier passes
        gc.collect()
        first = self.norm.read()
        self.attempted += self.workload.frames_offered
        try:
            out = self.workload.run_pass(self.state, tracer, self.norm)
        except Exception:  # a failing program is a result, not a crash
            traceback.print_exc(file=sys.stderr)
            self.failed += self.workload.frames_offered
            self.check(False, "a pass raised")
            return PassResult()
        if self.serve:  # a server is spent by one run
            self.state = None
        last = self.norm.read()
        out.extra["factor"] = self.norm.factor_between(first, last)
        if self.expected is None:
            self.expected = out.signature
            self.quality = self.workload.quality(out)
        self.check(self.workload.matches(out, self.reference),
                   "step_batch outputs differ from the reference path")
        self.check(out.signature == self.expected,
                   "outputs differ between repetitions")
        # keep what the metrics need, not every record of every pass, so
        # peak RSS does not grow with the number of passes
        out.signature = None
        out.pushes = np.asarray(out.pushes, dtype=np.float64).reshape(-1, 3)
        for key in ("results", "result", "pushed"):
            out.extra.pop(key, None)
        return out

    # ------------------------------------------------------------------
    def measure(self, passes):
        """End-to-end metrics from the untraced passes."""
        from stats import percentile
        rates = [frames / (wall * self.norm.factor_between(left, right))
                 for p in passes for frames, wall, left, right in p.parts]
        times, adapt = self.push_times(passes)
        selection_share = len(adapt) / len(times)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": (median(self.setup_norm), "s"),
            "frames_per_s": (median(rates), "frames/s"),
            "push_latency_p50_ms": (percentile(times, 50) * 1e3, "ms"),
            "push_latency_p99_ms": (percentile(times, 99) * 1e3, "ms"),
            "adapt_latency_p50_ms": (median(adapt) * 1e3, "ms"),
            "peak_rss_mb": (rss_mb, "MB"),
            "served_frac": (self.quality["served_frac"], "ratio"),
            "query_accuracy": (self.quality["query_accuracy"], "ratio"),
        }
        raw_s = sum(p.wall_s for p in passes)
        diagnostics = {
            "raw": {"setup_s": self.setup_raw,
                    "frames_per_s": sum(p.frames for p in passes) / raw_s,
                    "push_latency_p50_ms": percentile(
                        [r for p in passes for r in p.pushes[:, 0]], 50) * 1e3,
                    "measured_s": raw_s},
            "setup_s_each": self.setup_norm,
            "pushes": len(times), "adapt_pushes": len(adapt),
            "selection_push_share": selection_share,
            "passes": len(passes), "part_frames_per_s": rates,
            "frames_per_s_mean": (sum(p.frames for p in passes)
                                  / self.normalised_s(passes)),
            "false_alarms": self.quality["false_alarms"],
            "detection_delay_frames": self.quality["detection_delay_frames"],
            "detection_delay_mean": self.quality["detection_delay_mean"],
            "missed_onsets": self.quality["missed"],
            "onsets": self.quality["onsets"],
        }
        return metrics, diagnostics

    def push_times(self, passes):
        """Normalised push durations, all and adapting ones.

        Pixel: every push of every pass is a sample.  Serve: each run
        repeats the same pushes on the same inputs (checked), so a
        distinct push's duration is its median over the runs; a 0.3 ms
        push is otherwise at the mercy of any host stall.
        """
        per_pass = [
            np.array([raw * self.norm.factor_between(int(i), int(i) + 1)
                      for raw, i, _ in p.pushes]) for p in passes]
        adapted = [p.pushes[:, 2] > 0 for p in passes]
        if self.workload.PER_PUSH_MEDIAN:
            per_pass = [np.median(np.stack(per_pass), axis=0)]
            adapted = adapted[:1]
        times = np.concatenate(per_pass)
        flags = np.concatenate(adapted)
        return times.tolist(), times[flags].tolist()

    def normalised_s(self, passes) -> float:
        """Probe-normalised seconds of the timed parts of ``passes``."""
        return sum(wall * self.norm.factor_between(left, right)
                   for p in passes for _, wall, left, right in p.parts)

    def run(self) -> int:
        args = self.args
        traced_run = args.trace == 1
        self.prepare(1 if traced_run else SETUPS)
        metrics, diagnostics = {}, {}
        if traced_run:
            from layers import layer_metrics, traced_phase
            passes, tracers = traced_phase(self)
            if not self.failures:
                metrics, diagnostics = layer_metrics(self, passes, tracers)
        else:
            passes = self.phase(lambda n: None, MIN_PUSHES)
            if not self.failures:
                metrics, diagnostics = self.measure(passes)
        diagnostics.update({
            "workload": args.workload, "seed": args.seed,
            "trace": args.trace, "host": _host(),
            "probe_s": self.norm.readings,
            "failures": self.failures})
        print(json.dumps(diagnostics))
        correct = not self.failures
        print(json.dumps({
            "correct": correct, "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}))
        return 0 if correct else 1

    def phase(self, tracer_for, min_pushes: int = 0):
        """Passes until ``--seconds`` have elapsed and ``min_pushes``
        pushes were timed; ``tracer_for(n)`` gives pass ``n`` its tracer
        (``None``: untraced)."""
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(self.one_pass(tracer_for(len(passes))))
            elapsed = time.perf_counter() - start
            pushes = sum(len(p.pushes) for p in passes)
            if elapsed >= MAX_PHASE_S or self.failures:
                break
            if elapsed >= self.args.seconds and pushes >= min_pushes:
                break
        return passes


def main(argv=None) -> int:
    args = _parse(argv)
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import repro  # the program under test, from this checkout only
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {src}: {exc}",
              file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"perfbench: repro was imported from {repro.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    import selfcheck
    selfcheck.run_all()
    return Bench(args).run()


if __name__ == "__main__":
    sys.exit(main())
