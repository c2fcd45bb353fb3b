"""Accuracy/cost frontier benchmark for the tiered cascade.

Three monitoring configurations run through the full runtime kernel
(``make_pipeline`` + ``process_batched``, the substrate the equivalence
tests pin) on the detector benchmark's scenario matrix:

- ``always-on-di`` -- the paper's VAE+DI path on every frame (the
  accuracy ceiling and the cost ceiling);
- ``tier0-alone`` -- the pixel-statistic screen as the *only* monitor
  (the cost floor; its standalone latch is deliberately conservative);
- ``cascade@<t>`` -- the tiered cascade, swept over escalation
  thresholds ``t``, tier-0 screening every frame and the Drift
  Inspector fed only escalated windows.

Accuracy cells reuse the detector benchmark's metrics (detection delay
and false alarms against each scenario's onset).  Cost cells come from
the cascade's escalation counters -- recorded through a live
:class:`~repro.obs.Recorder` shared by the pipeline and the cascade, so
the counts survive monitor rebuilds on model swaps and roll back with
the optimistic batched path -- priced with the
:data:`~repro.sim.costs.PAPER_COSTS` profile.  Everything is a pure
function of the seeds, so the committed ``BENCH_cascade.json`` is
reproducible bit for bit.  For the first seed, every mode and scenario
is also run per frame and must match its batched run, both as a bare
monitor and through the kernel (:func:`assert_fast_path`), so a batched
tier-0 or tier-1 path that diverges fails the benchmark.  Run via
``scripts/bench.sh cascade``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.cascade.monitor import (
    TIER0_OPS,
    TIER1_OPS,
    CascadeMonitor,
    EscalationPolicy,
)
from repro.cascade.report import write_cascade_report  # noqa: F401
from repro.detectors import zoo
from repro.detectors.bench import DEFAULT_SEEDS, Scenario, scenario_matrix
from repro.errors import CascadeError
from repro.obs import Recorder
from repro.sim.costs import PAPER_COSTS
from repro.testing import (
    assert_rerun_identical,
    gaussian_stream,
    make_pipeline,
    make_registry,
    result_sig,
)

#: Escalation thresholds the frontier is swept over (reference-sigma
#: units of tier-0 suspicion).
DEFAULT_THRESHOLDS: Tuple[float, ...] = (2.5, 3.5, 5.0, 8.0)

#: The threshold the committed report's headline cascade mode uses.
DEFAULT_THRESHOLD: float = 3.5

#: Stack size of the monitor-level fast-path check (the repository
#: benchmark's push size).
_CHUNK = 16

_TIER0_US = 1000.0 * sum(PAPER_COSTS.cost(op) for op in TIER0_OPS)
_TIER1_US = 1000.0 * sum(PAPER_COSTS.cost(op) for op in TIER1_OPS)


@dataclass(frozen=True)
class CascadeMode:
    """One scored configuration of the monitoring seam."""

    name: str
    kind: str  # "cascade" | "always-on" | "tier0"
    threshold: Optional[float] = None


def mode_matrix(thresholds: Sequence[float] = DEFAULT_THRESHOLDS
                ) -> Dict[str, CascadeMode]:
    """The benchmark's modes, keyed by name."""
    if not thresholds:
        raise CascadeError("need at least one escalation threshold")
    modes = [CascadeMode("always-on-di", "always-on"),
             CascadeMode("tier0-alone", "tier0")]
    for threshold in thresholds:
        if threshold <= 0:
            raise CascadeError(
                f"escalation thresholds must be positive: {threshold}")
        modes.append(CascadeMode(f"cascade@{threshold:g}", "cascade",
                                 float(threshold)))
    return {mode.name: mode for mode in modes}


def default_mode_name(thresholds: Sequence[float] = DEFAULT_THRESHOLDS
                      ) -> str:
    """The headline cascade mode: ``DEFAULT_THRESHOLD`` when swept,
    otherwise the first threshold."""
    if DEFAULT_THRESHOLD in thresholds:
        return f"cascade@{DEFAULT_THRESHOLD:g}"
    return f"cascade@{thresholds[0]:g}"


def _monitor_factory(mode: CascadeMode, recorder: Recorder):
    if mode.kind == "always-on":
        return zoo.factory("inspector")
    if mode.kind == "tier0":
        return zoo.factory("pixelstat")

    def build(bundle):
        return CascadeMonitor(
            zoo.build("pixelstat", bundle),
            zoo.build("inspector", bundle),
            policy=EscalationPolicy(threshold=mode.threshold),
            recorder=recorder)

    return build


def _drive(mode: CascadeMode, seed: int, frames, batched: bool):
    """One kernel run of ``mode`` over ``frames``: batched
    (``process_batched``, what every cell is scored on) or per frame
    (``process``).  Returns the result and the run's recorder."""
    recorder = Recorder()
    pipeline = make_pipeline(seed, recorder=recorder,
                             monitor_factory=_monitor_factory(mode,
                                                              recorder))
    process = pipeline.process_batched if batched else pipeline.process
    return process(frames), recorder


def _observe(monitor, frames, batched: bool) -> list:
    if not batched:
        return [monitor.observe(frame) for frame in frames]
    return [decision for start in range(0, len(frames), _CHUNK)
            for decision in monitor.observe_batch(
                frames[start:start + _CHUNK])]


def assert_fast_path(mode: CascadeMode, scenario: Scenario,
                     seed: int) -> None:
    """Fail loudly unless the batched paths reproduce the per-frame paths
    on one scenario seed, at two levels:

    - the monitor alone: ``observe_batch`` in ``_CHUNK``-frame stacks
      against ``observe`` per frame -- every decision (tier-0 suspicions
      and z-scores included) and the final ``state_dict``;
    - the kernel: ``process_batched`` against ``process()`` -- records,
      detections, invocations, simulated time, faults and every recorder
      counter (the cascade's escalation accounting).
    """
    frames = gaussian_stream(seed, list(scenario.segments))
    bundle = make_registry().get("low")
    monitors, kernels = [], []
    for batched in (False, True):
        monitor = _monitor_factory(mode, Recorder())(bundle)
        monitors.append((_observe(monitor, frames, batched),
                         monitor.state_dict()))
        result, recorder = _drive(mode, seed, frames, batched)
        kernels.append((result_sig(result),
                        recorder.metrics.snapshot()["counters"]))
    for level, runs in (("observe_batch != observe", monitors),
                        ("process_batched != process()", kernels)):
        if runs[0] != runs[1]:
            raise AssertionError(
                f"cascade benchmark fast path diverged: {mode.name} / "
                f"{scenario.name} seed {seed}: {level}")


def score_run(mode: CascadeMode, scenario: Scenario, seed: int) -> dict:
    """Drive one mode through the kernel on one scenario seed.

    Returns the raw observations: ``delay`` (``None`` when the drift was
    never caught), ``false_alarms``, and the escalation accounting
    (``frames`` observed in monitor mode, ``escalated`` of them fed to
    tier 1).
    """
    frames = gaussian_stream(seed, list(scenario.segments))
    result, recorder = _drive(mode, seed, frames, batched=True)
    indices = sorted(event.frame_index for event in result.detections)
    onset = scenario.onset
    if onset is None:
        false_alarms = len(indices)
        delay = None
    else:
        false_alarms = sum(1 for index in indices if index < onset)
        post = [index for index in indices if index >= onset]
        delay = post[0] - onset if post else None
    if mode.kind == "cascade":
        observed = recorder.counter("cascade.frames").value
        escalated = recorder.counter("cascade.escalated_frames").value
    else:
        observed = float(len(frames))
        escalated = observed if mode.kind == "always-on" else 0.0
    return {"delay": delay, "false_alarms": false_alarms,
            "frames": observed, "escalated": escalated}


def _us_per_frame(mode: CascadeMode, escalated_share: float) -> float:
    if mode.kind == "always-on":
        return _TIER1_US
    if mode.kind == "tier0":
        return _TIER0_US
    return _TIER0_US + _TIER1_US * escalated_share


def score_cell(mode: CascadeMode, scenario: Scenario,
               seeds: Sequence[int]) -> dict:
    """One schema-valid frontier cell: ``score_run`` averaged over
    ``seeds``."""
    runs = [score_run(mode, scenario, seed) for seed in seeds]
    delays = [run["delay"] for run in runs if run["delay"] is not None]
    frames = sum(run["frames"] for run in runs)
    escalated = sum(run["escalated"] for run in runs)
    share = escalated / frames if frames else 0.0
    return {
        "detection_delay": (round(sum(delays) / len(delays), 6)
                            if delays else None),
        "detected_runs": len(delays),
        "runs": len(runs),
        "false_alarms": round(sum(run["false_alarms"]
                                  for run in runs) / len(runs), 6),
        "escalated_pct": round(100.0 * share, 6),
        "us_per_frame": round(_us_per_frame(mode, share), 6),
    }


def run_benchmark(thresholds: Sequence[float] = DEFAULT_THRESHOLDS,
                  scenarios: Optional[Dict[str, Scenario]] = None,
                  seeds: Sequence[int] = DEFAULT_SEEDS,
                  quick: bool = False) -> dict:
    """Score the cascade frontier across the matrix."""
    if not seeds:
        raise CascadeError("need at least one seed")
    matrix = scenarios if scenarios is not None else scenario_matrix(quick)
    modes = mode_matrix(thresholds)
    table = {
        name: {
            "kind": mode.kind,
            "threshold": mode.threshold,
            "scenarios": {scenario.name: score_cell(mode, scenario, seeds)
                          for scenario in matrix.values()},
        }
        for name, mode in modes.items()
    }
    for mode in modes.values():
        for scenario in matrix.values():
            assert_fast_path(mode, scenario, seeds[0])
    first = next(iter(modes.values()))
    first_scenario = next(iter(matrix.values()))
    assert_rerun_identical(
        "cascade", f"{first.name} / {first_scenario.name}",
        table[first.name]["scenarios"][first_scenario.name],
        score_cell(first, first_scenario, seeds))
    return {
        "schema_version": 1,
        "benchmark": "tiered-cascade accuracy/cost frontier",
        "quick": quick,
        "default_mode": default_mode_name(thresholds),
        "scenarios": {scenario.name: {
            "frames": scenario.frames,
            "onset": scenario.onset,
            "seeds": list(seeds),
        } for scenario in matrix.values()},
        "modes": table,
    }
