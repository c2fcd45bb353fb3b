"""The traced run: per-layer metrics from wrapped public methods.

Untraced and traced passes alternate in one process until the run's
seconds are spent (at least one of each).  The first traced pass gives
the per-layer numbers; the untraced passes give the baseline for
``trace.overhead_frac``.  Every pass must reproduce the reference
outputs, so the wrappers provably changed nothing the program emits.

Busy and self times are normalised by the probe like every end-to-end
time.  ``trace.unattributed_frac`` is the part of the traced pass that
no wrapped layer covers (benchmark loop, pipeline construction, frame
slicing); each layer's self time plus that residual adds up to the
pass's wall time.
"""

from __future__ import annotations

import os

from spans import Tracer

#: Every per-layer metric with its unit; every workload reports all of
#: them (0 where the workload does not exercise the layer).
LAYER_METRICS = {
    "nn.vae.calls": "count",
    "nn.vae.frames_per_call": "frames/call",
    "nn.vae.busy_ms": "ms",
    "core.di.self_ms": "ms",
    "selection.select.calls": "count",
    "selection.select.busy_ms": "ms",
    "detectors.model.predict.frames": "count",
    "detectors.model.predict.busy_ms": "ms",
    "detectors.tier0.frames": "count",
    "detectors.tier0.busy_ms": "ms",
    "detectors.tier0.us_per_frame": "us/frame",
    "cascade.self_ms": "ms",
    "cascade.escalated_frac": "ratio",
    "cascade.tier1_frames": "count",
    "runtime.push.calls": "count",
    "runtime.push.self_ms": "ms",
    "runtime.detections": "count",
    "runtime.deploys": "count",
    "runtime.deploy.busy_ms": "ms",
    "runtime.false_alarms": "count",
    "runtime.detection_delay_frames": "frames",
    "runtime.selection_push_share": "ratio",
    "runtime.step_batch.calls": "count",
    "runtime.step_batch.frames_per_call": "frames/call",
    "runtime.step_batch.busy_ms": "ms",
    "runtime.predict_degraded.busy_ms": "ms",
    "serve.scheduler.calls": "count",
    "serve.scheduler.busy_ms": "ms",
    "serve.overload.update_calls": "count",
    "serve.overload.busy_ms": "ms",
    "serve.control.self_ms": "ms",
    "serve.control.share": "ratio",
    "serve.control.us_per_arrival": "us/arrival",
    "serve.arrivals": "count",
    "serve.processed": "count",
    "serve.degraded": "count",
    "serve.rejected_infeasible": "count",
    "serve.shed": "count",
    "serve.deadline_misses": "count",
    "serve.overload_transitions": "count",
    "serve.batches": "count",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(summary: dict, out, factor: float) -> dict:
    """Per-layer metric values from one traced pass's span summary."""
    def get(layer: str, key: str) -> float:
        return summary.get(layer, {}).get(key, 0.0)

    def ms(layer: str, key: str) -> float:
        return get(layer, key) * factor * 1e3

    values = {name: 0.0 for name in LAYER_METRICS}
    values.update({
        "nn.vae.calls": get("nn.vae", "calls"),
        "nn.vae.frames_per_call": _ratio(get("nn.vae", "frames"),
                                         get("nn.vae", "calls")),
        "nn.vae.busy_ms": ms("nn.vae", "busy_s"),
        "core.di.self_ms": ms("core.di", "self_s"),
        "selection.select.calls": get("selection.select", "calls"),
        "selection.select.busy_ms": ms("selection.select", "busy_s"),
        "detectors.model.predict.frames": get("detectors.model.predict",
                                              "frames"),
        "detectors.model.predict.busy_ms": ms("detectors.model.predict",
                                              "busy_s"),
        "detectors.tier0.frames": get("detectors.tier0", "frames"),
        "detectors.tier0.busy_ms": ms("detectors.tier0", "busy_s"),
        "detectors.tier0.us_per_frame": _ratio(
            ms("detectors.tier0", "busy_s") * 1e3,
            get("detectors.tier0", "frames")),
        "cascade.self_ms": ms("cascade", "self_s"),
        "runtime.push.calls": get("runtime.push", "calls"),
        "runtime.push.self_ms": ms("runtime.push", "self_s"),
        "runtime.deploy.busy_ms": ms("runtime.deploy", "busy_s"),
        "runtime.detections": out.detections,
        "runtime.step_batch.calls": get("runtime.step_batch", "calls"),
        "runtime.step_batch.frames_per_call": _ratio(
            get("runtime.step_batch", "frames"),
            get("runtime.step_batch", "calls")),
        "runtime.step_batch.busy_ms": ms("runtime.step_batch", "busy_s"),
        "runtime.predict_degraded.busy_ms": ms("runtime.predict_degraded",
                                               "busy_s"),
        "serve.scheduler.calls": get("serve.scheduler", "calls"),
        "serve.scheduler.busy_ms": ms("serve.scheduler", "busy_s"),
        "serve.overload.update_calls": get("serve.overload", "calls"),
        "serve.overload.busy_ms": (ms("serve.overload", "busy_s")
                                   + ms("serve.overload.note", "busy_s")),
        "serve.control.self_ms": ms("serve.run", "self_s"),
        "serve.control.share": _ratio(get("serve.run", "self_s"),
                                      get("serve.run", "busy_s")),
    })
    if "cascade" in summary:
        values["cascade.tier1_frames"] = get("core.di", "frames")
        values["cascade.escalated_frac"] = _ratio(
            get("core.di", "frames"), get("detectors.tier0", "frames"))
    counts = out.extra.get("counts")
    if counts is not None:
        values["serve.control.us_per_arrival"] = _ratio(
            ms("serve.run", "self_s") * 1e3, counts["arrivals"])
        for key in ("arrivals", "processed", "degraded",
                    "rejected_infeasible", "deadline_misses",
                    "overload_transitions", "batches"):
            values[f"serve.{key}"] = counts[key]
        values["serve.shed"] = counts["shed"]
    else:
        values["runtime.deploys"] = out.extra["deploys"]
    return values


def traced_phase(bench):
    """Alternate untraced and traced passes, at least one of each;
    returns the passes and the tracers by pass index."""
    tracers = {}

    def tracer_for(n: int):
        if n % 2 == 0:
            return None
        tracers[n] = Tracer()
        return tracers[n]

    passes = bench.phase(tracer_for)
    if len(passes) < 2 and not bench.failures:
        passes.append(bench.one_pass(tracer_for(len(passes))))
    return passes, tracers


def layer_metrics(bench, passes, tracers):
    """Per-layer metrics and diagnostics from the first traced pass."""
    plain = [p for i, p in enumerate(passes) if i not in tracers]
    traced_index = min(tracers)
    traced = passes[traced_index]
    tracer = tracers[traced_index]
    factor = traced.extra["factor"]
    summary = tracer.summary()
    values = layer_values(summary, traced, factor)

    def fps(group) -> float:
        return sum(p.frames for p in group) / bench.normalised_s(group)

    values["trace.overhead_frac"] = 1.0 - fps([traced]) / fps(plain)
    values["trace.unattributed_frac"] = _ratio(
        traced.wall_s - tracer.top_level_s(), traced.wall_s)
    values["runtime.false_alarms"] = bench.quality["false_alarms"]
    values["runtime.detection_delay_frames"] = bench.quality[
        "detection_delay_frames"]
    adapted = int(traced.pushes[:, 2].sum())
    values["runtime.selection_push_share"] = _ratio(adapted,
                                                    len(traced.pushes))
    os.makedirs(bench.trace_dir, exist_ok=True)
    path = os.path.join(bench.trace_dir, f"trace-{bench.args.workload}"
                        f"-seed{bench.args.seed}.json")
    tracer.write(path)
    metrics = {name: (values[name], unit)
               for name, unit in LAYER_METRICS.items()}
    diagnostics = {
        "passes": len(passes), "traced_passes": len(tracers),
        "spans": len(tracer.spans), "span_file": path,
        "layers_s": {layer: {key: round(value, 6) if isinstance(value, float)
                             else value for key, value in entry.items()}
                     for layer, entry in summary.items()},
        "traced_wall_s": traced.wall_s,
    }
    return metrics, diagnostics

