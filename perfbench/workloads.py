"""The three workloads: inputs from the seed, program state, one pass.

Each workload offers the same steps to ``run.py``:

- ``generate()`` makes the inputs from the seed (untimed);
- ``setup(mark)`` builds program state and returns it (``setup_s``),
  calling ``mark()`` between its stages so the probe can be read
  there, and ``same_state(a, b)`` tells whether two set-ups built the
  same state;
- ``run_pass(state, tracer, normaliser)`` drives the public API once
  over every input and returns a :class:`PassResult`; with a
  :class:`Tracer` it wraps public methods of the objects it builds;
- ``reference(state)`` runs the reference path, and
  ``matches(pass, reference)`` tells whether a pass agrees with it;
- ``quality(pass)`` scores a pass's outputs against ground truth.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.cascade import CascadeMonitor
from repro.core.drift_inspector import DriftInspector, DriftInspectorConfig
from repro.core.pipeline import DriftAwareAnalytics, PipelineConfig
from repro.core.selection.msbi import MSBI, MSBIConfig
from repro.detectors.tier0 import PixelStatMonitor
from repro.experiments.common import ExperimentContext, fast_config
from repro.serve import (
    DriftServer,
    SchedulerConfig,
    ServeConfig,
    SessionConfig,
    StreamSession,
    WorkloadConfig,
    capacity_fps,
    generate_arrivals,
)
from repro.sim.clock import SimulatedClock
from repro.testing import gaussian_stream, make_pipeline, result_sig
from repro.video.datasets import make_bdd
from repro.video.stream import frames_to_count_labels, frames_to_pixels

from stats import interquartile_mean, match_detections, segment_onsets
from spans import Tracer, one_frame, rows_of

#: One timed push: ``(raw_s, probe_index, adapted)``, where ``adapted``
#: means a drift was resolved and a model deployed during the push.
PushSample = tuple


def sub_seed(seed: int, *salt: int) -> int:
    """A 31-bit seed derived from the run seed (stable across platforms)."""
    return int(np.random.SeedSequence([seed, *salt]).generate_state(1)[0]
               >> 1)


@dataclass
class PassResult:
    """What one pass produced and how long its pieces took."""

    #: ``(frames, wall_s, left, right)`` per timed part: frames
    #: completed, wall seconds without probe time, and the probe readings
    #: taken around it.
    parts: List[tuple] = field(default_factory=list)
    pushes: List[PushSample] = field(default_factory=list)
    signature: list = field(default_factory=list)
    detections: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def frames(self) -> int:
        return sum(part[0] for part in self.parts)

    @property
    def wall_s(self) -> float:
        return sum(part[1] for part in self.parts)


def _span(tracer: Optional[Tracer], layer: str, frames: int = 0):
    return nullcontext() if tracer is None else tracer.span(layer, frames)


class Probed:
    """Takes a probe reading every ``every`` pushes inside a pass (never
    when ``every`` is 0).

    Probe time is kept out of the pass's wall time, so interleaving the
    probe does not change the measured work.
    """

    def __init__(self, normaliser, every: int) -> None:
        self.normaliser = normaliser
        self.every = every
        self.count = 0
        self.probe_s = 0.0
        self.index = len(normaliser.readings) - 1 if normaliser else -1

    def tick(self) -> None:
        self.count += 1
        if (self.normaliser is not None and self.every
                and self.count % self.every == 0):
            start = time.perf_counter()
            self.index = self.normaliser.read()
            self.probe_s += time.perf_counter() - start


# ----------------------------------------------------------------------
# pixel workloads: BDD-style pixel streams through DriftAwareAnalytics
# ----------------------------------------------------------------------
class _PrerenderedDataset:
    """The dataset with its training frames rendered once, up front, so
    repeated set-ups time training and not rendering."""

    def __init__(self, dataset, frames: Dict[str, list]) -> None:
        self._dataset = dataset
        self._frames = frames

    def __getattr__(self, name):
        return getattr(self._dataset, name)

    def training_frames(self, segment, count, seed=None):
        return self._frames[segment][:count]


class PixelWorkload:
    """``pixel-di`` / ``pixel-cascade``: the paper's pipeline on BDD-style
    day/night/rain/snow pixel streams, pushed in 16-frame chunks."""

    PER_PUSH_MEDIAN = False
    #: 20000 / 40 = 500 frames per segment: 2,000-frame streams with
    #: three onsets each, 18 onsets and 750 pushes per pass.
    SCALE = 40.0
    STREAMS = 6
    PUSH = 16
    WINDOW = 10
    PROBE_EVERY = 25

    def __init__(self, seed: int, cascade: bool) -> None:
        self.seed = seed
        self.cascade = cascade
        self.config = fast_config(seed=seed)

    # -- inputs ----------------------------------------------------------
    def generate(self) -> None:
        dataset = make_bdd(scale=self.SCALE, seed=self.seed)
        context = ExperimentContext(dataset, self.config)
        self.dataset = _PrerenderedDataset(dataset, {
            name: context.training_frames(name)
            for name in dataset.segment_names})
        self.first_model = dataset.segment_names[0]
        self.streams, self.labels, self.onsets = [], [], []
        for k in range(self.STREAMS):
            source = dataset if k == 0 else make_bdd(
                scale=self.SCALE, seed=sub_seed(self.seed, 1, k))
            frames = source.stream.materialize()
            self.streams.append(frames_to_pixels(frames))
            self.labels.append(frames_to_count_labels(
                frames, dataset.num_count_classes,
                dataset.count_bucket_width))
            self.onsets.append(segment_onsets([f.segment for f in frames]))

    @property
    def frames_offered(self) -> int:
        return sum(len(s) for s in self.streams)

    # -- program state -----------------------------------------------------
    def setup(self, mark):
        """Train every segment's bundle; ``mark()`` runs before each VAE
        and each classifier is built, so set-up is timed in eight
        slices."""
        context = ExperimentContext(self.dataset, self.config)

        def marked(make):
            def call(seed):
                mark()
                return make(seed)
            return call

        for method in ("make_vae", "make_classifier"):
            setattr(context, method, marked(getattr(context, method)))
        return context.registry(with_ensembles=False)

    @staticmethod
    def same_state(left, right) -> bool:
        return all(np.array_equal(left.get(n).sigma, right.get(n).sigma)
                   for n in left.names()) and left.names() == right.names()

    def _pipeline(self, registry, tracer: Optional[Tracer],
                  deploys: List[int]) -> DriftAwareAnalytics:
        clock = SimulatedClock()
        di_config = DriftInspectorConfig(seed=self.seed,
                                         k=self.config.knn_k)

        def inspector(bundle) -> DriftInspector:
            di = DriftInspector(bundle.sigma, config=di_config,
                                embedder=bundle.vae, clock=clock)
            if tracer is not None:
                tracer.wrap(di, "observe", "core.di", one_frame)
                tracer.wrap(di, "observe_batch", "core.di", rows_of)
            return di

        def factory(bundle):
            deploys[0] += 1
            with _span(tracer, "runtime.deploy"):
                return build(bundle)

        def build(bundle):
            if not self.cascade:
                return inspector(bundle)
            tier0 = PixelStatMonitor(bundle.training_frames)
            if tracer is not None:
                tracer.wrap(tier0, "observe", "detectors.tier0", one_frame)
                tracer.wrap(tier0, "observe_batch", "detectors.tier0",
                            rows_of)
            monitor = CascadeMonitor(tier0, inspector(bundle))
            if tracer is not None:
                tracer.wrap(monitor, "observe", "cascade", one_frame)
                tracer.wrap(monitor, "observe_batch", "cascade", rows_of)
            return monitor

        selector = MSBI(registry, MSBIConfig(window_size=self.WINDOW,
                                             seed=self.seed))
        if tracer is not None:
            tracer.wrap(selector, "select", "selection.select", rows_of)
        return DriftAwareAnalytics(
            registry, self.first_model, selector,
            config=PipelineConfig(selection_window=self.WINDOW,
                                  drift_inspector=di_config),
            clock=clock, monitor_factory=factory)

    def _wrap_registry(self, registry, tracer: Tracer) -> None:
        for name in registry.names():
            bundle = registry.get(name)
            for method in ("sample_embed", "embed"):
                tracer.wrap(bundle.vae, method, "nn.vae", rows_of)
            tracer.wrap(bundle.model, "predict", "detectors.model.predict",
                        rows_of)

    # -- one pass ------------------------------------------------------------
    def run_pass(self, registry, tracer: Optional[Tracer] = None,
                 normaliser=None) -> PassResult:
        """Push every stream through a fresh pipeline in 16-frame chunks."""
        if tracer is not None:
            self._wrap_registry(registry, tracer)
        out = PassResult()
        probed = Probed(normaliser, self.PROBE_EVERY)
        deploys = [0]
        try:
            for pixels in self.streams:
                left, probe_s = probed.index, probed.probe_s
                start_stream = time.perf_counter()
                pipeline = self._pipeline(registry, tracer, deploys)
                deploys[0] -= 1  # the initial deployment is not a swap
                pipeline.start()
                detections = pipeline.result().detections
                for i in range(0, len(pixels), self.PUSH):
                    chunk = pixels[i:i + self.PUSH]
                    before = len(detections)
                    start = time.perf_counter()
                    with _span(tracer, "runtime.push", len(chunk)):
                        pipeline.step_batch(chunk, batch_size=self.PUSH)
                    raw = time.perf_counter() - start
                    out.pushes.append((raw, probed.index,
                                       len(detections) > before))
                    probed.tick()
                with _span(tracer, "runtime.push", 0):
                    pipeline.flush()
                result = pipeline.result()
                wall = (time.perf_counter() - start_stream
                        - (probed.probe_s - probe_s))
                out.parts.append((len(result.records), wall, left,
                                  probed.index))
                out.extra.setdefault("results", []).append(result)
                out.detections += len(result.detections)
                out.signature.append(result_sig(result))
        finally:
            if tracer is not None:
                tracer.restore()
        out.extra["deploys"] = deploys[0]
        return out

    # -- correctness -----------------------------------------------------------
    def reference(self, registry):
        """``process()`` (frame by frame) over the first stream."""
        pipeline = self._pipeline(registry, None, [0])
        return result_sig(pipeline.process(self.streams[0]))

    @staticmethod
    def matches(out: PassResult, reference) -> bool:
        """The chunked ``step_batch`` pass equals ``process()``."""
        return out.signature[0] == reference

    def quality(self, out: PassResult) -> dict:
        delays, false_alarms, missed = [], 0, 0
        correct = emitted = 0
        for result, labels, onsets in zip(out.extra["results"], self.labels,
                                          self.onsets):
            found = match_detections(
                onsets, [d.frame_index for d in result.detections],
                len(labels))
            delays += found["delays"]
            false_alarms += found["false_alarms"]
            missed += found["missed"]
            predictions = np.asarray([r.prediction for r in result.records])
            truth = labels[[r.frame_index for r in result.records]]
            correct += int(np.sum(predictions == truth))
            emitted += len(result.records)
        return {"detection_delay_frames": interquartile_mean(delays),
                "detection_delay_mean": float(np.mean(delays)),
                "false_alarms": false_alarms, "missed": missed,
                "onsets": len(delays),
                "query_accuracy": correct / emitted,
                "served_frac": emitted / self.frames_offered}


# ----------------------------------------------------------------------
# serve-64: DriftServer over 64 heterogeneous tenants
# ----------------------------------------------------------------------
class ServeWorkload:
    """64 gaussian-feature tenants (odd-indexed premium), Poisson arrivals
    at 1.5x the modelled backend capacity, one mid-stream drift each."""

    PER_PUSH_MEDIAN = True
    SESSIONS = 64
    FRAMES = 64
    #: Kernel pushes between probe readings inside a run (~20 a run).
    PROBE_EVERY = 125
    LOAD = 1.5
    BATCH = 16
    QUEUE = 8
    DEADLINE_MS = 60.0

    def __init__(self, seed: int) -> None:
        self.seed = seed

    # -- inputs --------------------------------------------------------------
    def generate(self) -> None:
        rate = self.LOAD * capacity_fps() / self.SESSIONS
        self.arrivals = []
        self.seqs: Dict[str, Dict[bytes, int]] = {}
        self.session_seeds = []
        half = self.FRAMES // 2
        for index in range(self.SESSIONS):
            stream_id = f"cam-{index:02d}"
            seed = sub_seed(self.seed, 2, index)
            self.session_seeds.append(seed)
            frames = gaussian_stream(seed, [(0.0, half),
                                            (6.0, self.FRAMES - half)])
            self.seqs[stream_id] = {row.tobytes(): i
                                    for i, row in enumerate(frames)}
            self.arrivals.extend(generate_arrivals(
                frames, WorkloadConfig(rate_fps=rate, pattern="poisson"),
                stream_id=stream_id, deadline_ms=self.DEADLINE_MS,
                seed=seed))
        self.onset = half

    @property
    def frames_offered(self) -> int:
        return len(self.arrivals)

    # -- program state -----------------------------------------------------
    def setup(self, mark) -> DriftServer:
        sessions = []
        for index, seed in enumerate(self.session_seeds):
            if index and index % 16 == 0:
                mark()
            premium = bool(index % 2)
            sessions.append(StreamSession(
                f"cam-{index:02d}", make_pipeline(seed=seed),
                SessionConfig(priority=int(premium),
                              deadline_ms=self.DEADLINE_MS,
                              queue_capacity=self.QUEUE,
                              shed_policy="drop-oldest",
                              weight=2.0 if premium else 1.0,
                              degraded_allowed=not premium)))
        return DriftServer(sessions, ServeConfig(
            scheduler=SchedulerConfig(batch_size=self.BATCH)))

    @staticmethod
    def same_state(left, right) -> bool:
        """Same server configuration and, per tenant, the same serving
        and pipeline configuration, selector and registry contents."""
        def describe(server):
            return [server.config] + [
                (s.stream_id, s.config, s.pipeline.config,
                 s.pipeline.selector.config,
                 [(name, s.pipeline.registry.get(name).sigma.tobytes())
                  for name in s.pipeline.registry.names()])
                for s in server.registry]
        return describe(left) == describe(right)

    # -- one pass ------------------------------------------------------------
    @staticmethod
    def _time_pushes(session, out: PassResult, probed: Probed) -> None:
        """Time each kernel push the server makes into ``session``.

        ``DriftServer.run`` is one call; the pushes it makes are the
        micro-batches ``step_batch`` receives.  The timer keeps the pushed
        frames (by reference) to map records back to arrival sequence
        numbers after the run.
        """
        pipeline = session.pipeline
        step_batch = pipeline.step_batch
        pushed = out.extra.setdefault("pushed", {}).setdefault(
            session.stream_id, [])
        detections = []

        def timed(frames, batch_size=64):
            if not detections:
                detections.append(pipeline.result().detections)
            before = len(detections[0])
            start = time.perf_counter()
            records = step_batch(frames, batch_size=batch_size)
            raw = time.perf_counter() - start
            out.pushes.append((raw, probed.index,
                               len(detections[0]) > before))
            pushed.append(frames)
            probed.tick()
            return records

        pipeline.step_batch = timed

    def run_pass(self, server: DriftServer, tracer: Optional[Tracer] = None,
                 normaliser=None) -> PassResult:
        out = PassResult()
        # a traced run is probed only around it: a reading inside would
        # land in the self time of whichever span is open
        probed = Probed(normaliser, 0 if tracer else self.PROBE_EVERY)
        for session in server.registry:
            if tracer is not None:
                tracer.wrap(session.pipeline, "step_batch",
                            "runtime.step_batch", rows_of)
                tracer.wrap(session.pipeline, "predict_degraded",
                            "runtime.predict_degraded", one_frame)
            self._time_pushes(session, out, probed)
        if tracer is not None:
            tracer.wrap(server.scheduler, "next_batch", "serve.scheduler")
            tracer.wrap(server.controller, "update", "serve.overload")
            tracer.wrap(server.controller, "note_degraded",
                        "serve.overload.note")
        left = probed.index
        start = time.perf_counter()
        with _span(tracer, "serve.run", len(self.arrivals)):
            result = server.run(self.arrivals)
        wall = time.perf_counter() - start - probed.probe_s
        out.parts.append((result.processed + result.degraded, wall, left,
                          probed.index))
        out.signature = self.signature(result)
        out.detections = sum(len(r.detections)
                             for r in result.pipeline_results.values())
        out.extra["result"] = result
        out.extra["counts"] = self.counts(result)
        return out

    @staticmethod
    def counts(result) -> dict:
        return {"arrivals": result.arrivals, "processed": result.processed,
                "degraded": result.degraded,
                "rejected_infeasible": result.rejected_infeasible,
                "rejected": result.rejected, "shed": result.shed_total,
                "deadline_misses": result.deadline_misses,
                "overload_transitions": result.overload_transitions,
                "batches": _batches(result)}

    def signature(self, result) -> list:
        return [self.counts(result),
                [(sid, result_sig(r)) for sid, r in
                 sorted(result.pipeline_results.items())]]

    # -- correctness -----------------------------------------------------------
    def reference(self, server) -> bool:
        """One unconstrained session served through the full admission /
        scheduling path equals ``process_batched`` on the same frames."""
        seed = self.session_seeds[0]
        half = self.FRAMES // 2
        frames = gaussian_stream(seed, [(0.0, half),
                                        (6.0, self.FRAMES - half)])
        expected = make_pipeline(seed=seed).process_batched(
            frames, batch_size=self.BATCH)
        session = StreamSession(
            "cam-00", make_pipeline(seed=seed),
            SessionConfig(deadline_ms=1e12, queue_capacity=1 << 20))
        arrivals = generate_arrivals(
            frames, WorkloadConfig(rate_fps=0.5 * capacity_fps()),
            stream_id="cam-00", deadline_ms=1e12, seed=seed)
        served = DriftServer([session], ServeConfig(
            scheduler=SchedulerConfig(batch_size=self.BATCH))).run(arrivals)
        return (result_sig(served.pipeline_results["cam-00"])
                == result_sig(expected))

    @staticmethod
    def matches(out: PassResult, reference: bool) -> bool:
        return reference

    def quality(self, first: PassResult) -> dict:
        result = first.extra["result"]
        delays, false_alarms, missed = [], 0, 0
        correct = emitted = 0
        for stream_id, pipeline_result in result.pipeline_results.items():
            rows = first.extra["pushed"].get(stream_id, [])
            lookup = self.seqs[stream_id]
            seqs = [lookup[row.tobytes()]
                    for frames in rows for row in np.asarray(frames)]
            # delay in frames the monitor saw: degraded, rejected and
            # shed arrivals never reach it
            onset = sum(1 for seq in seqs if seq < self.onset)
            found = match_detections(
                [onset], [d.frame_index for d in pipeline_result.detections],
                len(seqs))
            delays += found["delays"]
            false_alarms += found["false_alarms"]
            missed += found["missed"]
            for record in pipeline_result.records:
                truth = int(seqs[record.frame_index] >= self.onset)
                correct += int(record.prediction == truth)
                emitted += 1
        failed = result.rejected + result.shed_total + result.deadline_misses
        return {"detection_delay_frames": interquartile_mean(delays),
                "detection_delay_mean": float(np.mean(delays)),
                "false_alarms": false_alarms, "missed": missed,
                "onsets": len(delays),
                "query_accuracy": correct / emitted,
                "served_frac": 1.0 - failed / result.arrivals}


def _batches(result) -> int:
    """Micro-batches served: the server charges ``batch_overhead_ms`` of
    ``serve_batch_overhead`` to its backend ledger once per batch."""
    return int(round(result.backend_ledger.get("serve_batch_overhead", 0.0)
                     / result.batch_overhead_ms))
