"""In-memory spans around binpick's public functions, from outside the program.

Each probe replaces a function at the attribute its caller looks up (for
example ``binpick.pipeline.map_mask_to_cloud``, which the pipeline imported
by name, or ``binpick.planes.ransac_plane``, which ``extract_planes_iterative``
finds in its module globals) for the duration of one op, then puts the
original back. A span records its name, start, end, parent span and op id,
plus the counts its probe reads off the call's arguments and result. Spans
stay in memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from binpick import clustering, conditioning, pipeline, planes, pose, segmentation

_MODULES = {"pipeline": pipeline, "segmentation": segmentation,
            "conditioning": conditioning, "clustering": clustering,
            "planes": planes, "pose": pose}


@dataclass(frozen=True)
class Probe:
    module: str  # module whose attribute the caller looks up
    attr: str
    span: str  # layer.function
    counts: Callable | None = None  # (args, result) -> {counter: value}
    arg_counts: Callable | None = None  # (args) -> {counter: value}, read even on error


def _out(metric: str) -> Callable:
    return lambda args, result: {metric: len(result)}


def _hdbscan_counts(args, labels) -> dict:
    n = len(args[0])
    return {"clustering.points": n, "clustering.pairs": n * n,
            "clustering.clusters": labels.n_clusters,
            "clustering.noise": int((labels.labels < 0).sum())}


PROBES = (
    Probe("pipeline", "run_pipeline", "pipeline.run_pipeline"),
    Probe("segmentation", "gaussian_smooth_3x3", "segmentation.gaussian_smooth_3x3"),
    Probe("segmentation", "sobel_gradients", "segmentation.sobel_gradients"),
    Probe("segmentation", "auto_canny", "segmentation.auto_canny",
          lambda args, edges: {"segmentation.edge_px": int(np.count_nonzero(edges))}),
    Probe("segmentation", "find_contours", "segmentation.find_contours",
          _out("segmentation.contours")),
    Probe("segmentation", "refine_contours", "segmentation.refine_contours",
          _out("segmentation.refined")),
    Probe("segmentation", "generate_masks", "segmentation.generate_masks",
          _out("segmentation.masks")),
    Probe("pipeline", "map_mask_to_cloud", "fusion.map_mask_to_cloud",
          lambda args, cluster: {"fusion.points": len(cluster.points)},
          lambda args: {"fusion.mask_px": int(np.count_nonzero(args[0].bits))}),
    Probe("conditioning", "voxel_grid_downsample", "conditioning.voxel_grid_downsample",
          _out("conditioning.voxel_out")),
    Probe("conditioning", "statistical_outlier_removal",
          "conditioning.statistical_outlier_removal", _out("conditioning.sor_out")),
    Probe("conditioning", "mls_resample", "conditioning.mls_resample"),
    Probe("conditioning", "don_filter", "conditioning.don_filter",
          _out("conditioning.don_out")),
    Probe("conditioning", "compute_normal_field", "conditioning.compute_normal_field"),
    Probe("clustering", "hdbscan", "clustering.hdbscan", _hdbscan_counts),
    Probe("clustering", "condensed_tree", "clustering.condensed_tree"),
    Probe("clustering", "mutual_reachability_mst", "clustering.mutual_reachability_mst"),
    Probe("planes", "extract_planes_iterative", "planes.extract_planes_iterative",
          _out("planes.accepted")),
    Probe("planes", "ransac_plane", "planes.ransac_plane"),
    Probe("planes", "group_and_merge_planes", "planes.group_and_merge_planes",
          lambda args, merged: {"planes.fragments": len(args[0]),
                                "planes.planes": len(merged)}),
    Probe("pose", "estimate_pose", "pose.estimate_pose"),
)


@dataclass
class Span:
    span_id: int
    parent_id: int | None
    op_id: int
    name: str
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    error: str | None = None
    alloc_peak_bytes: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {k: v for k, v in vars(self).items() if v is not None}


class Tracer:
    """Collects spans for the ops run inside ``installed``.

    With ``track_alloc`` set, each ``run_pipeline`` span also records the
    peak bytes allocated during the frame's segmentation sequence: from the
    start of ``run_pipeline`` (smoothing comes first) to the first fusion
    call, or to the end of ``run_pipeline`` if there is none. So arrays that
    one segmentation step leaves alive for the next count in the peak.
    ``tracemalloc`` runs only over that stretch, since it slows the Python it
    watches.
    """

    def __init__(self, track_alloc: bool = False):
        self.spans: list[Span] = []
        self.track_alloc = track_alloc
        self._stack: list[Span] = []
        self._op_id = -1

    @contextmanager
    def installed(self, op_id: int):
        self._op_id = op_id
        originals = []
        try:
            for probe in PROBES:
                module = _MODULES[probe.module]
                original = getattr(module, probe.attr)
                originals.append((module, probe.attr, original))
                setattr(module, probe.attr, self._wrap(probe, original))
            yield self
        finally:
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)

    def _stop_alloc(self) -> None:
        """End the segmentation stretch of the frame on the stack, if open."""
        if tracemalloc.is_tracing():
            self._stack[0].alloc_peak_bytes = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()

    def _wrap(self, probe: Probe, fn: Callable) -> Callable:
        alloc_root = self.track_alloc and probe.span == "pipeline.run_pipeline"
        alloc_end = self.track_alloc and probe.span == "fusion.map_mask_to_cloud"

        def traced(*args, **kwargs):
            parent = self._stack[-1].span_id if self._stack else None
            span = Span(len(self.spans), parent, self._op_id, probe.span)
            self.spans.append(span)
            self._stack.append(span)
            if alloc_root:
                tracemalloc.start()
            elif alloc_end:
                self._stop_alloc()
            result = None
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                if alloc_root:
                    self._stop_alloc()
                self._stack.pop()
                if probe.arg_counts is not None:
                    span.counts.update(probe.arg_counts(args))
            if probe.counts is not None:
                span.counts.update(probe.counts(args, result))
            return result

        return traced


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the summed durations of its direct children.

    Children of one span run one after another on one thread, so their
    summed durations are the part of the parent's interval they cover.
    """
    covered: dict[int, float] = {}
    for s in spans:
        if s.parent_id is not None:
            covered[s.parent_id] = covered.get(s.parent_id, 0.0) + s.duration
    return {s.span_id: s.duration - covered.get(s.span_id, 0.0) for s in spans}


def frames(spans: list[Span]) -> list[list[Span]]:
    """Spans grouped by root span (one ``run_pipeline`` call each), in order."""
    groups: list[list[Span]] = []
    for s in spans:
        if s.parent_id is None:
            groups.append([])
        groups[-1].append(s)
    return groups


# Span -> per-layer self-time metric.
SELF_TIME_METRIC = {
    "pipeline.run_pipeline": "pipeline.self_s",
    "segmentation.gaussian_smooth_3x3": "segmentation.smooth_s",
    "segmentation.sobel_gradients": "segmentation.sobel_s",
    "segmentation.auto_canny": "segmentation.canny_s",
    "segmentation.find_contours": "segmentation.contours_s",
    "segmentation.refine_contours": "segmentation.masks_s",
    "segmentation.generate_masks": "segmentation.masks_s",
    "fusion.map_mask_to_cloud": "fusion.map_s",
    "conditioning.voxel_grid_downsample": "conditioning.voxel_s",
    "conditioning.statistical_outlier_removal": "conditioning.sor_s",
    "conditioning.mls_resample": "conditioning.mls_s",
    "conditioning.don_filter": "conditioning.don_s",
    "conditioning.compute_normal_field": "conditioning.normals_s",
    "clustering.hdbscan": "clustering.hdbscan_s",
    "clustering.condensed_tree": "clustering.condense_s",
    "clustering.mutual_reachability_mst": "clustering.mst_s",
    "planes.extract_planes_iterative": "planes.extract_s",
    "planes.ransac_plane": "planes.ransac_s",
    "planes.group_and_merge_planes": "planes.merge_s",
    "pose.estimate_pose": "pose.estimate_s",
}

# Spans whose calls are counted: span -> count metric.
CALL_METRIC = {
    "fusion.map_mask_to_cloud": "fusion.calls",
    "planes.ransac_plane": "planes.ransac_calls",
    "pose.estimate_pose": "pose.poses",
}

# Everything the probes count, so that an op without some call still reports 0.
COUNTERS = (
    "segmentation.edge_px", "segmentation.contours", "segmentation.refined",
    "segmentation.masks", "fusion.mask_px", "fusion.points", "fusion.skipped",
    "conditioning.voxel_out", "conditioning.sor_out", "conditioning.don_out",
    "clustering.points", "clustering.pairs", "clustering.clusters", "clustering.noise",
    "planes.accepted", "planes.fragments", "planes.planes",
)


def op_values(spans: list[Span], ransac_iterations: int) -> dict[str, float]:
    """Per-layer self times and counts of one op, summed over its frames."""
    values = {metric: 0.0 for metric in SELF_TIME_METRIC.values()}
    values.update({metric: 0 for metric in (*CALL_METRIC.values(), *COUNTERS)})
    own = self_times(spans)
    for s in spans:
        values[SELF_TIME_METRIC[s.name]] += own[s.span_id]
        if s.name in CALL_METRIC:
            values[CALL_METRIC[s.name]] += 1
        if s.name == "fusion.map_mask_to_cloud" and s.error == "EmptyClusterError":
            values["fusion.skipped"] += 1
        for counter, v in s.counts.items():
            values[counter] += v
    values["planes.hypotheses"] = values["planes.ransac_calls"] * ransac_iterations
    values["planes.merges"] = values["planes.fragments"] - values["planes.planes"]
    values["planes.accept_ratio"] = _ratio(values["planes.accepted"],
                                           values["planes.ransac_calls"])
    values["fusion.cells_per_px"] = _ratio(values["fusion.points"], values["fusion.mask_px"])
    values["conditioning.keep_ratio"] = _ratio(values["conditioning.don_out"],
                                               values["fusion.points"])
    values["trace.spans"] = len(spans)
    return values


def layer_shares(values: dict[str, float]) -> dict[str, float]:
    """Each layer's share of one op's summed self times."""
    layers: dict[str, float] = {}
    for metric in set(SELF_TIME_METRIC.values()):
        layer = metric.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + values[metric]
    total = sum(layers.values())
    return {layer: _ratio(t, total) for layer, t in sorted(layers.items())}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Paper stage (a key of DetectionReport.timing_s) -> spans directly under
# run_pipeline whose durations make up that stage.
STAGE_SPANS = {
    "mask_generation": ("segmentation.gaussian_smooth_3x3", "segmentation.auto_canny",
                        "segmentation.find_contours", "segmentation.refine_contours",
                        "segmentation.generate_masks", "fusion.map_mask_to_cloud"),
    "filtering": ("conditioning.voxel_grid_downsample",
                  "conditioning.statistical_outlier_removal"),
    "resampling_don": ("conditioning.mls_resample", "conditioning.don_filter"),
    "clustering": ("clustering.hdbscan",),
    "plane_segmentation": ("planes.extract_planes_iterative", "planes.group_and_merge_planes"),
    "pose_estimation": ("pose.estimate_pose",),
}

# A stage's span sum may differ from the report's own timer by the code the
# stage timer covers between calls (loop bookkeeping, random-generator set-up,
# the probes' counting): at most this many seconds plus this share.
STAGE_TOLERANCE_S = 0.005
STAGE_TOLERANCE_SHARE = 0.05


def check_frame(spans: list[Span], report) -> list[str]:
    """Problems found comparing one frame's spans with the report it returned.

    The span sums per paper stage must agree with ``report.timing_s``, and
    the span counts must equal ``report.counts``: a probe that misses calls
    fails one or the other.
    """
    root = spans[0]
    top = [s for s in spans if s.parent_id == root.span_id]
    problems = []
    for stage, names in STAGE_SPANS.items():
        summed = sum(s.duration for s in top if s.name in names)
        reported = report.timing_s[stage]
        if abs(summed - reported) > STAGE_TOLERANCE_S + STAGE_TOLERANCE_SHARE * reported:
            problems.append(f"{stage}: spans {summed:.4f} s, report {reported:.4f} s")

    values = op_values(spans, ransac_iterations=0)
    expected = {
        "contours": values["segmentation.refined"],
        "masks": values["segmentation.masks"],
        "skipped_masks": values["fusion.skipped"],
        "clusters": values["clustering.clusters"],
        "planes": values["planes.planes"],
        "merges": values["planes.merges"],
    }
    for key, seen in expected.items():
        if report.counts[key] != seen:
            problems.append(f"count {key}: spans {seen}, report {report.counts[key]}")
    if len(report.poses) != values["pose.poses"]:
        problems.append(f"poses: spans {values['pose.poses']}, report {len(report.poses)}")
    return problems
