"""Set-up renderer: draws one workload's scene variants and writes them to stdout.

Runs in its own process so that the renderer's memory (about 860 MB for a
2048x1536 frame) never counts toward the RSS of the process that times ops.
The output is one uncompressed ``.npz`` stream; per frame ``f`` of variant
``v`` it holds ``v{v}f{f}_<field>`` arrays for the image, the noiseless cloud,
the ground truth of the frame's phase, and the render times.

    PYTHONPATH=src python3 perfbench/render.py --workload ref2048 > frames.npz
"""

from __future__ import annotations

import argparse
import io
import sys
import time

import numpy as np

from binpick.core import EulerZYX, Point3, RigidTransform
from binpick.pose import euler_zyx_to_rotation
from binpick.synth import (
    BoxSpec,
    SceneSpec,
    ground_truth,
    render_depth,
    render_image,
    scene_without_boxes,
)

from workloads import (
    JITTER_MM,
    JITTER_SEED,
    VARIANTS,
    WORKLOADS,
    Box,
    Workload,
    stacked_children,
)

# Jitter never brings two separate boxes (or stacks) closer than this, or
# than they stand in the workload's own scene if that is closer already.
_MIN_GAP_MM = 20.0
_JITTER_DRAWS = 1000


def _box_spec(box: Box, dx: float = 0.0, dy: float = 0.0) -> BoxSpec:
    rot = euler_zyx_to_rotation(EulerZYX(*map(float, box.rot_zyx_deg)))
    x, y, z = box.pos_mm
    return BoxSpec(dimensions_mm=box.dims_mm,
                   pose=RigidTransform(rot, Point3((x + dx) / 1000.0, (y + dy) / 1000.0,
                                                   z / 1000.0)),
                   face_intensity=box.intensity)


def _extent_mm(specs: list[BoxSpec]) -> np.ndarray:
    """[[xmin, ymin], [xmax, ymax]] over the boxes' corners, millimeters."""
    xy = np.vstack([s.corners_world()[:, :2] for s in specs]) * 1000.0
    return np.array([xy.min(0), xy.max(0)])


def _gap_mm(a: np.ndarray, b: np.ndarray) -> float:
    """Separation of two axis-aligned extents (negative when they overlap)."""
    return float(np.max(np.maximum(a[0] - b[1], b[0] - a[1])))


def jittered_boxes(workload: Workload, variant: int) -> list[BoxSpec]:
    """The workload's boxes shifted in x/y by a per-variant draw.

    A stacked child takes its parent's draw, so it stays where it sits on
    the parent's top face. Jitter keeps every box within the extent of the
    workload's own scene, whose faces all lie inside the camera's view, and
    keeps separate boxes apart (see ``_MIN_GAP_MM``); a draw that breaks
    the gap is drawn again.
    """
    rng = np.random.default_rng([JITTER_SEED, variant])
    leader = {child: parent for parent, child in workload.stacks}
    groups: dict[int, list[int]] = {}
    for i in range(len(workload.boxes)):
        groups.setdefault(leader.get(i, i), []).append(i)
    members = list(groups.values())
    base = [_extent_mm([_box_spec(workload.boxes[i]) for i in g]) for g in members]
    lo = np.min([e[0] for e in base], axis=0)
    hi = np.max([e[1] for e in base], axis=0)
    pairs = [(a, b, min(_gap_mm(base[a], base[b]), _MIN_GAP_MM))
             for a in range(len(members)) for b in range(a + 1, len(members))]
    for _ in range(_JITTER_DRAWS):
        specs, extents = {}, []
        for g, extent in zip(members, base):
            shift = np.clip(rng.uniform(-JITTER_MM, JITTER_MM, size=2),
                            lo - extent[0], hi - extent[1])
            extents.append(extent + shift)
            specs.update({i: _box_spec(workload.boxes[i], *shift) for i in g})
        if all(_gap_mm(extents[a], extents[b]) >= gap for a, b, gap in pairs):
            return [specs[i] for i in range(len(workload.boxes))]
    raise RuntimeError(f"no jitter draw in {_JITTER_DRAWS} keeps the boxes of "
                       f"{workload.name} apart")


def frames_of(workload: Workload, variant: int) -> list[tuple[SceneSpec, str, str | None]]:
    """(scene, phase, truth priority kept or None for all) for each frame of one op."""
    scene = SceneSpec(boxes=tuple(jittered_boxes(workload, variant)),
                      rgb_resolution=workload.resolution)
    if not workload.pick_cycle:
        return [(scene, "parent", None)]
    picked = scene_without_boxes(scene, stacked_children(workload))
    return [(scene, "child", "child"), (picked, "parent", None)]


def render_workload(workload: Workload) -> dict[str, np.ndarray]:
    arrays = {}
    for v in range(VARIANTS):
        for f, (scene, phase, keep) in enumerate(frames_of(workload, v)):
            t0 = time.perf_counter()
            image = render_image(scene)
            t1 = time.perf_counter()
            cloud = render_depth(scene)
            t2 = time.perf_counter()
            truth = [t for t in ground_truth(scene) if keep is None or t.priority == keep]
            key = f"v{v}f{f}_"
            arrays[key + "image"] = image.pixels
            arrays[key + "points"] = cloud.points
            arrays[key + "valid"] = cloud.valid
            arrays[key + "phase"] = np.array(phase)
            arrays[key + "truth_centroid_mm"] = np.array([t.centroid_mm for t in truth])
            arrays[key + "truth_normal"] = np.array([t.normal for t in truth])
            arrays[key + "truth_euler_deg"] = np.array([t.euler.as_tuple() for t in truth])
            arrays[key + "truth_visibility"] = np.array([t.visibility for t in truth])
            arrays[key + "truth_priority"] = np.array([t.priority for t in truth])
            arrays[key + "render_s"] = np.array([t1 - t0, t2 - t1])
    return arrays


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    args = parser.parse_args()
    buf = io.BytesIO()
    np.savez(buf, **render_workload(WORKLOADS[args.workload]))
    sys.stdout.buffer.write(buf.getvalue())
    return 0


if __name__ == "__main__":
    sys.exit(main())
