"""Workload definitions: which scenes a run renders and which phases it detects.

A workload is a list of boxes at one RGB resolution plus the frames that make
up one op. Every workload cycles through ``VARIANTS`` jittered copies of its
scene, rendered at set-up (render.py); each op also gets its own depth-noise
realization drawn from the workload seed. The jitter draws do not depend on
the seed, so the spread between runs with different seeds comes from the
machine and the noise, not from which scenes a seed happened to draw.
"""

from __future__ import annotations

from dataclasses import dataclass

NOISE_SIGMA_M = 0.002
MATCH_RADIUS_MM = 30.0
VARIANTS = 2
# Jitter is a shift in x/y only. Yaw stays as each workload states it: at
# this commit segmentation drops a box whose edges run between about 31 and
# 59 degrees off the image axes (a lone 100x90 mm box at yaw 31-59 degrees
# yields no contour at 640x480 or 1024x768), and the criterion scenes carry
# a box at yaw 30, one degree from that band.
JITTER_MM = 8.0
JITTER_SEED = 2109


@dataclass(frozen=True)
class Box:
    dims_mm: tuple[float, float, float]
    pos_mm: tuple[float, float, float]
    rot_zyx_deg: tuple[float, float, float] = (0.0, 0.0, 0.0)
    intensity: int = 200


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    resolution: tuple[int, int]
    boxes: tuple[Box, ...]
    # Ops whose errors are summarized; the loop runs at least this many ops
    # so the summary covers the same inputs on every run with one seed.
    accuracy_ops: int
    # (parent, child) index pairs: each pair moves together under jitter.
    stacks: tuple[tuple[int, int], ...] = ()
    # False: one parent-phase frame per op. True: the two-phase pick cycle,
    # a child-phase frame on the full scene, then a parent-phase frame on the
    # scene with every stacked child removed.
    pick_cycle: bool = False


_CRITERION6_BOXES = (
    Box((140, 120, 60), (-180, -100, 30), intensity=200),
    Box((130, 110, 50), (150, 100, 25), intensity=195),
    Box((100, 90, 45), (120, -120, 22.5), (30, 0, 0), intensity=170),
    Box((110, 80, 55), (-120, 130, 27.5), (-20, 0, 0), intensity=215),
)

WORKLOADS = {w.name: w for w in (
    # The paper's 2048x1536 reference resolution: segmentation and fusion take
    # about three quarters of a frame, so image-side changes show here.
    Workload(
        name="ref2048",
        why="criterion-6 four-box scene at 2048x1536: image-side layers "
            "(segmentation, fusion) dominate a frame",
        resolution=(2048, 1536),
        boxes=_CRITERION6_BOXES,
        accuracy_ops=20,
    ),
    # Two stacked pairs at 1024x768, both picking phases per op: image and
    # point layers split the frame about evenly, and only this workload runs
    # the child phase and the nesting hierarchy.
    Workload(
        name="cycle1024",
        why="cluttered six-box bin at 1024x768, two-phase pick cycle: image "
            "and point layers split the time, child phase and nesting run",
        resolution=(1024, 768),
        boxes=(
            Box((140, 120, 60), (-180, -100, 30), intensity=200),
            Box((75, 60, 40), (-180, -100, 80), intensity=240),
            Box((130, 110, 50), (150, 100, 25), intensity=195),
            Box((65, 75, 35), (150, 100, 67.5), intensity=235),
            Box((100, 90, 45), (120, -120, 22.5), (30, 0, 0), intensity=170),
            Box((110, 80, 55), (-120, 130, 27.5), (-20, 0, 0), intensity=215),
        ),
        stacks=((0, 1), (2, 3)),
        pick_cycle=True,
        accuracy_ops=28,
    ),
    # Large, tilted faces at 640x480: working clusters of 900-1700 points
    # after the voxel filter make conditioning, clustering and RANSAC take
    # most of a frame while segmentation is cheap.
    Workload(
        name="bigface640",
        why="four large or tilted faces at 640x480: point-side layers "
            "(conditioning, clustering, planes) dominate a frame",
        resolution=(640, 480),
        boxes=(
            Box((280, 220, 100), (-140, -60, 95), (0, 0, 20), intensity=200),
            Box((240, 170, 80), (150, 70, 90), (15, 25, 0), intensity=160),
            Box((200, 120, 60), (170, -135, 30), intensity=225),
            Box((90, 70, 40), (170, -135, 80), intensity=245),
        ),
        stacks=((2, 3),),
        accuracy_ops=40,
    ),
)}


def stacked_children(workload: Workload) -> list[int]:
    return sorted(child for _, child in workload.stacks)
