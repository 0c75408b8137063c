"""Command-line front end.

Subcommands: synth (scene file -> image/cloud/truth), segment (image -> masks),
localize (masks + cloud -> poses), pipeline (image + cloud -> full report),
verify (report + truth -> error table). Exit codes: 0 success (including zero
detections), 2 input error, 3 config error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import fileio, synth
from .errors import ConfigError, InputError
from .pipeline import (
    HARDWARE_BASELINE_ROT_ERR_DEG,
    HARDWARE_BASELINE_TRANS_ERR_MM,
    DEFAULT_MATCH_RADIUS_MM,
    PipelineConfig,
    config_from_dict,
    localize_masks,
    run_pipeline,
    segment_image,
    verify_against_ground_truth,
)
from .segmentation import PHASES

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONFIG = 3


def _load_config(path: str | None) -> PipelineConfig:
    if path is None:
        return PipelineConfig()
    return config_from_dict(fileio.read_json(path))


def _cmd_synth(args) -> int:
    data = fileio.read_json(args.scene)
    if args.seed is not None:
        data["seed"] = args.seed
    scene = synth.scene_from_dict(data)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    image = synth.render_image(scene)
    cloud = synth.render_depth(scene)
    if scene.noise_sigma_m > 0:
        cloud = synth.add_depth_noise(cloud, scene.noise_sigma_m, scene.seed)
    truth = synth.ground_truth(scene)
    homography = synth.scene_homography(scene)

    fileio.write_pgm(out / "image.pgm", image)
    fileio.write_ply_organized(out / "cloud.ply", cloud)
    fileio.write_json(out / "truth.json",
                      fileio.truth_to_dict(truth, homography.to_flat_list()))
    print(f"wrote {out / 'image.pgm'}, {out / 'cloud.ply'}, {out / 'truth.json'}")
    return EXIT_OK


def _cmd_segment(args) -> int:
    config = _load_config(args.config)
    image = fileio.read_image(args.image)
    _, masks = segment_image(config, image, args.phase)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i, mask in enumerate(masks):
        path = out / f"mask_{i:02d}_{mask.role}.pgm"
        fileio.write_mask_pgm(path, mask)
        print(f"wrote {path}")
    if not masks:
        print("no masks for this phase")
    return EXIT_OK


def _mask_role_from_name(path: str) -> str:
    name = Path(path).name.lower()
    return "child" if "child" in name else "parent"


def _cmd_localize(args) -> int:
    config = _load_config(args.config)
    if args.seed is not None:
        config.seed = args.seed
    cloud = fileio.read_ply_organized(args.cloud)
    masks = [fileio.read_mask_pgm(p, _mask_role_from_name(p), i)
             for i, p in enumerate(args.masks)]
    report = localize_masks(config, masks, cloud)
    payload = report.to_dict()
    if args.out:
        fileio.write_json(args.out, payload)
    print(f"{len(payload['poses'])} pose(s)")
    for p in payload["poses"]:
        c = p["centroid_mm"]
        e = p["euler_zyx_deg"]
        print(f"  [{p['id']}] {p['priority']}: centroid ({c[0]:.1f}, {c[1]:.1f}, "
              f"{c[2]:.1f}) mm, euler ZYX ({e[0]:.2f}, {e[1]:.2f}, {e[2]:.2f}) deg, "
              f"{p['inliers']} inliers")
    return EXIT_OK


def _cmd_pipeline(args) -> int:
    config = _load_config(args.config)
    if args.seed is not None:
        config.seed = args.seed
    image = fileio.read_image(args.image)
    cloud = fileio.read_ply_organized(args.cloud)
    report = run_pipeline(config, image, cloud, args.phase)
    payload = report.to_dict()
    if args.out:
        fileio.write_json(args.out, payload)
    timing = payload["timing_s"]
    print(f"{len(payload['poses'])} pose(s), total {timing['total']:.3f} s")
    for key, value in timing.items():
        if key != "total":
            print(f"  {key}: {value:.4f} s")
    return EXIT_OK


def _cmd_verify(args) -> int:
    report = fileio.read_json(args.report)
    truth = fileio.truth_from_dict(fileio.read_json(args.truth))
    table = verify_against_ground_truth(report, truth, args.match_radius)
    if args.out:
        fileio.write_json(args.out, table)

    print(f"{len(table['matches'])} match(es), {table['misses']} miss(es), "
          f"{table['unmatched_poses']} unmatched pose(s)")
    for m in table["matches"]:
        t = m["trans_err_mm"]
        r = m["rot_err_deg"]
        print(f"  truth {m['truth_index']} <- pose {m['pose_id']}: "
              f"trans err ({t[0]:.2f}, {t[1]:.2f}, {t[2]:.2f}) mm, "
              f"rot err ({r[0]:.2f}, {r[1]:.2f}, {r[2]:.2f}) deg")
    mt = table["mean_trans_err_mm"]
    mr = table["mean_rot_err_deg"]
    print(f"mean trans err (mm): ({mt[0]:.2f}, {mt[1]:.2f}, {mt[2]:.2f})")
    print(f"mean rot err (deg): ({mr[0]:.2f}, {mr[1]:.2f}, {mr[2]:.2f})")
    bt = HARDWARE_BASELINE_TRANS_ERR_MM
    br = HARDWARE_BASELINE_ROT_ERR_DEG
    print(f"physical-rig baseline for reference: trans ({bt[0]}, {bt[1]}, {bt[2]}) mm, "
          f"rot ({br[0]}, {br[1]}) deg")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="binpick",
        description="Dual-sensor bin-picking perception pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="render a scene file to image/cloud/truth")
    p.add_argument("scene", help="scene JSON file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override the scene seed")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("segment", help="segment an image into box masks")
    p.add_argument("image", help="PGM/PPM image")
    p.add_argument("--config", default=None, help="pipeline config JSON")
    p.add_argument("--phase", choices=PHASES, default="parent")
    p.add_argument("--out", required=True, help="output directory for mask PGMs")
    p.set_defaults(func=_cmd_segment)

    p = sub.add_parser("localize", help="poses from mask files plus a cloud")
    p.add_argument("cloud", help="organized PLY cloud")
    p.add_argument("masks", nargs="+", help="mask PGMs (role read from filename)")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="report JSON path")
    p.set_defaults(func=_cmd_localize)

    p = sub.add_parser("pipeline", help="full detection over an image and cloud")
    p.add_argument("image", help="PGM/PPM image")
    p.add_argument("cloud", help="organized PLY cloud")
    p.add_argument("--config", default=None)
    p.add_argument("--phase", choices=PHASES, default="parent")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="report JSON path")
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("verify", help="compare a report against ground truth")
    p.add_argument("report", help="detection report JSON")
    p.add_argument("truth", help="ground-truth JSON")
    p.add_argument("--match-radius", type=float, default=DEFAULT_MATCH_RADIUS_MM,
                   help="centroid matching radius in mm")
    p.add_argument("--out", default=None, help="error table JSON path")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
