"""Closed-loop per-frame detection benchmark for binpick.

One process, one caller: each op runs ``binpick.pipeline.run_pipeline`` on one
frame (two frames for the pick-cycle workload) and the next op starts only
after the previous report returned and was checked against ground truth.
BLAS and OpenMP are pinned to one thread before numpy loads, so an op runs on
one core. Set-up renders the workload's jittered scene variants in a
separate process (see render.py); every op then draws its own depth noise
from ``--seed``.

    python3 perfbench/run.py --workload ref2048 --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with no probes installed.
``--trace 1`` alternates untraced and traced ops and reports the per-layer
split (see tracing.py), the tracing overhead and an allocation pass. Each
metric is printed as ``name: value unit``; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The full result, with the environment record and, when traced,
every span, goes to ``perfbench/out/<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import os  # noqa: E402

# Before numpy loads: one frame on one core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

RENDER_TIMEOUT_S = 120
WARMUP_OP = -1

# The declared metrics, name and unit, in the order BENCHMARK.json lists them.
_DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = tuple((m["name"], m["unit"]) for m in _DECLARED["end_to_end"])
PER_LAYER = tuple((m["name"], m["unit"]) for m in _DECLARED["per_layer"])

# Reported in the printout and the result file but not declared: at this
# commit the counts read 0 on every workload and the overhead can fall below
# 0, while a declared metric must never read 0.
DIAGNOSTICS = (
    ("fail_rate", "ratio"),
    ("fusion.skipped", "count"),
    ("clustering.noise", "count"),
    ("planes.merges", "count"),
    ("trace.overhead_s", "s"),
)


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


if not (SRC / "binpick" / "pipeline.py").is_file():
    _fail(f"no binpick sources under {SRC}; run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import binpick  # noqa: E402
from binpick import pipeline  # noqa: E402
from binpick.core import EulerZYX, OrganizedCloud  # noqa: E402
from binpick.segmentation import GrayImage  # noqa: E402
from binpick.synth import GroundTruthEntry, SceneSpec, add_depth_noise, scene_homography  # noqa: E402

import tracing  # noqa: E402
from workloads import MATCH_RADIUS_MM, NOISE_SIGMA_M, VARIANTS, WORKLOADS, Workload  # noqa: E402

if Path(binpick.__file__).resolve().parent != SRC / "binpick":
    _fail(f"imported binpick from {binpick.__file__}, not from {SRC}")


@dataclass
class Frame:
    image: GrayImage
    cloud: OrganizedCloud
    phase: str
    truth: list[GroundTruthEntry]
    render_image_s: float
    render_depth_s: float


@dataclass
class OpResult:
    latency_s: float = 0.0
    noise_s: float = 0.0
    failures: list[str] = field(default_factory=list)
    trans_err_mm: list[float] = field(default_factory=list)
    rot_err_deg: list[float] = field(default_factory=list)
    reports: list = field(default_factory=list)


def render(workload: Workload) -> tuple[list[list[Frame]], str]:
    """Rendered frames per variant from a separate process, and their digest."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, str(HERE / "render.py"), "--workload", workload.name],
        stdout=subprocess.PIPE, env=env, timeout=RENDER_TIMEOUT_S, check=True)
    data = np.load(io.BytesIO(proc.stdout), allow_pickle=False)
    digest = hashlib.sha256()
    for key in sorted(data.files):
        if not key.endswith("render_s"):
            digest.update(key.encode())
            digest.update(np.ascontiguousarray(data[key]).tobytes())
    variants = []
    for v in range(VARIANTS):
        frames = []
        f = 0
        while f"v{v}f{f}_image" in data.files:
            key = f"v{v}f{f}_"
            truth = [
                GroundTruthEntry(centroid_mm=c, normal=n, euler=EulerZYX(*map(float, e)),
                                 visibility=float(vis), priority=str(p))
                for c, n, e, vis, p in zip(
                    data[key + "truth_centroid_mm"].reshape(-1, 3),
                    data[key + "truth_normal"].reshape(-1, 3),
                    data[key + "truth_euler_deg"].reshape(-1, 3),
                    data[key + "truth_visibility"], data[key + "truth_priority"])
            ]
            image_s, depth_s = data[key + "render_s"]
            frames.append(Frame(GrayImage(data[key + "image"]),
                                OrganizedCloud(data[key + "points"], data[key + "valid"]),
                                str(data[key + "phase"]), truth,
                                float(image_s), float(depth_s)))
            f += 1
        variants.append(frames)
    return variants, digest.hexdigest()


def noise_seed(seed: int, op_id: int, frame: int) -> int:
    """Distinct depth-noise seed per (workload seed, op, frame)."""
    timed, op = (0, 0) if op_id == WARMUP_OP else (1, op_id)
    return int(np.random.SeedSequence([seed, timed, op, frame]).generate_state(1)[0])


def inputs_digest(render_digest: str, variants: list[list[Frame]], seed: int) -> str:
    """Digest of the rendered frames and of the noisy clouds of each
    variant's first op: what the program receives, as far as a seed sets it."""
    digest = hashlib.sha256(render_digest.encode())
    for op_id, frames in enumerate(variants):
        for f, frame in enumerate(frames):
            noisy = add_depth_noise(frame.cloud, NOISE_SIGMA_M, noise_seed(seed, op_id, f))
            digest.update(noisy.points.tobytes())
    return digest.hexdigest()


def unmatched_detail(report, table: dict) -> str:
    """Centroid, inlier count and plane offset of each pose that matched no truth."""
    matched = {m["pose_id"] for m in table["matches"]}
    return "".join(
        f"; pose {i} at ({p.centroid_mm.x:.1f}, {p.centroid_mm.y:.1f}, {p.centroid_mm.z:.1f}) mm,"
        f" {p.inlier_count} inliers, plane d {p.plane.d:.3g} m"
        for i, p in enumerate(report.poses) if i not in matched)


def run_op(config, frames: list[Frame], seed: int, op_id: int,
           tracer: tracing.Tracer | None = None) -> OpResult:
    """One closed-loop op: per frame, fresh noise, one pipeline run, one check."""
    result = OpResult()
    for f, frame in enumerate(frames):
        t0 = time.perf_counter()
        cloud = add_depth_noise(frame.cloud, NOISE_SIGMA_M, noise_seed(seed, op_id, f))
        t1 = time.perf_counter()
        result.noise_s += t1 - t0
        try:
            if tracer is None:
                report = pipeline.run_pipeline(config, frame.image, cloud, frame.phase)
            else:
                with tracer.installed(op_id):
                    report = pipeline.run_pipeline(config, frame.image, cloud, frame.phase)
        except Exception as exc:  # a failed op is counted, and the loop goes on
            result.latency_s += time.perf_counter() - t1
            result.failures.append(f"frame {f}: {type(exc).__name__}: {exc}")
            continue
        result.latency_s += time.perf_counter() - t1
        result.reports.append(report)
        table = pipeline.verify_against_ground_truth(report, frame.truth, MATCH_RADIUS_MM)
        if table["misses"] or table["unmatched_poses"]:
            result.failures.append(f"frame {f}: {table['misses']} missed, "
                                   f"{table['unmatched_poses']} unmatched"
                                   + unmatched_detail(report, table))
        for m in table["matches"]:
            result.trans_err_mm.extend(m["trans_err_mm"])
            result.rot_err_deg.extend(m["rot_err_deg"])
    return result


def warm_up(config, variants, seed: int) -> None:
    """One untimed op. Then set-up's objects move to a permanent generation,
    so the collection after each timed op scans only what the ops made."""
    run_op(config, variants[0], seed, WARMUP_OP)
    gc.collect()
    gc.freeze()


def cycle_garbage_bytes(config, frames: list[Frame], seed: int) -> int:
    """Bytes one op leaves alive that only the cyclic garbage collector frees."""
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        run_op(config, frames, seed, WARMUP_OP)
        held = tracemalloc.get_traced_memory()[0]
        gc.collect()
        return held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()


def timed_loop(config, variants, seed: int, seconds: float, min_ops: int,
               tracer: tracing.Tracer | None) -> tuple[list[OpResult], list[bool], float]:
    """Ops back to back for ``seconds`` (and at least ``min_ops``). With a
    tracer, blocks of one op per variant alternate untraced and traced, so
    both halves see every variant."""
    ops, traced = [], []
    t0 = time.perf_counter()
    deadline = t0 + seconds
    while time.perf_counter() < deadline or len(ops) < min_ops:
        op_id = len(ops)
        use = tracer if tracer is not None and (op_id // VARIANTS) % 2 == 1 else None
        ops.append(run_op(config, variants[op_id % VARIANTS], seed, op_id, use))
        traced.append(use is not None)
        # An op leaves reference cycles that hold arrays (cycle_garbage_bytes).
        # Freeing them here makes peak RSS one op's peak, not a figure set by
        # where the collector's next full pass happens to fall.
        gc.collect()
    return ops, traced, time.perf_counter() - t0


def blas_threads() -> dict[str, int]:
    """Threads each loaded OpenBLAS library will use, asked of the library."""
    libs = set()
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        pass
    found = {}
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads",
                       "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                found[Path(path).name] = fn()
                break
    return found


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_env": {v: os.environ[v] for v in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "blas_threads": blas_threads(),
    }


def _median(values) -> float:
    return float(statistics.median(values))


def accuracy(workload: Workload, ops: list[OpResult]) -> dict:
    """Mean per-axis errors over the first ``accuracy_ops`` ops: the same ops
    on every run with one seed, however fast the machine."""
    window = ops[:workload.accuracy_ops]
    trans = [e for op in window for e in op.trans_err_mm]
    rot = [e for op in window for e in op.rot_err_deg]
    return {"ops": len(window), "matched_axes": len(trans),
            "trans_err_mm_mean": float(np.mean(trans)) if trans else float("nan"),
            "rot_err_deg_mean": float(np.mean(rot)) if rot else float("nan")}


def end_to_end(workload, config, variants, seed, seconds) -> tuple[dict, list[OpResult], dict]:
    warm_up(config, variants, seed)
    setup_s = time.perf_counter() - T_START
    ops, _, wall = timed_loop(config, variants, seed, seconds, workload.accuracy_ops, None)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    acc = accuracy(workload, ops)
    metrics = {
        "latency_p50_s": _median(op.latency_s for op in ops),
        "ops_per_s": len(ops) / wall,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "trans_err_mm_mean": acc["trans_err_mm_mean"],
        "rot_err_deg_mean": acc["rot_err_deg_mean"],
        "fail_rate": sum(1 for op in ops if op.failures) / len(ops),
    }
    return metrics, ops, {"accuracy": acc, "loop_wall_s": wall}


def per_layer(workload, config, variants, seed, seconds) -> tuple[dict, list[OpResult], dict]:
    warm_up(config, variants, seed)
    tracer = tracing.Tracer()
    ops, traced, _ = timed_loop(config, variants, seed, seconds,
                                max(workload.accuracy_ops, 2 * VARIANTS), tracer)

    by_op: dict[int, list[tracing.Span]] = {}
    for span in tracer.spans:
        by_op.setdefault(span.op_id, []).append(span)
    traced_ids = [i for i, t in enumerate(traced) if t]
    values = [tracing.op_values(by_op[i], config.ransac_iterations) for i in traced_ids]

    problems = []
    for i in traced_ids:
        frames = tracing.frames(by_op[i])
        if len(frames) != len(ops[i].reports):
            problems.append(f"op {i}: {len(frames)} traced frames, {len(ops[i].reports)} reports")
            continue
        problems.extend(f"op {i} frame {f}: {p}"
                        for f, (spans, report) in enumerate(zip(frames, ops[i].reports))
                        for p in tracing.check_frame(spans, report))

    # Allocation pass, untimed: one op per variant with tracemalloc over each
    # frame's segmentation sequence, smoothing to mask generation.
    alloc_tracer = tracing.Tracer(track_alloc=True)
    alloc_peaks = []
    for v in range(VARIANTS):
        start = len(alloc_tracer.spans)
        run_op(config, variants[v], seed, WARMUP_OP, alloc_tracer)
        alloc_peaks.append(max(s.alloc_peak_bytes or 0 for s in alloc_tracer.spans[start:]))
    cycle_garbage = [cycle_garbage_bytes(config, frames, seed) for frames in variants]

    # Times: median over every traced op. Counts: median over the first
    # VARIANTS traced ops, the same inputs on every run with one seed.
    count_window = values[:VARIANTS]
    metrics = {}
    for name, unit in PER_LAYER + DIAGNOSTICS:
        if name in values[0]:
            pool = values if unit == "s" else count_window
            metrics[name] = _median(v[name] for v in pool)
    untraced_lat = [op.latency_s for op, t in zip(ops, traced) if not t]
    traced_lat = [ops[i].latency_s for i in traced_ids]
    metrics["segmentation.alloc_peak_mb"] = _median(alloc_peaks) / 2**20
    metrics["pipeline.cycle_garbage_mb"] = _median(cycle_garbage) / 2**20
    metrics["synth.render_image_s"] = _median(sum(f.render_image_s for f in fr) for fr in variants)
    metrics["synth.render_depth_s"] = _median(sum(f.render_depth_s for f in fr) for fr in variants)
    metrics["synth.noise_s"] = _median(ops[i].noise_s for i in traced_ids)
    metrics["trace.latency_p50_s"] = _median(traced_lat)
    metrics["trace.overhead_s"] = metrics["trace.latency_p50_s"] - _median(untraced_lat)
    metrics["fail_rate"] = sum(1 for op in ops if op.failures) / len(ops)
    shares = [tracing.layer_shares(v) for v in values]
    extra = {"layer_shares": {layer: _median(s[layer] for s in shares) for layer in shares[0]},
             "accuracy": accuracy(workload, ops), "self_check": problems,
             "traced_ops": traced_ids, "counts_window_ops": traced_ids[:VARIANTS],
             "spans": [s.to_dict() for s in tracer.spans]}
    return metrics, ops, extra


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    # On SIGTERM, unwind as on an exception: subprocess.run then kills and
    # reaps a render still running.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    variants, render_digest = render(workload)
    config = pipeline.PipelineConfig(
        homography=scene_homography(SceneSpec(rgb_resolution=workload.resolution)))
    measure = per_layer if args.trace else end_to_end
    metrics, ops, extra = measure(workload, config, variants, args.seed, args.seconds)

    failed = [i for i, op in enumerate(ops) if op.failures]
    problems = list(extra.get("self_check", []))
    digest = inputs_digest(render_digest, variants, args.seed)
    declared = PER_LAYER if args.trace else END_TO_END
    env = environment()

    print(f"workload {workload.name}: {workload.why}")
    print(f"seed {args.seed}, {len(ops)} ops, {len(failed)} failed, inputs sha256 {digest[:16]}")
    print("env: " + json.dumps(env, sort_keys=True))
    for name, unit in declared + DIAGNOSTICS:
        if name in metrics:
            print(f"{name}: {metrics[name]:.6g} {unit}")
    for layer, share in extra.get("layer_shares", {}).items():
        print(f"share of traced frame time, {layer}: {share:.1%}")
    for i in failed[:10]:
        print(f"failed op {i}: {'; '.join(ops[i].failures)}")
    for p in problems[:10]:
        print(f"check failed: {p}")

    line = {
        "correct": not failed and not problems,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared},
    }
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    with open(out_file, "w") as fh:
        json.dump({"workload": workload.name, "why": workload.why, "seed": args.seed,
                   "trace": args.trace, "seconds": args.seconds, "environment": env,
                   "inputs_sha256": digest, "result_line": line, "metrics": metrics,
                   "ops": [{"latency_s": op.latency_s, "noise_s": op.noise_s,
                            "trans_err_mm": op.trans_err_mm, "rot_err_deg": op.rot_err_deg,
                            "failures": op.failures} for op in ops],
                   **extra}, fh)
    print(f"result file: {out_file.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
