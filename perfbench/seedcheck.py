"""Seed check: the benchmark's inputs and counts follow from ``--seed`` alone.

Runs the traced benchmark twice with seed 1 and once with seed 2, each for
just its minimum number of ops: the compared values come from those first
ops alone. The two seed-1 runs must report identical inputs, per-layer counts
and ratios, and identical error means; seed 2 must give other inputs.

    python3 perfbench/seedcheck.py --workload bigface640

Exits 0 when every comparison holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Per-layer metrics whose values are counted, not timed: they must repeat.
REPEATING_UNITS = ("count", "ratio")
SEED = 1


def traced_run(workload: str, seed: int) -> dict:
    subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", "0", "--trace", "1"],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=600)
    with open(HERE / "out" / f"{workload}-seed{seed}-trace1.json") as fh:
        return json.load(fh)


def repeating(result: dict) -> dict:
    """Input digest, error means and every counted per-layer value of a run."""
    out = {"inputs_sha256": result["inputs_sha256"],
           "trans_err_mm_mean": result["accuracy"]["trans_err_mm_mean"],
           "rot_err_deg_mean": result["accuracy"]["rot_err_deg_mean"]}
    line = result["result_line"]["metrics"]
    out.update({k: v["value"] for k, v in line.items() if v["unit"] in REPEATING_UNITS})
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="bigface640")
    args = parser.parse_args()

    first = repeating(traced_run(args.workload, SEED))
    second = repeating(traced_run(args.workload, SEED))
    other = repeating(traced_run(args.workload, SEED + 1))

    problems = [f"seed {SEED}: {k} {first[k]!r} then {second.get(k)!r}"
                for k in first if first[k] != second.get(k)]
    if other["inputs_sha256"] == first["inputs_sha256"]:
        problems.append(f"seeds {SEED} and {SEED + 1} gave the same inputs")
    for p in problems:
        print(p)
    print(f"seed check {args.workload}: compared {len(first)} values, "
          f"{'FAIL' if problems else 'PASS'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
