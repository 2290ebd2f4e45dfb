"""Run every workload, untraced and traced, and print both tables.

    python3 perfbench/report.py [--seed 1] [--seconds 30]

Each workload runs PAIRS times as a pair of fresh ``run.py`` processes,
``--trace 0`` then ``--trace 1``, on the same seed.  The tables come from the
first pair: the end-to-end metrics of the untraced run, and the per-layer
ones of the traced run with each run-phase self time as a share of the
traced ``run_s``.  The tracing overhead of a pair is its traced ``run_s``
minus its untraced one; the report gives the median over the pairs next to
the spread of the untraced ``run_s`` over the same runs, since a single pair
cannot tell the overhead from host drift.  Exits 1 if a run fails or reports
a failed operation.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORKLOAD_NAMES

BENCH_DIR = Path(__file__).resolve().parent
SELF_TIMES = ("problems.self_s", "geometry.self_s", "schedules.self_s", "solvers.self_s",
              "metrics.self_s", "harness.csv_s", "harness.aggregate_s", "harness.self_s")
PAIRS = 3


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=BENCH_DIR.parent, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} --trace {trace} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    args = p.parse_args(argv)

    ok = True
    for workload in WORKLOAD_NAMES:
        pairs = [(run_workload(workload, args.seed, args.seconds, 0),
                  run_workload(workload, args.seed, args.seconds, 1)) for _ in range(PAIRS)]
        ok = ok and all(plain["correct"] and traced["correct"] for plain, traced in pairs)
        plain, traced = pairs[0]
        print(f"== {workload} (seed {args.seed}): attempted {plain['attempted']}, "
              f"failed {plain['failed']}, correct {plain['correct']}")
        for name, m in plain["metrics"].items():
            print(f"  {name:14s} {_fmt(m['value']):>12s} {m['unit']}")
        layers = {name: m["value"] for name, m in traced["metrics"].items()}
        run_s = layers["trace.run_s"]
        print(f"  traced run: attempted {traced['attempted']}, failed {traced['failed']}")
        for name, m in traced["metrics"].items():
            share = f"{100 * m['value'] / run_s:6.1f}% of run" if name in SELF_TIMES else ""
            print(f"    {name:36s} {_fmt(m['value']):>12s} {m['unit']:6s} {share}")
        untraced = [u["metrics"]["run_s"]["value"] for u, _ in pairs]
        overheads = [t["metrics"]["trace.run_s"]["value"] - u for (_, t), u in zip(pairs, untraced)]
        median_run_s = statistics.median(untraced)
        overhead = statistics.median(overheads)
        print(f"  tracing overhead (traced run_s - untraced run_s), median of {PAIRS} pairs: "
              f"{overhead:.4g} s ({100 * overhead / median_run_s:.1f}% of untraced run_s); "
              f"pairs {', '.join(f'{o:.4g}' for o in overheads)} s")
        print(f"  untraced run_s over the pairs: median {median_run_s:.4g} s, "
              f"range {min(untraced):.4g}-{max(untraced):.4g} s "
              f"({100 * (max(untraced) - min(untraced)) / median_run_s:.1f}% of the median)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
