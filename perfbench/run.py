"""Benchmark entry point: one workload, whole rounds, one JSON line.

    python3 perfbench/run.py --workload traffic-solve --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/`` directory.  Each invocation is one fresh process, so ``setup_s`` and
``peak_rss_mb`` belong to the workload alone.  The process repeats whole
rounds (problem generation through the last CSV) for at least ``--seconds``
and at least MIN_ROUNDS rounds, checks every round, and prints as its last
line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (set-up and run time
are medians over rounds, the iteration rate is pooled over all engine calls);
with ``--trace 1`` timing wrappers are installed around the calls into each
oevi module and the metrics are the per-layer ones (means over rounds).
Exits 2 without a result when the library source is missing.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

WORKLOAD_NAMES = ("traffic-solve", "gap-trace")
MIN_ROUNDS = 3      # medians of setup and run time; two rounds to compare CSV bytes
MAX_WALL_S = 150.0  # start no round that would end past this
M_MMAP_THRESHOLD = -3  # mallopt parameter, from glibc's malloc.h

# One BLAS/OpenMP thread, one harness worker: on a 2-core machine shared with
# other work, two BLAS threads made the n = 1000 reference solve swing from
# 1.8 s to 6.4 s, while one thread held it at 2.8-3.05 s.  No transparent
# huge pages for numpy arrays: whether the kernel grants them depends on the
# machine's memory state, and identical traffic-solve runs read 116.8 MB
# without them and 123.5 MB with them.
PROCESS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "OEVI_WORKERS": "1",
    "NUMPY_MADVISE_HUGEPAGE": "0",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="reduced sizes, for the self-test")
    return p.parse_args(argv)


def import_library():
    """Import oevi from this checkout's src/ (never an installed copy)."""
    src = ROOT / "src"
    if not (src / "oevi" / "__init__.py").is_file():
        print(f"error: no library source at {src / 'oevi'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import oevi

    if Path(oevi.__file__).resolve().parent != (src / "oevi").resolve():
        print(f"error: imported oevi from {oevi.__file__}, not from {src}", file=sys.stderr)
        sys.exit(2)


def fix_mmap_threshold():
    """Serve every block over 128 KiB from its own mmap, returned on free.

    glibc raises its mmap threshold each time a large mmapped block is freed,
    after which large arrays come from the heap, and how much of the heap
    stays resident depends on the order of earlier allocations.  With the
    threshold left dynamic, identical traffic-solve runs read 116.8 MB or
    123.2 MB peak RSS depending only on how the process was started; fixed,
    both read 116.9-117.4 MB.  No effect where the C library has no ``mallopt``.
    """
    libc = ctypes.CDLL(ctypes.util.find_library("c"))
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is not None:
        mallopt(M_MMAP_THRESHOLD, 128 * 1024)


def warm_up():
    """Untimed BLAS and LAPACK calls, so the first timed round does not pay
    for loading the library's kernels."""
    import numpy as np

    a = np.random.default_rng(0).uniform(size=(256, 256))
    np.linalg.svd(a, compute_uv=False)
    np.linalg.eigvalsh(a + a.T)
    (a @ a) @ a[0]


def run_round(workload, tracer, outdir, first_digest):
    """One round; returns (record, digest).  The record holds the phase
    times, the failed run ids and, when traced, the layer metrics."""
    import numpy as np

    import checks
    from layers import layer_metrics
    from workloads import ROUND

    fails: dict[str, list[str]] = {rid: [] for rid in workload.run_ids}
    fails[ROUND] = []
    seen: set[tuple[str, str]] = set()  # (policy, iterate digest) of earlier runs
    extra = {"solvers.duplicate_runs": 0, "solvers.trajectory_mb": 0.0}
    solved = []  # the problem as the engine saw it, reference solution attached

    def on_run(problem, config, traj):
        solved[:] = [problem]
        rid = f"{config.policy}_s{config.seed}"
        msgs = fails.setdefault(rid, [])
        if not checks.all_finite(traj.xs):
            msgs.append("non-finite iterate")
            return
        msgs.extend(workload.check_run(problem, config, traj))
        if tracer.traced:
            key = (config.policy, checks.trajectory_digest(traj))
            extra["solvers.duplicate_runs"] += key in seen
            seen.add(key)
            size = sum(v.nbytes for v in vars(traj).values() if isinstance(v, np.ndarray))
            extra["solvers.trajectory_mb"] = max(extra["solvers.trajectory_mb"], size / 2**20)

    tracer.on_run = on_run
    tracer.start_round()
    digest = None
    try:
        k, cadence = workload.execute(outdir)
        tracer.end_round()
        for rid, msgs in workload.check_round(solved[0], k, cadence, outdir).items():
            fails.setdefault(rid, []).extend(msgs)
        digest = checks.directory_digest(outdir)
        if first_digest is not None and digest != first_digest:
            fails[ROUND].append("CSV bytes differ from the first round")
    except Exception:  # a raising round counts every run in it as failed
        traceback.print_exc(file=sys.stderr)
        fails[ROUND].append("round raised")
    for rid, msgs in fails.items():
        for msg in msgs:
            print(f"check failed: {workload.name} {rid}: {msg}", file=sys.stderr)
    failed_ids = [rid for rid in workload.run_ids if fails.get(rid)]
    ok = not fails[ROUND]
    record = {
        "ok": ok,
        "attempted": len(workload.run_ids),
        "failed": len(failed_ids) if ok else len(workload.run_ids),
    }
    if ok:
        record["setup_s"] = tracer.phase_ns(0) / 1e9
        record["run_s"] = tracer.phase_ns(1) / 1e9
        record["iterations"] = tracer.iterations
        record["engine_s"] = tracer.engine_ns / 1e9
        if tracer.traced:
            record["layers"] = {**layer_metrics(tracer), **extra}
    return record, digest


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(PROCESS_ENV)  # before numpy is first imported
    fix_mmap_threshold()
    import_library()
    warm_up()

    from layers import LAYER_UNITS
    from spans import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.quick)
    outdir = OUT_DIR / args.workload
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)

    tracer = Tracer(traced=bool(args.trace))
    records = []
    digest = None
    with tracer.installed():
        t0 = time.monotonic()
        while True:
            record, round_digest = run_round(workload, tracer, outdir, digest)
            digest = digest or round_digest
            records.append(record)
            elapsed = time.monotonic() - t0
            per_round = elapsed / len(records)
            if len(records) >= MIN_ROUNDS and elapsed >= args.seconds:
                break
            if len(records) >= 2 and elapsed + per_round > MAX_WALL_S:
                break

    good = [r for r in records if r["ok"]]
    if not good:
        print("error: every round failed", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if args.trace:
        metrics = {
            name: {"value": statistics.fmean(r["layers"][name] for r in good), "unit": unit}
            for name, unit in LAYER_UNITS.items()
        }
    else:
        metrics = {
            "setup_s": {"value": statistics.median(r["setup_s"] for r in good), "unit": "s"},
            "run_s": {"value": statistics.median(r["run_s"] for r in good), "unit": "s"},
            # pooled over the run: every engine call of every round
            "iters_per_s": {"value": sum(r["iterations"] for r in good)
                            / sum(r["engine_s"] for r in good), "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
