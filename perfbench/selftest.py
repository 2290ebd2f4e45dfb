"""Quick self-test of the benchmark: under a minute.

    python3 perfbench/selftest.py

1. The independent checks catch what they are meant to catch: the bisection
   projection agrees with a sort-based one, a perturbed solution has a large
   natural residual, an infeasible point is rejected, the linear-rate bound
   decays from L/mu V1, and the Frank-Wolfe weak-gap bracket holds the
   maximum found by long projected ascent.
2. Each workload runs at reduced size (``--quick``) in fresh processes, with
   tracing off and on, through the same checks; the output is one JSON line
   with exactly the metrics BENCHMARK.json names and no failed operation.
3. The checks catch faults in the real library: in a copy of ``src/`` with
   the exact weak gap halved, ``gap-trace`` reports failed operations, and in
   one with the reference solve's tolerance at 1e-5, ``traffic-solve`` does.
   The copies go to a temporary directory (``TMPDIR``), never into ``src/``.
4. In a directory holding only BENCHMARK.json and this directory, the
   benchmark exits with a nonzero code and prints no result.
Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import checks as C
from run import WORKLOAD_NAMES

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# (workload, file under src/, text, replacement): faults each workload's
# checks must catch
MUTATIONS = (
    ("gap-trace", "oevi/metrics.py",
     "    value = float((G @ x_opt + b) @ (xb - x_opt))",
     "    value = 0.5 * float((G @ x_opt + b) @ (xb - x_opt))"),
    ("traffic-solve", "oevi/harness.py",
     "def ensure_reference(problem: VIProblem, tol: float = 1e-10)",
     "def ensure_reference(problem: VIProblem, tol: float = 1e-5)"),
)


class CheckFailed(Exception):
    pass


def expect(condition, message: str = ""):
    if not condition:
        raise CheckFailed(message)


def _sort_projection(v, d):
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - d
    rho = np.nonzero(u > css / np.arange(1, v.size + 1))[0][-1]
    return np.maximum(v - css[rho] / (rho + 1.0), 0.0)


def check_the_checks():
    rng = np.random.default_rng(0)
    sizes, demands = (7, 5, 9), (1.0, 2.5, 0.3)
    for _ in range(50):
        z = rng.normal(scale=3.0, size=sum(sizes))
        p = C.project_simplex_product(z, sizes, demands)
        ref = np.concatenate([_sort_projection(z[a:a + s], d) for a, s, d in
                              zip(np.cumsum((0,) + sizes[:-1]), sizes, demands)])
        expect(np.allclose(p, ref, atol=1e-12), "bisection projection disagrees")
        expect(C.simplex_product_feasible(p, sizes, demands), "projection infeasible")
    x = C.project_simplex_product(rng.normal(size=sum(sizes)), sizes, demands)
    bad = x.copy()
    bad[0] += 1e-6
    expect(not C.simplex_product_feasible(bad, sizes, demands), "infeasible point accepted")

    # a monotone affine operator, its solution by projected iteration, and a
    # perturbed copy of that solution
    n = sum(sizes)
    M = rng.normal(size=(n, n))
    G = M @ M.T / n + np.eye(n)
    b = rng.normal(size=n)
    x = C.simplex_center(sizes, demands)
    step = 1.0 / np.linalg.norm(G, 2)
    for _ in range(20000):
        x = C.project_simplex_product(x - step * (G @ x + b), sizes, demands)
    expect(C.natural_residual(x, G, b, sizes, demands) < 1e-10, "solution residual not ~0")
    y = C.project_simplex_product(x + 1e-3 * rng.normal(size=n), sizes, demands)
    expect(C.natural_residual(y, G, b, sizes, demands) > 1e-6, "perturbation not detected")

    L, mu = C.lipschitz_and_modulus(G)
    expect(math.isclose(L, np.linalg.norm(G, 2), rel_tol=1e-12))
    V1 = 1.0
    expect(C.linear_rate_bound(L, mu, V1, 1) == L / mu)
    expect(C.linear_rate_bound(L, mu, V1, 50) < C.linear_rate_bound(L, mu, V1, 49))

    # the Frank-Wolfe bracket holds the weak gap found by long projected ascent
    S = G + G.T
    z = y.copy()
    for _ in range(20000):
        z = C.project_simplex_product(z + (G.T @ y - S @ z - b) / np.linalg.norm(S, 2),
                                      sizes, demands)
    best = float((G @ z + b) @ (y - z))
    lower, upper = C.weak_gap_bracket(G, b, y, sizes, demands)
    expect(lower - 1e-12 <= best <= upper + 1e-12, "weak-gap bracket misses the maximum")


def quick_run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(root / BENCH_DIR.name / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--quick"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)


def check_runs(names: dict[str, dict[str, str]]):
    for workload in WORKLOAD_NAMES:
        for trace, wanted in ((0, names["end_to_end"]), (1, names["per_layer"])):
            proc = quick_run(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            expect(proc.returncode == 0, f"{label} exited {proc.returncode}:\n{proc.stderr}")
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(out) == {"correct", "attempted", "failed", "metrics"}, label)
            expect(out["correct"] is True and out["failed"] == 0, f"{label}: {proc.stderr}")
            expect(isinstance(out["attempted"], int) and out["attempted"] >= 1, label)
            got = {name: m["unit"] for name, m in out["metrics"].items()}
            expect(got == wanted, f"{label}: metrics differ from BENCHMARK.json")
            expect(all(math.isfinite(m["value"]) for m in out["metrics"].values()), label)
            print(f"ok  {label}: attempted {out['attempted']}")


def check_mutations():
    ignore = shutil.ignore_patterns("out", "__pycache__")
    for workload, rel, text, replacement in MUTATIONS:
        with tempfile.TemporaryDirectory(prefix="perfbench-mutant-") as tmp:
            root = Path(tmp)
            shutil.copytree(ROOT / "src", root / "src", ignore=ignore)
            shutil.copytree(BENCH_DIR, root / BENCH_DIR.name, ignore=ignore)
            target = root / "src" / rel
            source = target.read_text(encoding="utf-8")
            expect(source.count(text) == 1, f"mutation of {rel} no longer applies: {text!r}")
            target.write_text(source.replace(text, replacement), encoding="utf-8")
            proc = quick_run(root, workload, 0)
        label = f"{workload} with {rel} mutated"
        # caught: failed operations in the result, or, when a round-level
        # check spoils every round, no result and exit 1
        expect("check failed:" in proc.stderr, f"{label}: fault not caught\n{proc.stderr}")
        if proc.returncode == 0:
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(out["correct"] is False and out["failed"] > 0, f"{label}: fault not caught")
            print(f"ok  {label}: failed {out['failed']} of {out['attempted']}")
        else:
            expect(proc.returncode == 1 and "every round failed" in proc.stderr,
                   f"{label} exited {proc.returncode}:\n{proc.stderr}")
            print(f"ok  {label}: every round failed")


def check_bare_directory():
    bare = BENCH_DIR / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name, ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, f"{BENCH_DIR.name}/run.py", "--workload",
                               "traffic-solve", "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and not proc.stdout.strip(), "bare directory gave a result")
    print("ok  bare directory: exit", proc.returncode)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {key: {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")}
    try:
        check_the_checks()
        print("ok  independent checks")
        check_runs(names)
        check_mutations()
        check_bare_directory()
    except CheckFailed as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
