"""The workloads: inputs made from the seed, one round through the
public harness path, and the checks each round must pass.

A round generates the problem, attaches the reference solution where the
workload needs one, and calls ``harness.run_experiment``, which builds and
validates each policy's schedule, runs every (policy, seed) pair, evaluates
the checkpoint metrics and writes the CSVs.  One (policy, seed) run is one
operation of the benchmark.

``check_run`` sees each trajectory as the engine returns it; ``check_round``
reads the CSVs the round wrote, given the problem as the engine saw it.
Both return failure messages keyed by run id ("POLICY_sSEED"), or by ROUND
for a failure that spoils the whole round.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

from oevi import harness as H
from oevi import metrics

import checks as C

ROUND = "*"


def _run_id(policy: str, seed: int) -> str:
    return f"{policy}_s{seed}"


class Workload:
    """A workload on an affine traffic instance over a product of simplices."""

    name = ""
    policies: tuple[str, ...] = ()

    def __init__(self, seed: int, quick: bool):
        self.seed = seed
        self.run_seeds: tuple[int, ...] = ()

    @property
    def run_ids(self) -> list[str]:
        return [_run_id(p, s) for p in self.policies for s in self.run_seeds]

    def execute(self, outdir):
        """One round through the harness; returns (k, cadence)."""
        raise NotImplementedError

    def check_run(self, problem, config, traj) -> list[str]:
        return []

    def _feasible(self, problem, x) -> bool:
        fs = problem.set
        return C.simplex_product_feasible(x, fs.block_sizes, fs.demands)

    def _reference_failures(self, problem) -> list[str]:
        fs, spec = problem.set, problem.affine
        x_star = problem.known_solution
        if x_star is None or not self._feasible(problem, x_star):
            return ["reference solution missing or infeasible"]
        res = C.natural_residual(x_star, spec.G, spec.b, fs.block_sizes, fs.demands)
        # the reference solve stops at movement and certificate <= 1e-10
        if not res <= 1e-8:
            return [f"reference natural residual {res:.3e} > 1e-8"]
        return []

    def check_round(self, problem, k, cadence, outdir) -> dict[str, list[str]]:
        """Checks every run's CSV against the checkpoint grid and for finite
        values; subclasses add their own."""
        fails: dict[str, list[str]] = defaultdict(list)
        ts = C.checkpoint_grid(k, cadence)
        self.rows = {}
        for rid in self.run_ids:
            path = outdir / f"{rid}.csv"
            try:
                rows = C.read_trajectory_csv(path)
            except (OSError, ValueError) as exc:
                fails[rid].append(f"unreadable CSV: {exc}")
                continue
            if [int(r["t"]) for r in rows] != ts:
                fails[rid].append("checkpoint rows differ from the grid")
            elif not C.rows_finite(rows):
                fails[rid].append("non-finite metric in CSV")
            else:
                self.rows[rid] = rows
        for policy in self.policies:
            if not (outdir / f"agg_{policy}.csv").is_file():
                fails[ROUND].append(f"agg_{policy}.csv missing")
        return fails


class TrafficSolve(Workload):
    """One size of `oevi suite traffic`: an affine traffic instance, the
    suite's policies and seeds, run to the suite's certified 1e-6 horizon."""

    name = "traffic-solve"
    policies = ("OE-GSMVI", "SBOE-GSMVI")

    def __init__(self, seed: int, quick: bool):
        super().__init__(seed, quick)
        self.n, self.d_minus = (100, 0.05) if quick else (1000, 0.005)
        self.blocks = 5
        self.run_seeds = (1, 2, 3)
        self._constants = None

    def execute(self, outdir):
        problem = H.ensure_reference(H.traffic_generate(self.n, self.blocks, self.d_minus,
                                                        seed=self.seed))
        c = problem.constants
        # the suite's horizon: (L/mu) (L/(L+mu))^(k-1) <= 1e-6
        k = math.ceil(math.log(1e6 * c.L / c.mu) / math.log1p(c.mu / c.L)) + 1
        cfg = H.ExperimentConfig(
            problem=problem,
            policies=[H.PolicyRun(p) for p in self.policies],
            k=k,
            seeds=self.run_seeds,
            output=outdir,
            compute_reference=False,
        )
        H.run_experiment(cfg)
        return k, cfg.resolved_cadence()

    def check_run(self, problem, config, traj):
        if not self._feasible(problem, traj.xs):
            return ["an iterate left the simplex product"]
        return []

    def check_round(self, problem, k, cadence, outdir):
        fails = super().check_round(problem, k, cadence, outdir)
        fails[ROUND].extend(self._reference_failures(problem))
        fs = problem.set
        if self._constants is None:  # the instance is the same in every round
            self._constants = C.lipschitz_and_modulus(problem.affine.G)
        L, mu = self._constants
        x1 = C.simplex_center(fs.block_sizes, fs.demands)
        V1 = 0.5 * float(np.sum((x1 - problem.known_solution) ** 2))
        for s in self.run_seeds:
            rid = _run_id("OE-GSMVI", s)
            rows = self.rows.get(rid)
            if rows is None:
                continue
            if abs(rows[0]["V_to_solution"] - V1) > 1e-12 * V1:
                fails[rid].append("V at t=0 is not V(x1, x*)")
            for row in rows[1:]:
                t = int(row["t"])
                if row["V_to_solution"] > C.linear_rate_bound(L, mu, V1, t) + 1e-9:
                    fails[rid].append(f"distance above the linear-rate bound at t={t}")
                    break
            if not rows[-1]["V_to_solution"] <= 1e-6 * V1:
                fails[rid].append("distance did not reach 1e-6 V1 by k*")
        return fails


class GapTrace(Workload):
    """OE-MVI and SBOE-MVI on a small traffic instance with the exact weak
    gap evaluated at a dense checkpoint cadence (`oevi run` config path)."""

    name = "gap-trace"
    policies = ("OE-MVI", "SBOE-MVI")
    INNER_TOL = 1e-8  # weak_gap_exact_affine's default stopping tolerance
    # the library's gap comes from projected ascent stopped at a gradient-
    # mapping norm of INNER_TOL, so it may sit that far below the optimum
    SLACK = 2 * INNER_TOL
    FW_STEPS = 300  # Frank-Wolfe steps per bracket; each costs two n x n products

    def __init__(self, seed: int, quick: bool):
        super().__init__(seed, quick)
        self.n, self.k, self.cadence = (50, 40, 20) if quick else (1000, 1000, 500)
        self.run_seeds = (seed,)
        self.points: dict[str, np.ndarray] = {}
        self._L = None

    def execute(self, outdir):
        problem = H.build_problem("traffic", {"n": self.n, "blocks": 5, "d_minus": 0.005,
                                              "seed": self.seed})
        cfg = H.ExperimentConfig(
            problem=problem,
            policies=[H.PolicyRun(p) for p in self.policies],
            k=self.k,
            seeds=self.run_seeds,
            cadence=self.cadence,
            output=outdir,
            weak_gap=True,
        )
        H.run_experiment(cfg)
        return self.k, self.cadence

    def _bracket(self, problem, x_bar) -> tuple[float, float]:
        fs, spec = problem.set, problem.affine
        return C.weak_gap_bracket(spec.G, spec.b, x_bar, fs.block_sizes, fs.demands,
                                  self.FW_STEPS)

    def check_run(self, problem, config, traj):
        fails = []
        if not self._feasible(problem, traj.xs):
            fails.append("an iterate left the simplex product")
        ts = C.checkpoint_grid(config.k, self.cadence)
        self.points[_run_id(config.policy, config.seed)] = traj.xs[[t + 1 for t in ts]].copy()
        if config.policy == "OE-MVI":
            fails.extend(self._check_average(problem, config.k, traj))
        return fails

    def _check_average(self, problem, k, traj) -> list[str]:
        """The OE-MVI output, the gamma_t theta_t weighted average of
        x_2..x_{k+1}, meets the paper's bound 2L/k max_x V(x1, x)."""
        fs = problem.set
        w = traj.gammas[1:k + 1] * traj.thetas[1:k + 1]
        x_bar = (w @ traj.xs[2:k + 2]) / w.sum()
        gap = metrics.weak_gap_exact_affine(problem, x_bar, self.INNER_TOL)
        if self._L is None:
            self._L = C.lipschitz_and_modulus(problem.affine.G)[0]
        x1 = C.simplex_center(fs.block_sizes, fs.demands)
        limit = 2 * self._L / k * C.max_half_sq_dist(x1, fs.block_sizes, fs.demands)
        limit += 2 * self.INNER_TOL
        lower, upper = self._bracket(problem, x_bar)
        if not lower - self.SLACK <= gap <= min(upper, limit):
            return [f"averaged gap {gap:.4g} outside [{lower:.4g}, {min(upper, limit):.4g}]"]
        return []

    def check_round(self, problem, k, cadence, outdir):
        fails = super().check_round(problem, k, cadence, outdir)
        fails[ROUND].extend(self._reference_failures(problem))
        for rid, rows in self.rows.items():
            xs = self.points.get(rid)
            if xs is None:
                fails[rid].append("no trajectory seen for this run")
                continue
            for row, x_bar in zip(rows, xs):
                wg, sur = row["weak_gap_exact"], row["gap_surrogate"]
                if wg is None or sur is None:
                    fails[rid].append("weak gap or surrogate missing")
                    break
                lower, upper = self._bracket(problem, x_bar)
                upper = min(upper, sur) + 1e-12 * max(abs(sur), 1.0)
                if not lower - self.SLACK <= wg <= upper:
                    fails[rid].append(f"weak gap {wg:.4g} outside [{lower:.4g}, {upper:.4g}] "
                                      f"at t={int(row['t'])}")
                    break
        self.points.clear()
        return fails


WORKLOADS = {w.name: w for w in (TrafficSolve, GapTrace)}
