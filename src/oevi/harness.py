"""Experiment harness: configuration, seeded multi-run execution, CSV
emission, aggregation, canned benchmark suites, and bound checking.
Every run goes through ``solvers.run``, which decides how a policy runs on a
problem; the harness never reads the problem's oracle.

Determinism contract: with timing disabled (the default), (config, seed) maps
to CSV bytes as a pure function.  Wall-clock measurements are inherently not
reproducible, so per-step times are written to trajectory CSVs only when
``timing = true`` and suite timing tables go to a separate ``timing.csv``
that is excluded from the byte-identity guarantee.

A policy whose run cannot depend on its seed (``solvers.seed_free``) runs
once; its rows are written under every seed, each CSV with its own ``run_id``
and ``seed``, and the aggregates count every seed, so the bytes equal those of
a run per seed.  With ``timing = true`` those CSVs repeat the one run's
``wall_time_ns``, and the policy's ``mean_step_time_ns`` comes from that run.

Trajectory CSV schema (one file per (policy, seed)):
    run_id, policy, seed, t, gamma, lambda, theta, V_to_solution,
    residual_exact, residual_certificate, gap_surrogate, weak_gap_exact,
    movement_sq, oracle_calls, wall_time_ns
Row t describes the state after t iterations (iterate x_{t+1}); empty fields
mean "not applicable".  ``oracle_calls`` counts exact evaluations for
deterministic runs, oracle samples for stochastic runs, and full evaluations
plus block-component updates for block runs.  Floats are printed with 17
significant digits (lossless for doubles).
"""

from __future__ import annotations

import configparser
import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .geometry import analytic_center, bregman
from .metrics import (
    bound_gmvi_movement,
    bound_gmvi_residual,
    bound_gsmvi_linear,
    bound_mvi_gap,
    bound_sboe_gap,
    bound_sboe_linear,
    bound_soe_constant,
    bound_soe_decreasing,
    bound_soe_gmvi_residual_sq,
    bound_soe_mvi_gap,
    bound_soe_restart,
    gap_surrogate,
    max_bregman_from,
    residual_certificate,
    residual_exact,
    weak_gap_exact_affine,
)
from .problems import (
    VIProblem,
    block_lipschitz,
    glm_generate,
    problem_from_json,
    solve_reference,
    traffic_generate,
)
from .schedules import POLICIES, POLICY_NAMES, Schedule, make_schedule, validate
from .solvers import (
    OE_MVI_AVERAGE,
    SBOE_MVI_AVERAGE,
    SOE_MVI_TAIL_AVERAGE,
    RunConfig,
    output_rng,
    run,
    seed_free,
    select_best_movement,
    select_uniform_R,
    weighted_average,
)

WORKERS_ENV = "OEVI_WORKERS"

METRIC_COLUMNS = (
    "V_to_solution",
    "residual_exact",
    "residual_certificate",
    "gap_surrogate",
    "weak_gap_exact",
    "movement_sq",
)

# the fields of one trajectory row, in CSV column order
ROW_FIELDS = ("t", "gamma", "lambda", "theta", *METRIC_COLUMNS, "oracle_calls", "wall_time_ns")

TRAJECTORY_HEADER = ",".join(("run_id", "policy", "seed", *ROW_FIELDS))

_log = logging.getLogger(__name__)


class ConfigError(ValueError):
    """Invalid experiment configuration (CLI exit code 1)."""


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, float) and math.isnan(v):
        return ""
    return format(float(v), ".17g")


@dataclass
class PolicyRun:
    """One policy entry of an experiment, with optional constant overrides."""

    name: str
    L: float | None = None
    mu: float | None = None
    sigma: float | None = None
    V1: float | None = None
    batch: int | None = None
    noise_ratio: float | None = None
    recursive_affine: bool = True


@dataclass
class ExperimentConfig:
    problem: VIProblem
    policies: list[PolicyRun]
    k: int
    seeds: tuple[int, ...]
    cadence: int | None = None
    output: Path | None = None
    timing: bool = False
    weak_gap: bool = False
    workers: int | None = None
    compute_reference: bool = True
    validate_policies: str = "fail"  # "fail" | "warn" | "skip"

    def __post_init__(self):
        if not self.policies:
            raise ConfigError("config needs at least one policy")
        seen = set()
        for policy in self.policies:
            if policy.name not in POLICIES:
                raise ConfigError(f"unknown policy {policy.name!r}; "
                                  f"known: {', '.join(POLICY_NAMES)}")
            # each policy's CSVs are named after it alone
            if policy.name in seen:
                raise ConfigError(f"policy {policy.name} is configured more than once")
            seen.add(policy.name)
            if policy.batch is not None and policy.batch < 1:
                raise ConfigError(f"policy {policy.name}: batch size m must be >= 1, "
                                  f"got {policy.batch}")
            if POLICIES[policy.name].source == "block":
                _check_blocks(policy.name, self.problem)
        _check_budget(self.k, self.seeds)
        if self.validate_policies not in ("fail", "warn", "skip"):
            raise ConfigError("validate_policies must be fail, warn, or skip")
        if self.cadence is not None and self.cadence < 1:
            raise ConfigError(f"cadence must be >= 1, got {self.cadence}")
        if self.workers is not None and self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")

    def resolved_cadence(self) -> int:
        if self.cadence is not None:
            return int(self.cadence)
        return 1 if self.k <= 1000 else math.ceil(self.k / 100)

    def resolved_workers(self) -> int:
        """The configured worker count, else ``OEVI_WORKERS``, else 1."""
        if self.workers is not None:
            return int(self.workers)
        text = os.environ.get(WORKERS_ENV, "1")
        try:
            workers = int(text)
        except ValueError:
            raise ConfigError(f"{WORKERS_ENV} must be an integer, got {text!r}") from None
        if workers < 1:
            raise ConfigError(f"{WORKERS_ENV} must be >= 1, got {workers}")
        return workers


def _check_budget(k: int, seeds) -> None:
    """Raise ``ConfigError`` unless k >= 1 and the seeds are distinct and nonempty."""
    if k < 1:
        raise ConfigError("k must be >= 1")
    if len(set(seeds)) != len(seeds):
        raise ConfigError("seeds must be distinct")
    if not seeds:
        raise ConfigError("config needs at least one seed")


def _check_blocks(name: str, problem: VIProblem) -> None:
    """A block policy needs a partition that the problem's set splits along."""
    if problem.block_partition is None:
        raise ConfigError(f"policy {name} needs a block partition")
    try:
        problem.set.split(problem.block_partition)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"policy {name}: {exc}") from exc


def checkpoints(k: int, cadence: int) -> list[int]:
    ts = list(range(0, k + 1, cadence))
    if ts[-1] != k:
        ts.append(k)
    return ts


# ---------------------------------------------------------------------------
# Config-file loading (INI format: [problem], [run], [policy:NAME] sections)
# ---------------------------------------------------------------------------


def build_problem(kind: str, params: dict) -> VIProblem:
    kind = kind.strip().lower()
    if kind == "traffic":
        return traffic_generate(
            n=int(params.get("n", 200)),
            num_od=int(params.get("blocks", 5)),
            d_minus=float(params.get("d_minus", 0.005)),
            seed=int(params.get("seed", 0)),
        )
    if kind in ("glm-hinge", "glm-ramp"):
        link = "hinge" if kind.endswith("hinge") else "ramp"
        return glm_generate(
            n=int(params.get("n", 100)),
            link=link,
            R=float(params.get("r", params.get("R", 100.0))),
            sigma_y=float(params.get("sigma_y", 1.0)),
            seed=int(params.get("seed", 0)),
            d_minus=float(params["d_minus"]) if "d_minus" in params else None,
        )
    if kind == "json":
        path = params.get("path")
        if not path:
            raise ConfigError("problem kind json needs a path")
        return problem_from_json(Path(path).read_text())
    raise ConfigError(f"unknown problem kind {kind!r}")


def load_config(path) -> ExperimentConfig:
    """Parse the documented key = value config format."""
    try:
        return _parse_config(path)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc


def _parse_config(path) -> ExperimentConfig:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    if "problem" not in parser or "run" not in parser:
        raise ConfigError("config needs [problem] and [run] sections")

    prob_sec = dict(parser["problem"])
    kind = prob_sec.pop("kind", None)
    if kind is None:
        raise ConfigError("[problem] needs a kind")
    problem = build_problem(kind, prob_sec)

    run = parser["run"]
    try:
        k = run.getint("k")
        seeds = tuple(int(s) for s in run.get("seeds", "0").replace(",", " ").split())
        cadence = run.getint("cadence", fallback=None)
        timing = run.getboolean("timing", fallback=False)
        weak_gap = run.getboolean("weak_gap", fallback=False)
        workers = run.getint("workers", fallback=None)
        output = run.get("output", fallback=None)
        validate_mode = run.get("validate", fallback="fail")
        reference = run.getboolean("reference", fallback=True)
    except ValueError as exc:
        raise ConfigError(f"bad [run] value: {exc}") from exc
    if k is None:
        raise ConfigError("[run] needs k")

    policies = []
    for section in parser.sections():
        if not section.startswith("policy:"):
            continue
        name = section.split(":", 1)[1].strip()
        sec = parser[section]
        policies.append(
            PolicyRun(
                name=name,
                L=sec.getfloat("L", fallback=None),
                mu=sec.getfloat("mu", fallback=None),
                sigma=sec.getfloat("sigma", fallback=None),
                V1=sec.getfloat("V1", fallback=None),
                batch=sec.getint("m", fallback=None),
                noise_ratio=sec.getfloat("noise_ratio", fallback=None),
                recursive_affine=sec.getboolean("recursive_affine", fallback=True),
            )
        )
    if not policies:
        raise ConfigError("config needs at least one [policy:NAME] section")

    return ExperimentConfig(
        problem=problem,
        policies=policies,
        k=k,
        seeds=seeds,
        cadence=cadence,
        output=Path(output) if output else None,
        timing=timing,
        weak_gap=weak_gap,
        workers=workers,
        compute_reference=reference,
        validate_policies=validate_mode,
    )


# ---------------------------------------------------------------------------
# Schedules and runs
# ---------------------------------------------------------------------------


def _sigma(policy: PolicyRun, problem: VIProblem, m: int = 1) -> float:
    """The noise level of an m-sample oracle estimate: mini-batching cuts the
    per-step estimator noise, and the horizon policies and the bounds consume
    that level.  A user override of sigma is taken as the noise estimate."""
    sigma = policy.sigma if policy.sigma is not None else problem.constants.sigma
    return sigma / math.sqrt(m)


def schedule_for(policy: PolicyRun, problem: VIProblem, k: int, x1) -> Schedule:
    """The policy's schedule at the problem's constants, overrides applied.
    Without an override or a known solution, V1 is 1.0."""
    c = problem.constants
    L = policy.L if policy.L is not None else c.L
    mu = policy.mu if policy.mu is not None else c.mu
    V1 = policy.V1
    if V1 is None:
        x_star = problem.known_solution
        V1 = bregman(x1, x_star) if x_star is not None else 1.0
        V1 = V1 if V1 > 0 else 1.0
    b = len(problem.block_partition) if problem.block_partition else 1
    Lbar = None
    if POLICIES[policy.name].source == "block":
        if problem.affine is not None and policy.L is None:
            Lbar = block_lipschitz(problem.affine, problem.block_partition)
        else:
            Lbar = L
    try:
        return make_schedule(
            policy.name, L=L, mu=mu, sigma=_sigma(policy, problem, policy.batch or 1), V1=V1,
            k=k, b=b, Lbar=Lbar, noise_ratio=policy.noise_ratio,
        )
    except ValueError as exc:
        raise ConfigError(f"cannot build policy {policy.name}: {exc}") from exc


def _weak_gap_available(problem: VIProblem) -> bool:
    return problem.affine is not None and problem.set.bounded and problem.affine.monotone


def trajectory_rows(
    traj, problem: VIProblem, ts: list[int], *,
    weak_gap: bool = False, timing: bool = False,
) -> list[dict]:
    """Metric records at the checkpoint grid (row t = state after t iterations).

    F is evaluated once per checkpoint; the exact residual, the residual
    certificate and the gap surrogate all read that value.
    """
    x_star = problem.known_solution
    weak_ok = weak_gap and _weak_gap_available(problem)
    cum_time = np.cumsum(traj.step_time_ns)
    rows = []
    for t in ts:
        x = traj.xs[t + 1]
        row = dict.fromkeys(ROW_FIELDS)
        row["t"] = t
        if t >= 1:
            row.update({"gamma": float(traj.gammas[t]), "lambda": float(traj.lams[t]),
                        "theta": float(traj.thetas[t]),
                        "movement_sq": float(traj.movement_sq[t])})
        if timing:
            row["wall_time_ns"] = int(cum_time[t])
        if x_star is not None:
            row["V_to_solution"] = bregman(x, x_star)
        Fx = problem.operator(x)  # the one exact evaluation at this checkpoint
        if problem.set.has_exact_residual:
            row["residual_exact"] = residual_exact(problem.set, x, Fx)
        if t >= 1:
            row["residual_certificate"] = residual_certificate(traj, t, Fx)
        if problem.set.bounded:
            row["gap_surrogate"] = gap_surrogate(problem.set, x, Fx)
        if weak_ok:
            row["weak_gap_exact"] = weak_gap_exact_affine(problem, x)
        # one operator value consumed per iteration for exact-operator runs
        # (full or block); cumulative oracle samples for stochastic runs
        row["oracle_calls"] = (
            traj.oracle_calls_through(t) if traj.oracle_calls > 0 else t
        )
        rows.append(row)
    return rows


def _write_lines(path: Path, lines: list[str]):
    """Write ``lines`` through a temporary file, so ``path`` never holds a partial CSV."""
    tmp = path.with_suffix(".tmp")
    tmp.write_text("\n".join(lines) + "\n", encoding="utf-8")
    os.replace(tmp, path)


def write_trajectory_csv(path: Path, run_id: str, policy: str, seed, rows: list[dict]):
    _write_lines(path, [TRAJECTORY_HEADER] + [
        ",".join([run_id, policy, _fmt(seed), *(_fmt(row[f]) for f in ROW_FIELDS)])
        for row in rows])


AGGREGATE_HEADER = (
    "policy,t,n_seeds,"
    + ",".join(f"mean_{m},se_{m}" for m in METRIC_COLUMNS)
    + ",oracle_calls,mean_step_time_ns"
)


@dataclass
class AggregateResult:
    """Per-policy seed-averaged metrics on the shared checkpoint grid."""

    policy: str
    ts: list[int]
    n_seeds: int
    mean: dict[str, list]
    se: dict[str, list]
    oracle_calls: list[int]
    mean_step_time_ns: float | None = None


def aggregate_rows(policy: str, per_seed_rows: list[list[dict]],
                   mean_step_time_ns: float | None = None) -> AggregateResult:
    ts = [row["t"] for row in per_seed_rows[0]]
    for rows in per_seed_rows[1:]:
        if [row["t"] for row in rows] != ts:
            raise ValueError("checkpoint grids differ across seeds")
    n = len(per_seed_rows)
    mean: dict[str, list] = {m: [] for m in METRIC_COLUMNS}
    se: dict[str, list] = {m: [] for m in METRIC_COLUMNS}
    for i in range(len(ts)):
        for m in METRIC_COLUMNS:
            vals = [rows[i][m] for rows in per_seed_rows]
            if any(v is None for v in vals):
                mean[m].append(None)
                se[m].append(None)
            else:
                arr = np.asarray(vals, dtype=float)
                mean[m].append(float(arr.mean()))
                se[m].append(
                    float(arr.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
                )
    calls = [int(per_seed_rows[0][i]["oracle_calls"]) for i in range(len(ts))]
    return AggregateResult(policy, ts, n, mean, se, calls, mean_step_time_ns)


def write_aggregate_csv(path: Path, agg: AggregateResult, *, timing: bool = False):
    lines = [AGGREGATE_HEADER]
    for i, t in enumerate(agg.ts):
        fields = [agg.policy, str(t), str(agg.n_seeds)]
        for m in METRIC_COLUMNS:
            fields.append(_fmt(agg.mean[m][i]))
            fields.append(_fmt(agg.se[m][i]))
        fields.append(str(agg.oracle_calls[i]))
        fields.append(_fmt(agg.mean_step_time_ns) if timing else "")
        lines.append(",".join(fields))
    _write_lines(path, lines)


def _run_id(policy: str, seed) -> str:
    return f"{policy}_s{seed}" if seed is not None else policy


def mean_iteration_ns(traj, warmup: int = 10) -> float:
    """Mean per-iteration wall time, excluding the first ``warmup`` iterations."""
    times = traj.step_time_ns[1 + warmup :]
    if times.size == 0:
        times = traj.step_time_ns[1:]
    return float(times.mean())


def ensure_reference(problem: VIProblem, tol: float = 1e-10) -> VIProblem:
    """Attach a high-accuracy reference solution when none is known."""
    if problem.known_solution is not None or problem.constants.mu <= 0:
        return problem
    return replace(problem, known_solution=solve_reference(problem, tol))


def run_experiment(config: ExperimentConfig) -> dict[str, AggregateResult]:
    """Execute every (policy, seed) pair, a seed-free policy once on the first
    seed; write one trajectory CSV per pair and one aggregate CSV per policy
    under config.output (if set)."""
    workers = config.resolved_workers()
    problem = config.problem
    if config.compute_reference:
        problem = ensure_reference(problem)
    x1 = analytic_center(problem.set)
    ts = checkpoints(config.k, config.resolved_cadence())

    jobs = []  # (policy, schedule, seeds the run's rows are written under)
    for policy in config.policies:
        schedule = schedule_for(policy, problem, config.k, x1)
        report = validate(schedule, config.k)
        if not report.passed and config.validate_policies != "skip":
            if config.validate_policies == "fail":
                raise ConfigError(f"schedule validation failed:\n{report.summary()}")
            _log.warning("schedule validation failed, running anyway:\n%s",
                         report.summary())
        if seed_free(policy.name, problem):
            jobs.append((policy, schedule, config.seeds))
        else:
            jobs.extend((policy, schedule, (seed,)) for seed in config.seeds)

    def _one(job):
        # keep only the rows: holding trajectories would add one run's
        # (k+2) x n arrays to the peak memory for every finished job
        policy, schedule, seeds = job
        # the run keeps only the operator values trajectory_rows reads on ts
        traj = run(problem, schedule, x1,
                   RunConfig(policy.name, config.k, seeds[0], policy.batch, checkpoints=ts),
                   recursive_affine=policy.recursive_affine)
        rows = trajectory_rows(
            traj, problem, ts, weak_gap=config.weak_gap, timing=config.timing
        )
        return policy.name, seeds, rows, mean_iteration_ns(traj)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_one, jobs))
    else:
        results = [_one(job) for job in jobs]

    outdir = config.output
    if outdir is not None:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)

    by_policy: dict[str, list[list[dict]]] = {}
    times: dict[str, list[float]] = {}  # one entry per run made
    for name, seeds, rows, it_ns in results:
        times.setdefault(name, []).append(it_ns)
        for seed in seeds:
            by_policy.setdefault(name, []).append(rows)
            if outdir is not None:
                run_id = _run_id(name, seed)
                write_trajectory_csv(outdir / f"{run_id}.csv", run_id, name, seed, rows)

    aggregates: dict[str, AggregateResult] = {}
    for name, rows_list in by_policy.items():
        agg = aggregate_rows(name, rows_list, float(np.mean(times[name])))
        aggregates[name] = agg
        if outdir is not None:
            write_aggregate_csv(outdir / f"agg_{name}.csv", agg, timing=config.timing)
    return aggregates


# ---------------------------------------------------------------------------
# Canned suites
# ---------------------------------------------------------------------------


@dataclass
class SuiteReport:
    name: str
    assertions: list[tuple[str, bool, str]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.assertions)

    def record(self, label: str, ok: bool, detail: str = ""):
        self.assertions.append((label, ok, detail))

    def summary(self) -> str:
        lines = [f"suite {self.name}: {'PASS' if self.passed else 'FAIL'}"]
        for label, ok, detail in self.assertions:
            lines.append(f"  [{'PASS' if ok else 'FAIL'}] {label}" + (f" ({detail})" if detail else ""))
        return "\n".join(lines)


TIMING_MIN_SIZE = 500  # below this, per-iteration cost is overhead-dominated


def suite_traffic(
    sizes=(200, 500, 1000),
    d_minus: float = 0.005,
    seeds=(1, 2, 3),
    *,
    k: int | None = None,
    output: Path | str = "out/traffic",
    blocks: int = 5,
) -> SuiteReport:
    """Error-vs-iteration trajectories and per-iteration timing for the
    deterministic and block solvers on random traffic instances.

    Emits per-size trajectory and aggregate CSVs plus a ``timing.csv`` with
    columns (n, oe_ns_per_iter, sboe_ns_per_iter).  Asserts the block solver
    is cheaper per iteration at the largest size (skipped below n = 500 where
    interpreter overhead dominates) and that the deterministic run reaches
    the contraction implied by its linear-rate guarantee.  An empty size
    list, a size that is not a positive multiple of ``blocks``, ``k < 1`` or
    seeds that are repeated or empty raise ``ConfigError`` before any work.
    """
    if not sizes or any(n <= 0 or n % blocks for n in sizes):
        raise ConfigError(f"traffic sizes must be a nonempty list of positive multiples "
                          f"of the block count {blocks}, got {tuple(sizes)}")
    _check_budget(1 if k is None else k, tuple(seeds))
    report = SuiteReport("traffic")
    output = Path(output)
    output.mkdir(parents=True, exist_ok=True)
    timing_rows = []
    for n in sizes:
        problem = ensure_reference(traffic_generate(n, blocks, d_minus, seed=10_000 + n))
        c = problem.constants
        cond = c.L / c.mu
        # iteration count at which the linear-rate bound certifies a 1e-6
        # relative error: (L/mu) (L/(L+mu))^(k-1) <= 1e-6
        k_star = math.ceil(math.log(1e6 * cond) / math.log1p(c.mu / c.L)) + 1
        k_n = k if k is not None else k_star
        cfg = ExperimentConfig(
            problem=problem,
            policies=[PolicyRun("OE-GSMVI"), PolicyRun("SBOE-GSMVI")],
            k=k_n,
            seeds=tuple(seeds),
            output=output / f"n{n}",
            compute_reference=False,
        )
        aggs = run_experiment(cfg)
        timing_rows.append(
            (n, aggs["OE-GSMVI"].mean_step_time_ns, aggs["SBOE-GSMVI"].mean_step_time_ns)
        )
        if n == max(sizes):
            report.record(f"n={n}: mu > 0", c.mu > 0, f"mu={c.mu:.4g}")
            if n >= 1000:
                # ill-conditioning shows up at benchmark scale with the
                # default perturbation level
                report.record(f"n={n}: L/mu > 100", cond > 100, f"L/mu={cond:.4g}")
            if k_n >= k_star:
                oe = aggs["OE-GSMVI"]
                v_final = oe.mean["V_to_solution"][-1]
                v_init = oe.mean["V_to_solution"][0]
                ok = v_final <= 1e-6 * v_init
                report.record(
                    f"n={n}: OE error below 1e-6 x initial at k={k_n}",
                    ok,
                    f"ratio={v_final / v_init:.3e}",
                )
    lines = ["n,oe_ns_per_iter,sboe_ns_per_iter"]
    for n, oe_ns, sboe_ns in timing_rows:
        lines.append(f"{n},{_fmt(oe_ns)},{_fmt(sboe_ns)}")
    _write_lines(output / "timing.csv", lines)
    n_big, oe_ns, sboe_ns = timing_rows[-1]
    if n_big >= TIMING_MIN_SIZE:
        report.record(
            f"n={n_big}: block iteration cheaper than full iteration",
            sboe_ns < oe_ns,
            f"sboe={sboe_ns:.0f}ns oe={oe_ns:.0f}ns",
        )
    return report


def suite_glm(
    link: str,
    seeds=(1, 2, 3),
    *,
    n: int = 100,
    k: int = 1000,
    output: Path | str = "out/glm",
    d_minus_grid=(0.1, 0.01, 0.001),
    radius_grid=(2.0, 4.0, 10.0),
    restart_k: int = 1000,
) -> SuiteReport:
    """Signal-estimation studies.

    hinge: stochastic policies 1-4 against both baselines (the parity-offset
    SA and the classic Robbins-Monro SA-RM) at three conditioning levels
    (batch 100, label noise 1), then the restart study (batch 1000, label
    noise 0.1).  ramp: policies 1-4 and the baseline over growing radii
    (batch 1000).

    Asserts the qualitative ordering at the worst conditioning: the
    decreasing extrapolation policy ends below the classic baseline, whose
    early 1/(mu t) steps are oversized for roughly the first L/mu
    iterations.  The assertion is calibrated for the default budget (the
    classic baseline eventually recovers, so very large k closes the gap).
    An unknown link, ``n < 1``, ``k < 1`` or seeds that are repeated or empty
    raise ``ConfigError`` before any work.
    """
    if link not in ("hinge", "ramp"):
        raise ConfigError(f"unknown link {link!r}")
    if n < 1:
        raise ConfigError("n must be >= 1")
    _check_budget(k, tuple(seeds))
    report = SuiteReport(f"glm-{link}")
    output = Path(output)
    output.mkdir(parents=True, exist_ok=True)
    if link == "hinge":
        final_errors: dict[tuple[float, str], float] = {}
        for d_minus in d_minus_grid:
            problem = glm_generate(n, "hinge", R=100.0, sigma_y=1.0,
                                   seed=20_000 + int(-math.log10(d_minus)), d_minus=d_minus)
            cfg = ExperimentConfig(
                problem=problem,
                policies=[PolicyRun("SA", batch=100), PolicyRun("SA-RM", batch=100),
                          PolicyRun("SOE-1", batch=100), PolicyRun("SOE-2", batch=100),
                          PolicyRun("SOE-3", batch=100), PolicyRun("SOE-4", batch=100)],
                k=k,
                seeds=tuple(seeds),
                output=output / f"hinge_dminus{d_minus:g}",
                compute_reference=False,
            )
            aggs = run_experiment(cfg)
            for name, agg in aggs.items():
                final_errors[(d_minus, name)] = agg.mean["V_to_solution"][-1]
        d_hard = min(d_minus_grid)
        soe1 = final_errors[(d_hard, "SOE-1")]
        sa = final_errors[(d_hard, "SA-RM")]
        report.record(
            f"d_minus={d_hard:g}: SOE-1 final error below classic SA",
            soe1 < sa,
            f"soe1={soe1:.3e} sa-rm={sa:.3e}",
        )
        # restart study: smaller noise, bigger batches, shorter horizon
        for d_minus in d_minus_grid:
            problem = glm_generate(n, "hinge", R=100.0, sigma_y=0.1,
                                   seed=21_000 + int(-math.log10(d_minus)), d_minus=d_minus)
            cfg = ExperimentConfig(
                problem=problem,
                policies=[PolicyRun("SA", batch=1000), PolicyRun("SOE-1", batch=1000),
                          PolicyRun("SOE-3", batch=1000)],
                k=restart_k,
                seeds=tuple(seeds),
                output=output / f"hinge_restart_dminus{d_minus:g}",
                compute_reference=False,
            )
            run_experiment(cfg)
    else:
        mus = []
        for R in radius_grid:
            problem = glm_generate(n, "ramp", R=R, sigma_y=0.1, seed=22_000 + int(R))
            mus.append(problem.constants.mu)
            cfg = ExperimentConfig(
                problem=problem,
                policies=[PolicyRun("SA", batch=1000), PolicyRun("SOE-1", batch=1000),
                          PolicyRun("SOE-2", batch=1000), PolicyRun("SOE-3", batch=1000),
                          PolicyRun("SOE-4", batch=1000)],
                k=k,
                seeds=tuple(seeds),
                output=output / f"ramp_R{R:g}",
                compute_reference=False,
            )
            run_experiment(cfg)
        report.record(
            "mu positive and decreasing in R",
            all(m > 0 for m in mus) and all(a > b for a, b in zip(mus, mus[1:])),
            f"mus={['%.3e' % m for m in mus]}",
        )
    return report


# ---------------------------------------------------------------------------
# Bound checking
# ---------------------------------------------------------------------------


@dataclass
class BoundCheck:
    policy: str
    bound: str
    measured: float
    limit: float
    passed: bool
    detail: str = ""


def _solution(problem: VIProblem) -> np.ndarray:
    if problem.known_solution is None:
        raise ConfigError("bound checks need a known or computable solution")
    return problem.known_solution


def _seed_mean(policy: PolicyRun, bound: str, vals, limit: float,
               detail: str | None = None) -> BoundCheck:
    """Check the mean of per-seed values against ``limit`` plus three standard
    errors (none for a single seed); ``detail`` defaults to the seed count."""
    vals = np.asarray(vals, dtype=float)
    se = vals.std(ddof=1) / math.sqrt(len(vals)) if len(vals) > 1 else 0.0
    lim = limit + 3 * se
    mean = float(vals.mean())
    return BoundCheck(policy.name, bound, mean, lim, mean <= lim,
                      f"{len(vals)} seeds" if detail is None else detail)


def _gap_skipped(policy: PolicyRun, bound: str) -> list[BoundCheck]:
    # the gap bounds need the exact weak gap, which only bounded affine problems have
    return [BoundCheck(policy.name, bound, math.nan, math.nan, True,
                       "skipped: exact gap needs bounded affine")]


# Each check below takes (policy, schedule, problem, trajs, x1, k), one
# trajectory per seed, and picks its policy's output rule itself.


def _check_oe_gsmvi(policy, schedule, problem, trajs, x1, k):
    # measured is the largest ratio of V(x_{t+1}, x*) to its bound over t
    x_star = _solution(problem)
    V1 = bregman(x1, x_star)
    worst, ok = 0.0, True
    for t in range(1, k + 1):
        lhs = bregman(trajs[0].xs[t + 1], x_star)
        rhs = bound_gsmvi_linear(schedule.L, schedule.mu, V1, t) + 1e-9
        worst = max(worst, lhs / rhs)
        ok = ok and lhs <= rhs
    return [BoundCheck(policy.name, "linear-rate distance", worst, 1.0, ok,
                       "pointwise over all k")]


def _check_oe_gmvi(policy, schedule, problem, trajs, x1, k):
    traj = trajs[0]
    V1 = bregman(x1, _solution(problem))
    total = float(traj.movement_sq[1:].sum())
    total_lim = bound_gmvi_movement(V1) + 1e-9
    R, _ = select_best_movement(traj)
    cert = residual_certificate(traj, R, problem.operator(traj.xs[R + 1]))
    cert_lim = bound_gmvi_residual(schedule.L, problem.constants.L_omega, V1, k)
    return [BoundCheck(policy.name, "movement sum", total, total_lim, total <= total_lim),
            BoundCheck(policy.name, "residual certificate", cert, cert_lim, cert <= cert_lim)]


def _check_oe_mvi(policy, schedule, problem, trajs, x1, k):
    bound = "averaged-iterate gap"
    if not _weak_gap_available(problem):
        return _gap_skipped(policy, bound)
    inner_tol = 1e-8
    gap = weak_gap_exact_affine(problem, weighted_average(trajs[0], OE_MVI_AVERAGE), inner_tol)
    lim = bound_mvi_gap(schedule.L, k, max_bregman_from(problem.set, x1)) + 2 * inner_tol
    return [BoundCheck(policy.name, bound, gap, lim, gap <= lim)]


def _check_soe_1(policy, schedule, problem, trajs, x1, k):
    x_star = _solution(problem)
    limit = bound_soe_decreasing(schedule.L, schedule.mu,
                                 _sigma(policy, problem, policy.batch or 1),
                                 bregman(x1, x_star), k)
    return [_seed_mean(policy, "expected distance",
                       [bregman(tr.final, x_star) for tr in trajs], limit)]


def _check_soe_2(policy, schedule, problem, trajs, x1, k):
    x_star = _solution(problem)
    limit = bound_soe_constant(schedule.L, schedule.mu,
                               _sigma(policy, problem, policy.batch or 1),
                               bregman(x1, x_star), k, schedule.q)
    return [_seed_mean(policy, "expected distance",
                       [bregman(tr.final, x_star) for tr in trajs], limit)]


def _check_soe_3(policy, schedule, problem, trajs, x1, k):
    x_star = _solution(problem)
    V1 = bregman(x1, x_star)
    ends = [K for K in schedule.epoch_ends(8) if K <= k]
    if not ends:
        return [BoundCheck(policy.name, "epoch halving", math.nan, math.nan, True,
                           f"skipped: k = {k} ends before the first epoch end "
                           f"K_1 = {schedule.epoch_length(1)}")]
    return [_seed_mean(policy, f"epoch {s} halving",
                       [bregman(tr.xs[K + 1], x_star) for tr in trajs],
                       bound_soe_restart(V1, s), detail="")
            for s, K in enumerate(ends, start=1)]


def _check_soe_4(policy, schedule, problem, trajs, x1, k):
    V1 = bregman(x1, _solution(problem))
    vals = []
    for tr in trajs:
        R, _ = select_uniform_R(tr, output_rng(tr.seed))
        vals.append(residual_certificate(tr, R, problem.operator(tr.xs[R + 1])) ** 2)
    limit = bound_soe_gmvi_residual_sq(schedule.L, problem.constants.L_omega,
                                       _sigma(policy, problem), V1, k)
    return [_seed_mean(policy, "expected squared residual", vals, limit)]


def _check_soe_mvi(policy, schedule, problem, trajs, x1, k):
    bound = "expected tail-average gap"
    if not _weak_gap_available(problem):
        return _gap_skipped(policy, bound)
    gaps = [weak_gap_exact_affine(problem, weighted_average(tr, SOE_MVI_TAIL_AVERAGE))
            for tr in trajs]
    limit = bound_soe_mvi_gap(schedule.L, _sigma(policy, problem, policy.batch or 1),
                              problem.set.bregman_diameter(), k)
    return [_seed_mean(policy, bound, gaps, limit)]


def _check_sboe_gsmvi(policy, schedule, problem, trajs, x1, k):
    x_star = _solution(problem)
    F1 = problem.operator(x1)
    limit = bound_sboe_linear(schedule.Lbar, schedule.b, schedule.mu, bregman(x1, x_star),
                              float(F1 @ (x1 - x_star)), k)
    return [_seed_mean(policy, "expected distance",
                       [bregman(tr.final, x_star) for tr in trajs], limit)]


def _check_sboe_mvi(policy, schedule, problem, trajs, x1, k):
    bound = "expected weighted-average gap"
    if not _weak_gap_available(problem):
        return _gap_skipped(policy, bound)
    gaps = [weak_gap_exact_affine(problem, weighted_average(tr, SBOE_MVI_AVERAGE))
            for tr in trajs]
    limit = bound_sboe_gap(problem, schedule.Lbar, schedule.b, x1, k)
    return [_seed_mean(policy, bound, gaps, limit)]


# The convergence-bound check of each policy; the SA baselines have none.
BOUND_CHECKS = {
    "OE-GSMVI": _check_oe_gsmvi,
    "OE-GMVI": _check_oe_gmvi,
    "OE-MVI": _check_oe_mvi,
    "SOE-1": _check_soe_1,
    "SOE-2": _check_soe_2,
    "SOE-3": _check_soe_3,
    "SOE-4": _check_soe_4,
    "SOE-MVI": _check_soe_mvi,
    "SBOE-GSMVI": _check_sboe_gsmvi,
    "SBOE-MVI": _check_sboe_mvi,
}


def _bound_checks_for(policy: PolicyRun, schedule: Schedule, problem: VIProblem,
                      trajs: list, x1: np.ndarray, k: int) -> list[BoundCheck]:
    check = BOUND_CHECKS.get(policy.name)
    if check is None:
        return [BoundCheck(policy.name, "none", math.nan, math.nan, True,
                           "no bound attached to this policy")]
    return check(policy, schedule, problem, trajs, x1, k)


def check_bounds(config: ExperimentConfig) -> list[BoundCheck]:
    """Run each configured policy and compare against its convergence bound.

    Policies whose schedule fails validation get a FAIL record and no bound
    check (the guarantee's preconditions do not hold).
    """
    problem = ensure_reference(config.problem)
    x1 = analytic_center(problem.set)
    checks: list[BoundCheck] = []
    for policy in config.policies:
        schedule = schedule_for(policy, problem, config.k, x1)
        # bounds hold only under the theorem conditions at the problem's true
        # constants, not at possibly fine-tuned overrides
        true_Lbar = None
        if POLICIES[policy.name].source == "block" and problem.affine is not None:
            true_Lbar = block_lipschitz(problem.affine, problem.block_partition)
        report = validate(schedule, config.k, L=problem.constants.L,
                          mu=problem.constants.mu, Lbar=true_Lbar)
        if not report.passed:
            checks.append(BoundCheck(policy.name, "schedule validation", math.nan,
                                     math.nan, False, report.summary()))
            continue
        seeds = config.seeds[:1] if seed_free(policy.name, problem) else config.seeds
        trajs = [run(problem, schedule, x1, RunConfig(policy.name, config.k, seed, policy.batch),
                     recursive_affine=policy.recursive_affine) for seed in seeds]
        if len(trajs) < len(config.seeds):
            # the seed-free run stands for every seed; each copy carries its
            # own seed for the seed-keyed output draws (SOE-4's R)
            trajs = [replace(trajs[0], seed=seed) for seed in config.seeds]
        checks.extend(_bound_checks_for(policy, schedule, problem, trajs, x1, config.k))
    return checks


def format_bound_checks(checks: list[BoundCheck]) -> str:
    lines = []
    for ch in checks:
        status = "PASS" if ch.passed else "FAIL"
        if math.isnan(ch.measured):
            lines.append(f"[{status}] {ch.policy}: {ch.bound} {ch.detail}".rstrip())
        else:
            lines.append(
                f"[{status}] {ch.policy}: {ch.bound} measured={ch.measured:.6e} "
                f"limit={ch.limit:.6e} {ch.detail}".rstrip()
            )
    return "\n".join(lines)
