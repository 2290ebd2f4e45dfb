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
``check_bounds`` groups seeds by the same rule (``_seed_groups``), but runs
serially and lazily: each check reads its policy's (seed, trajectory) stream
in one pass, so at most two trajectories are held (the one read and the one
being made) whatever the seed count, and a skipped check runs nothing.  Only
the residual-certificate checks (OE-GMVI, SOE-4) keep operator values.

x* belongs to the problem: ``ensure_reference`` attaches it in place, once,
before any run starts, so a problem that was run or checked keeps it, and a
later ``reference = false`` run on that object reads it as a known solution.

A policy takes only the overrides it reads: ``ExperimentConfig`` refuses one
besides L that is not in ``POLICIES[name].reads``, and a budget whose largest
array, the (k + 2) x n trajectory or an m x n oracle batch, exceeds physical
memory.

The exact weak gap, a checkpoint row's ``weak_gap_exact`` and the
averaged-gap checks, is taken where ``metrics.has_exact_weak_gap`` holds (an
affine operator, a bounded set, ``AffineSpec.monotone``), the predicate the
metric itself enforces; each gap check's limit carries 2 ``INNER_TOL``.

A canned suite is a list of studies (output subdirectory, problem, policy
names, batch, k).  Every study is built, and so checked, before one loop
makes the output directory and runs each study through ``run_experiment``.

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
import contextlib
import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .geometry import analytic_center, bregman, in_range
from .metrics import (
    INNER_TOL,
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
    has_exact_weak_gap,
    max_bregman_from,
    residual_certificate,
    residual_exact,
    weak_gap_exact_affine,
)
from .problems import (
    VIProblem,
    check_memory,
    glm_generate,
    problem_from_json,
    solve_reference,
    traffic_generate,
)
from .schedules import POLICIES, POLICY_NAMES, Schedule, check_constants, make_schedule, validate
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
# the largest GLM radius a run takes: its metrics square distances up to 2R on the ball
_MAX_RADIUS = 0.5 * math.sqrt(np.finfo(float).max)

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


class ValidationFailed(ConfigError):
    """A schedule failed its side conditions under ``validate = fail`` (exit code 2)."""


@contextlib.contextmanager
def _config_error(prefix: str = ""):
    """Raise a ``ValueError`` of the body as a ``ConfigError`` after ``prefix``."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


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


@dataclass
class ExperimentConfig:
    problem: VIProblem
    policies: list[PolicyRun]
    k: int
    seeds: tuple[int, ...] = (0,)
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
            with _config_error(f"cannot build policy {policy.name}: "):
                if policy.batch is not None:
                    in_range("batch size m", policy.batch, 1, closed=True)
                check_constants(**{key: getattr(policy, key)
                                   for key in ("L", "mu", "sigma", "V1", "noise_ratio")})
            # an override set away from its default that the policy never reads is refused
            for key, (name, _) in POLICY_KEYS.items():
                if getattr(policy, name) != getattr(PolicyRun, name) and key not in (
                        "L", *POLICIES[policy.name].reads):
                    readers = ", ".join(p for p in POLICIES if key in POLICIES[p].reads)
                    raise ConfigError(f"policy {policy.name}: {key} is read only by {readers}")
            if POLICIES[policy.name].source == "block":
                with _config_error(f"policy {policy.name}: "):
                    self.problem.blocks  # split here, once per problem
        _check_budget(self.k, self.seeds)
        _check_memory(self.k, self.problem.dim,
                      [policy.batch for policy in self.policies if policy.batch is not None])
        if self.validate_policies not in ("fail", "warn", "skip"):
            raise ConfigError("validate must be fail, warn or skip, "
                              f"got {self.validate_policies!r}")
        with _config_error():
            for key in ("cadence", "workers"):
                if getattr(self, key) is not None:
                    in_range(key, getattr(self, key), 1, closed=True)
            if self.problem.glm is not None:
                in_range("R", self.problem.glm.R, high=_MAX_RADIUS)

    def resolved_cadence(self) -> int:
        if self.cadence is not None:
            return int(self.cadence)
        return 1 if self.k <= 1000 else math.ceil(self.k / 100)

    def resolved_workers(self) -> int:
        """The configured worker count, else ``OEVI_WORKERS``, else 1."""
        if self.workers is not None:
            return int(self.workers)
        with _config_error(f"{WORKERS_ENV}: "):
            return int(in_range("workers", int(os.environ.get(WORKERS_ENV, "1")), 1, closed=True))


def _check_budget(k: int, seeds) -> None:
    """Raise ``ConfigError`` unless k >= 1 and the seeds are distinct and nonempty."""
    with _config_error():
        in_range("k", k, 1, closed=True)
    if len(set(seeds)) != len(seeds):
        raise ConfigError("seeds must be distinct")
    if not seeds:
        raise ConfigError("config needs at least one seed")


def _check_memory(k: int, n: int, batches) -> None:
    """Raise ``ConfigError`` unless a run's largest array of doubles fits in
    physical memory (``problems.check_memory``): the (k + 2) x n trajectory, or
    an m x n oracle batch of an ``m`` override (SOE-4's own batch of k + 1
    rows is below the trajectory)."""
    rows, name, array = max([(k + 2, f"k = {k}", "trajectory"),
                             *((m, f"m = {m}", "oracle batch") for m in batches)])
    with _config_error():
        check_memory(rows * n * 8, f"{name} at n = {n}", array)


def checkpoints(k: int, cadence: int) -> list[int]:
    ts = list(range(0, k + 1, cadence))
    if ts[-1] != k:
        ts.append(k)
    return ts


# ---------------------------------------------------------------------------
# Config-file loading (INI format: [problem], [run], [policy:NAME] sections)
# ---------------------------------------------------------------------------


# the keys of [problem] besides ``kind``, per kind; ``build_problem`` holds their defaults
PROBLEM_KEYS = {"traffic": ("n", "blocks", "d_minus", "seed"),
                "glm-hinge": ("n", "R", "sigma_y", "seed", "d_minus"),
                "glm-ramp": ("n", "R", "sigma_y", "seed"), "json": ("path",)}
# key -> (dataclass field, configparser getter) for [run] (``ExperimentConfig``)
# and [policy:NAME] (``PolicyRun``); a key the file leaves out keeps its default
RUN_KEYS = {"k": ("k", "getint"), "seeds": ("seeds", "getints"),
            "cadence": ("cadence", "getint"), "output": ("output", "getpath"),
            "timing": ("timing", "getboolean"), "weak_gap": ("weak_gap", "getboolean"),
            "workers": ("workers", "getint"), "validate": ("validate_policies", "get"),
            "reference": ("compute_reference", "getboolean")}
POLICY_KEYS = {"L": ("L", "getfloat"), "mu": ("mu", "getfloat"), "sigma": ("sigma", "getfloat"),
               "V1": ("V1", "getfloat"), "m": ("batch", "getint"),
               "noise_ratio": ("noise_ratio", "getfloat")}


def parse_int_list(text: str) -> tuple[int, ...]:
    """Integers separated by commas or whitespace, e.g. '1, 2, 3'."""
    return tuple(int(v) for v in text.replace(",", " ").split())


def _check_keys(section: str, keys, known) -> None:
    """``ConfigError`` for a key not in ``known``, in any case (configparser lower-cases keys)."""
    unknown = [key for key in keys if key.lower() not in {k.lower() for k in known}]
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in [{section}]; "
                          f"known keys: {', '.join(known)}")


def build_problem(kind: str, params: dict) -> VIProblem:
    """The problem of ``kind`` from some of its ``PROBLEM_KEYS``, as text or numbers."""
    kind = kind.strip().lower()
    if kind not in PROBLEM_KEYS:
        raise ConfigError(f"unknown problem kind {kind!r}; known: {', '.join(PROBLEM_KEYS)}")
    _check_keys("problem", params, PROBLEM_KEYS[kind])
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
    path = params.get("path")
    if not path:
        raise ConfigError("problem kind json needs a path")
    return problem_from_json(Path(path).read_text())


def load_config(path) -> ExperimentConfig:
    """Parse the documented key = value config format."""
    try:
        return _parse_config(path)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc


def _fields(section, table: dict) -> dict:
    """The dataclass fields that ``section`` sets, each read by its getter in ``table``."""
    _check_keys(section.name, section, table)
    try:
        return {name: getattr(section, getter)(key)
                for key, (name, getter) in table.items() if key in section}
    except ValueError as exc:
        raise ConfigError(f"bad [{section.name}] value: {exc}") from exc


def _parse_config(path) -> ExperimentConfig:
    # with no default section, [DEFAULT] is an unknown section like any other;
    # the converters add the getters getints and getpath
    parser = configparser.ConfigParser(
        inline_comment_prefixes=(";",), default_section="",
        converters={"ints": parse_int_list, "path": lambda text: Path(text) if text else None})
    if not parser.read(path):
        raise ConfigError(f"cannot read config file {path}")
    for section in parser.sections():
        if section not in ("problem", "run") and not section.startswith("policy:"):
            raise ConfigError(f"unknown section [{section}]; "
                              "known: [problem], [run], [policy:NAME]")
    if "problem" not in parser or "run" not in parser:
        raise ConfigError("config needs [problem] and [run] sections")
    run = _fields(parser["run"], RUN_KEYS)
    if "k" not in run:
        raise ConfigError("[run] needs k")
    policies = [PolicyRun(name.split(":", 1)[1].strip(), **_fields(parser[name], POLICY_KEYS))
                for name in parser.sections() if name.startswith("policy:")]
    params = dict(parser["problem"])
    return ExperimentConfig(problem=build_problem(params.pop("kind", ""), params),
                            policies=policies, **run)


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
    # a block policy steps at the problem's L-bar unless L is overridden (then L-bar = L)
    Lbar = problem.Lbar if POLICIES[policy.name].source == "block" and policy.L is None else None
    sigma = _sigma(policy, problem, policy.batch or 1)
    with _config_error(f"cannot build policy {policy.name}: "):
        # SOE-2 is the one schedule that needs sigma > 0; SOE-3 substitutes 1
        if policy.name == "SOE-2" and sigma == 0 and policy.sigma is None:
            raise ValueError("the problem's own noise level sigma is 0, and SOE-2 needs "
                             "sigma > 0: set sigma under [policy:SOE-2]")
        return make_schedule(policy.name, L=L, mu=mu, sigma=sigma, V1=V1, k=k, b=b, Lbar=Lbar,
                             noise_ratio=policy.noise_ratio)


def trajectory_rows(
    traj, problem: VIProblem, ts: list[int], *,
    weak_gap: bool = False, timing: bool = False,
) -> list[dict]:
    """Metric records at the checkpoint grid (row t = state after t iterations).

    F is evaluated once per checkpoint; the exact residual, the residual
    certificate and the gap surrogate all read that value.  ``weak_gap``
    fills ``weak_gap_exact`` where ``has_exact_weak_gap`` holds.
    """
    x_star = problem.known_solution
    weak_ok = weak_gap and has_exact_weak_gap(problem)
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
    # rows equal for every seed (a seed-free run stands for each) aggregate
    # as that one run: mean = its value and se = 0, exactly
    first = per_seed_rows[0]
    runs = [first] if all(rows == first for rows in per_seed_rows) else per_seed_rows
    n = len(runs)
    mean: dict[str, list] = {m: [] for m in METRIC_COLUMNS}
    se: dict[str, list] = {m: [] for m in METRIC_COLUMNS}
    for i in range(len(ts)):
        for m in METRIC_COLUMNS:
            vals = [rows[i][m] for rows in runs]
            if any(v is None for v in vals):
                mean[m].append(None)
                se[m].append(None)
            else:
                arr = np.asarray(vals, dtype=float)
                mean[m].append(float(arr.mean()))
                se[m].append(
                    float(arr.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
                )
    calls = [int(row["oracle_calls"]) for row in first]
    return AggregateResult(policy, ts, len(per_seed_rows), mean, se, calls, mean_step_time_ns)


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
    """Attach x* to ``problem`` itself, once, when none is known and mu > 0."""
    if problem.known_solution is None and problem.constants.mu > 0:
        problem.known_solution = solve_reference(problem, tol)
    return problem


def _seed_groups(policy: str, problem: VIProblem, seeds) -> list[tuple[int, ...]]:
    """The seeds each run of ``policy`` stands for, one group per run, in
    seed order: a seed-free policy runs once, on the first seed, for every
    seed; any other policy runs once per seed."""
    if seed_free(policy, problem):
        return [tuple(seeds)]
    return [(seed,) for seed in seeds]


def run_experiment(config: ExperimentConfig) -> dict[str, AggregateResult]:
    """Execute every (policy, seed) pair, a seed-free policy once on the first
    seed; write one trajectory CSV per pair and one aggregate CSV per policy
    under config.output (if set)."""
    workers = config.resolved_workers()
    problem = ensure_reference(config.problem) if config.compute_reference else config.problem
    x1 = analytic_center(problem.set)
    ts = checkpoints(config.k, config.resolved_cadence())

    jobs = []  # (policy, schedule, seeds the run's rows are written under)
    for policy in config.policies:
        schedule = schedule_for(policy, problem, config.k, x1)
        report = validate(schedule, config.k)
        if not report.passed and config.validate_policies != "skip":
            if config.validate_policies == "fail":
                raise ValidationFailed(f"schedule validation failed:\n{report.summary()}")
            _log.warning("schedule validation failed, running anyway:\n%s",
                         report.summary())
        jobs.extend((policy, schedule, group)
                    for group in _seed_groups(policy.name, problem, config.seeds))

    def _one(job):
        # keep only the rows: holding trajectories would add one run's
        # (k+2) x n arrays to the peak memory for every finished job
        policy, schedule, seeds = job
        # the run keeps only the operator values trajectory_rows reads on ts
        _, traj = next(_runs(policy, schedule, problem, x1, config.k, seeds, ts))
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


def _run_studies(output: Path, seeds, studies) -> list[dict[str, AggregateResult]]:
    """Run a suite's studies in order and return each one's aggregates.

    A study is (output subdirectory, problem, policy names, batch, k).  Every
    study's config is built, and so checked, before the output directory is
    made or any run starts; a suite with no study, or two studies sharing a
    subdirectory (a repeated grid value, or two that print alike), raises
    ``ConfigError``.
    """
    configs = [ExperimentConfig(problem=problem, k=k, seeds=tuple(seeds), output=output / sub,
                                policies=[PolicyRun(name, batch=batch) for name in names])
               for sub, problem, names, batch, k in studies]
    if not configs:
        raise ConfigError("the suite has no study")
    subs = [sub for sub, *_ in studies]
    for sub in subs:
        if subs.count(sub) > 1:
            raise ConfigError(f"two studies share the output subdirectory {sub!r}: "
                              "a grid value is repeated or prints like another")
    output.mkdir(parents=True, exist_ok=True)
    return [run_experiment(config) for config in configs]


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
    list, a repeated size, ``blocks < 1``, a size that is not a positive
    multiple of ``blocks``, ``k < 1`` or seeds that are repeated or empty
    raise ``ConfigError`` before any instance is generated; a bad ``d_minus``
    raises ``ValueError`` before any output is written.
    """
    with _config_error():
        in_range("blocks", blocks, 1, closed=True)
        in_range("sizes", sizes, blocks, closed=True)  # positive multiples of blocks
    if not sizes or len(set(sizes)) < len(sizes) or any(n % blocks for n in sizes):
        raise ConfigError(f"traffic sizes must be a nonempty list of positive multiples "
                          f"of the block count {blocks} without repeats, got {tuple(sizes)}")
    _check_budget(1 if k is None else k, tuple(seeds))
    output = Path(output)
    problems = [traffic_generate(n, blocks, d_minus, seed=10_000 + n) for n in sizes]
    # iteration count at which the linear-rate bound certifies a 1e-6
    # relative error: (L/mu) (L/(L+mu))^(k-1) <= 1e-6
    k_stars = [math.ceil(math.log(1e6 * (c.L / c.mu)) / math.log1p(c.mu / c.L)) + 1
               for c in (problem.constants for problem in problems)]
    ks = k_stars if k is None else [k] * len(sizes)
    results = _run_studies(output, seeds, [
        (f"n{n}", problem, ("OE-GSMVI", "SBOE-GSMVI"), None, k_n)
        for n, problem, k_n in zip(sizes, problems, ks)])
    report = SuiteReport("traffic")
    for n, problem, k_star, k_n, aggs in zip(sizes, problems, k_stars, ks, results):
        if n != max(sizes):
            continue
        c = problem.constants
        cond = c.L / c.mu
        report.record(f"n={n}: mu > 0", c.mu > 0, f"mu={c.mu:.4g}")
        if n >= 1000:
            # ill-conditioning shows up at benchmark scale with the
            # default perturbation level
            report.record(f"n={n}: L/mu > 100", cond > 100, f"L/mu={cond:.4g}")
        if k_n >= k_star:
            v = aggs["OE-GSMVI"].mean["V_to_solution"]
            report.record(f"n={n}: OE error below 1e-6 x initial at k={k_n}",
                          v[-1] <= 1e-6 * v[0], f"ratio={v[-1] / v[0]:.3e}")
    timing_rows = [(n, aggs["OE-GSMVI"].mean_step_time_ns, aggs["SBOE-GSMVI"].mean_step_time_ns)
                   for n, aggs in zip(sizes, results)]
    _write_lines(output / "timing.csv", ["n,oe_ns_per_iter,sboe_ns_per_iter"] + [
        f"{n},{_fmt(oe_ns)},{_fmt(sboe_ns)}" for n, oe_ns, sboe_ns in timing_rows])
    n_big, oe_ns, sboe_ns = timing_rows[-1]
    if n_big >= TIMING_MIN_SIZE:
        report.record(f"n={n_big}: block iteration cheaper than full iteration",
                      sboe_ns < oe_ns, f"sboe={sboe_ns:.0f}ns oe={oe_ns:.0f}ns")
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
    raise ``ConfigError`` before any instance is generated; ``restart_k < 1``,
    an empty grid or a bad grid value raise before any output is written.
    """
    if link not in ("hinge", "ramp"):
        raise ConfigError(f"unknown link {link!r}")
    with _config_error():
        in_range("n", n, 1, closed=True)
    _check_budget(k, tuple(seeds))
    output = Path(output)
    report = SuiteReport(f"glm-{link}")
    if link == "ramp":
        studies = [(f"ramp_R{R:g}", glm_generate(n, "ramp", R=R, sigma_y=0.1,
                                                 seed=22_000 + int(R)),
                    ("SA", "SOE-1", "SOE-2", "SOE-3", "SOE-4"), 1000, k) for R in radius_grid]
        _run_studies(output, seeds, studies)
        mus = [problem.constants.mu for _, problem, *_ in studies]
        report.record("mu positive and decreasing in R",
                      all(m > 0 for m in mus) and all(a > b for a, b in zip(mus, mus[1:])),
                      f"mus={['%.3e' % m for m in mus]}")
        return report
    # the conditioning study, then the restart study: smaller noise, bigger
    # batches, shorter horizon
    studies = [(f"hinge_dminus{d:g}",
                glm_generate(n, "hinge", R=100.0, sigma_y=1.0,
                             seed=20_000 + int(-math.log10(d)), d_minus=d),
                ("SA", "SA-RM", "SOE-1", "SOE-2", "SOE-3", "SOE-4"), 100, k)
               for d in d_minus_grid]
    studies += [(f"hinge_restart_dminus{d:g}",
                 glm_generate(n, "hinge", R=100.0, sigma_y=0.1,
                              seed=21_000 + int(-math.log10(d)), d_minus=d),
                 ("SA", "SOE-1", "SOE-3"), 1000, restart_k)
                for d in d_minus_grid]
    results = _run_studies(output, seeds, studies)
    d_hard = min(d_minus_grid)
    hard = results[list(d_minus_grid).index(d_hard)]
    soe1 = hard["SOE-1"].mean["V_to_solution"][-1]
    sa = hard["SA-RM"].mean["V_to_solution"][-1]
    report.record(f"d_minus={d_hard:g}: SOE-1 final error below classic SA",
                  soe1 < sa, f"soe1={soe1:.3e} sa-rm={sa:.3e}")
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
    errors (none for a single seed) and the 1e-9 of the deterministic checks,
    which a run that starts at x* needs; ``detail`` defaults to the seed count."""
    vals = np.asarray(vals, dtype=float)
    se = vals.std(ddof=1) / math.sqrt(len(vals)) if len(vals) > 1 else 0.0
    lim = limit + 3 * se + 1e-9
    mean = float(vals.mean())
    return BoundCheck(policy.name, bound, mean, lim, mean <= lim,
                      f"{len(vals)} seeds" if detail is None else detail)


# Each check below takes (policy, schedule, problem, runs, x1, k) and reads
# ``runs``, the policy's (seed, trajectory) stream, in one pass: a
# deterministic check reads the first pair, a skipped check reads nothing.


def _check_oe_gsmvi(policy, schedule, problem, runs, x1, k):
    # measured is the largest ratio of V(x_{t+1}, x*) to its bound over t
    x_star = _solution(problem)
    V1 = bregman(x1, x_star)
    _, traj = next(runs)
    worst, ok = 0.0, True
    for t in range(1, k + 1):
        lhs = bregman(traj.xs[t + 1], x_star)
        rhs = bound_gsmvi_linear(schedule.L, schedule.mu, V1, t) + 1e-9
        worst = max(worst, lhs / rhs)
        ok = ok and lhs <= rhs
    return [BoundCheck(policy.name, "linear-rate distance", worst, 1.0, ok,
                       "pointwise over all k")]


def _check_oe_gmvi(policy, schedule, problem, runs, x1, k):
    V1 = bregman(x1, _solution(problem))
    _, traj = next(runs)
    total = float(traj.movement_sq[1:].sum())
    total_lim = bound_gmvi_movement(V1) + 1e-9
    R, _ = select_best_movement(traj)
    cert = residual_certificate(traj, R, problem.operator(traj.xs[R + 1]))
    cert_lim = bound_gmvi_residual(schedule.L, problem.constants.L_omega, V1, k) + 1e-9
    return [BoundCheck(policy.name, "movement sum", total, total_lim, total <= total_lim),
            BoundCheck(policy.name, "residual certificate", cert, cert_lim, cert <= cert_lim)]


def _check_last_distance(policy, schedule, problem, runs, x1, k):
    # SOE-1, SOE-2 and SBOE-GSMVI bound the expected distance of the last iterate
    x_star = _solution(problem)
    V1 = bregman(x1, x_star)
    sigma = _sigma(policy, problem, policy.batch or 1)
    if policy.name == "SOE-1":
        limit = bound_soe_decreasing(schedule.L, schedule.mu, sigma, V1, k)
    elif policy.name == "SOE-2":
        limit = bound_soe_constant(schedule.L, schedule.mu, sigma, V1, k, schedule.q)
    else:  # SBOE-GSMVI
        F1 = problem.operator(x1)
        limit = bound_sboe_linear(schedule.Lbar, schedule.b, schedule.mu, V1,
                                  float(F1 @ (x1 - x_star)), k)
    return [_seed_mean(policy, "expected distance",
                       [bregman(traj.final, x_star) for _, traj in runs], limit)]


def _check_soe_3(policy, schedule, problem, runs, x1, k):
    ends = [K for K in schedule.epoch_ends(8) if K <= k]
    if not ends:
        return [BoundCheck(policy.name, "epoch halving", math.nan, math.nan, True,
                           f"skipped: k = {k} ends before the first epoch end "
                           f"K_1 = {schedule.epoch_length(1)}")]
    x_star = _solution(problem)
    # halve from V(x1, x*); at x1 = x* from the V1 the epochs were sized for,
    # sigma^2 / (mu^2 noise_ratio)
    V1 = bregman(x1, x_star) or schedule.sigma**2 / (schedule.mu**2 * schedule.noise_ratio)
    # one row per run: its distance at each epoch end
    dists = [[bregman(traj.xs[K + 1], x_star) for K in ends] for _, traj in runs]
    return [_seed_mean(policy, f"epoch {s} halving", vals, bound_soe_restart(V1, s),
                       detail="")
            for s, vals in enumerate(zip(*dists), start=1)]


def _check_soe_4(policy, schedule, problem, runs, x1, k):
    if k < 2:  # R is uniform on {2, ..., k}
        return [BoundCheck(policy.name, "expected squared residual", math.nan, math.nan, True,
                           f"skipped: k = {k} leaves no output index R >= 2")]
    V1 = bregman(x1, _solution(problem))
    vals = []
    for seed, traj in runs:
        # R is drawn from the seed the run stands for, not the seed it ran on
        R, _ = select_uniform_R(traj, output_rng(seed))
        vals.append(residual_certificate(traj, R, problem.operator(traj.xs[R + 1])) ** 2)
    limit = bound_soe_gmvi_residual_sq(schedule.L, problem.constants.L_omega,
                                       _sigma(policy, problem), V1, k)
    return [_seed_mean(policy, "expected squared residual", vals, limit)]


# the bound label and averaging rule of each averaged-gap guarantee
_GAP_BOUNDS = {
    "OE-MVI": ("averaged-iterate gap", OE_MVI_AVERAGE),
    "SOE-MVI": ("expected tail-average gap", SOE_MVI_TAIL_AVERAGE),
    "SBOE-MVI": ("expected weighted-average gap", SBOE_MVI_AVERAGE),
}


def _check_averaged_gap(policy, schedule, problem, runs, x1, k):
    bound, mode = _GAP_BOUNDS[policy.name]
    if not has_exact_weak_gap(problem):
        return [BoundCheck(policy.name, bound, math.nan, math.nan, True,
                           "skipped: exact gap needs bounded affine")]
    # each gap is solved to INNER_TOL, so each limit carries 2 INNER_TOL
    if policy.name == "OE-MVI":  # deterministic: a bound on its one run
        _, traj = next(runs)
        gap = weak_gap_exact_affine(problem, weighted_average(traj, mode))
        lim = bound_mvi_gap(schedule.L, k, max_bregman_from(problem.set, x1)) + 2 * INNER_TOL
        return [BoundCheck(policy.name, bound, gap, lim, gap <= lim)]
    if policy.name == "SOE-MVI":
        limit = bound_soe_mvi_gap(schedule.L, _sigma(policy, problem, policy.batch or 1),
                                  problem.set.bregman_diameter(), k)
    else:
        limit = bound_sboe_gap(problem, schedule.Lbar, schedule.b, x1, k)
    gaps = [weak_gap_exact_affine(problem, weighted_average(traj, mode)) for _, traj in runs]
    return [_seed_mean(policy, bound, gaps, limit + 2 * INNER_TOL)]


# The convergence-bound check of each policy; the SA baselines have none.
BOUND_CHECKS = {
    "OE-GSMVI": _check_oe_gsmvi,
    "OE-GMVI": _check_oe_gmvi,
    "OE-MVI": _check_averaged_gap,
    "SOE-1": _check_last_distance,
    "SOE-2": _check_last_distance,
    "SOE-3": _check_soe_3,
    "SOE-4": _check_soe_4,
    "SOE-MVI": _check_averaged_gap,
    "SBOE-GSMVI": _check_last_distance,
    "SBOE-MVI": _check_averaged_gap,
}


def _runs(policy: PolicyRun, schedule: Schedule, problem: VIProblem, x1, k: int, seeds,
          checkpoints):
    """(seed, trajectory) for each seed in order, each run made when the stream
    reaches it; a seed-free run is made once and paired with every seed.  The
    runs keep the operator values ``RunConfig`` keeps for ``checkpoints``."""
    for group in _seed_groups(policy.name, problem, seeds):
        traj = run(problem, schedule, x1,
                   RunConfig(policy.name, k, group[0], policy.batch, checkpoints=checkpoints))
        for seed in group:
            yield seed, traj


def check_bounds(config: ExperimentConfig) -> list[BoundCheck]:
    """Run each configured policy and compare against its convergence bound.

    Policies whose schedule fails validation get a FAIL record and no bound
    check (the guarantee's preconditions do not hold), and a policy without a
    guarantee a record saying so; neither runs.
    """
    problem = ensure_reference(config.problem)
    x1 = analytic_center(problem.set)
    checks: list[BoundCheck] = []
    for policy in config.policies:
        schedule = schedule_for(policy, problem, config.k, x1)
        # bounds hold only at the problem's true constants, not at fine-tuned overrides
        report = validate(schedule, config.k, L=problem.constants.L, mu=problem.constants.mu,
                          Lbar=problem.Lbar if POLICIES[policy.name].source == "block" else None)
        if not report.passed:
            checks.append(BoundCheck(policy.name, "schedule validation", math.nan,
                                     math.nan, False, report.summary()))
            continue
        check = BOUND_CHECKS.get(policy.name)
        if check is None:
            checks.append(BoundCheck(policy.name, "none", math.nan, math.nan, True,
                                     "no bound attached to this policy"))
            continue
        # only the residual-certificate checks read operator values, at an R
        # known after the run; the other runs keep none
        keep = None if check in (_check_oe_gmvi, _check_soe_4) else []
        runs = _runs(policy, schedule, problem, x1, config.k, config.seeds, keep)
        try:
            records = check(policy, schedule, problem, runs, x1, config.k)
        except OverflowError as exc:
            raise ConfigError(f"policy {policy.name}: its bound overflows a float") from exc
        for rec in records:
            if not (math.isnan(rec.measured) or math.isfinite(rec.limit)):
                raise ConfigError(f"policy {policy.name}: the {rec.bound} limit is "
                                  f"{rec.limit}, not a finite number")
        checks.extend(records)
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
