"""Iteration engine and output-selection rules.

Every runner is one loop: evaluate the operator once per iteration,
extrapolate against the previous value, and take one prox-mapping.  The
runners differ only in where the next operator value comes from and in
which coordinates a step moves.  The deterministic method (``oe_run``) uses
the exact operator; the stochastic method (``soe_run``) uses mini-batch
oracle estimates, reusing the previous estimate rather than re-sampling it;
the randomized block method (``sboe_run``) moves one block per iteration and,
for affine operators, updates the operator value through the changed block
only.  The stochastic-approximation baseline (``sa_run``) is the stochastic
method with lambda_t = 0.

Oracle randomness is counter-based: iteration t of a run with seed s draws
from a Philox stream keyed by (s, t), so trajectories are reproducible
independently of how mini-batches are evaluated.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .geometry import Ball, Box, FeasibleSet, FullSpace, SimplexProduct
from .problems import VIProblem
from .schedules import (
    OEGmviSchedule,
    OEGsmviSchedule,
    OEMviSchedule,
    SaSchedule,
    SboeGsmviSchedule,
    SboeMviSchedule,
    Schedule,
)

_U64 = 0xFFFFFFFFFFFFFFFF
_PURPOSE_ORACLE = 1
_PURPOSE_BLOCK = 2
_PURPOSE_OUTPUT = 3


def _philox(seed: int, purpose: int, counter: int = 0) -> np.random.Generator:
    key = (int(seed) & _U64) + (purpose << 64)
    return np.random.Generator(np.random.Philox(counter=counter, key=key))


def iteration_rng(seed: int, t: int) -> np.random.Generator:
    """Oracle stream for iteration t of the run with this seed."""
    return _philox(seed, _PURPOSE_ORACLE, counter=t << 192)


def output_rng(seed: int) -> np.random.Generator:
    """Stream for randomized output selection (uniform-index rule)."""
    return _philox(seed, _PURPOSE_OUTPUT)


@dataclass
class RunConfig:
    """Run-level knobs for the harness: policy, budget, batching, seeding."""

    policy: str
    k: int
    seed: int = 0
    batch: int | Callable[[int], int] | None = None

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")


@dataclass
class Trajectory:
    """Iterates and bookkeeping of one solver run.

    ``xs[t]`` is iterate x_t for t = 0..k+1 with the convention x_0 = x_1;
    ``ops[t]`` is the operator value (exact or sampled) the run used at x_t.
    ``movement_sq[t]`` = ||x_{t+1} - x_t||^2 for t >= 1 and 0 at t = 0.
    Schedule echoes are indexed by t with slot 0 unused (nan).
    """

    policy: str
    xs: np.ndarray
    ops: np.ndarray
    movement_sq: np.ndarray
    gammas: np.ndarray
    lams: np.ndarray
    thetas: np.ndarray
    batch_sizes: np.ndarray
    step_time_ns: np.ndarray
    oracle_calls: int = 0
    operator_evals: int = 0
    block_updates: int = 0
    block_index: Optional[np.ndarray] = None
    num_blocks: int = 1
    seed: Optional[int] = None

    @property
    def k(self) -> int:
        return self.xs.shape[0] - 2

    @property
    def dim(self) -> int:
        return self.xs.shape[1]

    @property
    def final(self) -> np.ndarray:
        return self.xs[-1]

    def oracle_calls_through(self, t: int) -> int:
        return int(self.batch_sizes[: t + 1].sum())


def _alloc(policy: str, x1: np.ndarray, k: int, seed=None, blocks: int = 0) -> Trajectory:
    n = x1.shape[0]
    xs = np.empty((k + 2, n))
    xs[0] = x1
    xs[1] = x1
    return Trajectory(
        policy=policy,
        xs=xs,
        ops=np.empty((k + 1, n)),
        movement_sq=np.zeros(k + 1),
        gammas=np.full(k + 1, np.nan),
        lams=np.full(k + 1, np.nan),
        thetas=np.full(k + 1, np.nan),
        batch_sizes=np.zeros(k + 1, dtype=int),
        step_time_ns=np.zeros(k + 1, dtype=np.int64),
        block_index=np.full(k + 1, -1, dtype=int) if blocks else None,
        num_blocks=max(blocks, 1),
        seed=seed,
    )


def _start_point(problem: VIProblem, x1) -> np.ndarray:
    x = np.asarray(x1, dtype=float).copy()
    if not problem.set.contains(x):
        raise ValueError("start point x1 is not feasible")
    return x


def _table_theta(tab, t: int) -> float:
    lt = float(tab.log_theta[t])
    return math.inf if lt > 700.0 else math.exp(lt)


def _resolve_batch(batch, tab, t: int) -> int:
    if batch is None:
        return int(tab.batch[t])
    if callable(batch):
        return int(batch(t))
    return int(batch)


def _block_sets(fs: FeasibleSet, partition: tuple[int, ...]) -> list[FeasibleSet]:
    if isinstance(fs, SimplexProduct):
        if tuple(partition) != fs.block_sizes:
            raise ValueError("block partition must match the simplex-product structure")
        return [SimplexProduct((s,), (d,)) for s, d in zip(fs.block_sizes, fs.demands)]
    if isinstance(fs, FullSpace):
        return [FullSpace(s) for s in partition]
    if isinstance(fs, Box):
        offsets = np.cumsum((0,) + tuple(partition))
        return [
            Box(fs.lower[int(a):int(b)], fs.upper[int(a):int(b)])
            for a, b in zip(offsets[:-1], offsets[1:])
        ]
    if isinstance(fs, Ball):
        if len(partition) != 1:
            raise ValueError("a ball cannot be split into blocks")
        return [fs]
    raise TypeError(f"unsupported set {type(fs).__name__}")


def _iterate(problem: VIProblem, schedule: Schedule, x1, k: int, seed: int | None, *,
             source: str = "operator", batch=None, blocks: bool = False) -> Trajectory:
    """The iteration loop behind every runner.

    Step t extrapolates the current operator value against the previous one,
    g = F_t + lambda_t (F_t - F_{t-1}), and takes one prox-mapping with
    stepsize gamma_t.  With ``blocks`` the step moves only one block, drawn
    up front from the block stream, and copies the other coordinates.

    ``source`` says where the next operator value comes from: ``"operator"``
    evaluates F exactly, ``"oracle"`` draws a mini-batch from the problem's
    oracle on the (seed, t) stream, and ``"affine"`` (block runs of affine
    problems) adds G[:, block] (x_{t+1} - x_t)[block] to the current value.
    A step whose squared movement is not finite stops the run with
    ``ValueError``.
    """
    x = _start_point(problem, x1)
    tab = schedule.table(k)
    fs = problem.set
    if blocks:
        slices = problem.block_slices()
        parts = _block_sets(fs, tuple(problem.block_partition))
        drawn = _philox(seed, _PURPOSE_BLOCK).integers(0, len(slices), size=k)
    traj = _alloc(schedule.name, x, k, seed=seed, blocks=len(slices) if blocks else 0)
    # column-major copy so per-block column slices hit the fast matvec path
    G = np.asfortranarray(problem.affine.G) if source == "affine" else None

    def evaluate(t: int, y: np.ndarray) -> np.ndarray:
        """Operator value at y = x_{t+1}, counted on the trajectory."""
        if source == "oracle":
            m = _resolve_batch(batch, tab, t + 1)
            traj.oracle_calls += m
            traj.batch_sizes[t + 1] = m
            return np.asarray(problem.oracle(y, iteration_rng(seed, t), m), dtype=float)
        traj.operator_evals += 1
        return np.asarray(problem.operator(y), dtype=float)

    gammas, lams = tab.gamma.tolist(), tab.lam.tolist()
    traj.gammas[1:], traj.lams[1:] = tab.gamma[1:], tab.lam[1:]
    traj.thetas[1:] = [_table_theta(tab, t) for t in range(1, k + 1)]
    F_prev = F_cur = evaluate(0, x)
    traj.ops[0] = F_cur
    sl = slice(None)
    for t in range(1, k + 1):
        tic = time.perf_counter_ns()
        gamma, lam = gammas[t], lams[t]
        traj.ops[t] = F_cur
        if blocks:
            i = int(drawn[t - 1])
            sl = slices[i]
            traj.block_index[t] = i
            x_next = x.copy()
            g = F_cur[sl] + lam * (F_cur[sl] - F_prev[sl])
            x_next[sl] = parts[i].project(x[sl] - gamma * g)
        else:
            x_next = fs.project(x - gamma * (F_cur + lam * (F_cur - F_prev)))
        traj.xs[t + 1] = x_next
        d = x_next[sl] - x[sl]
        move = float(d @ d)
        if not math.isfinite(move):
            raise ValueError(f"{schedule.name} run diverged at t = {t}: "
                             f"||x_(t+1) - x_t||^2 = {move}")
        traj.movement_sq[t] = move
        if t < k:
            F_prev = F_cur
            if source == "affine":
                F_cur = F_cur + G[:, sl] @ d
                traj.block_updates += 1
            else:
                F_cur = evaluate(t, x_next)
        x = x_next
        traj.step_time_ns[t] = time.perf_counter_ns() - tic
    return traj


def oe_run(problem: VIProblem, schedule: Schedule, x1, k: int) -> Trajectory:
    """Deterministic operator-extrapolation run: k iterations, one exact
    operator evaluation and one prox-mapping each."""
    return _iterate(problem, schedule, x1, k, None)


def soe_run(
    problem: VIProblem,
    schedule: Schedule,
    x1,
    k: int,
    seed: int,
    batch: int | Callable[[int], int] | None = None,
) -> Trajectory:
    """Stochastic run: operator values come from the problem's mini-batch
    oracle.  The estimate at x_{t-1} is the stored value from step t-1 (the
    extrapolation reuses the same realization, never a fresh sample)."""
    if problem.oracle is None:
        raise ValueError("problem has no stochastic oracle")
    return _iterate(problem, schedule, x1, k, seed, source="oracle", batch=batch)


def sa_run(problem: VIProblem, schedule: Schedule, x1, k: int, seed: int,
           batch: int | Callable[[int], int] | None = None) -> Trajectory:
    """Stochastic-approximation baseline: plain prox steps against the latest
    oracle estimate.  This is the stochastic run with the baseline schedule,
    whose lambda_t = 0 switches extrapolation off."""
    if not isinstance(schedule, SaSchedule):
        raise ValueError(f"sa_run needs an SaSchedule, got {type(schedule).__name__}")
    return soe_run(problem, schedule, x1, k, seed, batch=batch)


def sboe_run(
    problem: VIProblem,
    schedule: Schedule,
    x1,
    k: int,
    seed: int,
    *,
    recursive_affine: bool = True,
) -> Trajectory:
    """Randomized block run: each iteration draws a block uniformly, updates
    it with one block prox-mapping, and copies the rest.

    For affine operators with ``recursive_affine`` (default) the full
    operator vector is maintained through rank updates restricted to the
    changed block, costing O(n * n_i) per iteration instead of a full
    evaluation; otherwise every iteration re-evaluates F.
    """
    source = "affine" if recursive_affine and problem.affine is not None else "operator"
    return _iterate(problem, schedule, x1, k, seed, source=source, blocks=True)


def run(problem: VIProblem, schedule: Schedule, x1, config: RunConfig,
        *, recursive_affine: bool = True) -> Trajectory:
    """Single-run entry point: dispatch on the schedule family.

    Deterministic policies use exact operator values, block policies the
    randomized block run, and everything else (the baseline included) the
    stochastic run with the config's batch rule.
    """
    if isinstance(schedule, (OEGsmviSchedule, OEGmviSchedule, OEMviSchedule)):
        return oe_run(problem, schedule, x1, config.k)
    if isinstance(schedule, (SboeGsmviSchedule, SboeMviSchedule)):
        return sboe_run(problem, schedule, x1, config.k, config.seed,
                        recursive_affine=recursive_affine)
    return soe_run(problem, schedule, x1, config.k, config.seed, batch=config.batch)


# ---------------------------------------------------------------------------
# Output-selection rules
# ---------------------------------------------------------------------------


def select_best_movement(traj: Trajectory) -> tuple[int, np.ndarray]:
    """Index R minimizing ||x_{t+1} - x_t||^2 + ||x_t - x_{t-1}||^2 over
    t = 1..k (ties resolved to the smallest t), and the iterate x_{R+1}."""
    if traj.k < 1:
        raise ValueError("empty trajectory")
    sums = traj.movement_sq[1:] + traj.movement_sq[:-1]
    R = int(np.argmin(sums)) + 1
    return R, traj.xs[R + 1].copy()


def select_uniform_R(traj: Trajectory, rng: np.random.Generator) -> tuple[int, np.ndarray]:
    """R uniform on {2..k}, independent of the iterates; returns x_{R+1}."""
    if traj.k < 2:
        raise ValueError("uniform output selection needs k >= 2")
    R = int(rng.integers(2, traj.k + 1))
    return R, traj.xs[R + 1].copy()


OE_MVI_AVERAGE = "oe-mvi"
SOE_MVI_TAIL_AVERAGE = "soe-mvi-tail"
SBOE_MVI_AVERAGE = "sboe-mvi"


def weighted_average(traj: Trajectory, mode: str, *, b: int | None = None,
                     k: int | None = None) -> np.ndarray:
    """Weighted combinations of the iterates x_2..x_{k+1}.

    ``oe-mvi``: weights gamma_t theta_t.  ``soe-mvi-tail``: weights gamma_t
    restricted to t >= ceil(k/2).  ``sboe-mvi``: weights
    theta_t gamma_t b - theta_{t+1} gamma_{t+1} (b-1), with the final weight
    theta_k gamma_k b.  ``k`` restricts to a prefix of the trajectory.
    """
    k = traj.k if k is None else int(k)
    if not 1 <= k <= traj.k:
        raise ValueError("k out of range")
    gam = traj.gammas[1 : k + 1]
    the = traj.thetas[1 : k + 1]
    if mode == OE_MVI_AVERAGE:
        w = gam * the
    elif mode == SOE_MVI_TAIL_AVERAGE:
        w = np.zeros(k)
        kbar = math.ceil(k / 2)
        w[kbar - 1 :] = gam[kbar - 1 :]
    elif mode == SBOE_MVI_AVERAGE:
        b = traj.num_blocks if b is None else int(b)
        w = np.empty(k)
        w[: k - 1] = the[:-1] * gam[:-1] * b - the[1:] * gam[1:] * (b - 1)
        w[k - 1] = the[-1] * gam[-1] * b
    else:
        raise ValueError(f"unknown averaging mode {mode!r}")
    total = float(w.sum())
    if not total > 0 or np.any(w < 0):
        raise ValueError("averaging weights must be nonnegative with positive sum")
    return (w @ traj.xs[2 : k + 2]) / total
