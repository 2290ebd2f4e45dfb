"""Iteration engine and output-selection rules.

Every runner is one loop: evaluate the operator once per iteration,
extrapolate against the previous value, and take one prox-mapping.  The
runners differ only in where the next operator value comes from and in
which coordinates a step moves.  The deterministic method (``oe_run``) uses
the exact operator; the stochastic method (``soe_run``) uses mini-batch
oracle estimates, reusing the previous estimate rather than re-sampling it;
the randomized block method (``sboe_run``) moves one block per iteration and,
for affine operators, updates the operator value through the changed block
only.  A full step is the one-block step over all coordinates.  The
stochastic-approximation baseline (``sa_run``) is the stochastic method with
lambda_t = 0.

``run`` is the single entry point; the policy's operator source decides how
the run goes.  An oracle policy on a problem without an oracle runs as the
zero-noise case, on the exact operator; ``seed_free`` names the runs that
cannot depend on the seed.

Oracle randomness is counter-based: iteration t of a run with seed s draws
from a Philox stream keyed by (s, t), so trajectories are reproducible
independently of how mini-batches are evaluated.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .geometry import in_range
from .problems import VIProblem
from .schedules import POLICIES, SaSchedule, Schedule

_U64 = 0xFFFFFFFFFFFFFFFF
_PURPOSE_ORACLE = 1
_PURPOSE_BLOCK = 2
_PURPOSE_OUTPUT = 3
_RESYNC = 10_000  # block steps between full evaluations of a recursively updated F


def _philox(seed: int, purpose: int, counter: int = 0) -> np.random.Generator:
    key = (int(seed) & _U64) + (purpose << 64)
    return np.random.Generator(np.random.Philox(counter=counter, key=key))


def iteration_rng(seed: int, t: int) -> np.random.Generator:
    """Oracle stream for iteration t of the run with this seed."""
    return _philox(seed, _PURPOSE_ORACLE, counter=t << 192)


def _iteration_streams(seed: int) -> Callable[[int], np.random.Generator]:
    """``iteration_rng(seed, t)`` for any t from one generator.

    ``at(t)`` sets the counter to t << 192 with an empty output buffer, the
    state a fresh ``iteration_rng(seed, t)`` starts in, and returns the same
    generator, so the draws match while the generator is built once.  Each
    run makes its own: the generator is never shared between runs.
    """
    gen = iteration_rng(seed, 0)
    bitgen = gen.bit_generator
    state = bitgen.state
    counter = state["state"]["counter"]

    def at(t: int) -> np.random.Generator:
        counter[3] = t
        bitgen.state = state
        return gen

    return at


def output_rng(seed: int) -> np.random.Generator:
    """Stream for randomized output selection (uniform-index rule)."""
    return _philox(seed, _PURPOSE_OUTPUT)


@dataclass
class RunConfig:
    """Run-level knobs for the harness: policy, budget, batching, seeding.

    ``checkpoints`` is the grid of rows the caller will evaluate; the run then
    keeps the operator values only at {t - 1, t : t in the grid, t >= 1}, the
    ones the residual certificate reads.  ``None`` keeps every value.
    """

    policy: str
    k: int
    seed: int = 0
    batch: int | None = None
    checkpoints: Sequence[int] | None = None

    def __post_init__(self):
        in_range("k", self.k, 1, closed=True)
        if self.checkpoints is not None:
            in_range("checkpoints", self.checkpoints, 0, closed=True, high=self.k)


@dataclass
class Trajectory:
    """Iterates and bookkeeping of one solver run.

    ``xs[t]`` is iterate x_t for t = 0..k+1 with the convention x_0 = x_1;
    ``ops[t]`` is the operator value (exact or sampled) the run used at x_t,
    for every t in 0..k, or, for a run given checkpoints, only for
    t in {c - 1, c : c a checkpoint >= 1}.
    ``movement_sq[t]`` = ||x_{t+1} - x_t||^2 for t >= 1 and 0 at t = 0.
    Schedule echoes are indexed by t with slot 0 unused (nan).
    """

    policy: str
    xs: np.ndarray
    ops: dict[int, np.ndarray]
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
    def final(self) -> np.ndarray:
        return self.xs[-1]

    def oracle_calls_through(self, t: int) -> int:
        return int(self.batch_sizes[: t + 1].sum())


def _iterate(problem: VIProblem, schedule: Schedule, x1, k: int, seed: int | None,
             source: str, *, batch: int | None = None, recursive_affine: bool = True,
             checkpoints: Sequence[int] | None = None) -> Trajectory:
    """The iteration loop behind every runner.

    Step t extrapolates the current operator value against the previous one,
    g = F_t + lambda_t (F_t - F_{t-1}), and takes one prox-mapping with
    stepsize gamma_t on one block of coordinates, writing x_{t+1} into
    ``xs[t + 1]``; the coordinates outside the block carry over.  The block is
    the whole vector, with the problem's set, unless ``source`` is ``"block"``:
    then it is one block of the partition, drawn up front from the block
    stream.

    ``source`` is the policy's operator source (``schedules.Policy``) and says
    where the next operator value comes from.  ``"exact"`` evaluates F.
    ``"oracle"`` draws a mini-batch from the problem's oracle on the (seed, t)
    stream, with the batch sizes of the schedule table or the integer
    ``batch``; a problem without an oracle is the zero-noise case, whose
    estimate is F itself.  ``"block"`` evaluates F, or for an affine problem
    with ``recursive_affine`` adds G[:, block] (x_{t+1} - x_t)[block] to the
    current value, save at each t divisible by 10^4 (``_RESYNC``), where it
    evaluates F to bound the running sum's drift.  A batch below 1, or a step
    whose squared movement is not finite, raises ``ValueError``.  The operator
    values kept in ``ops`` are the arrays the steps used, at every t or, given
    ``checkpoints``, at the indices the residual certificate reads there (see
    ``RunConfig``).
    """
    if batch is not None:
        in_range("batch size", batch, 1, closed=True)
    x = np.asarray(x1, dtype=float)
    if not problem.set.contains(x):
        raise ValueError("start point x1 is not feasible")
    n = x.shape[0]
    tab = schedule.table(k)
    blocks = source == "block"
    if blocks:
        parts = problem.blocks
        drawn = _philox(seed, _PURPOSE_BLOCK).integers(0, len(parts), size=k)
    else:
        parts, drawn = [(slice(0, n), problem.set)], np.zeros(k, dtype=int)
    batch_sizes = np.zeros(k + 1, dtype=int)
    if source == "oracle":
        batch_sizes[1:] = tab.batch[1:] if batch is None else batch
    traj = Trajectory(
        policy=schedule.name, xs=np.empty((k + 2, n)), ops={}, movement_sq=np.zeros(k + 1),
        gammas=np.r_[np.nan, tab.gamma[1:]], lams=np.r_[np.nan, tab.lam[1:]],
        thetas=np.array([np.nan] + [tab.theta(t) for t in range(1, k + 1)]),
        batch_sizes=batch_sizes, step_time_ns=np.zeros(k + 1, dtype=np.int64),
        oracle_calls=int(batch_sizes.sum()), block_index=np.r_[-1, drawn] if blocks else None,
        num_blocks=len(parts), seed=None if source == "exact" else seed,
    )
    xs, ops, order = traj.xs, traj.ops, drawn.tolist()
    xs[:2] = x
    # AffineSpec stores G column-major, so each block's column slab is read in
    # place: a block run holds no second copy of G
    G = problem.affine.G if blocks and recursive_affine and problem.affine is not None else None
    sample = problem.oracle if source == "oracle" else None
    stream = _iteration_streams(seed) if sample is not None else None
    sizes = batch_sizes.tolist()

    def evaluate(t: int, y: np.ndarray) -> np.ndarray:
        """The oracle's mini-batch estimate at y = x_{t+1}, else F(y), counted."""
        if sample is not None:
            return np.asarray(sample(y, stream(t), sizes[t + 1]), dtype=float)
        traj.operator_evals += 1
        return np.asarray(problem.operator(y), dtype=float)

    gammas, lams = tab.gamma.tolist(), tab.lam.tolist()
    if checkpoints is None:
        keep = range(k + 1)
    else:
        keep = {s for t in checkpoints if t >= 1 for s in (t - 1, t)}
    F_prev = F_cur = evaluate(0, xs[1])
    if 0 in keep:
        ops[0] = F_cur
    for t in range(1, k + 1):
        tic = time.perf_counter_ns()
        gamma, lam = gammas[t], lams[t]
        if t in keep:
            ops[t] = F_cur
        sl, part = parts[order[t - 1]]
        x, x_next = xs[t], xs[t + 1]
        if blocks:  # the coordinates outside the block carry over
            x_next[:] = x
        F_sl, x_sl = F_cur[sl], x[sl]
        y = part.project(x_sl - gamma * (F_sl + lam * (F_sl - F_prev[sl])))
        x_next[sl] = y
        d = y - x_sl
        move = float(d @ d)
        if not math.isfinite(move):
            raise ValueError(f"{schedule.name} run diverged at t = {t}: "
                             f"||x_(t+1) - x_t||^2 = {move}")
        traj.movement_sq[t] = move
        if t < k:
            F_prev = F_cur
            if G is not None and t % _RESYNC:
                F_cur = F_cur + G[:, sl] @ d
                traj.block_updates += 1
            else:
                F_cur = evaluate(t, x_next)
        traj.step_time_ns[t] = time.perf_counter_ns() - tic
    return traj


def oe_run(problem: VIProblem, schedule: Schedule, x1, k: int) -> Trajectory:
    """Deterministic operator-extrapolation run: k iterations, one exact
    operator evaluation and one prox-mapping each."""
    return _iterate(problem, schedule, x1, k, None, "exact")


def soe_run(
    problem: VIProblem,
    schedule: Schedule,
    x1,
    k: int,
    seed: int,
    batch: int | None = None,
) -> Trajectory:
    """Stochastic run: operator values come from the problem's mini-batch
    oracle, or, for a problem without one, are the zero-noise estimate F.  The
    estimate at x_{t-1} is the stored value from step t-1 (the extrapolation
    reuses the same realization, never a fresh sample)."""
    return _iterate(problem, schedule, x1, k, seed, "oracle", batch=batch)


def sa_run(problem: VIProblem, schedule: Schedule, x1, k: int, seed: int,
           batch: int | None = None) -> Trajectory:
    """Stochastic-approximation baseline: plain prox steps against the latest
    oracle estimate.  This is the stochastic run with the baseline schedule,
    whose lambda_t = 0 switches extrapolation off."""
    if not isinstance(schedule, SaSchedule):
        raise ValueError(f"sa_run needs an SaSchedule, got {type(schedule).__name__}")
    return soe_run(problem, schedule, x1, k, seed, batch=batch)


def sboe_run(problem: VIProblem, schedule: Schedule, x1, k: int, seed: int, *,
             recursive_affine: bool = True) -> Trajectory:
    """Randomized block run: each iteration draws a block uniformly, updates
    it with one block prox-mapping, and carries the rest over.

    For affine operators with ``recursive_affine`` (default) the full
    operator vector is maintained through rank updates restricted to the
    changed block, costing O(n * n_i) per iteration instead of a full
    evaluation, and evaluated in full every 10^4 iterations to bound its drift;
    otherwise every iteration re-evaluates F.  The update reads the block's
    columns of the stored, column-major G in place, so the run holds no copy
    of G: its memory is the trajectory plus a few n-vectors.
    """
    return _iterate(problem, schedule, x1, k, seed, "block",
                    recursive_affine=recursive_affine)


def seed_free(policy: str, problem: VIProblem) -> bool:
    """Whether a ``run`` of ``policy`` on ``problem`` cannot depend on its
    seed: exact-operator policies draw nothing, an oracle policy on a
    problem without an oracle is the zero-noise case, which evaluates F, and
    a block policy on a one-block partition draws block 0 at every step."""
    source = POLICIES[policy].source
    return (source == "exact" or (source == "oracle" and problem.oracle is None)
            or (source == "block" and len(problem.block_partition or ()) == 1))


def run(problem: VIProblem, schedule: Schedule, x1, config: RunConfig) -> Trajectory:
    """Single-run entry point: the policy's operator source (``"exact"``,
    ``"oracle"`` or ``"block"``, see ``schedules.Policy``) says how the run
    goes.  The config's batch size applies to oracle policies, and its
    checkpoints say which operator values the run keeps."""
    return _iterate(problem, schedule, x1, config.k, config.seed, POLICIES[schedule.name].source,
                    batch=config.batch, checkpoints=config.checkpoints)


# ---------------------------------------------------------------------------
# Output-selection rules
# ---------------------------------------------------------------------------


def select_best_movement(traj: Trajectory) -> tuple[int, np.ndarray]:
    """Index R minimizing ||x_{t+1} - x_t||^2 + ||x_t - x_{t-1}||^2 over
    t = 1..k (ties resolved to the smallest t), and the iterate x_{R+1}."""
    in_range("k", traj.k, 1, closed=True)
    sums = traj.movement_sq[1:] + traj.movement_sq[:-1]
    R = int(np.argmin(sums)) + 1
    return R, traj.xs[R + 1].copy()


def select_uniform_R(traj: Trajectory, rng: np.random.Generator) -> tuple[int, np.ndarray]:
    """R uniform on {2..k}, independent of the iterates; returns x_{R+1}."""
    in_range("k", traj.k, 2, closed=True)
    R = int(rng.integers(2, traj.k + 1))
    return R, traj.xs[R + 1].copy()


OE_MVI_AVERAGE = "oe-mvi"
SOE_MVI_TAIL_AVERAGE = "soe-mvi-tail"
SBOE_MVI_AVERAGE = "sboe-mvi"


def weighted_average(traj: Trajectory, mode: str, *, k: int | None = None) -> np.ndarray:
    """Weighted combinations of the iterates x_2..x_{k+1}.

    ``oe-mvi``: weights gamma_t theta_t.  ``soe-mvi-tail``: weights gamma_t
    restricted to t >= ceil(k/2).  ``sboe-mvi``: weights
    theta_t gamma_t b - theta_{t+1} gamma_{t+1} (b-1), with the final weight
    theta_k gamma_k b, for the run's b blocks.  ``k`` restricts to a prefix
    of the trajectory.
    """
    k = traj.k if k is None else int(in_range("k", k, 1, closed=True, high=traj.k))
    gam = traj.gammas[1 : k + 1]
    the = traj.thetas[1 : k + 1]
    if mode == OE_MVI_AVERAGE:
        w = gam * the
    elif mode == SOE_MVI_TAIL_AVERAGE:
        w = np.zeros(k)
        kbar = math.ceil(k / 2)
        w[kbar - 1 :] = gam[kbar - 1 :]
    elif mode == SBOE_MVI_AVERAGE:
        b = traj.num_blocks
        w = np.empty(k)
        w[: k - 1] = the[:-1] * gam[:-1] * b - the[1:] * gam[1:] * (b - 1)
        w[k - 1] = the[-1] * gam[-1] * b
    else:
        raise ValueError(f"unknown averaging mode {mode!r}")
    total = float(w.sum())
    if not total > 0 or np.any(w < 0):
        raise ValueError("averaging weights must be nonnegative with positive sum")
    return (w @ traj.xs[2 : k + 2]) / total
