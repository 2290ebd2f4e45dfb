"""Solver-engine tests: hand-traced recursions, degenerate equivalences,
call accounting, output selection, and weighted averages."""

import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oevi.geometry import Ball, Box, FullSpace, SimplexProduct, analytic_center, bregman
from oevi.problems import AffineSpec, affine_problem, glm_generate, traffic_generate
from oevi import schedules as S
from oevi import solvers
from oevi.solvers import (
    OE_MVI_AVERAGE,
    SBOE_MVI_AVERAGE,
    SOE_MVI_TAIL_AVERAGE,
    _PURPOSE_BLOCK,
    RunConfig,
    Trajectory,
    _iteration_streams,
    _philox,
    iteration_rng,
    oe_run,
    output_rng,
    run,
    sa_run,
    sboe_run,
    select_best_movement,
    select_uniform_R,
    soe_run,
    weighted_average,
)


def scalar_problem(slope=1.0, mu=None, noise=0.0):
    """1-d problem F(x) = slope * x on the whole line."""
    spec = AffineSpec(np.array([[slope]]), np.zeros(1))
    return affine_problem(spec, FullSpace(1), noise_sigma=noise)


def counting_problem(problem):
    """Wrap the exact operator with a call counter."""
    calls = {"n": 0}
    inner = problem.operator

    def op(x):
        calls["n"] += 1
        return inner(x)

    import dataclasses

    return dataclasses.replace(problem, operator=op), calls


class TestDeterministicRun:
    def test_zero_operator_fixed_point(self):
        p = affine_problem(AffineSpec(np.zeros((3, 3)), np.zeros(3)), FullSpace(3))
        sched = S.OEGmviSchedule(L=1.0)
        traj = oe_run(p, sched, np.array([1.0, -2.0, 0.5]), 20)
        for t in range(1, 22):
            np.testing.assert_array_equal(traj.xs[t], [1.0, -2.0, 0.5])

    def test_hand_recursion_scalar(self):
        # F(x) = x, gamma = 1/2, lambda = 1/2, from x0 = x1 = 1:
        # x2 = 1 - 1/2 * 1 = 0.5; x3 = 0.5 - 1/2 (0.5 + 1/2 (0.5 - 1)) = 0.375
        p = scalar_problem()
        sched = S.OEGsmviSchedule(L=1.0, mu=1.0)
        traj = oe_run(p, sched, np.array([1.0]), 2)
        assert traj.xs[2][0] == pytest.approx(0.5)
        assert traj.xs[3][0] == pytest.approx(0.375)

    def test_exactly_k_operator_evaluations(self):
        p, calls = counting_problem(traffic_generate(10, 5, 0.5, seed=1))
        sched = S.OEGsmviSchedule(p.constants.L, p.constants.mu)
        traj = oe_run(p, sched, analytic_center(p.set), 37)
        assert calls["n"] == 37
        assert traj.operator_evals == 37

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_divergent_run_raises(self):
        # gamma = 1/(3 * 1e-3) on F(x) = x: |x| grows ~333-fold per step and
        # overflows near t = 55; the run must stop there, not return inf/nan
        p = scalar_problem()
        with pytest.raises(ValueError, match=r"OE-GMVI run diverged at t = \d+"):
            oe_run(p, S.OEGmviSchedule(1e-3), np.array([1.0]), 200)

    @pytest.mark.parametrize("fs", [FullSpace(3), SimplexProduct([2, 1], [1.0, 2.0])],
                             ids=lambda s: type(s).__name__)
    def test_nan_start_point_is_infeasible(self, fs):
        # once "run diverged at t = 1", as if the steps had blown up
        p = affine_problem(AffineSpec(np.eye(3), np.zeros(3)), fs)
        x1 = analytic_center(fs)
        x1[0] = np.nan
        with pytest.raises(ValueError, match="^start point x1 is not feasible$"):
            oe_run(p, S.OEGmviSchedule(1.0), x1, 5)

    def test_linear_rate_bound_pointwise(self):
        rng = np.random.default_rng(3)
        n = 12
        E = rng.normal(size=(n, n))
        shift = abs(float(np.linalg.eigvalsh(E + E.T)[0])) / 2.0 + 1.0
        G = E + shift * np.eye(n)
        b = rng.normal(size=n)
        p = affine_problem(AffineSpec(G, b), FullSpace(n),
                           known_solution=np.linalg.solve(G, -b))
        L, mu = p.constants.L, p.constants.mu
        assert mu > 0
        sched = S.OEGsmviSchedule(L, mu)
        x1 = np.ones(n)
        traj = oe_run(p, sched, x1, 300)
        V1 = bregman(x1, p.known_solution)
        for k in range(1, 301):
            lhs = bregman(traj.xs[k + 1], p.known_solution)
            assert lhs <= (L / mu) * (L / (L + mu)) ** (k - 1) * V1 + 1e-9

    def test_iterates_stay_feasible(self):
        p = traffic_generate(10, 5, 0.5, seed=5)
        sched = S.OEGsmviSchedule(p.constants.L, p.constants.mu)
        traj = oe_run(p, sched, analytic_center(p.set), 100)
        for t in range(traj.k + 2):
            assert p.set.contains(traj.xs[t])

    def test_infeasible_start_rejected(self):
        p = traffic_generate(10, 5, 0.5, seed=5)
        sched = S.OEGsmviSchedule(p.constants.L, p.constants.mu)
        with pytest.raises(ValueError):
            oe_run(p, sched, np.ones(10), 10)


class TestStochasticRun:
    def test_noiseless_oracle_matches_deterministic(self):
        p = traffic_generate(10, 5, 0.5, seed=2)
        exact = p.operator
        import dataclasses

        noiseless = dataclasses.replace(p, oracle=lambda x, rng, m=1: exact(x))
        x1 = analytic_center(p.set)
        k = 200
        for name in ("SOE-1", "SOE-2", "SOE-3", "SOE-4"):
            sched = S.make_schedule(name, L=p.constants.L, mu=p.constants.mu,
                                    sigma=1.0, V1=1.0, k=k)
            t_oe = oe_run(p, sched, x1, k)
            t_soe = soe_run(noiseless, sched, x1, k, seed=7, batch=1)
            diff = np.abs(t_soe.xs - t_oe.xs).max()
            assert diff <= 1e-12, name

    def test_fixed_seed_bitwise_reproducible(self):
        p = traffic_generate(10, 5, 0.5, seed=4)
        sched = S.SoeDecreasingSchedule(p.constants.L, p.constants.mu)
        import dataclasses

        noisy = dataclasses.replace(
            p,
            oracle=lambda x, rng, m=1: p.operator(x)
            + rng.standard_normal((m, 10)).mean(axis=0),
        )
        x1 = analytic_center(p.set)
        a = soe_run(noisy, sched, x1, 50, seed=11)
        b = soe_run(noisy, sched, x1, 50, seed=11)
        np.testing.assert_array_equal(a.xs, b.xs)
        c = soe_run(noisy, sched, x1, 50, seed=12)
        assert np.abs(c.xs - a.xs).max() > 0

    @pytest.mark.parametrize("seed", [2**63, -(2**63) - 1])
    def test_seed_past_64_bits_rejected(self, seed):
        # the stream key keeps a seed's low 64 bits: once seed 2^63 drew the
        # numbers of -2^63, and -1 those of 2^64 - 1
        p = glm_generate(5, "hinge", 2.0, 0.5, seed=3)
        sched = S.SoeDecreasingSchedule(p.constants.L, p.constants.mu)
        with pytest.raises(ValueError, match=rf"^seed must be in \[-2\^63, 2\^63\), got {seed}$"):
            soe_run(p, sched, analytic_center(p.set), 5, seed=seed)

    def test_oracle_call_count_is_sum_of_batches(self):
        class GrowingBatch(S.SoeDecreasingSchedule):
            """SOE-1 whose table draws t samples at step t, the way SOE-4 draws k + 1."""

            def table(self, k):
                tab = super().table(k)
                tab.batch[1:] = np.arange(1, k + 1)
                return tab

        p = scalar_problem(noise=1.0)
        sched = GrowingBatch(1.0, 0.5)
        counter = {"n": 0}
        inner = p.oracle
        import dataclasses

        def oracle(x, rng, m=1):
            counter["n"] += m
            return inner(x, rng, m)

        p2 = dataclasses.replace(p, oracle=oracle)
        traj = soe_run(p2, sched, np.zeros(1), 25, seed=1)
        assert counter["n"] == sum(range(1, 26))
        assert traj.oracle_calls == counter["n"]
        assert traj.oracle_calls_through(25) == counter["n"]

    def test_previous_estimate_reused_not_resampled(self):
        # the oracle is called exactly once per iteration (m = 1): the
        # extrapolation difference uses the stored estimate
        p = scalar_problem(noise=1.0)
        events = []
        import dataclasses

        def oracle(x, rng, m=1):
            events.append(float(x[0]))
            return p.operator(x) + rng.standard_normal(1)

        p2 = dataclasses.replace(p, oracle=oracle)
        sched = S.SoeDecreasingSchedule(1.0, 0.5)
        soe_run(p2, sched, np.zeros(1), 10, seed=3)
        assert len(events) == 10

    def test_sa_contracts_on_scalar(self):
        # F(x) = mu x: each step multiplies by (1 - 1/(t + t0)), telescoping
        # to x_{k+1} = x_1 * t0 / (k + t0)
        p = scalar_problem(slope=0.5, noise=0.0)
        import dataclasses

        p2 = dataclasses.replace(p, oracle=lambda x, rng, m=1: p.operator(x))
        sched = S.SaSchedule(L=0.5, mu=0.5)
        k, t0 = 300, 4.0
        traj = sa_run(p2, sched, np.array([4.0]), k, seed=0)
        mags = np.abs(traj.xs[1:, 0])
        assert all(a >= b for a, b in zip(mags, mags[1:]))
        assert mags[-1] == pytest.approx(4.0 * t0 / (k + t0), rel=1e-12)

    def test_sa_deterministic_given_seed(self):
        p = scalar_problem(noise=0.5)
        sched = S.SaSchedule(L=1.0, mu=0.5)
        a = sa_run(p, sched, np.zeros(1), 40, seed=9)
        b = sa_run(p, sched, np.zeros(1), 40, seed=9)
        np.testing.assert_array_equal(a.xs, b.xs)

    def test_sa_rejects_extrapolating_schedule(self):
        p = scalar_problem(noise=0.5)
        with pytest.raises(ValueError, match="SaSchedule"):
            sa_run(p, S.SoeDecreasingSchedule(1.0, 0.5), np.zeros(1), 10, seed=9)


class TestBlockRun:
    def test_single_block_matches_full_run(self):
        p = traffic_generate(12, 1, 0.5, seed=6)
        c = p.constants
        sched_oe = S.OEGsmviSchedule(c.L, c.mu)
        sched_b = S.SboeGsmviSchedule(Lbar=c.L, b=1, mu=c.mu, L=c.L)
        x1 = analytic_center(p.set)
        t_oe = oe_run(p, sched_oe, x1, 150)
        t_b = sboe_run(p, sched_b, x1, 150, seed=5)
        assert np.abs(t_b.xs - t_oe.xs).max() <= 1e-10

    def test_block_sequence_deterministic(self):
        p = traffic_generate(20, 5, 0.5, seed=7)
        sched = S.SboeGsmviSchedule(Lbar=p.constants.L, b=5, mu=p.constants.mu)
        x1 = analytic_center(p.set)
        a = sboe_run(p, sched, x1, 60, seed=21)
        b = sboe_run(p, sched, x1, 60, seed=21)
        np.testing.assert_array_equal(a.block_index, b.block_index)
        np.testing.assert_array_equal(a.xs, b.xs)

    def test_only_sampled_block_changes(self):
        p = traffic_generate(20, 5, 0.5, seed=8)
        sched = S.SboeGsmviSchedule(Lbar=p.constants.L, b=5, mu=p.constants.mu)
        x1 = analytic_center(p.set)
        traj = sboe_run(p, sched, x1, 40, seed=2)
        slices = [sl for sl, _ in p.blocks]
        for t in range(1, 41):
            i = traj.block_index[t]
            for j, sl in enumerate(slices):
                same = np.array_equal(traj.xs[t + 1][sl], traj.xs[t][sl])
                assert same == (j != i) or same  # non-sampled blocks unchanged
                if j != i:
                    assert same

    def test_recursive_update_matches_full_evaluation(self):
        p = traffic_generate(20, 5, 0.5, seed=9)
        sched = S.SboeGsmviSchedule(Lbar=p.constants.L, b=5, mu=p.constants.mu)
        x1 = analytic_center(p.set)
        fast = sboe_run(p, sched, x1, 100, seed=3, recursive_affine=True)
        slow = sboe_run(p, sched, x1, 100, seed=3, recursive_affine=False)
        assert np.abs(fast.xs - slow.xs).max() <= 1e-10

    def test_evaluation_accounting(self):
        p, calls = counting_problem(traffic_generate(20, 5, 0.5, seed=10))
        sched = S.SboeGsmviSchedule(Lbar=p.constants.L, b=5, mu=p.constants.mu)
        x1 = analytic_center(p.set)
        k = 50
        fast = sboe_run(p, sched, x1, k, seed=4, recursive_affine=True)
        assert calls["n"] == 1  # only the initial full evaluation
        assert fast.operator_evals == 1
        assert fast.block_updates == k - 1
        calls["n"] = 0
        slow = sboe_run(p, sched, x1, k, seed=4, recursive_affine=False)
        assert calls["n"] == k
        assert slow.operator_evals == k
        assert slow.block_updates == 0

    def test_recursive_value_is_exact_after_a_resync(self):
        # step 10^4 re-evaluates F in full: without it the running sum is
        # 1.3e-13 off F(x_10001) here
        p = traffic_generate(20, 5, 0.05, seed=3)
        sched = S.SboeGsmviSchedule(Lbar=p.Lbar, b=5, mu=p.constants.mu, L=p.constants.L)
        traj = sboe_run(p, sched, analytic_center(p.set), 10_002, seed=1)
        assert traj.ops[10_001].tobytes() == p.operator(traj.xs[10_001]).tobytes()
        assert (traj.operator_evals, traj.block_updates) == (2, 10_000)

    def test_run_holds_no_copy_of_G(self):
        # the block updates read G's columns in place: the run holds its
        # k + 2 iterates, its k + 1 operator values and a few n-vectors,
        # far less than G itself
        n, k = 400, 20
        p = traffic_generate(n, 5, 0.005, seed=1)
        sched = S.SboeGsmviSchedule(Lbar=p.constants.L, b=5, mu=p.constants.mu)
        x1 = analytic_center(p.set)
        sboe_run(p, sched, x1, k, seed=1)
        tracemalloc.start()
        try:
            sboe_run(p, sched, x1, k, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (2 * (k + 2) + 16) * n * 8 < p.affine.G.nbytes / 6

    def test_partition_required(self):
        p = scalar_problem()
        sched = S.SboeGsmviSchedule(Lbar=1.0, b=1, mu=0.5)
        with pytest.raises(ValueError):
            sboe_run(p, sched, np.zeros(1), 10, seed=0)


def _movement_trajectory(movements):
    """Trajectory stub with prescribed squared movements (index 0 first)."""
    k = len(movements) - 1
    traj = Trajectory(
        policy="stub",
        xs=np.arange((k + 2), dtype=float)[:, None],
        ops={},
        movement_sq=np.asarray(movements, dtype=float),
        gammas=np.full(k + 1, 0.5),
        lams=np.full(k + 1, 1.0),
        thetas=np.ones(k + 1),
        batch_sizes=np.zeros(k + 1, dtype=int),
        step_time_ns=np.zeros(k + 1, dtype=np.int64),
    )
    return traj


class TestOutputSelection:
    def test_monotone_movements_select_last(self):
        traj = _movement_trajectory([0.0, 9.0, 4.0, 1.0])
        R, x = select_best_movement(traj)
        assert R == 3
        assert x[0] == 4.0

    def test_constant_trajectory_tie_breaks_to_first(self):
        traj = _movement_trajectory([0.0, 0.0, 0.0, 0.0])
        R, _ = select_best_movement(traj)
        assert R == 1

    def test_synthetic_pairwise_sums(self):
        # movements [4, 1, 9] -> pairwise sums [5, 10] -> R = 1
        traj = _movement_trajectory([4.0, 1.0, 9.0])
        R, _ = select_best_movement(traj)
        assert R == 1

    def test_uniform_R_support_k2(self):
        traj = _movement_trajectory([0.0, 1.0, 1.0])  # k = 2
        for s in range(20):
            R, x = select_uniform_R(traj, output_rng(s))
            assert R == 2
            assert x[0] == traj.xs[3][0]

    def test_uniform_R_needs_k_at_least_2(self):
        traj = _movement_trajectory([0.0, 1.0])
        with pytest.raises(ValueError):
            select_uniform_R(traj, output_rng(0))

    def test_uniform_R_chi_square(self):
        k = 11  # support {2..11}: 10 outcomes
        traj = _movement_trajectory([0.0] + [1.0] * k)
        rng = output_rng(123)
        draws = np.array([select_uniform_R(traj, rng)[0] for _ in range(10**5)])
        counts = np.bincount(draws, minlength=k + 1)[2:]
        expected = 10**5 / 10
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 <= 21.67  # chi-square 99th percentile, 9 dof

    def test_uniform_R_deterministic_given_seed(self):
        traj = _movement_trajectory([0.0] + [1.0] * 9)
        a = select_uniform_R(traj, output_rng(5))
        b = select_uniform_R(traj, output_rng(5))
        assert a[0] == b[0]


class TestWeightedAverage:
    def test_equal_weights_midpoint(self):
        traj = _movement_trajectory([0.0, 1.0, 1.0])
        out = weighted_average(traj, OE_MVI_AVERAGE)
        # iterates x_2 = 2, x_3 = 3 with constant weights
        assert out[0] == pytest.approx(2.5)

    def test_sboe_weights_plug_in(self):
        # theta = 1, gamma constant, b = 2, k = 2: weights [gamma, 2 gamma]
        traj = _movement_trajectory([0.0, 1.0, 1.0])
        traj.num_blocks = 2
        out = weighted_average(traj, SBOE_MVI_AVERAGE)
        assert out[0] == pytest.approx((traj.xs[2][0] + 2.0 * traj.xs[3][0]) / 3.0)

    def test_constant_iterates_fixed_point(self):
        traj = _movement_trajectory([0.0, 0.0, 0.0, 0.0])
        traj.xs[:] = 7.0
        for mode in (OE_MVI_AVERAGE, SOE_MVI_TAIL_AVERAGE):
            assert weighted_average(traj, mode)[0] == pytest.approx(7.0)

    def test_tail_average_uses_second_half(self):
        traj = _movement_trajectory([0.0] + [1.0] * 4)  # k = 4, iterates x_2..x_5
        out = weighted_average(traj, SOE_MVI_TAIL_AVERAGE)
        # ceil(4/2) = 2: average x_3..x_5 with equal gammas
        assert out[0] == pytest.approx(np.mean([traj.xs[3][0], traj.xs[4][0], traj.xs[5][0]]))

    def test_average_stays_feasible(self):
        p = traffic_generate(10, 5, 0.5, seed=11)
        sched = S.OEMviSchedule(p.constants.L)
        traj = oe_run(p, sched, analytic_center(p.set), 50)
        out = weighted_average(traj, OE_MVI_AVERAGE)
        assert p.set.contains(out)

    def test_prefix_average(self):
        traj = _movement_trajectory([0.0, 1.0, 1.0, 1.0])
        out = weighted_average(traj, OE_MVI_AVERAGE, k=2)
        assert out[0] == pytest.approx(2.5)


class TestMergedStep:
    """The full step is the one-block step: both pin the same bytes."""

    def test_one_block_run_is_the_full_run(self):
        p = traffic_generate(12, 1, 0.5, seed=6)
        c = p.constants
        sched = S.SboeGsmviSchedule(Lbar=c.L, b=1, mu=c.mu, L=c.L)
        x1 = analytic_center(p.set)
        t_oe = oe_run(p, sched, x1, 150)
        t_b = sboe_run(p, sched, x1, 150, seed=5, recursive_affine=False)
        assert t_b.xs.tobytes() == t_oe.xs.tobytes()
        assert t_b.movement_sq.tobytes() == t_oe.movement_sq.tobytes()

    @pytest.mark.parametrize("name", ["SOE-1", "SOE-2", "SOE-3", "SOE-4", "SA"])
    def test_oracle_policy_without_oracle_is_the_exact_run(self, name):
        p = traffic_generate(10, 5, 0.5, seed=2)
        assert p.oracle is None
        c = p.constants
        k = 60
        sched = S.make_schedule(name, L=c.L, mu=c.mu, sigma=1.0, V1=1.0, k=k)
        x1 = analytic_center(p.set)
        traj = run(p, sched, x1, RunConfig(policy=name, k=k, seed=7))
        assert traj.xs.tobytes() == oe_run(p, sched, x1, k).xs.tobytes()
        m = k + 1 if name == "SOE-4" else 1  # SOE-4 draws k + 1 samples per step
        assert [traj.oracle_calls_through(t) for t in range(k + 1)] == [
            m * t for t in range(k + 1)]


@st.composite
def _loop_cases(draw):
    """A strongly monotone affine problem on a set of each kind, with or without
    a noisy oracle, split into blocks the set splits along; a policy of any
    operator source, a batch, k and a seed."""
    n, kind = draw(st.integers(1, 8)), draw(st.sampled_from(["full", "ball", "box", "simplex"]))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
    sizes = [hi - lo for lo, hi in zip([0, *cuts], [*cuts, n])]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "ball":
        sizes, fs = [n], Ball(rng.normal(size=n), rng.uniform(0.5, 2.0))
    elif kind == "box":
        lower = rng.uniform(-2.0, 0.0, n)
        fs = Box(lower, lower + rng.uniform(0.1, 2.0, n))
    elif kind == "simplex":
        fs = SimplexProduct(sizes, rng.uniform(0.1, 2.0, len(sizes)))
    else:
        fs = FullSpace(n)
    B = rng.normal(size=(n, n))
    spec = AffineSpec(0.3 * (B - B.T) + np.diag(rng.uniform(0.5, 2.0, n)), rng.normal(size=n))
    problem = affine_problem(spec, fs, noise_sigma=draw(st.sampled_from([0.0, 0.5])),
                             block_partition=sizes)
    k, c = draw(st.integers(2, 30)), problem.constants
    schedule = S.make_schedule(draw(st.sampled_from(S.POLICY_NAMES)), L=c.L, mu=c.mu,
                               sigma=1.0, V1=1.0, k=k, b=len(sizes))
    return problem, schedule, k, draw(st.integers(0, 2**63 - 1)), draw(st.sampled_from([None, 1, 3]))


def _transcribed_run(problem, schedule, k, seed, batch):
    """The paper's updates written out: F_t from the policy's source, then
    x_{t+1} = P(x_t - gamma_t (F_t + lambda_t (F_t - F_{t-1}))) on block i_t."""
    source, tab = S.POLICIES[schedule.name].source, schedule.table(k)
    m = tab.batch if batch is None else [batch] * (k + 1)

    def F(t, x):  # the operator value at x = x_{t+1}, from a fresh stream for (seed, t)
        if source == "oracle" and problem.oracle is not None:
            return problem.oracle(x, iteration_rng(seed, t), m[t + 1])
        return problem.operator(x)

    slices, parts, order = [slice(None)], [problem.set], [0] * k
    if source == "block":
        slices, parts = zip(*problem.blocks)
        order = _philox(seed, _PURPOSE_BLOCK).integers(0, len(slices), size=k)
    G = np.asfortranarray(problem.affine.G)  # as the engine's block updates read it
    xs = [analytic_center(problem.set)] * 2
    F_prev = F_cur = F(0, xs[1])
    for t in range(1, k + 1):
        sl, x = slices[order[t - 1]], xs[t].copy()
        g = F_cur[sl] + tab.lam[t] * (F_cur[sl] - F_prev[sl])
        x[sl] = parts[order[t - 1]].project(xs[t][sl] - tab.gamma[t] * g)
        xs.append(x)
        if t < k:
            F_prev, F_cur = F_cur, (F_cur + G[:, sl] @ (x - xs[t])[sl] if source == "block"
                                    else F(t, x))
    return np.array(xs)


@settings(max_examples=150, deadline=None)
@given(_loop_cases())
def test_loop_is_the_transcribed_updates(case):
    problem, schedule, k, seed, batch = case
    traj = run(problem, schedule, analytic_center(problem.set),
               RunConfig(schedule.name, k, seed, batch))
    assert traj.xs.tobytes() == _transcribed_run(problem, schedule, k, seed, batch).tobytes()


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_loop_cases(), st.integers(1, 6))
def test_block_run_resyncs_every_resync_steps(case, every):
    # with a resync every N steps, the value F_t of x_t is F(x_t) itself at
    # every t = 1 (mod N), and each resync is one full evaluation
    problem, _, k, seed, _ = case
    c = problem.constants
    schedule = S.make_schedule("SBOE-GSMVI", L=c.L, mu=c.mu, k=k,
                               b=len(problem.block_partition))
    with mock.patch.object(solvers, "_RESYNC", every):
        traj = sboe_run(problem, schedule, analytic_center(problem.set), k, seed)
    for t in range(1, k + 1, every):
        assert traj.ops[t].tobytes() == problem.operator(traj.xs[t]).tobytes(), t
    assert traj.operator_evals == 1 + (k - 1) // every
    assert traj.block_updates == k - traj.operator_evals


class TestRunDispatcher:
    @pytest.mark.parametrize("name", S.POLICY_NAMES)
    def test_dispatch_by_schedule_family(self, name):
        p = traffic_generate(10, 5, 0.5, seed=31)
        import dataclasses

        noisy = dataclasses.replace(p, oracle=lambda x, rng, m=1: p.operator(x))
        x1 = analytic_center(p.set)
        c = p.constants
        k = 20
        schedule = S.make_schedule(name, L=c.L, mu=c.mu, sigma=1.0, k=k, b=5)
        traj = run(noisy, schedule, x1, RunConfig(policy=name, k=k, seed=2))
        engines = {
            "exact": traj.seed is None and traj.operator_evals == k,
            "oracle": traj.oracle_calls > 0,
            "block": traj.block_index is not None,
        }
        assert [source for source, used in engines.items() if used] == [
            S.POLICIES[name].source
        ]

    @pytest.mark.parametrize("make,name,call", [
        (lambda: scalar_problem(noise=1.0), "SOE-1",  # noisy affine
         lambda *args: soe_run(*args, 10, 1, batch=0)),
        (lambda: traffic_generate(10, 5, 0.5, seed=2), "SOE-1",  # no oracle
         lambda *args: run(*args, RunConfig("SOE-1", 10, 1, batch=0))),
        (lambda: glm_generate(5, "hinge", 2.0, 0.1, seed=3), "SA",
         lambda *args: sa_run(*args, 10, 1, batch=0)),
    ])
    def test_batch_below_one_rejected(self, make, name, call):
        problem, calls = counting_problem(make())
        c = problem.constants
        schedule = S.make_schedule(name, L=c.L, mu=c.mu, sigma=1.0, k=10)
        with pytest.raises(ValueError, match=re.escape("batch size must be in [1, inf), got 0")):
            call(problem, schedule, analytic_center(problem.set))
        assert calls["n"] == 0

    def test_config_invariants(self):
        with pytest.raises(ValueError):
            RunConfig(policy="x", k=0)
        for ts, bad in (([0, 11], "11.0"), ([-1, 4], "-1.0")):
            with pytest.raises(ValueError, match=re.escape(
                    f"checkpoints must be in [0, 10], got {bad}") + "$"):
                RunConfig(policy="x", k=10, checkpoints=ts)


class TestIterationStreams:
    def test_keyed_by_seed_and_iteration(self):
        a = iteration_rng(1, 5).standard_normal(4)
        b = iteration_rng(1, 5).standard_normal(4)
        c = iteration_rng(1, 6).standard_normal(4)
        d = iteration_rng(2, 5).standard_normal(4)
        np.testing.assert_array_equal(a, b)
        assert np.abs(a - c).max() > 0
        assert np.abs(a - d).max() > 0

    def test_one_generator_per_run_matches_fresh_streams(self):
        at = _iteration_streams(7)
        for t in (0, 1, 5, 3157, 2**40, 3):
            fresh, reset = iteration_rng(7, t), at(t)
            np.testing.assert_array_equal(fresh.standard_normal((3, 4)),
                                          reset.standard_normal((3, 4)))
            np.testing.assert_array_equal(fresh.normal(np.arange(3.0), 2.0),
                                          reset.normal(np.arange(3.0), 2.0))
            np.testing.assert_array_equal(fresh.integers(0, 7, 9), reset.integers(0, 7, 9))

    def test_movement_convention(self):
        p = scalar_problem()
        sched = S.OEGsmviSchedule(1.0, 1.0)
        traj = oe_run(p, sched, np.array([1.0]), 3)
        assert traj.movement_sq[0] == 0.0
        assert traj.movement_sq[1] == pytest.approx(0.25)  # (1 - 0.5)^2
        np.testing.assert_array_equal(traj.xs[0], traj.xs[1])
