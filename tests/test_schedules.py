"""Stepsize-policy tests: closed-form values, coupling identities, restart
epoch bookkeeping, and the side-condition validator."""

import copy
import math
import re

import numpy as np
import pytest

from oevi import schedules as S
from oevi.geometry import analytic_center
from oevi.problems import traffic_generate
from oevi.solvers import oe_run


def _step(sched, t):
    """(gamma_t, lambda_t, theta_t) of one iteration, read from ``table(t)``."""
    tab = sched.table(t)
    return float(tab.gamma[t]), float(tab.lam[t]), tab.theta(t)


class TestLinearRatePolicy:
    def test_values_at_L2_mu1(self):
        g, lam, th = _step(S.OEGsmviSchedule(2.0, 1.0), 1)
        assert g == pytest.approx(0.25)
        assert lam == pytest.approx(2.0 / 3.0)
        assert th == pytest.approx(1.5)

    def test_values_at_L1_mu1_t3(self):
        g, lam, th = _step(S.OEGsmviSchedule(1.0, 1.0), 3)
        assert (g, lam, th) == pytest.approx((0.5, 0.5, 8.0), rel=1e-15)

    @pytest.mark.parametrize("t", [500, 1100])  # log theta_t = t log 2: 347, 762
    def test_theta_matches_run(self, t):
        # a table and a run read theta through one rule: inf once log theta > 700
        schedule = S.OEGsmviSchedule(1.0, 1.0)
        problem = traffic_generate(10, 5, 0.5, seed=1)
        traj = oe_run(problem, schedule, analytic_center(problem.set), t)
        assert _step(schedule, t)[2] == traj.thetas[t]
        assert math.isfinite(traj.thetas[t]) == (t == 500)

    def test_small_mu_limit(self):
        g, lam, th = _step(S.OEGsmviSchedule(1.0, 1e-12), 5)
        assert lam == pytest.approx(1.0)
        assert th == pytest.approx(1.0)

    def test_mu_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            S.OEGsmviSchedule(1.0, 0.0)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name, build", [
    ("L", lambda v: S.OEGsmviSchedule(v, 0.1)),
    ("mu", lambda v: S.OEGsmviSchedule(1.0, v)),
    ("sigma", lambda v: S.SoeConstantSchedule(1.0, 0.1, v, 1.0, 100)),
    ("V1", lambda v: S.SoeRestartSchedule(1.0, 0.1, 1.0, v)),
    ("Lbar", lambda v: S.SboeMviSchedule(v, 2)),
    ("L", lambda v: S.SboeGsmviSchedule(1.0, 2, 0.1, L=v)),
], ids=["OE-GSMVI-L", "OE-GSMVI-mu", "SOE-2-sigma", "SOE-3-V1", "SBOE-MVI-Lbar",
        "SBOE-GSMVI-L"])
def test_constants_must_be_finite(name, build, value):
    with pytest.raises(ValueError,
                       match=f"^{re.escape(f'{name} must be in (0, inf), got {value}')}$"):
        build(value)


@pytest.mark.parametrize("build, message", [
    # SOE-2's q squares mu and sigma: each once overflowed into an OverflowError
    (lambda: S.SoeConstantSchedule(1.0, 0.1, 1e200, 1.0, 100),
     "sigma must be in (0, 1.34078e+154], got 1e+200"),
    (lambda: S.SoeConstantSchedule(1e300, 1e200, 1.0, 1.0, 100),
     "mu must be in (0, 1.34078e+154], got 1e+200"),
    # 2^14 noise_ratio is epoch 8's length, which once overflowed an int
    (lambda: S.SoeRestartSchedule(1.0, 0.1, noise_ratio=1e308),
     "noise_ratio must be in (0, 1.09722e+304], got 1e+308"),
    (lambda: S.SoeRestartSchedule(1e150, 1e-200), "4 L / mu must be in (0, 8.98847e+307], got inf"),
    # a constant the policy does not read is held to its range all the same
    (lambda: S.make_schedule("SBOE-MVI", L=2.0, sigma=-math.inf, b=2),
     "sigma must be in [0, inf), got -inf"),
    (lambda: S.make_schedule("OE-GMVI", L=2.0, b=0), "b must be in [1, inf), got 0"),
    # the validator squares L
    (lambda: S.validate(S.OEGmviSchedule(1e300), 10),
     "L must be in (0, 1.34078e+154], got 1e+300"),
    (lambda: S.validate(S.OEGmviSchedule(1.0), 0), "k must be in [1, inf), got 0"),
], ids=["SOE-2-sigma", "SOE-2-mu", "SOE-3-noise_ratio", "SOE-3-t0", "unread-sigma", "unread-b",
        "validate-L", "validate-k"])
def test_constant_out_of_its_range_rejected(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_largest_noise_ratio_keeps_every_epoch_finite():
    schedule = S.SoeRestartSchedule(1.0, 0.1, noise_ratio=np.finfo(float).max / 2**14)
    assert all(isinstance(K, int) for K in schedule.epoch_ends(8))


class TestPlainMonotonePolicies:
    def test_gmvi_values(self):
        assert _step(S.OEGmviSchedule(3.0), 1)[0] == pytest.approx(1.0 / 9.0)
        assert _step(S.OEGmviSchedule(1.0 / 3.0), 10)[0] == pytest.approx(1.0)
        for t in (1, 7, 100):
            g, lam, th = _step(S.OEGmviSchedule(2.0), t)
            assert (lam, th) == (1.0, 1.0)

    def test_mvi_values(self):
        assert _step(S.OEMviSchedule(2.0), 4)[0] == pytest.approx(0.25)
        assert _step(S.OEMviSchedule(0.5), 1)[0] == pytest.approx(1.0)
        for t in (1, 5, 50):
            assert _step(S.OEMviSchedule(1.0), t)[1:] == (1.0, 1.0)


class TestDecreasingPolicy:
    def test_values_at_L4_mu1(self):
        g, lam, th = _step(S.SoeDecreasingSchedule(4.0, 1.0), 1)
        assert g == pytest.approx(1.0 / 16.0)
        assert th == pytest.approx(306.0)
        # lambda_1 = theta_0 gamma_0 / (theta_1 gamma_1) with t0 = 16:
        # theta_0 = 272, gamma_0 = 1/15
        assert lam == pytest.approx((272.0 / 15.0) / (306.0 / 16.0))
        assert lam == pytest.approx(0.948148, abs=1e-6)

    def test_asymptotic_stepsize(self):
        sched = S.SoeDecreasingSchedule(4.0, 1.0)
        for t in (10**5, 10**6):
            g, _, _ = _step(sched, t)
            assert g * 1.0 * t == pytest.approx(1.0, rel=1e-3)

    def test_coupling_identity_exact(self):
        sched = S.SoeDecreasingSchedule(3.0, 0.25)
        tab = sched.table(200)
        for t in range(1, 200):
            lhs = math.exp(tab.log_theta[t + 1]) * tab.gamma[t + 1] * tab.lam[t + 1]
            rhs = math.exp(tab.log_theta[t]) * tab.gamma[t]
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestConstantPolicy:
    def test_q_one_when_noise_matches_V1(self):
        sched = S.SoeConstantSchedule(L=1e6, mu=1.0, sigma=1.0, V1=1.0, k=100)
        assert sched.q == pytest.approx(1.0)
        assert sched.gamma == pytest.approx(min(1.0 / 4e6, math.log(100) / 100))

    def test_branch_selection(self):
        # long horizon: the q log(k)/(mu k) branch is the smaller one
        sched = S.SoeConstantSchedule(L=1.0, mu=1.0, sigma=1.0, V1=1.0, k=10**6)
        assert sched.gamma == pytest.approx(math.log(10**6) / 10**6)
        # short horizon with large V1: the Lipschitz branch binds
        sched = S.SoeConstantSchedule(L=1.0, mu=1.0, sigma=1.0, V1=100.0, k=10)
        assert sched.gamma == pytest.approx(0.25)

    def test_lambda_theta_relation(self):
        sched = S.SoeConstantSchedule(L=2.0, mu=0.5, sigma=1.0, V1=4.0, k=500)
        g, lam, th = _step(sched, 1)
        assert lam * (2.0 * 0.5 * g + 1.0) == pytest.approx(1.0)

    def test_q_clamped_when_noise_dominates(self):
        sched = S.SoeConstantSchedule(L=1.0, mu=0.01, sigma=100.0, V1=1.0, k=100)
        assert sched.q == S.SoeConstantSchedule.Q_FLOOR
        assert sched.q_clamped
        assert sched.gamma > 0
        assert any("clamped" in n for n in sched.notes)

    def test_small_k_rejected(self):
        with pytest.raises(ValueError):
            S.SoeConstantSchedule(1.0, 0.5, 1.0, 1.0, 1)


class TestRestartPolicy:
    def test_first_epoch_length(self):
        # L=4, mu=1, sigma^2 = V1: max((2 sqrt(2)-1)*16 + 4, 128) = 128
        sched = S.SoeRestartSchedule(4.0, 1.0, 1.0, 1.0)
        assert sched.epoch_length(1) == 128
        assert (2 * math.sqrt(2) - 1) * 16 + 4 == pytest.approx(33.25, abs=0.01)

    def test_epoch_boundaries_strictly_increasing(self):
        sched = S.SoeRestartSchedule(2.0, 0.5, 1.0, 2.0)
        ends = sched.epoch_ends(6)
        assert all(a < b for a, b in zip(ends, ends[1:]))

    def test_lambda_zero_at_epoch_starts(self):
        sched = S.SoeRestartSchedule(4.0, 1.0, 1.0, 1.0)
        k1 = sched.epoch_length(1)
        for t in (1, k1 + 1):
            g, lam, th = _step(sched, t)
            assert lam == 0.0
        g, lam, th = _step(sched, 2)
        assert lam > 0

    def test_local_index_within_epoch(self):
        sched = S.SoeRestartSchedule(4.0, 1.0, 1.0, 1.0)
        k1 = sched.epoch_length(1)
        assert sched.epoch_ends(2) == [k1, k1 + sched.epoch_length(2)]
        tab = sched.table(k1 + 1)
        # gamma at local index l is 1/(mu (t0 + l - 1)), t0 = 4L/mu = 16:
        # iteration k1 is local index k1 of epoch 1, k1 + 1 is index 1 of epoch 2
        assert np.flatnonzero(tab.epoch_start).tolist() == [1, k1 + 1]
        assert tab.gamma[k1] == pytest.approx(1.0 / (16.0 + k1 - 1.0))
        assert tab.gamma[k1 + 1] == pytest.approx(1.0 / 16.0)

    def test_epoch_lengths_double_asymptotically(self):
        sched = S.SoeRestartSchedule(4.0, 1.0, 1.0, 1.0)
        k9, k10 = sched.epoch_length(9), sched.epoch_length(10)
        assert k10 / k9 == pytest.approx(2.0, rel=1e-6)

    def test_table_matches_triple(self):
        sched = S.SoeRestartSchedule(4.0, 1.0, 1.0, 1.0)
        tab = sched.table(300)
        for t in (1, 2, 127, 128, 129, 200, 300):
            g, lam, th = _step(sched, t)
            assert tab.gamma[t] == pytest.approx(g, rel=1e-14)
            assert tab.lam[t] == pytest.approx(lam, rel=1e-14)
            assert math.exp(tab.log_theta[t]) == pytest.approx(th, rel=1e-12)

    def test_noise_ratio_override(self):
        sched = S.SoeRestartSchedule(4.0, 1.0, 50.0, 1.0, noise_ratio=1.0)
        assert sched.epoch_length(1) == 128


class TestStochasticMonotonePolicies:
    def test_soe_gmvi_values(self):
        g, lam, th = _step(S.SoeGmviSchedule(1.0, 99), 1)
        m = S.SoeGmviSchedule(1.0, 99).table(1).batch[1]
        assert (g, lam, th, m) == (0.25, 1.0, 1.0, 100)
        m2 = S.SoeGmviSchedule(1.0, 198).table(1).batch[1]
        assert m2 - 1 == 2 * (m - 1)

    def test_soe_mvi_values(self):
        g, lam, th = _step(S.SoeMviSchedule(1.0), 4)
        assert g == pytest.approx(0.5)
        assert th == 1.0
        # coupling gamma_{t-1} = gamma_t lambda_t forces lambda_4 = sqrt(4/3)
        assert lam == pytest.approx(math.sqrt(4.0 / 3.0))

    def test_soe_mvi_gamma_decreasing_lambda_to_one(self):
        sched = S.SoeMviSchedule(2.0)
        gs = [_step(sched, t)[0] for t in range(1, 50)]
        assert all(a > b for a, b in zip(gs, gs[1:]))
        assert _step(sched, 10**6)[1] == pytest.approx(1.0, abs=1e-5)

    def test_soe_mvi_coupling(self):
        sched = S.SoeMviSchedule(1.5)
        for t in range(2, 100):
            g_prev = _step(sched, t - 1)[0]
            g, lam, _ = _step(sched, t)
            assert g * lam == pytest.approx(g_prev, rel=1e-12)


class TestBlockPolicies:
    def test_single_block_reduces_to_linear_rate(self):
        g, lam, th = _step(S.SboeGsmviSchedule(1.0, 1, 0.5), 3)
        g2, lam2, th2 = _step(S.OEGsmviSchedule(1.0, 0.5), 3)
        assert g == pytest.approx(g2)
        assert lam == pytest.approx(lam2)
        assert th == pytest.approx(th2)

    def test_values_b5(self):
        g, lam, th = _step(S.SboeGsmviSchedule(1.0, 5, 0.1), 1)
        assert g == pytest.approx(0.1)
        assert lam == pytest.approx((5.0 + 0.08) / 1.02)

    def test_coupling_identity_with_scale_b(self):
        sched = S.SboeGsmviSchedule(2.0, 4, 0.3)
        tab = sched.table(50)
        for t in range(1, 50):
            lhs = tab.log_theta[t + 1] + math.log(tab.gamma[t + 1]) + math.log(tab.lam[t + 1])
            rhs = tab.log_theta[t] + math.log(tab.gamma[t]) + math.log(4.0)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_sboe_mvi_values(self):
        g, lam, th = _step(S.SboeMviSchedule(1.0, 5), 1)
        assert (g, lam, th) == (0.05, 5.0, 1.0)
        g1, lam1, _ = _step(S.SboeMviSchedule(1.0, 1), 1)
        assert (g1, lam1) == (0.25, 1.0)
        for t in (1, 10, 100):
            assert _step(S.SboeMviSchedule(2.0, 3), t)[2] == 1.0


class TestBaselinePolicy:
    def test_values(self):
        assert _step(S.SaSchedule(4.0, 1.0), 1)[0] == pytest.approx(1.0 / 17.0)

    def test_asymptotics_and_monotonicity(self):
        sched = S.SaSchedule(4.0, 1.0)
        gs = [_step(sched, t)[0] for t in range(1, 200)]
        assert all(a > b for a, b in zip(gs, gs[1:]))
        assert _step(sched, 10**6)[0] * 10**6 == pytest.approx(1.0, rel=1e-2)


def _edited(sched, edit):
    """``sched`` with ``edit(tab)`` applied to every table it builds."""
    build = sched.table

    def table(k):
        tab = build(k)
        edit(tab)
        return tab

    sched.table = table
    return sched


# One failing setting per condition family: (condition, schedule, validate
# overrides, first violation, worst violation), validated at k = 100.
FAILURES = [
    (S.COUPLING, lambda: _edited(S.OEGmviSchedule(1.0), lambda tab: np.put(tab.lam, 5, 1.5)),
     {}, 4, 0.4054651081081644),
    (S.EXTRAP_DET, lambda: S.OEGsmviSchedule(2.0, 0.5), dict(L=3.0), 2, 0.5877866649021222),
    (S.EXTRAP_PLAIN, lambda: S.OEGmviSchedule(1.0), dict(L=1.5), 2, 0.8109302162163288),
    (S.EXTRAP_STOCH, lambda: _edited(S.SoeDecreasingSchedule(4.0, 1.0),
                                     lambda tab: np.put(tab.lam, 9, 3 * tab.lam[9])),
     {}, 9, 1.3913708822839466),
    (S.EXTRAP_BLOCK, lambda: S.SboeGsmviSchedule(1.0, 3, 0.1), dict(Lbar=2.0), 2,
     1.375483445015675),
    (S.EXTRAP_BLOCK_MVI, lambda: S.SboeMviSchedule(1.0, 3), dict(Lbar=2.0), 2,
     1.3862943611198904),
    (S.THETA_GROWTH, lambda: S.OEGsmviSchedule(2.0, 0.5), dict(mu=0.25), 1,
     0.10536051565782856),
    (S.THETA_GROWTH_BLOCK, lambda: S.SboeGsmviSchedule(1.0, 3, 0.1), dict(mu=0.05), 1,
     0.00533145033959026),
    (S.WEIGHT_ORDER, lambda: _edited(S.SboeMviSchedule(1.0, 2),
                                     lambda tab: np.put(tab.gamma, 10, 0.375)),
     {}, 10, 0.40546510810816416),
    (S.FINAL_DET, lambda: S.OEGsmviSchedule(2.0, 0.5), dict(L=3.0), 100, 0.0625),
    (S.FINAL_STOCH, lambda: S.SoeDecreasingSchedule(4.0, 1.0), dict(L=80.0), 100,
     2.871455576559547),
    (S.FINAL_BLOCK, lambda: S.SboeMviSchedule(1.0, 2, L=10.0), {}, 100, 5.25),
    (S.THETA_NONINC, lambda: _edited(S.OEMviSchedule(1.0),
                                     lambda tab: np.put(tab.log_theta, 7, 0.5)),
     {}, 7, 0.5),
    (S.THETA_NONDEC, lambda: _edited(S.SoeGmviSchedule(1.0, 99),
                                     lambda tab: np.put(tab.log_theta, 7, -0.5)),
     {}, 7, 0.5),
]


class TestValidator:
    def _draws(self, count=20):
        rng = np.random.default_rng(0)
        for _ in range(count):
            cond = 10 ** rng.uniform(math.log10(2.0), 4.0)
            L = 10 ** rng.uniform(-1.0, 2.0)
            yield dict(
                L=L,
                mu=L / cond,
                sigma=10 ** rng.uniform(-2.0, 2.0),
                V1=10 ** rng.uniform(-2.0, 2.0),
                b=int(rng.integers(1, 9)),
            )

    @pytest.mark.parametrize("name", S.POLICY_NAMES)
    def test_shipped_policies_pass(self, name):
        k = 10**4
        for draw in self._draws():
            sched = S.make_schedule(name, k=k, Lbar=draw["L"], **draw)
            report = S.validate(sched, k)
            assert report.passed, report.summary()

    def test_linear_rate_policy_condition_set(self):
        sched = S.OEGsmviSchedule(2.0, 0.5)
        report = S.validate(sched, 10**4)
        assert set(report.results) == {
            S.COUPLING, S.EXTRAP_DET, S.THETA_GROWTH, S.FINAL_DET,
        }
        assert report.passed

    def test_plain_policy_passes_with_equality(self):
        report = S.validate(S.OEGmviSchedule(3.0), 100)
        assert report.passed
        assert S.EXTRAP_PLAIN in report.results

    def test_corrupted_stepsize_fails_final_condition(self):
        class Doubled(S.OEGsmviSchedule):
            def table(self, k):
                tab = super().table(k)
                tab.gamma = tab.gamma * 2.0
                return tab

        report = S.validate(Doubled(2.0, 0.5), 1000)
        assert not report.passed
        assert not report.results[S.FINAL_DET].passed

    def test_corrupted_lambda_fails_extrapolation_weight(self):
        class Corrupt(S.OEGmviSchedule):
            def table(self, k):
                tab = super().table(k)
                tab.lam = tab.lam * 1.5
                return tab

        report = S.validate(Corrupt(1.0), 100)
        assert not report.results[S.EXTRAP_PLAIN].passed
        assert report.results[S.EXTRAP_PLAIN].first_violation_t == 2

    @pytest.mark.parametrize("cond,make,overrides,first_t,worst", FAILURES,
                             ids=[case[0] for case in FAILURES])
    def test_each_condition_reports_its_failure(self, cond, make, overrides, first_t, worst):
        report = S.validate(make(), 100, **overrides)
        result = report.results[cond]
        assert (result.passed, result.first_violation_t, result.worst_violation) == (
            False, first_t, worst)
        assert not report.passed

    def test_restart_bookkeeping_in_table(self):
        sched = S.SoeRestartSchedule(4.0, 1.0, 1.0, 1.0)
        k = 500
        tab = sched.table(k)
        starts = np.nonzero(tab.epoch_start[1:])[0] + 1
        ends = sched.epoch_ends(3)
        assert list(starts) == [1] + [e + 1 for e in ends if e + 1 <= k]
        assert np.all(tab.lam[starts] == 0.0)
        report = S.validate(sched, k)
        assert report.passed, report.summary()

    def test_theta_monotonicity_of_averaging_policies(self):
        for sched in (S.OEMviSchedule(1.0), S.SoeMviSchedule(1.0), S.SboeMviSchedule(1.0, 4)):
            tab = sched.table(500)
            assert np.all(np.diff(tab.log_theta[1:]) <= 1e-15)

    def test_sa_has_no_claimed_conditions(self):
        report = S.validate(S.SaSchedule(1.0, 0.5), 100)
        assert report.passed
        assert report.results == {}

    @pytest.mark.parametrize("name", S.POLICY_NAMES)
    def test_triples_positive(self, name):
        sched = S.make_schedule(name, L=2.0, mu=0.1, sigma=1.0, V1=1.0, k=200, b=4)
        tab = sched.table(200)
        assert np.all(tab.gamma[1:] > 0)
        assert np.all(tab.lam[1:] >= 0)
        assert np.all(np.isfinite(tab.log_theta[1:]))  # theta_t > 0
        for t in (1, 2, 50, 200):
            g, lam, th = _step(sched, t)
            assert g > 0 and lam >= 0 and th > 0

    @pytest.mark.parametrize("name", S.POLICY_NAMES)
    def test_tables_leave_the_schedule_unchanged(self, name):
        # run_experiment shares one schedule across its worker threads
        sched = S.make_schedule(name, L=2.0, mu=0.1, sigma=1.0, V1=1.0, k=200, b=4)
        before = copy.deepcopy(vars(sched))
        sched.table(5000)
        sched.table(300).theta(300)
        assert vars(sched) == before
