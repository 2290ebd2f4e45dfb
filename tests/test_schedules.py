"""Stepsize-policy tests: closed-form values, coupling identities, restart
epoch bookkeeping, and the side-condition validator."""

import math

import numpy as np
import pytest

from oevi import schedules as S


class TestLinearRatePolicy:
    def test_values_at_L2_mu1(self):
        g, lam, th = S.OEGsmviSchedule(2.0, 1.0).triple(1)
        assert g == pytest.approx(0.25)
        assert lam == pytest.approx(2.0 / 3.0)
        assert th == pytest.approx(1.5)

    def test_values_at_L1_mu1_t3(self):
        g, lam, th = S.OEGsmviSchedule(1.0, 1.0).triple(3)
        assert (g, lam, th) == (0.5, 0.5, 8.0)

    def test_small_mu_limit(self):
        g, lam, th = S.OEGsmviSchedule(1.0, 1e-12).triple(5)
        assert lam == pytest.approx(1.0)
        assert th == pytest.approx(1.0)

    def test_mu_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            S.OEGsmviSchedule(1.0, 0.0)


class TestPlainMonotonePolicies:
    def test_gmvi_values(self):
        assert S.OEGmviSchedule(3.0).triple(1)[0] == pytest.approx(1.0 / 9.0)
        assert S.OEGmviSchedule(1.0 / 3.0).triple(10)[0] == pytest.approx(1.0)
        for t in (1, 7, 100):
            g, lam, th = S.OEGmviSchedule(2.0).triple(t)
            assert (lam, th) == (1.0, 1.0)

    def test_mvi_values(self):
        assert S.OEMviSchedule(2.0).triple(4)[0] == pytest.approx(0.25)
        assert S.OEMviSchedule(0.5).triple(1)[0] == pytest.approx(1.0)
        for t in (1, 5, 50):
            assert S.OEMviSchedule(1.0).triple(t)[1:] == (1.0, 1.0)


class TestDecreasingPolicy:
    def test_values_at_L4_mu1(self):
        g, lam, th = S.SoeDecreasingSchedule(4.0, 1.0).triple(1)
        assert g == pytest.approx(1.0 / 16.0)
        assert th == pytest.approx(306.0)
        # lambda_1 = theta_0 gamma_0 / (theta_1 gamma_1) with t0 = 16:
        # theta_0 = 272, gamma_0 = 1/15
        assert lam == pytest.approx((272.0 / 15.0) / (306.0 / 16.0))
        assert lam == pytest.approx(0.948148, abs=1e-6)

    def test_asymptotic_stepsize(self):
        sched = S.SoeDecreasingSchedule(4.0, 1.0)
        for t in (10**5, 10**6):
            g, _, _ = sched.triple(t)
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
        g, lam, th = sched.triple(1)
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
            g, lam, th = sched.triple(t)
            assert lam == 0.0
        g, lam, th = sched.triple(2)
        assert lam > 0

    def test_local_index_within_epoch(self):
        sched = S.SoeRestartSchedule(4.0, 1.0, 1.0, 1.0)
        k1 = sched.epoch_length(1)
        s, tl = sched.epoch_of(k1)
        assert (s, tl) == (1, k1)
        s, tl = sched.epoch_of(k1 + 1)
        assert (s, tl) == (2, 1)

    def test_epoch_lengths_double_asymptotically(self):
        sched = S.SoeRestartSchedule(4.0, 1.0, 1.0, 1.0)
        k9, k10 = sched.epoch_length(9), sched.epoch_length(10)
        assert k10 / k9 == pytest.approx(2.0, rel=1e-6)

    def test_table_matches_triple(self):
        sched = S.SoeRestartSchedule(4.0, 1.0, 1.0, 1.0)
        tab = sched.table(300)
        for t in (1, 2, 127, 128, 129, 200, 300):
            g, lam, th = sched.triple(t)
            assert tab.gamma[t] == pytest.approx(g, rel=1e-14)
            assert tab.lam[t] == pytest.approx(lam, rel=1e-14)
            assert math.exp(tab.log_theta[t]) == pytest.approx(th, rel=1e-12)

    def test_noise_ratio_override(self):
        sched = S.SoeRestartSchedule(4.0, 1.0, 50.0, 1.0, noise_ratio=1.0)
        assert sched.epoch_length(1) == 128


class TestStochasticMonotonePolicies:
    def test_soe_gmvi_values(self):
        g, lam, th = S.SoeGmviSchedule(1.0, 99).triple(1)
        m = S.SoeGmviSchedule(1.0, 99).table(1).batch[1]
        assert (g, lam, th, m) == (0.25, 1.0, 1.0, 100)
        m2 = S.SoeGmviSchedule(1.0, 198).table(1).batch[1]
        assert m2 - 1 == 2 * (m - 1)

    def test_soe_mvi_values(self):
        g, lam, th = S.SoeMviSchedule(1.0).triple(4)
        assert g == pytest.approx(0.5)
        assert th == 1.0
        # coupling gamma_{t-1} = gamma_t lambda_t forces lambda_4 = sqrt(4/3)
        assert lam == pytest.approx(math.sqrt(4.0 / 3.0))

    def test_soe_mvi_gamma_decreasing_lambda_to_one(self):
        sched = S.SoeMviSchedule(2.0)
        gs = [sched.triple(t)[0] for t in range(1, 50)]
        assert all(a > b for a, b in zip(gs, gs[1:]))
        assert sched.triple(10**6)[1] == pytest.approx(1.0, abs=1e-5)

    def test_soe_mvi_coupling(self):
        sched = S.SoeMviSchedule(1.5)
        for t in range(2, 100):
            g_prev = sched.triple(t - 1)[0]
            g, lam, _ = sched.triple(t)
            assert g * lam == pytest.approx(g_prev, rel=1e-12)


class TestBlockPolicies:
    def test_single_block_reduces_to_linear_rate(self):
        g, lam, th = S.SboeGsmviSchedule(1.0, 1, 0.5).triple(3)
        g2, lam2, th2 = S.OEGsmviSchedule(1.0, 0.5).triple(3)
        assert g == pytest.approx(g2)
        assert lam == pytest.approx(lam2)
        assert th == pytest.approx(th2)

    def test_values_b5(self):
        g, lam, th = S.SboeGsmviSchedule(1.0, 5, 0.1).triple(1)
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
        g, lam, th = S.SboeMviSchedule(1.0, 5).triple(1)
        assert (g, lam, th) == (0.05, 5.0, 1.0)
        g1, lam1, _ = S.SboeMviSchedule(1.0, 1).triple(1)
        assert (g1, lam1) == (0.25, 1.0)
        for t in (1, 10, 100):
            assert S.SboeMviSchedule(2.0, 3).triple(t)[2] == 1.0


class TestBaselinePolicy:
    def test_values(self):
        assert S.SaSchedule(4.0, 1.0).triple(1)[0] == pytest.approx(1.0 / 17.0)

    def test_asymptotics_and_monotonicity(self):
        sched = S.SaSchedule(4.0, 1.0)
        gs = [sched.triple(t)[0] for t in range(1, 200)]
        assert all(a > b for a, b in zip(gs, gs[1:]))
        assert sched.triple(10**6)[0] * 10**6 == pytest.approx(1.0, rel=1e-2)


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
            g, lam, th = sched.triple(t)
            assert g > 0 and lam >= 0 and th > 0
