"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Tolerances are fixed here, not calibrated: theorem bounds
are checked with 1e-9 absolute slack (deterministic) or 3 standard errors
(expectation bounds over seeds); Monte-Carlo oracles use 4 standard errors.
Stated runtime budgets are asserted; they carry generous headroom on
commodity hardware, and the whole module takes a few minutes.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from oevi.geometry import (
    FullSpace,
    SimplexProduct,
    analytic_center,
    bregman,
)
from oevi.harness import mean_iteration_ns, suite_glm, suite_traffic
from oevi.metrics import (
    bound_gmvi_movement,
    bound_gmvi_residual,
    bound_gsmvi_linear,
    bound_mvi_gap,
    bound_sboe_linear,
    bound_soe_decreasing,
    bound_soe_gmvi_residual_sq,
    bound_soe_restart,
    max_bregman_from,
    residual_certificate,
    weak_gap_exact_affine,
)
from oevi.problems import (
    AffineSpec,
    GLMSpec,
    affine_problem,
    block_lipschitz,
    glm_exact_hinge,
    glm_exact_ramp,
    glm_generate,
    glm_oracle,
    glm_problem,
    glm_sigma_bound,
    ramp_mean_jacobian,
    solve_reference,
    traffic_generate,
)
from oevi import schedules as S
from oevi.solvers import (
    OE_MVI_AVERAGE,
    oe_run,
    output_rng,
    sa_run,
    sboe_run,
    select_uniform_R,
    soe_run,
    weighted_average,
)


@contextmanager
def criterion(num, name, budget_s):
    tic = time.perf_counter()
    failed = None
    try:
        yield
    except BaseException as exc:
        failed = exc
        raise
    finally:
        elapsed = time.perf_counter() - tic
        status = "FAIL" if failed else "PASS"
        print(f"[{status}] criterion {num}: {name} ({elapsed:.2f}s / budget {budget_s}s)")
        if failed is None:
            assert elapsed < budget_s, f"criterion {num} exceeded its runtime budget"


def _pd_affine(n, seed):
    """Random strongly monotone affine instance with interior solution."""
    rng = np.random.default_rng(seed)
    E = rng.normal(size=(n, n))
    shift = abs(float(np.linalg.eigvalsh(E + E.T)[0])) / 2.0 + 1.0
    G = E + shift * np.eye(n)
    b = rng.normal(size=n)
    return affine_problem(AffineSpec(G, b), FullSpace(n),
                          known_solution=np.linalg.solve(G, -b))


def _skew_plus_tiny(n, seed, eps=1e-3, noise_sigma=0.0):
    """Monotone (skew + tiny PSD) affine instance on the whole space."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    G = (A - A.T) / 2.0 + eps * np.eye(n)
    b = rng.normal(size=n)
    return affine_problem(AffineSpec(G, b), FullSpace(n), noise_sigma=noise_sigma,
                          known_solution=np.linalg.solve(G, -b))


def test_criterion_01_gsmvi_linear_rate():
    with criterion(1, "linear-rate distance bound, pointwise to k = 500", 1.0):
        p = _pd_affine(50, seed=101)
        L, mu = p.constants.L, p.constants.mu
        assert mu > 0
        x1 = np.ones(50)
        V1 = bregman(x1, p.known_solution)
        traj = oe_run(p, S.OEGsmviSchedule(L, mu), x1, 500)
        for k in range(1, 501):
            lhs = bregman(traj.xs[k + 1], p.known_solution)
            assert lhs <= bound_gsmvi_linear(L, mu, V1, k) + 1e-9, f"violated at k={k}"


def test_criterion_02_gmvi_movement_and_residual():
    with criterion(2, "movement sum and best-movement residual certificate", 5.0):
        p = _skew_plus_tiny(30, seed=202)
        L = p.constants.L
        x1 = np.zeros(30)
        V1 = bregman(x1, p.known_solution)
        k_max = 10_000
        traj = oe_run(p, S.OEGmviSchedule(L), x1, k_max)
        move_limit = bound_gmvi_movement(V1) + 1e-9
        for k in (100, 1000, 10_000):
            total = float(traj.movement_sq[1 : k + 1].sum())
            assert total <= move_limit, f"movement sum at k={k}"
            # best-movement index over the k-iteration prefix (the schedule is
            # constant, so the prefix equals a standalone k-iteration run)
            sums = traj.movement_sq[1 : k + 1] + traj.movement_sq[:k]
            R = int(np.argmin(sums)) + 1
            cert = residual_certificate(traj, R, p.operator(traj.xs[R + 1]))
            assert cert <= bound_gmvi_residual(L, p.constants.L_omega, V1, k), f"residual at k={k}"


def test_criterion_03_mvi_gap_bound():
    with criterion(3, "averaged-iterate weak gap on a simplex product", 10.0):
        rng = np.random.default_rng(303)
        n = 20
        A = rng.normal(size=(n, n))
        G = A - A.T  # skew: monotone, mu = 0
        b = rng.uniform(0.0, 1.0, size=n)
        fs = SimplexProduct([4] * 5, [1.0] * 5)
        p = affine_problem(AffineSpec(G, b), fs)
        L = p.constants.L
        x1 = analytic_center(fs)
        traj = oe_run(p, S.OEMviSchedule(L), x1, 1000)
        max_v = max_bregman_from(fs, x1)
        inner_tol = 1e-8
        for k in (100, 1000):
            x_bar = weighted_average(traj, OE_MVI_AVERAGE, k=k)
            assert fs.contains(x_bar)
            gap = weak_gap_exact_affine(p, x_bar, inner_tol)
            assert gap <= bound_mvi_gap(L, k, max_v) + 2 * inner_tol, f"gap at k={k}"


def test_criterion_04_schedule_validator():
    with criterion(4, "validator: all policies pass, corrupted fails", 1.0):
        k = 10_000
        rng = np.random.default_rng(404)
        for _ in range(20):
            cond = 10 ** rng.uniform(math.log10(2.0), 4.0)
            L = 10 ** rng.uniform(-1.0, 2.0)
            draw = dict(
                L=L, mu=L / cond,
                sigma=10 ** rng.uniform(-2.0, 2.0),
                V1=10 ** rng.uniform(-2.0, 2.0),
                b=int(rng.integers(1, 9)),
            )
            for name in S.POLICY_NAMES:
                sched = S.make_schedule(name, k=k, Lbar=draw["L"], **draw)
                report = S.validate(sched, k)
                assert report.passed, f"{name} failed: {report.summary()}"

        class Doubled(S.OEGsmviSchedule):
            def table(self, kk):
                tab = super().table(kk)
                tab.gamma = tab.gamma * 2.0
                return tab

        report = S.validate(Doubled(1.0, 0.1), k)
        assert not report.passed
        assert not report.results[S.FINAL_DET].passed


def test_criterion_05_degenerate_equivalences():
    with criterion(5, "zero-noise and single-block reductions", 1.0):
        import dataclasses

        p = traffic_generate(10, 5, 0.5, seed=505)
        noiseless = dataclasses.replace(p, oracle=lambda x, rng, m=1: p.operator(x))
        x1 = analytic_center(p.set)
        k = 200
        c = p.constants
        for name in ("SOE-1", "SOE-2", "SOE-3", "SOE-4"):
            sched = S.make_schedule(name, L=c.L, mu=c.mu, sigma=1.0, V1=1.0, k=k)
            t_oe = oe_run(p, sched, x1, k)
            t_soe = soe_run(noiseless, sched, x1, k, seed=3, batch=1)
            assert np.abs(t_soe.xs - t_oe.xs).max() <= 1e-12, name

        p1 = traffic_generate(12, 1, 0.5, seed=506)
        c1 = p1.constants
        x1 = analytic_center(p1.set)
        t_oe = oe_run(p1, S.OEGsmviSchedule(c1.L, c1.mu), x1, k)
        t_b = sboe_run(p1, S.SboeGsmviSchedule(Lbar=c1.L, b=1, mu=c1.mu, L=c1.L),
                       x1, k, seed=4)
        assert np.abs(t_b.xs - t_oe.xs).max() <= 1e-10


def test_criterion_06_hinge_oracle_unbiased():
    with criterion(6, "hinge oracle unbiasedness, componentwise 4-sigma", 5.0):
        n, N = 20, 200_000
        p = glm_generate(n, "hinge", R=2.0, sigma_y=0.5, seed=606, d_minus=0.3)
        spec = p.glm
        point_rng = np.random.default_rng(607)
        for i in range(5):
            x = p.set.project(point_rng.normal(size=n))
            exact = glm_exact_hinge(spec, x)
            rng = np.random.default_rng(6600 + i)
            eta = rng.standard_normal((N, n))
            s = eta @ (spec.A @ x)
            y = rng.normal(np.maximum(eta @ (spec.A @ spec.x_star), 0.0), spec.sigma_y)
            samples = eta * (np.maximum(s, 0.0) - y)[:, None]
            mean = samples.mean(axis=0)
            std = samples.std(axis=0, ddof=1)
            assert np.all(np.abs(mean - exact) <= 4.0 * std / math.sqrt(N)), f"point {i}"
            # the library's vectorized oracle mean sits in the same band
            lib_mean = glm_oracle(spec, x, np.random.default_rng(7700 + i), N)
            assert np.all(np.abs(lib_mean - exact) <= 4.0 * std / math.sqrt(N)), f"oracle {i}"


def test_criterion_07_ramp_closed_form():
    with criterion(7, "ramp closed form: scalar Monte Carlo and Jacobian", 10.0):
        rng = np.random.default_rng(707)
        zeta = rng.standard_normal(10**6)
        for s in (0.5, 1.0, 2.0):
            vals = zeta * np.clip(zeta * s, 0.0, 1.0)
            mean = vals.mean()
            se = vals.std(ddof=1) / math.sqrt(vals.size)
            expect = 0.5 * s * math.erf(1.0 / (math.sqrt(2.0) * s))
            assert abs(mean - expect) <= 4.0 * se, f"scale {s}"

        n, R, h = 4, 10.0, 1e-6
        x_star = np.zeros(n)
        x_star[0] = R
        spec = GLMSpec("ramp", np.eye(n), x_star, R, 0.0)
        for i in range(100):
            x = rng.normal(size=n)
            x *= rng.uniform(0.5, R) / np.linalg.norm(x)
            J = ramp_mean_jacobian(x)
            fd = np.empty((n, n))
            for j in range(n):
                e = np.zeros(n)
                e[j] = h
                fd[:, j] = (glm_exact_ramp(spec, x + e) - glm_exact_ramp(spec, x - e)) / (2 * h)
            assert np.abs(fd - J).max() <= 1e-5, f"point {i}"


def test_criterion_08_soe1_expectation_bound_and_ordering():
    with criterion(8, "decreasing-policy expectation bound; ordering vs classic SA", 120.0):
        # bound part: n = 20, single-sample oracle, 200 seeds, k = 2000
        n, k, seeds = 20, 2000, 200
        p = glm_generate(n, "hinge", R=2.0, sigma_y=1.0, seed=813, d_minus=0.1)
        c = p.constants
        x1 = analytic_center(p.set)
        x_star = p.known_solution
        V1 = bregman(x1, x_star)
        sched = S.SoeDecreasingSchedule(c.L, c.mu)
        finals = np.array([
            bregman(soe_run(p, sched, x1, k, seed=sd, batch=1).final, x_star)
            for sd in range(seeds)
        ])
        se = finals.std(ddof=1) / math.sqrt(seeds)
        sigma = math.sqrt(glm_sigma_bound(p.glm))
        limit = bound_soe_decreasing(c.L, c.mu, sigma, V1, k) + 3 * se
        assert finals.mean() <= limit, (finals.mean(), limit)

        # ordering part: the benchmark configuration at the worst conditioning
        # (d_minus = 1e-3), against the classic Robbins-Monro baseline, at a
        # budget within its recovery horizon of ~L/mu iterations
        n2, k2, m2, seeds2 = 100, 1000, 100, 60
        p2 = glm_generate(n2, "hinge", R=100.0, sigma_y=1.0, seed=88, d_minus=1e-3)
        c2 = p2.constants
        x1 = analytic_center(p2.set)
        x_star = p2.known_solution
        soe_sched = S.SoeDecreasingSchedule(c2.L, c2.mu)
        sa_sched = S.SaSchedule(c2.L, c2.mu, parity_offset=False)
        soe_f = np.array([
            bregman(soe_run(p2, soe_sched, x1, k2, seed=sd, batch=m2).final, x_star)
            for sd in range(seeds2)
        ])
        sa_f = np.array([
            bregman(sa_run(p2, sa_sched, x1, k2, seed=sd, batch=m2).final, x_star)
            for sd in range(seeds2)
        ])
        assert soe_f.mean() < sa_f.mean(), (soe_f.mean(), sa_f.mean())


def test_criterion_09_restart_epoch_halving():
    with criterion(9, "restart policy: expected distance halves per epoch", 180.0):
        n, R, sigma_y, m, seeds = 20, 2.0, 0.1, 200, 200
        rng = np.random.default_rng(909)
        x_star = rng.uniform(0.0, 1.0, size=n)
        x_star *= R / np.linalg.norm(x_star)
        spec = GLMSpec("hinge", np.eye(n), x_star, R, sigma_y)
        p = glm_problem(spec)
        c = p.constants
        x1 = analytic_center(p.set)
        V1 = bregman(x1, p.known_solution)
        # honest per-step noise level: analytic oracle bound cut by the batch
        sigma_eff = math.sqrt(glm_sigma_bound(spec) / m)
        sched = S.SoeRestartSchedule(c.L, c.mu, sigma_eff, V1)
        ends = sched.epoch_ends(3)
        trajs_vals = {s: [] for s in (1, 2, 3)}
        for sd in range(seeds):
            traj = soe_run(p, sched, x1, ends[-1], seed=sd, batch=m)
            for s, K in enumerate(ends, start=1):
                trajs_vals[s].append(bregman(traj.xs[K + 1], p.known_solution))
        for s in (1, 2, 3):
            vals = np.array(trajs_vals[s])
            se = vals.std(ddof=1) / math.sqrt(seeds)
            limit = bound_soe_restart(V1, s) + 3 * se
            assert vals.mean() <= limit, f"epoch {s}: {vals.mean()} > {limit}"


def test_criterion_10_sboe_linear_rate_and_timing():
    with criterion(10, "block policy: expected linear rate and cheaper iterations", 180.0):
        p = traffic_generate(100, 5, 0.01, seed=77)
        c = p.constants
        x_star = solve_reference(p, 1e-10)
        Lbar = block_lipschitz(p.affine, p.block_partition)
        x1 = analytic_center(p.set)
        V1 = bregman(x1, x_star)
        F1 = p.operator(x1)
        k, b, seeds = 5000, 5, 100
        sched = S.SboeGsmviSchedule(Lbar=Lbar, b=b, mu=c.mu, L=c.L)
        assert S.validate(sched, k).passed
        finals = np.array([
            bregman(sboe_run(p, sched, x1, k, seed=sd).final, x_star)
            for sd in range(seeds)
        ])
        se = finals.std(ddof=1) / math.sqrt(seeds)
        limit = bound_sboe_linear(Lbar, b, c.mu, V1, float(F1 @ (x1 - x_star)), k) + 3 * se
        assert finals.mean() <= limit, (finals.mean(), limit)

        # per-iteration cost at n = 1000: one block prox plus a rank update
        # against a full matrix-vector product (absolute seconds are
        # machine-bound; only the ordering is asserted)
        p_big = traffic_generate(1000, 5, 0.005, seed=99)
        cb = p_big.constants
        Lbar_big = block_lipschitz(p_big.affine, p_big.block_partition)
        x1 = analytic_center(p_big.set)
        k_time = 300
        t_oe = oe_run(p_big, S.OEGsmviSchedule(cb.L, cb.mu), x1, k_time)
        t_b = sboe_run(
            p_big, S.SboeGsmviSchedule(Lbar=Lbar_big, b=5, mu=cb.mu, L=cb.L),
            x1, k_time, seed=1, recursive_affine=True,
        )
        oe_ns = mean_iteration_ns(t_oe)
        sboe_ns = mean_iteration_ns(t_b)
        assert sboe_ns < oe_ns, (sboe_ns, oe_ns)


def test_criterion_11_stochastic_gmvi_residual():
    with criterion(11, "stochastic plain-monotone: expected squared residual", 120.0):
        n, k, seeds, sigma = 20, 200, 100, 1.0
        p = _skew_plus_tiny(n, seed=31, noise_sigma=sigma)
        c = p.constants
        x1 = np.zeros(n)
        V1 = bregman(x1, p.known_solution)
        sched = S.SoeGmviSchedule(c.L, k)  # batch m = k + 1 per step
        vals = []
        for sd in range(seeds):
            traj = soe_run(p, sched, x1, k, seed=sd)
            assert traj.oracle_calls == k * (k + 1)
            R, _ = select_uniform_R(traj, output_rng(sd))
            vals.append(residual_certificate(traj, R, p.operator(traj.xs[R + 1])) ** 2)
        vals = np.array(vals)
        se = vals.std(ddof=1) / math.sqrt(seeds)
        limit = bound_soe_gmvi_residual_sq(c.L, p.constants.L_omega, sigma, V1, k) + 3 * se
        assert vals.mean() <= limit, (vals.mean(), limit)


def test_criterion_12_suite_determinism(tmp_path):
    with criterion(12, "suites rerun byte-identical (timing table excluded)", 120.0):
        def run_all(root):
            suite_traffic(sizes=(30,), d_minus=0.5, seeds=(1, 2), k=40,
                          output=root / "traffic")
            suite_glm("hinge", seeds=(1,), n=10, k=25, restart_k=25,
                      d_minus_grid=(0.1, 0.001), output=root / "hinge")
            suite_glm("ramp", seeds=(1,), n=10, k=25, radius_grid=(2.0, 4.0),
                      output=root / "ramp")

        run_all(tmp_path / "a")
        run_all(tmp_path / "b")
        files_a = sorted(f for f in (tmp_path / "a").rglob("*.csv"))
        files_b = sorted(f for f in (tmp_path / "b").rglob("*.csv"))
        assert [f.relative_to(tmp_path / "a") for f in files_a] == [
            f.relative_to(tmp_path / "b") for f in files_b
        ]
        assert len(files_a) > 20
        for fa, fb in zip(files_a, files_b):
            if fa.name == "timing.csv":  # wall-clock table: not reproducible
                continue
            assert fa.read_bytes() == fb.read_bytes(), fa.name
