"""Problem-family tests: affine/traffic instances, GLM operators and oracles,
mini-batching, reference solutions, and JSON round-trips."""

import dataclasses
import json
import math
import re
import tracemalloc
import warnings
from contextlib import nullcontext as _nullcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oevi import problems as problems_module
from oevi.geometry import (
    Ball,
    Box,
    FullSpace,
    SimplexProduct,
    analytic_center,
    bregman,
    partition_slices,
)
from oevi.problems import (
    AffineSpec,
    _sigma_max,
    _smaller_det,
    GLMSpec,
    affine_constants,
    affine_eval,
    affine_problem,
    block_lipschitz,
    glm_constants,
    glm_exact_hinge,
    glm_exact_ramp,
    glm_generate,
    glm_oracle,
    glm_problem,
    problem_from_json,
    problem_to_json,
    ramp_mean_jacobian,
    solve_reference,
    traffic_generate,
)
from oevi.solvers import iteration_rng


def power_iteration_sigma_max(G, iters=5000):
    """Independent largest-singular-value oracle (only matrix products)."""
    rng = np.random.default_rng(4)
    v = rng.normal(size=G.shape[1])
    v /= np.linalg.norm(v)
    M = G.T @ G
    for _ in range(iters):
        v = M @ v
        v /= np.linalg.norm(v)
    return math.sqrt(float(v @ (M @ v)))


def power_iteration_lambda_min_sym(S, iters=5000):
    """Independent smallest-eigenvalue oracle for symmetric S: power iteration
    on c I - S with c a Gershgorin upper bound for lambda_max."""
    c = float(np.max(np.sum(np.abs(S), axis=1)))
    M = c * np.eye(S.shape[0]) - S
    rng = np.random.default_rng(5)
    v = rng.normal(size=S.shape[0])
    v /= np.linalg.norm(v)
    for _ in range(iters):
        v = M @ v
        v /= np.linalg.norm(v)
    return c - float(v @ (M @ v))


def eig_2x2_sym_min(S):
    """Closed-form smallest eigenvalue of a symmetric 2x2 matrix."""
    tr = S[0, 0] + S[1, 1]
    det = S[0, 0] * S[1, 1] - S[0, 1] * S[1, 0]
    return 0.5 * (tr - math.sqrt(tr * tr - 4.0 * det))


def _is_nonmonotone(G):
    """``AffineSpec.monotone``'s rule on independent estimates: G + G^T has
    lambda_min below -1e-8 max(|lambda|, 1), where the library warns."""
    S = G + G.T
    return power_iteration_lambda_min_sym(S, iters=2000) < -1e-8 * max(
        power_iteration_sigma_max(S), 1.0)


class TestAffine:
    def test_eval_identity(self):
        spec = AffineSpec(np.eye(2), np.array([5.0, 5.0]))
        np.testing.assert_allclose(affine_eval(spec, [1.0, 0.0]), [6.0, 5.0])

    def test_eval_constant(self):
        spec = AffineSpec(np.zeros((2, 2)), np.array([5.0, 5.0]))
        np.testing.assert_allclose(affine_eval(spec, [9.0, -3.0]), [5.0, 5.0])

    def test_eval_direct(self):
        spec = AffineSpec(np.array([[2.0, 1.0], [0.0, 2.0]]), np.zeros(2))
        np.testing.assert_allclose(affine_eval(spec, [1.0, 1.0]), [3.0, 2.0])

    def test_stored_column_major(self):
        # a row-major G is stored column-major with the same values; a
        # column-major G is kept without a copy, as traffic_generate builds it
        G = np.random.default_rng(4).normal(size=(5, 5))
        spec = AffineSpec(G, np.zeros(5))
        assert spec.G.flags.f_contiguous
        assert spec.G.tobytes() == G.tobytes()
        assert AffineSpec(spec.G, np.zeros(5)).G is spec.G
        assert traffic_generate(20, 5, 0.5, seed=1).affine.G.flags.f_contiguous

    def test_eval_dimension_mismatch(self):
        spec = AffineSpec(np.eye(2), np.zeros(2))
        with pytest.raises(ValueError):
            affine_eval(spec, [1.0, 2.0, 3.0])

    def test_constants_scalar_matrix(self):
        L, mu = affine_constants(AffineSpec(3.0 * np.eye(4), np.zeros(4)))
        assert L == pytest.approx(3.0)
        assert mu == pytest.approx(3.0)

    def test_constants_skew(self):
        G = np.array([[0.0, 1.0], [-1.0, 0.0]])
        L, mu = affine_constants(AffineSpec(G, np.zeros(2)))
        assert L == pytest.approx(1.0)
        assert mu == pytest.approx(0.0, abs=1e-12)

    def test_constants_2x2_closed_form(self):
        G = np.array([[2.0, 1.0], [0.0, 2.0]])
        L, mu = affine_constants(AffineSpec(G, np.zeros(2)))
        assert L == pytest.approx(power_iteration_sigma_max(G), rel=1e-8)
        assert mu == pytest.approx(0.5 * eig_2x2_sym_min(G + G.T), rel=1e-12)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_constants_match_power_iteration(self, dim):
        rng = np.random.default_rng(40 + dim)
        for _ in range(5):
            G = rng.normal(size=(dim, dim)) + dim * np.eye(dim)
            with pytest.warns() if _is_nonmonotone(G) else _nullcontext():
                L, mu = affine_constants(AffineSpec(G, np.zeros(dim)))
            assert L == pytest.approx(power_iteration_sigma_max(G), abs=1e-8 * max(L, 1))
            lam_min = power_iteration_lambda_min_sym(G + G.T)
            assert mu == pytest.approx(max(0.5 * lam_min, 0.0), abs=1e-8 * max(abs(lam_min), 1))

    def test_non_monotone_clamped_with_warning(self):
        G = np.array([[-1.0, 0.0], [0.0, -1.0]])
        with pytest.warns(UserWarning):
            L, mu = affine_constants(AffineSpec(G, np.zeros(2)))
        assert mu == 0.0

    @pytest.mark.parametrize("n", [3, 40, 250])
    def test_diag_metric_bounds_the_scaled_spectrum(self, n):
        # L_w >= lambda_max(W^-1/2 (G + G^T) W^-1/2), across row panels, and
        # L_w W has the smaller determinant exactly when its dense row-sum
        # bound times the geometric mean of w is below lambda_max
        rng = np.random.default_rng(n)
        for scale in (0.0, 2.0, 6.0):
            A = rng.normal(size=(n, n)) * np.exp(rng.uniform(-scale, scale, n))[:, None]
            B = rng.normal(size=(n, n))
            spec = AffineSpec(A @ A.T + B - B.T, np.zeros(n))
            S = spec.G + spec.G.T
            lam_max = spec.spectrum[1]
            w, L_w, _ = spec.jacobi_metric
            np.testing.assert_array_equal(w, np.maximum(np.diag(S), 1e-3 * lam_max))
            scaled = S / np.sqrt(np.outer(w, w))
            assert L_w >= float(np.linalg.eigvalsh(scaled)[-1]) * (1.0 - 1e-12)
            dense = float(np.abs(scaled).sum(axis=1).max())
            assert L_w == pytest.approx(dense, rel=1e-12)
            assert _smaller_det(w, L_w, lam_max) == \
                (dense * math.exp(float(np.log(w).mean())) < lam_max)

    @pytest.mark.parametrize("n", [3, 40, 250])
    def test_operator_metric_bounds_the_scaled_norm(self, n):
        # L_D >= ||W^-1/2 G W^-1/2||_2, skew part included, across column panels
        rng = np.random.default_rng(n)
        for scale in (0.0, 2.0, 6.0):
            A = rng.normal(size=(n, n)) * np.exp(rng.uniform(-scale, scale, n))[:, None]
            B = rng.normal(size=(n, n))
            spec = AffineSpec(A @ A.T + 5.0 * (B - B.T), np.zeros(n))
            w, _, L_D = spec.jacobi_metric
            scaled = spec.G / np.sqrt(np.outer(w, w))
            assert L_D >= float(np.linalg.norm(scaled, 2)) * (1 - 1e-12)
            absolute = np.abs(scaled)
            assert L_D == pytest.approx(
                math.sqrt(absolute.sum(axis=0).max() * absolute.sum(axis=1).max()), rel=1e-12)

    def test_block_lipschitz_dominated_by_full(self):
        rng = np.random.default_rng(9)
        G = rng.normal(size=(12, 12))
        spec = AffineSpec(G, np.zeros(12))
        lbar = block_lipschitz(spec, (4, 4, 4))
        L = float(np.linalg.norm(G, 2))
        assert lbar <= L + 1e-12
        assert L <= math.sqrt(3) * lbar + 1e-12


@st.composite
def _matrices(draw):
    """Tall, wide and square matrices: dense, rank-one or zero, with entries
    scaled by 2^e for e across nearly the whole exponent range."""
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["dense", "rank-one", "zero"]))
    entries = st.floats(-10.0, 10.0)
    if kind == "dense":
        M = draw(hnp.arrays(np.float64, (rows, cols), elements=entries))
    elif kind == "rank-one":
        M = np.outer(draw(hnp.arrays(np.float64, rows, elements=entries)),
                     draw(hnp.arrays(np.float64, cols, elements=entries)))
    else:
        M = np.zeros((rows, cols))
    return np.ldexp(M, draw(st.integers(-1000, 1000)))


@settings(max_examples=300, deadline=None)
@given(_matrices())
def test_sigma_max_matches_svd(M):
    assert _sigma_max(M) == pytest.approx(float(np.linalg.norm(M, 2)), rel=1e-12, abs=0.0)


def test_traffic_constants_match_svd():
    p = traffic_generate(100, 5, 0.05, seed=41)
    G = p.affine.G
    assert affine_constants(p.affine)[0] == pytest.approx(float(np.linalg.norm(G, 2)), rel=1e-12)
    lbar = max(float(np.linalg.norm(G[sl, :], 2)) for sl, _ in p.blocks)
    assert block_lipschitz(p.affine, p.block_partition) == pytest.approx(lbar, rel=1e-12)


_GOLDEN_RAGGED = Path(__file__).resolve().parents[1] / "scripts" / "golden_ragged.json"
# problems with a block partition: equal blocks, and the ragged golden instance
_BLOCK_PROBLEMS = pytest.mark.parametrize("make", [
    lambda: traffic_generate(100, 5, 0.05, seed=41),
    lambda: problem_from_json(_GOLDEN_RAGGED.read_text()),
], ids=["traffic-100", "golden-ragged"])


@_BLOCK_PROBLEMS
def test_problem_lbar_is_block_lipschitz_bit_for_bit(make):
    p = make()
    assert p.Lbar == block_lipschitz(p.affine, p.block_partition)
    assert p.Lbar is p.Lbar  # computed once, then read


def test_problem_lbar_is_L_without_affine_data_or_partition():
    for p in (glm_generate(3, "hinge", R=2.0, sigma_y=0.1, seed=2),
              affine_problem(AffineSpec(np.eye(2), np.zeros(2)), FullSpace(2))):
        assert p.Lbar == p.constants.L


class TestTraffic:
    def test_structure(self):
        p = traffic_generate(10, 5, 1.0, seed=7)
        assert isinstance(p.set, SimplexProduct)
        assert p.set.block_sizes == (2,) * 5
        assert p.block_partition == (2,) * 5
        assert p.constants.mu > 0

    def test_determinism(self):
        p1 = traffic_generate(10, 5, 0.5, seed=123)
        p2 = traffic_generate(10, 5, 0.5, seed=123)
        np.testing.assert_array_equal(p1.affine.G, p2.affine.G)
        np.testing.assert_array_equal(p1.affine.b, p2.affine.b)

    def test_smaller_d_minus_smaller_mu(self):
        small = traffic_generate(20, 5, 1e-3, seed=5).constants.mu
        large = traffic_generate(20, 5, 1e-1, seed=5).constants.mu
        assert 0 < small < large

    def test_offset_and_nonnegativity(self):
        p = traffic_generate(10, 5, 0.3, seed=2)
        np.testing.assert_array_equal(p.affine.b, 5.0 * np.ones(10))
        assert np.all(p.affine.G >= 0)

    @pytest.mark.parametrize("n, d_minus", [(1, 1.0), (7, 0.001), (60, 0.005)])
    def test_matrix_matches_formula(self, n, d_minus):
        # the documented G = diag(g) + d_minus * 1e-2 * Ghat, bit for bit
        ghat = np.random.default_rng(3).uniform(0.0, 1.0, size=(n, n))
        expect = np.diag(np.linspace(d_minus, 1.0, n)) + d_minus * 1e-2 * ghat
        p = traffic_generate(n, 1, d_minus, seed=3)
        assert p.affine.G.tobytes() == expect.tobytes()

    def test_peak_memory(self):
        # G is built in place: the peak is G plus the eigensolve's G + G^T,
        # where building it from Ghat and diag(g) held three n x n arrays
        traffic_generate(300, 5, 0.005, seed=1)
        tracemalloc.start()
        try:
            p = traffic_generate(300, 5, 0.005, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * p.affine.G.nbytes

    def test_bad_partition_rejected(self):
        with pytest.raises(ValueError):
            traffic_generate(10, 3, 0.5, seed=1)
        with pytest.raises(ValueError):
            traffic_generate(10, 5, 1.5, seed=1)


@pytest.mark.parametrize("n", [0, -2])
def test_glm_generate_rejects_nonpositive_n(n):
    with pytest.raises(ValueError, match=re.escape(f"n must be in [1, inf), got {n}") + "$"):
        glm_generate(n, "hinge", R=1.0, sigma_y=0.5, seed=4)


class TestGlmOracle:
    def test_zero_at_solution_noiseless(self):
        p = glm_generate(6, "hinge", R=2.0, sigma_y=0.0, seed=3, d_minus=0.5)
        spec = p.glm
        for s in range(5):
            rng = np.random.default_rng(s)
            np.testing.assert_allclose(
                glm_oracle(spec, spec.x_star, rng, 1), np.zeros(6), atol=1e-12
            )

    def test_fixed_seed_reproducible(self):
        p = glm_generate(5, "hinge", R=1.0, sigma_y=0.5, seed=4, d_minus=0.5)
        x = p.set.project(np.ones(5))
        a = glm_oracle(p.glm, x, np.random.default_rng(11), 1)
        b = glm_oracle(p.glm, x, np.random.default_rng(11), 1)
        np.testing.assert_array_equal(a, b)

    def test_batch_one_matches_single_sample(self):
        # one sample eta f(eta^T A x) - eta y from the same stream: eta first,
        # then the label y ~ N(f(eta^T A x*), sigma_y)
        p = glm_generate(5, "hinge", R=1.0, sigma_y=0.3, seed=6, d_minus=0.5)
        spec = p.glm
        x = p.set.project(np.full(5, 0.2))
        rng = np.random.default_rng(2)
        eta = rng.standard_normal(5)
        y = rng.normal(max(eta @ (spec.A @ spec.x_star), 0.0), spec.sigma_y)
        expected = eta * max(eta @ (spec.A @ x), 0.0) - eta * y
        out = glm_oracle(spec, x, np.random.default_rng(2), 1)
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("m", [1, 200])
    @pytest.mark.parametrize("sigma_y", [0.0, 0.1, 1.0, 3.7])
    @pytest.mark.parametrize("link", ["hinge", "ramp"])
    def test_label_draw_is_the_rng_normal_stream(self, link, sigma_y, m):
        # f(s*) + sigma_y z holds the bytes rng.normal(f(s*), sigma_y) draws,
        # which numpy computes as loc + scale z without a fused multiply-add
        spec = glm_generate(5, link, R=1.0, sigma_y=sigma_y, seed=4).glm
        x = np.full(5, 0.3)
        for seed, t in [(0, 1), (3, 7), (41, 1000), (-2**63, 2**40), (2**63 - 1, 12)]:
            rng = iteration_rng(seed, t)
            eta = rng.standard_normal((m, 5))
            y = rng.normal(problems_module._link(link, eta @ spec.A_x_star), sigma_y)
            expected = eta.T @ (problems_module._link(link, eta @ (spec.A @ x)) - y) / m
            drawn = iteration_rng(seed, t)
            assert glm_oracle(spec, x, drawn, m).tobytes() == expected.tobytes()
            assert drawn.random() == rng.random()  # and leaves the stream where it did

    def test_monte_carlo_mean_matches_exact_hinge(self):
        # smaller-N version of the acceptance check
        p = glm_generate(8, "hinge", R=2.0, sigma_y=0.5, seed=8, d_minus=0.3)
        spec = p.glm
        rng = np.random.default_rng(19)
        x = p.set.project(rng.normal(size=8))
        N = 40_000
        eta = rng.standard_normal((N, 8))
        s = eta @ (spec.A @ x)
        y = rng.normal(np.maximum(eta @ (spec.A @ spec.x_star), 0.0), spec.sigma_y)
        samples = eta * (np.maximum(s, 0.0) - y)[:, None]
        mean = samples.mean(axis=0)
        std = samples.std(axis=0, ddof=1)
        exact = glm_exact_hinge(spec, x)
        assert np.all(np.abs(mean - exact) <= 4.0 * std / math.sqrt(N))

    def test_variance_reported_is_upper_bound(self):
        p = glm_generate(6, "hinge", R=1.5, sigma_y=0.2, seed=12, d_minus=0.5)
        rng = np.random.default_rng(3)
        x = p.set.project(rng.normal(size=6))
        N = 20_000
        draws = np.stack([p.oracle(x, np.random.default_rng(1000 + i), 1) for i in range(N)])
        emp = float(((draws - glm_exact_hinge(p.glm, x)) ** 2).sum(axis=1).mean())
        assert emp <= p.constants.sigma**2


class TestGlmExact:
    def test_hinge_zero_at_solution(self):
        p = glm_generate(4, "hinge", R=1.0, sigma_y=0.1, seed=1, d_minus=0.5)
        np.testing.assert_allclose(glm_exact_hinge(p.glm, p.glm.x_star), np.zeros(4))

    def test_hinge_scaled_identity(self):
        n = 3
        x_star = np.zeros(n)
        x_star[0] = 1.0
        spec = GLMSpec("hinge", 2.0 * np.eye(n), x_star, 1.0, 0.0)
        np.testing.assert_allclose(
            glm_exact_hinge(spec, x_star + np.array([1.0, 0.0, 0.0])), [1.0, 0.0, 0.0]
        )
        spec_i = GLMSpec("hinge", np.eye(n), x_star, 1.0, 0.0)
        np.testing.assert_allclose(
            glm_exact_hinge(spec_i, x_star + np.array([0.0, 3.0, 0.0])), [0.0, 1.5, 0.0]
        )

    def test_ramp_zero_at_solution_and_origin_limit(self):
        p = glm_generate(4, "ramp", R=2.0, sigma_y=0.0, seed=2)
        spec = p.glm
        np.testing.assert_allclose(glm_exact_ramp(spec, spec.x_star), np.zeros(4))
        at_zero = glm_exact_ramp(spec, np.zeros(4))
        expect = -0.5 * spec.x_star * math.erf(1.0 / (math.sqrt(2.0) * 2.0))
        np.testing.assert_allclose(at_zero, expect)

    def test_ramp_requires_identity(self):
        # rejected when built, not on the first operator call after a run
        x_star = np.array([1.0, 0.0])
        with pytest.raises(ValueError, match="the ramp link needs A = I"):
            GLMSpec("ramp", np.array([[2.0, 0.0], [0.0, 2.0]]), x_star, 1.0, 0.0)

    def test_scalar_monte_carlo_matches_erf(self):
        # E[zeta * clip(zeta * s, 0, 1)] = s/2 * erf(1/(sqrt(2) s)) for scalar s
        rng = np.random.default_rng(77)
        zeta = rng.standard_normal(10**6)
        for s in (0.5, 1.0, 2.0):
            vals = zeta * np.clip(zeta * s, 0.0, 1.0)
            mean, se = vals.mean(), vals.std(ddof=1) / math.sqrt(vals.size)
            expect = 0.5 * s * math.erf(1.0 / (math.sqrt(2.0) * s))
            assert abs(mean - expect) <= 4.0 * se

    def test_ramp_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(55)
        n, R, h = 4, 10.0, 1e-6
        spec_star = np.zeros(n)
        spec_star[0] = R
        spec = GLMSpec("ramp", np.eye(n), spec_star, R, 0.0)
        for _ in range(100):
            x = rng.normal(size=n)
            x *= rng.uniform(0.5, R) / np.linalg.norm(x)
            J = ramp_mean_jacobian(x)
            fd = np.empty((n, n))
            for j in range(n):
                e = np.zeros(n)
                e[j] = h
                fd[:, j] = (glm_exact_ramp(spec, x + e) - glm_exact_ramp(spec, x - e)) / (2 * h)
            np.testing.assert_allclose(fd, J, atol=1e-5)

    def test_ramp_mu_decreasing_in_radius(self):
        # past R = 100, mu ~ 1/(3 sqrt(2 pi) R^3); the difference of erf and
        # exp terms was 10% off at R = 1e7 and negative from R = 1e8
        radii = [2.0, 4.0, 10.0] + [10.0**e for e in range(2, 13)]
        mus = [glm_constants(GLMSpec("ramp", np.eye(2), np.array([r, 0.0]), r, 0.0))[1]
               for r in radii]
        assert all(m > 0 for m in mus)
        assert all(a > b for a, b in zip(mus, mus[1:]))
        for r, mu in zip(radii, mus):
            if r >= 1e3:
                assert abs(3.0 * math.sqrt(2.0 * math.pi) * r**3 * mu - (1.0 - 0.3 / r**2)) <= 1e-9

    def test_hinge_constants_formulas(self):
        A = np.array([[1.0, 0.2], [0.0, 0.5]])
        spec = GLMSpec("hinge", A, np.array([3.0, 4.0]), 5.0, 0.0)
        L, mu = glm_constants(spec)
        assert L == pytest.approx(0.5 * np.linalg.norm(A, 2))
        assert mu == pytest.approx(0.25 * np.linalg.eigvalsh(A + A.T)[0])


class TestMinibatch:
    def test_single_call_passthrough(self):
        # a batch of one draws one eta row and one label, nothing more
        p = glm_generate(4, "hinge", R=1.0, sigma_y=0.5, seed=5, d_minus=0.5)
        rng, ref = np.random.default_rng(0), np.random.default_rng(0)
        glm_oracle(p.glm, np.zeros(4), rng, 1)
        ref.standard_normal((1, 4))
        ref.normal(0.0, 1.0, size=1)
        assert rng.standard_normal() == ref.standard_normal()

    def test_constant_oracle(self):
        # noiseless labels at the solution: every sample, hence the mean, is 0
        p = glm_generate(4, "hinge", R=1.0, sigma_y=0.0, seed=5, d_minus=0.5)
        out = glm_oracle(p.glm, p.glm.x_star, np.random.default_rng(0), 64)
        np.testing.assert_allclose(out, np.zeros(4), atol=1e-12)

    def test_zero_batch_rejected(self):
        p = glm_generate(4, "hinge", R=1.0, sigma_y=0.5, seed=5, d_minus=0.5)
        with pytest.raises(ValueError):
            glm_oracle(p.glm, np.zeros(4), np.random.default_rng(0), 0)

    def test_variance_scales_inversely_with_batch(self):
        # at x* a sample is -eta y0 with y0 ~ N(0, sigma_y): unit variance
        # per coordinate for sigma_y = 1, so a batch of 100 has variance 0.01
        p = glm_generate(2, "hinge", R=1.0, sigma_y=1.0, seed=5, d_minus=0.5)
        rng = np.random.default_rng(42)
        trials = 10_000
        singles = np.array([glm_oracle(p.glm, p.glm.x_star, rng, 1)[0] for _ in range(trials)])
        batches = np.array(
            [glm_oracle(p.glm, p.glm.x_star, rng, 100)[0] for _ in range(trials)]
        )
        ratio = batches.var(ddof=1) / singles.var(ddof=1)
        assert abs(ratio - 0.01) <= 0.2 * 0.01


class TestSolveReference:
    def test_interior_solution_matches_linear_solve(self):
        G = np.array([[2.0, 0.5], [0.1, 1.5]])
        b = np.array([-1.0, -2.0])
        x_direct = np.linalg.solve(G, -b)
        p = affine_problem(AffineSpec(G, b), FullSpace(2))
        x_ref = solve_reference(p, tol=1e-10)
        np.testing.assert_allclose(x_ref, x_direct, atol=1e-8)
        assert np.linalg.norm(G @ x_ref + b) <= 1e-10

    def test_deterministic(self):
        p = traffic_generate(10, 5, 0.5, seed=3)
        np.testing.assert_array_equal(solve_reference(p, 1e-10), solve_reference(p, 1e-10))

    def test_postcondition_certificate(self):
        p = traffic_generate(12, 4, 0.5, seed=9)
        x = solve_reference(p, tol=1e-10)
        # re-derive the residual at the returned point through the VI optimality
        F = p.operator(x)
        for sl, d in zip(partition_slices(p.set.block_sizes), p.set.demands):
            # per-block: mass sits only on minimal-cost coordinates
            active = x[sl] > 1e-9
            assert F[sl][active].max() <= F[sl].min() + 1e-6

    def test_requires_strong_monotonicity(self):
        G = np.array([[0.0, 1.0], [-1.0, 0.0]])
        p = affine_problem(AffineSpec(G, np.zeros(2)), FullSpace(2))
        with pytest.raises(ValueError):
            solve_reference(p)

    def test_iteration_cap_raises(self, monkeypatch):
        p = traffic_generate(10, 5, 0.5, seed=3)
        monkeypatch.setattr(problems_module, "_AA_STEPS", 1)
        with pytest.raises(RuntimeError, match=r"^reference solve did not reach tol=1e-10 "
                                               r"within 1 iterations"):
            solve_reference(p, 1e-10)


class TestOperatorInvariants:
    """Sampled checks of the constants every instance reports."""

    def _pairs(self, problem, count=1000, seed=0):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            yield (
                problem.set.project(rng.normal(size=problem.dim) * 3.0),
                problem.set.project(rng.normal(size=problem.dim) * 3.0),
            )

    @pytest.mark.parametrize(
        "problem",
        [
            traffic_generate(12, 4, 0.3, seed=51),
            glm_generate(8, "hinge", R=2.0, sigma_y=0.1, seed=52, d_minus=0.2),
            glm_generate(8, "ramp", R=3.0, sigma_y=0.1, seed=53),
        ],
        ids=["traffic", "hinge", "ramp"],
    )
    def test_operator_is_L_lipschitz(self, problem):
        L = problem.constants.L
        for x1, x2 in self._pairs(problem):
            lhs = np.linalg.norm(problem.operator(x1) - problem.operator(x2))
            assert lhs <= (L + 1e-6) * np.linalg.norm(x1 - x2)

    @pytest.mark.parametrize(
        "problem",
        [
            glm_generate(8, "hinge", R=2.0, sigma_y=0.1, seed=54, d_minus=0.2),
            glm_generate(8, "ramp", R=3.0, sigma_y=0.1, seed=55),
        ],
        ids=["hinge", "ramp"],
    )
    def test_generalized_monotonicity_at_solution(self, problem):
        mu = problem.constants.mu
        x_star = problem.known_solution
        assert mu > 0
        rng = np.random.default_rng(56)
        for _ in range(1000):
            x = problem.set.project(rng.normal(size=problem.dim) * 3.0)
            lhs = float(problem.operator(x) @ (x - x_star))
            assert lhs >= (mu - 1e-6) * float((x - x_star) @ (x - x_star))

    def test_glm_spec_caches_signal_image(self):
        spec = glm_generate(6, "hinge", R=2.0, sigma_y=0.1, seed=57).glm
        np.testing.assert_array_equal(spec.A_x_star, spec.A @ spec.x_star)

    def test_glm_spec_invariants_rejected(self):
        with pytest.raises(ValueError):  # x_star off the sphere
            GLMSpec("hinge", np.eye(2), np.array([1.0, 0.0]), 2.0, 0.1)
        with pytest.raises(ValueError):  # singular A
            GLMSpec("hinge", np.zeros((2, 2)), np.array([2.0, 0.0]), 2.0, 0.1)
        with pytest.raises(ValueError):  # negative label noise
            GLMSpec("hinge", np.eye(2), np.array([2.0, 0.0]), 2.0, -0.1)

    @pytest.mark.parametrize("R, sigma_y, match", [
        (math.inf, 0.1, "radius must be in (0, inf), got inf"),
        (math.nan, 0.1, "radius must be in (0, inf), got nan"),
        (2.0, math.inf, "sigma_y must be in [0, inf), got inf"),
        (2.0, math.nan, "sigma_y must be in [0, inf), got nan"),
    ], ids=["R-inf", "R-nan", "sigma_y-inf", "sigma_y-nan"])
    def test_glm_spec_rejects_nonfinite_constants(self, R, sigma_y, match):
        with pytest.raises(ValueError, match=f"^{re.escape(match)}$"):
            GLMSpec("ramp", np.eye(2), np.array([R, 0.0]), R, sigma_y)

    def test_glm_spec_norm_check_is_scale_free(self):
        # ||x*|| itself overflows past R = 1.3e154, with a numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = GLMSpec("hinge", np.eye(2), np.array([0.6e200, 0.8e200]), 1e200, 0.1)
            assert spec.R == 1e200
            with pytest.raises(ValueError, match="^x_star must have norm R$"):
                GLMSpec("hinge", np.eye(2), np.array([0.6e200, 0.6e200]), 1e200, 0.1)

    def test_ramp_variance_bound_caps_an_overflowing_drift(self):
        # 2 R sigma_max(A) squared passes the largest double; the ramp's cap
        # at n still holds, where the bound was once inf
        p = glm_generate(3, "ramp", 1e200, 0.5, seed=1)
        assert p.constants.sigma == math.sqrt(3 + 3 * 0.5**2)

    def test_glm_spec_takes_one_svd(self, monkeypatch):
        # matrix_rank and two norm(A, 2) calls once made three
        calls = [0]
        real = np.linalg.svd

        def counted(*args, **kwargs):
            calls[0] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        monkeypatch.setattr(np.linalg._linalg, "svd", counted)
        p = glm_generate(20, "hinge", R=2.0, sigma_y=0.1, seed=3)
        assert calls == [1]
        assert p.glm.sigma_max == 2.0 * p.constants.L

    def test_sigma_max_is_the_spectral_norm_bit_for_bit(self):
        spec = glm_generate(100, "hinge", R=2.0, sigma_y=0.1, seed=5).glm
        assert spec.sigma_max == float(np.linalg.norm(spec.A, 2))

    def test_glm_problem_rejects_an_infinite_variance_bound(self):
        # sigma_y**2 overflows a float here; the bound was an OverflowError
        spec = GLMSpec("ramp", np.eye(2), np.array([1.0, 0.0]), 1.0, 1e300)
        with pytest.raises(ValueError, match=re.escape(
                "the oracle variance bound at R = 1, sigma_y = 1e+300 must be in [0, inf), "
                "got inf") + "$"):
            glm_problem(spec)


class TestSerialization:
    def test_affine_round_trip(self):
        p = traffic_generate(10, 5, 0.5, seed=21)
        doc = problem_to_json(p)
        parsed = json.loads(doc)
        assert parsed["kind"] == "affine"
        assert parsed["blocks"] == [2] * 5
        q = problem_from_json(doc)
        np.testing.assert_array_equal(q.affine.G, p.affine.G)
        np.testing.assert_array_equal(q.affine.b, p.affine.b)
        assert q.set.block_sizes == p.set.block_sizes
        assert q.set.demands == p.set.demands

    def test_affine_round_trip_keeps_layout(self):
        p = traffic_generate(10, 5, 0.5, seed=21)
        q = problem_from_json(problem_to_json(p))
        assert q.affine.G.flags.f_contiguous
        assert q.affine.G.tobytes() == p.affine.G.tobytes()

    def test_glm_round_trip(self):
        p = glm_generate(6, "hinge", R=3.0, sigma_y=0.7, seed=31, d_minus=0.2)
        q = problem_from_json(problem_to_json(p))
        np.testing.assert_array_equal(q.glm.A, p.glm.A)
        np.testing.assert_array_equal(q.glm.x_star, p.glm.x_star)
        assert q.glm.sigma_y == p.glm.sigma_y
        assert q.glm.link == "hinge"
        assert isinstance(q.set, Ball)
        assert q.set.radius == 3.0

    def test_field_names(self):
        p = glm_generate(4, "ramp", R=2.0, sigma_y=0.1, seed=41)
        parsed = json.loads(problem_to_json(p))
        assert set(parsed) == {"format", "kind", "A", "x_star", "R", "sigma_y", "link", "seed"}

    def test_format_version_written(self):
        for p in (traffic_generate(10, 5, 0.5, seed=21), glm_generate(4, "ramp", 2.0, 0.1, seed=41)):
            assert json.loads(problem_to_json(p))["format"] == 1

    @pytest.mark.parametrize("fmt", [2, 0, "1", None, True])
    def test_other_format_rejected(self, fmt):
        doc = json.loads(problem_to_json(traffic_generate(10, 5, 0.5, seed=21)))
        doc["format"] = fmt
        with pytest.raises(ValueError, match="format"):
            problem_from_json(json.dumps(doc))

    def test_document_without_format_still_read(self):
        p = traffic_generate(10, 5, 0.5, seed=21)
        doc = json.loads(problem_to_json(p))
        del doc["format"]
        q = problem_from_json(json.dumps(doc))
        np.testing.assert_array_equal(q.affine.G, p.affine.G)
        assert q.set.block_sizes == p.set.block_sizes
        assert problem_to_json(q) == problem_to_json(p)


def _vectors(n, lo=-10.0, hi=10.0):
    return hnp.arrays(np.float64, n, elements=st.floats(lo, hi))


@st.composite
def _compositions(draw, n):
    """Block sizes summing to n."""
    cuts = draw(st.sets(st.integers(1, n - 1), max_size=n - 1)) if n > 1 else set()
    edges = [0, *sorted(cuts), n]
    return tuple(b - a for a, b in zip(edges, edges[1:]))


@st.composite
def _affine_problems(draw):
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["full", "ball", "box", "simplex"]))
    if kind == "full":
        fs = FullSpace(n)
    elif kind == "ball":
        fs = Ball(draw(_vectors(n)), draw(st.floats(1e-3, 1e3)))
    elif kind == "box":
        lower = draw(_vectors(n))
        fs = Box(lower, lower + draw(_vectors(n, 0.0, 10.0)))
    else:
        blocks = draw(_compositions(n))
        fs = SimplexProduct(blocks, draw(_vectors(len(blocks), 0.0, 10.0)))
    spec = AffineSpec(draw(hnp.arrays(np.float64, (n, n), elements=st.floats(-10.0, 10.0))),
                      draw(_vectors(n)))
    return affine_problem(
        spec, fs,
        noise_sigma=draw(st.one_of(st.just(0.0), st.floats(1e-3, 10.0))),
        known_solution=draw(st.one_of(st.none(), _vectors(n))),
        block_partition=draw(st.one_of(st.none(), _compositions(n))),
        seed=draw(st.one_of(st.none(), st.integers(0, 2**31))),
    )


_SET_FIELDS = {FullSpace: ("dim",), Ball: ("center", "radius"), Box: ("lower", "upper"),
               SimplexProduct: ("block_sizes", "demands")}


@pytest.mark.filterwarnings("ignore:operator is not monotone")
@settings(max_examples=60, deadline=None)
@given(_affine_problems())
def test_affine_json_round_trip_is_lossless(p):
    q = problem_from_json(problem_to_json(p))
    np.testing.assert_array_equal(q.affine.G, p.affine.G)
    np.testing.assert_array_equal(q.affine.b, p.affine.b)
    assert type(q.set) is type(p.set)
    for name in _SET_FIELDS[type(p.set)]:
        np.testing.assert_array_equal(getattr(q.set, name), getattr(p.set, name))
    assert q.constants.sigma == p.constants.sigma
    assert (q.oracle is None) == (p.oracle is None)
    if p.known_solution is None:
        assert q.known_solution is None
    else:
        np.testing.assert_array_equal(q.known_solution, p.known_solution)
    assert q.block_partition == p.block_partition
    assert q.seed == p.seed


@pytest.mark.parametrize("fs", [FullSpace(6), Box(-np.ones(6), np.ones(6))],
                         ids=lambda s: type(s).__name__)
def test_block_partition_must_cover_dimension(fs):
    # a partition short of n would leave the uncovered coordinates at their
    # start value for a whole block run
    spec = AffineSpec(np.eye(6), np.ones(6))
    with pytest.raises(ValueError, match="does not cover"):
        affine_problem(spec, fs, block_partition=(3, 2))
    with pytest.raises(ValueError, match=r"^block sizes must be in \[1, 6\], got -1\.0$"):
        affine_problem(spec, fs, block_partition=(6, -1))
    # 7 is the first size out of [1, n]
    with pytest.raises(ValueError, match=r"^block sizes must be in \[1, 6\], got 7\.0$"):
        affine_problem(spec, fs, block_partition=(7, -1))
    doc = json.loads(problem_to_json(affine_problem(spec, fs, block_partition=(3, 3))))
    doc["block_partition"] = [3, 2]
    with pytest.raises(ValueError, match="does not cover"):
        problem_from_json(json.dumps(doc))


def test_fractional_block_sizes_rejected():
    # rejected, not truncated to five blocks of 2
    message = "^block sizes must be integers, got 2.9$"
    with pytest.raises(ValueError, match=message):
        partition_slices([2.9, 2.2, 2, 2, 2], 10)
    with pytest.raises(ValueError, match=message):
        SimplexProduct([2.9, 2.2, 2, 2, 2], [1.0] * 5)
    doc = json.loads(problem_to_json(traffic_generate(10, 5, 0.5, seed=4)))
    with pytest.raises(ValueError, match=message):
        problem_from_json(json.dumps({**doc, "blocks": [2.9, 2.2, 2, 2, 2],
                                      "block_partition": [2.5, 2.5, 2, 2, 2]}))
    with pytest.raises(ValueError, match="^block sizes must be integers, got 2.5$"):
        problem_from_json(json.dumps({**doc, "block_partition": [2.5, 2.5, 2, 2, 2]}))


def test_block_size_above_the_dimension_rejected_before_any_allocation():
    # a simplex set once allocated its widest block first: numpy's "Maximum
    # allowed size exceeded" for 1e300, about 24 GB for 3e9
    doc = json.loads(problem_to_json(traffic_generate(8, 4, 0.5, seed=4)))
    for size, shown in ((1e300, "1e+300"), (3e9, "3000000000.0"), (9, "9.0")):
        message = re.escape(f"block sizes must be in [1, 8], got {shown}")
        for key in ("blocks", "block_partition"):
            with pytest.raises(ValueError, match=f"^{message}$"):
                problem_from_json(json.dumps({**doc, key: [size, 2, 2, 2]}))


def test_integer_valued_float_block_sizes_accepted():
    doc = json.loads(problem_to_json(traffic_generate(10, 5, 0.5, seed=4)))
    q = problem_from_json(json.dumps({**doc, "blocks": [2.0] * 5, "block_partition": [2.0] * 5}))
    assert q.set.block_sizes == q.block_partition == (2,) * 5
    assert all(type(s) is int for s in q.block_partition)
    assert partition_slices([2.0, 3.0], 5) == [slice(0, 2), slice(2, 5)]


def test_json_round_trip_keeps_the_ragged_partition():
    text = _GOLDEN_RAGGED.read_text()
    p = problem_from_json(text)
    q = problem_from_json(problem_to_json(p))
    assert q.block_partition == p.block_partition == tuple(json.loads(text)["block_partition"])
    assert q.set.block_sizes == p.set.block_sizes


@_BLOCK_PROBLEMS
def test_problem_blocks_are_the_partition_slices_and_split(make):
    p = make()
    slices, parts = zip(*p.blocks)
    assert list(slices) == partition_slices(p.block_partition, p.dim)
    assert [q.to_doc() for q in parts] == [q.to_doc() for q in p.set.split(p.block_partition)]
    assert p.blocks is p.blocks  # built once, then read


def test_problem_blocks_stay_lazy():
    # a set that cannot split along the partition still loads; only reading
    # its blocks (as a block policy does) raises
    spec = AffineSpec(2.0 * np.eye(3), np.ones(3))
    p = affine_problem(spec, Ball(np.zeros(3), 2.0), block_partition=(1, 2))
    with pytest.raises(ValueError, match="cannot be split"):
        p.blocks
    with pytest.raises(ValueError, match="no block partition"):
        affine_problem(spec, Ball(np.zeros(3), 2.0)).blocks


def _json_doc(fs, **extra):
    """A two-dimensional affine problem on ``fs`` as a JSON object."""
    p = affine_problem(AffineSpec(np.eye(2), np.ones(2)), fs, known_solution=np.zeros(2),
                       block_partition=(1, 1))
    return {**json.loads(problem_to_json(p)), **extra}


_SIMPLEX = SimplexProduct((1, 1), (1.0, 1.0))
_GLM_DOC = json.loads(problem_to_json(glm_generate(2, "hinge", R=2.0, sigma_y=0.1, seed=8)))


_NONFINITE_JSON = [
    (_json_doc(_SIMPLEX), "G", "G must be in (-inf, inf), got nan"),
    (_json_doc(_SIMPLEX), "b", "b must be in (-inf, inf), got nan"),
    (_json_doc(_SIMPLEX), "demands", "demands must be in [0, inf), got nan"),
    (_json_doc(_SIMPLEX), "blocks", "block sizes must be in [1, 2], got inf"),
    (_json_doc(_SIMPLEX), "block_partition", "block sizes must be in [1, 2], got inf"),
    (_json_doc(_SIMPLEX), "known_solution", "known_solution must be in (-inf, inf), got nan"),
    (_json_doc(_SIMPLEX, sigma=0.5), "sigma", "sigma must be in [0, inf), got inf"),
    (_json_doc(Ball(np.zeros(2), 1.0)), "center", "center must be in (-inf, inf), got nan"),
    (_json_doc(Ball(np.zeros(2), 1.0)), "radius", "radius must be in (0, inf), got nan"),
    (_json_doc(Box(np.zeros(2), np.ones(2))), "lower", "upper - lower must be in [0, inf), got nan"),
    (_json_doc(Box(np.zeros(2), np.ones(2))), "upper", "upper - lower must be in [0, inf), got inf"),
    (_GLM_DOC, "A", "A must be in (-inf, inf), got nan"),
    (_GLM_DOC, "x_star", "x_star must be in (-inf, inf), got nan"),
    (_GLM_DOC, "R", "radius must be in (0, inf), got inf"),
    (_GLM_DOC, "sigma_y", "sigma_y must be in [0, inf), got nan"),
]


@pytest.mark.parametrize("doc, key, message", _NONFINITE_JSON,
                         ids=[key for _, key, _ in _NONFINITE_JSON])
def test_json_number_that_is_not_finite_rejected(doc, key, message):
    # Python's json reads NaN and Infinity; they once reached LAPACK through the
    # set constructors and AffineSpec
    bad = {"blocks": math.inf, "block_partition": math.inf, "sigma": math.inf, "R": math.inf,
           "upper": math.inf}.get(key, math.nan)
    doc = json.loads(json.dumps(doc))
    if isinstance(doc[key], list):
        flat = doc[key][0] if isinstance(doc[key][0], list) else doc[key]
        flat[0] = bad
    else:
        doc[key] = bad
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        problem_from_json(json.dumps(doc))


def test_unserializable_set_rejected():
    p = affine_problem(AffineSpec(np.eye(2), np.zeros(2)), FullSpace(2))
    with pytest.raises(ValueError, match="cannot serialize"):
        problem_to_json(dataclasses.replace(p, set=object()))


def _oe_reference(problem, tol):
    """The reference solve before Anderson acceleration: operator
    extrapolation with the linear-rate schedule until the Bregman movement and
    the residual certificate both drop below tol."""
    L, mu = problem.constants.L, problem.constants.mu
    gamma, lam = 1.0 / (2.0 * L), 1.0 / (mu / L + 1.0)
    fs, F = problem.set, problem.operator
    x = analytic_center(fs)
    F_prev = F_cur = F(x)
    while True:
        x_next = fs.project(x - gamma * (F_cur + lam * (F_cur - F_prev)))
        F_next = F(x_next)
        delta = F_cur - F_next + lam * (F_cur - F_prev) + (x_next - x) / gamma
        if bregman(x_next, x) <= tol and float(np.linalg.norm(delta)) <= tol:
            return x_next
        x = x_next
        F_prev, F_cur = F_cur, F_next


def _natural_residual(problem, x):
    return float(np.linalg.norm(x - problem.set.project(x - problem.operator(x))))


@st.composite
def _strongly_monotone_problems(draw):
    """G = mu0 I + s A A^T + K (B - B^T): strongly monotone with modulus at
    least mu0, with a skew part up to ten times the symmetric one; or, half
    the time, that G spread to D^1/2 G D^1/2 by D = diag(e^U[-4, 4]), with
    modulus at least mu0 min(D) and the uneven diagonal that the reference
    solve's Jacobi metric targets."""
    n = draw(st.integers(2, 8))
    unit = hnp.arrays(np.float64, (n, n), elements=st.floats(-1.0, 1.0))
    A, B = draw(unit), draw(unit)
    G = (draw(st.floats(0.2, 1.0)) * np.eye(n) + draw(st.floats(0.0, 1.0)) * A @ A.T
         + draw(st.sampled_from([0.0, 1.0, 10.0])) * (B - B.T))
    if draw(st.booleans()):
        root = np.exp(0.5 * draw(_vectors(n, -4.0, 4.0)))
        G = root[:, None] * G * root
    kind = draw(st.sampled_from(["full", "ball", "box", "simplex"]))
    if kind == "full":
        fs = FullSpace(n)
    elif kind == "ball":
        fs = Ball(draw(_vectors(n, -1.0, 1.0)), draw(st.floats(0.01, 3.0)))
    elif kind == "box":
        lower = draw(_vectors(n, -1.0, 1.0))
        fs = Box(lower, lower + draw(_vectors(n, 0.0, 2.0)))
    else:
        blocks = draw(_compositions(n))
        fs = SimplexProduct(blocks, draw(_vectors(len(blocks), 0.0, 5.0)))
    return affine_problem(AffineSpec(G, draw(_vectors(n))), fs)


@settings(max_examples=100, deadline=None)
@given(_strongly_monotone_problems())
def test_reference_feasible_with_residual_at_most_tol(p):
    L, mu = p.constants.L, p.constants.mu
    assert mu > 0
    for tol in (1e-10, 1e-5):
        x_new, x_old = solve_reference(p, tol), _oe_reference(p, tol)
        r_new, r_old = _natural_residual(p, x_new), _natural_residual(p, x_old)
        assert p.set.contains(x_new)
        assert r_new <= tol
        # both lie within (1 + L)/mu times their residual of the solution;
        # 1e-12 absorbs round-off in the residuals
        dist = float(np.linalg.norm(x_new - x_old))
        assert dist <= (1.0 + L) / mu * (r_new + r_old) + 1e-12, (tol, dist, r_new, r_old)


def test_reference_operator_calls():
    p = traffic_generate(200, 5, 0.005, seed=10_200)
    calls = 0

    def counted(y, _F=p.operator):
        nonlocal calls
        calls += 1
        return _F(y)

    x = solve_reference(dataclasses.replace(p, operator=counted), tol=1e-10)
    assert _natural_residual(p, x) <= 1e-10
    # Anderson acceleration takes 5 calls in the Jacobi metric, 263 in the
    # Euclidean one; plain projected steps take 2,653
    assert calls <= 8


@pytest.mark.parametrize("seed", [111, 133, 206, 337, 560, 599, 784])
def test_reference_converges_on_spread_skew_simplex(seed, monkeypatch):
    # instances on which Anderson steps stalled or cycled past 3,000 steps
    # with the Euclidean step (133, 206), or in the Jacobi metric with the
    # natural residual as restart measure or with Euclidean least squares
    # (111, 337, 560, 599, 784)
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 13))
    A, B = rng.uniform(-1, 1, (n, n)), rng.uniform(-1, 1, (n, n))
    G = (rng.uniform(0.2, 1) * np.eye(n) + rng.choice([0, 0.05, 1.0]) * A @ A.T
         + rng.choice([0, 1.0, 10.0]) * (B - B.T))
    root = np.exp(0.5 * rng.uniform(-4, 4, n))
    G = root[:, None] * G * root
    if rng.uniform() < 0.5:
        lower = rng.uniform(-1, 1, n)
        fs = Box(lower, lower + rng.uniform(0, 2, n))
    else:
        fs = SimplexProduct([n], [rng.uniform(0.5, 5)])
    p = affine_problem(AffineSpec(G, rng.uniform(-10, 10, n)), fs)
    monkeypatch.setattr(problems_module, "_AA_STEPS", 300)
    x = solve_reference(p, 1e-10)
    assert p.set.contains(x)
    assert _natural_residual(p, x) <= 1e-10
