"""Problem-family tests: affine/traffic instances, GLM operators and oracles,
mini-batching, reference solutions, and JSON round-trips."""

import json
import math
from contextlib import nullcontext as _nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oevi.geometry import Ball, Box, FullSpace, SimplexProduct
from oevi.problems import (
    AffineSpec,
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
    glm_sample,
    minibatch,
    problem_from_json,
    problem_to_json,
    ramp_mean_jacobian,
    solve_reference,
    traffic_generate,
)


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
    return power_iteration_lambda_min_sym(G + G.T, iters=2000) < 0


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

    def test_block_lipschitz_dominated_by_full(self):
        rng = np.random.default_rng(9)
        G = rng.normal(size=(12, 12))
        spec = AffineSpec(G, np.zeros(12))
        lbar = block_lipschitz(spec, (4, 4, 4))
        L = float(np.linalg.norm(G, 2))
        assert lbar <= L + 1e-12
        assert L <= math.sqrt(3) * lbar + 1e-12


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

    def test_bad_partition_rejected(self):
        with pytest.raises(ValueError):
            traffic_generate(10, 3, 0.5, seed=1)
        with pytest.raises(ValueError):
            traffic_generate(10, 5, 1.5, seed=1)


class TestGlmOracle:
    def test_zero_at_solution_noiseless(self):
        p = glm_generate(6, "hinge", R=2.0, sigma_y=0.0, seed=3, d_minus=0.5)
        spec = p.glm
        for s in range(5):
            rng = np.random.default_rng(s)
            np.testing.assert_allclose(
                glm_sample(spec, spec.x_star, rng), np.zeros(6), atol=1e-12
            )

    def test_fixed_seed_reproducible(self):
        p = glm_generate(5, "hinge", R=1.0, sigma_y=0.5, seed=4, d_minus=0.5)
        x = p.set.project(np.ones(5))
        a = glm_sample(p.glm, x, np.random.default_rng(11))
        b = glm_sample(p.glm, x, np.random.default_rng(11))
        np.testing.assert_array_equal(a, b)

    def test_batch_one_matches_single_sample(self):
        p = glm_generate(5, "hinge", R=1.0, sigma_y=0.3, seed=6, d_minus=0.5)
        x = p.set.project(np.full(5, 0.2))
        a = glm_sample(p.glm, x, np.random.default_rng(2))
        b = glm_oracle(p.glm, x, np.random.default_rng(2), 1)
        np.testing.assert_array_equal(a, b)

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
        x_star = np.array([1.0, 0.0])
        spec = GLMSpec("ramp", np.array([[2.0, 0.0], [0.0, 2.0]]), x_star, 1.0, 0.0)
        with pytest.raises(ValueError):
            glm_exact_ramp(spec, x_star)

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
        mus = [glm_constants(GLMSpec("ramp", np.eye(2), np.array([r, 0.0]), r, 0.0))[1]
               for r in (2.0, 4.0, 10.0)]
        assert all(m > 0 for m in mus)
        assert mus[0] > mus[1] > mus[2]

    def test_hinge_constants_formulas(self):
        A = np.array([[1.0, 0.2], [0.0, 0.5]])
        spec = GLMSpec("hinge", A, np.array([3.0, 4.0]), 5.0, 0.0)
        L, mu = glm_constants(spec)
        assert L == pytest.approx(0.5 * np.linalg.norm(A, 2))
        assert mu == pytest.approx(0.25 * np.linalg.eigvalsh(A + A.T)[0])


class TestMinibatch:
    def test_single_call_passthrough(self):
        calls = []

        def oracle(x, rng):
            calls.append(1)
            return np.array([1.0, 2.0])

        out = minibatch(oracle, np.zeros(2), 1, np.random.default_rng(0))
        np.testing.assert_array_equal(out, [1.0, 2.0])
        assert len(calls) == 1

    def test_constant_oracle(self):
        c = np.array([3.0, -1.0])
        out = minibatch(lambda x, rng: c, np.zeros(2), 64, np.random.default_rng(0))
        np.testing.assert_allclose(out, c)

    def test_zero_batch_rejected(self):
        with pytest.raises(ValueError):
            minibatch(lambda x, rng: x, np.zeros(2), 0, np.random.default_rng(0))

    def test_variance_scales_inversely_with_batch(self):
        def oracle(x, rng):
            return rng.standard_normal(1)

        rng = np.random.default_rng(42)
        trials = 10_000
        singles = np.array([oracle(None, rng)[0] for _ in range(trials)])
        batches = np.array(
            [minibatch(oracle, np.zeros(1), 100, rng)[0] for _ in range(trials)]
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
        for sl, d in zip(p.set.block_slices(), p.set.demands):
            # per-block: mass sits only on minimal-cost coordinates
            active = x[sl] > 1e-9
            assert F[sl][active].max() <= F[sl].min() + 1e-6

    def test_requires_strong_monotonicity(self):
        G = np.array([[0.0, 1.0], [-1.0, 0.0]])
        p = affine_problem(AffineSpec(G, np.zeros(2)), FullSpace(2))
        with pytest.raises(ValueError):
            solve_reference(p)


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

    def test_glm_spec_invariants_rejected(self):
        with pytest.raises(ValueError):  # x_star off the sphere
            GLMSpec("hinge", np.eye(2), np.array([1.0, 0.0]), 2.0, 0.1)
        with pytest.raises(ValueError):  # singular A
            GLMSpec("hinge", np.zeros((2, 2)), np.array([2.0, 0.0]), 2.0, 0.1)
        with pytest.raises(ValueError):  # negative label noise
            GLMSpec("hinge", np.eye(2), np.array([2.0, 0.0]), 2.0, -0.1)


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
        assert set(parsed) == {"kind", "A", "x_star", "R", "sigma_y", "link", "seed"}


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


def test_unserializable_set_rejected():
    import dataclasses

    p = affine_problem(AffineSpec(np.eye(2), np.zeros(2)), FullSpace(2))
    with pytest.raises(ValueError, match="cannot serialize"):
        problem_to_json(dataclasses.replace(p, set=object()))
