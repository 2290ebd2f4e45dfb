"""Geometry tests: Bregman distances, prox-mappings, projections, support
oracles, and the prox inequalities every solver step relies on."""

import itertools

import numpy as np
import pytest

from oevi.geometry import (
    Ball,
    Box,
    FullSpace,
    SimplexProduct,
    analytic_center,
    bregman,
    linear_minimize,
    project_simplex,
)


def brute_force_simplex_projection(v, d):
    """Independent oracle: enumerate active sets of the projection QP.

    For every candidate set S of zeroed coordinates, the free coordinates
    share a common shift so they sum to d; among primal-feasible candidates
    the one with the smallest objective is the projection (the optimum's
    active set is among the enumerated ones, and the projection is unique).
    """
    v = np.asarray(v, dtype=float)
    n = v.shape[0]
    best, best_obj = None, np.inf
    for r in range(n):  # r = number of zeroed coordinates (at least one free)
        for zeros in itertools.combinations(range(n), r):
            free = [i for i in range(n) if i not in zeros]
            shift = (d - v[free].sum()) / len(free)
            x = np.zeros(n)
            x[free] = v[free] + shift
            if np.any(x[free] < -1e-12):
                continue
            obj = float(((x - v) ** 2).sum())
            if obj < best_obj - 1e-15:
                best, best_obj = x, obj
    return best


class TestBregman:
    def test_identity(self):
        x = np.array([1.5, -2.0, 3.0])
        assert bregman(x, x) == 0.0

    def test_three_four_five(self):
        assert bregman(np.zeros(2), np.array([3.0, 4.0])) == pytest.approx(12.5)

    def test_unit_step(self):
        assert bregman(np.array([1.0, 1.0]), np.array([1.0, 2.0])) == pytest.approx(0.5)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            bregman(np.zeros(2), np.zeros(3))

    def test_euclidean_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x, y = rng.normal(size=4), rng.normal(size=4)
            assert bregman(x, y) == pytest.approx(bregman(y, x))


class TestProxStep:
    # the Euclidean prox-mapping argmin_{x in X} gamma <g, x> + V(x_t, x) is
    # the projection of x_t - gamma g onto X
    def test_fullspace_is_plain_step(self):
        fs = FullSpace(2)
        out = fs.project(np.array([1.0, 1.0]) - 0.5 * np.array([2.0, 0.0]))
        np.testing.assert_allclose(out, [0.0, 1.0])

    def test_ball_radial_rescale(self):
        fs = Ball([0.0, 0.0], 1.0)
        out = fs.project(np.array([1.0, 0.0]) - np.array([-2.0, -4.0]))
        np.testing.assert_allclose(out, [0.6, 0.8])

    def test_simplex_step_matches_kkt_enumeration(self):
        fs = SimplexProduct([2], [1.0])
        out = fs.project(np.array([0.5, 0.5]) - np.array([-1.5, 0.5]))
        expected = brute_force_simplex_projection(np.array([2.0, 0.0]), 1.0)
        np.testing.assert_allclose(out, expected, atol=1e-12)
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-12)


def _random_sets(dim=6):
    rng = np.random.default_rng(7)
    return [
        FullSpace(dim),
        Ball(rng.normal(size=dim), 2.0),
        Box(-np.abs(rng.normal(size=dim)) - 0.5, np.abs(rng.normal(size=dim)) + 0.5),
        SimplexProduct([2, 3, 1], [1.0, 2.0, 0.5]),
    ]


def _random_feasible(fs, rng):
    return fs.project(rng.normal(size=fs.dim) * 2.0)


@pytest.mark.parametrize("fs", _random_sets(), ids=lambda s: type(s).__name__)
def test_prox_nonexpansive_in_direction(fs):
    # ||prox(x, g1) - prox(x, g2)|| <= gamma ||g1 - g2|| at a fixed center
    rng = np.random.default_rng(11)
    for _ in range(1000):
        x = _random_feasible(fs, rng)
        g1, g2 = rng.normal(size=fs.dim), rng.normal(size=fs.dim)
        gamma = float(rng.uniform(0.05, 2.0))
        p1 = fs.project(x - gamma * g1)
        p2 = fs.project(x - gamma * g2)
        assert np.linalg.norm(p1 - p2) <= gamma * np.linalg.norm(g1 - g2) + 1e-12


@pytest.mark.parametrize("fs", _random_sets(), ids=lambda s: type(s).__name__)
def test_three_point_inequality(fs):
    # gamma <g, x+ - x> + V(x_t, x+) <= V(x_t, x) - V(x+, x) for all feasible x
    rng = np.random.default_rng(13)
    for _ in range(1000):
        x_t = _random_feasible(fs, rng)
        x = _random_feasible(fs, rng)
        g = rng.normal(size=fs.dim)
        gamma = float(rng.uniform(0.05, 2.0))
        x_plus = fs.project(x_t - gamma * g)
        lhs = gamma * float(g @ (x_plus - x)) + bregman(x_t, x_plus)
        rhs = bregman(x_t, x) - bregman(x_plus, x)
        assert lhs <= rhs + 1e-9


@pytest.mark.parametrize("fs", _random_sets(), ids=lambda s: type(s).__name__)
def test_prox_output_is_member(fs):
    rng = np.random.default_rng(17)
    for _ in range(200):
        x_t = _random_feasible(fs, rng)
        out = fs.project(x_t - rng.normal(size=fs.dim))
        assert fs.contains(out)


class TestProjectSimplex:
    def test_already_feasible(self):
        np.testing.assert_allclose(project_simplex([0.5, 0.5], 1.0), [0.5, 0.5])
        np.testing.assert_allclose(project_simplex([1.0, 1.0, 1.0], 3.0), [1.0, 1.0, 1.0])

    def test_outside_point(self):
        np.testing.assert_allclose(project_simplex([2.0, 0.0], 1.0), [1.0, 0.0])

    def test_negative_demand_rejected(self):
        with pytest.raises(ValueError):
            project_simplex([1.0, 2.0], -1.0)

    def test_zero_demand(self):
        np.testing.assert_allclose(project_simplex([1.0, 2.0], 0.0), [0.0, 0.0])

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
    def test_matches_brute_force(self, dim):
        rng = np.random.default_rng(100 + dim)
        for _ in range(200):
            v = rng.normal(size=dim) * rng.choice([0.1, 1.0, 10.0])
            d = float(rng.uniform(0.0, 3.0))
            fast = project_simplex(v, d)
            slow = brute_force_simplex_projection(v, d)
            np.testing.assert_allclose(fast, slow, atol=1e-10)

    def test_ties_and_duplicates(self):
        for v in ([1.0, 1.0, 1.0, -5.0], [0.0, 0.0], [3.0, 3.0, 3.0]):
            fast = project_simplex(v, 1.0)
            slow = brute_force_simplex_projection(np.array(v), 1.0)
            np.testing.assert_allclose(fast, slow, atol=1e-10)

    def test_sum_accuracy(self):
        rng = np.random.default_rng(23)
        for _ in range(500):
            v = rng.normal(size=50) * 100.0
            d = float(rng.uniform(0.1, 10.0))
            out = project_simplex(v, d)
            assert abs(out.sum() - d) <= 1e-12 * max(1.0, d)
            assert np.all(out >= 0.0)


def per_block_projection(fs, z):
    """Reference: project each block of z on its own by sort and threshold."""
    out = np.empty_like(z)
    for sl, d in zip(fs.block_slices(), fs.demands):
        v = z[sl]
        u = np.sort(v)[::-1]
        css = np.cumsum(u) - d
        j = np.arange(1, v.shape[0] + 1)
        rho = int(np.nonzero(u > css / j)[0][-1]) if np.any(u > css / j) else 0
        out[sl] = np.maximum(v - css[rho] / (rho + 1.0), 0.0)
    return out


class TestSimplexProductProjection:
    @pytest.mark.parametrize("sizes, demands", [
        ((200,) * 5, (1.0, 0.5, 2.0, 3.0, 0.25)),
        ((200,), (1.5,)),
        ((7, 5, 9), (1.0, 2.5, 0.3)),
        ((3, 1, 4), (1.0, 0.0, 2.0)),
        ((1, 1, 1), (0.5, 1.0, 0.0)),
        ((40,) * 25, tuple(np.linspace(0.0, 2.0, 25))),
    ], ids=["equal", "one-block", "unequal", "zero-demand", "size-one", "many-blocks"])
    def test_bytes_match_per_block_projection(self, sizes, demands):
        fs = SimplexProduct(sizes, demands)
        rng = np.random.default_rng(sum(sizes))
        for i in range(100):
            z = rng.normal(scale=3.0, size=fs.dim)
            if i % 2:
                z = np.round(z)  # tied entries within and across blocks
            expect = per_block_projection(fs, z)
            assert fs.project(z).tobytes() == expect.tobytes()
            if len(sizes) == 1:
                assert project_simplex(z, demands[0]).tobytes() == expect.tobytes()

    def test_zero_demand_block_is_zero(self):
        fs = SimplexProduct([3, 2], [1.0, 0.0])
        out = fs.project(np.array([0.2, 5.0, -1.0, 4.0, 4.0]))
        assert np.all(np.isfinite(out))
        np.testing.assert_array_equal(out[3:], [0.0, 0.0])
        assert fs.contains(out)


class TestLinearMinimize:
    def test_simplex_unit_mass_on_min(self):
        fs = SimplexProduct([3], [1.0])
        np.testing.assert_allclose(linear_minimize(fs, [3.0, 1.0, 2.0]), [0.0, 1.0, 0.0])

    def test_ball_antipodal(self):
        fs = Ball([0.0, 0.0], 2.0)
        np.testing.assert_allclose(linear_minimize(fs, [0.0, 1.0]), [0.0, -2.0])

    def test_ball_zero_cost_returns_center(self):
        fs = Ball([1.0, -1.0], 2.0)
        np.testing.assert_allclose(linear_minimize(fs, [0.0, 0.0]), [1.0, -1.0])

    def test_box_vertex(self):
        fs = Box([0.0, 0.0], [1.0, 1.0])
        np.testing.assert_allclose(linear_minimize(fs, [-1.0, 1.0]), [1.0, 0.0])

    def test_simplex_tie_break_lowest_index(self):
        fs = SimplexProduct([3], [2.0])
        np.testing.assert_allclose(linear_minimize(fs, [1.0, 1.0, 5.0]), [2.0, 0.0, 0.0])

    def test_fullspace_rejected(self):
        with pytest.raises(ValueError):
            linear_minimize(FullSpace(2), [1.0, 0.0])

    @pytest.mark.parametrize("fs", _random_sets()[1:], ids=lambda s: type(s).__name__)
    def test_support_dominates_random_points(self, fs):
        rng = np.random.default_rng(31)
        for _ in range(200):
            c = rng.normal(size=fs.dim)
            best = linear_minimize(fs, c)
            assert fs.contains(best)
            x = _random_feasible(fs, rng)
            assert float(c @ best) <= float(c @ x) + 1e-9


class TestMembership:
    def test_ball_tolerance(self):
        fs = Ball([0.0, 0.0], 1.0)
        assert fs.contains([1.0 + 5e-10, 0.0])
        assert not fs.contains([1.1, 0.0])

    def test_simplex_product(self):
        fs = SimplexProduct([2, 2], [1.0, 2.0])
        assert fs.contains([0.5, 0.5, 1.0, 1.0])
        assert not fs.contains([0.6, 0.5, 1.0, 1.0])
        assert not fs.contains([1.5, -0.5, 1.0, 1.0])

    def test_invariants_rejected(self):
        with pytest.raises(ValueError):
            Ball([0.0, 0.0], 0.0)
        with pytest.raises(ValueError):
            Box([1.0, 0.0], [0.0, 1.0])
        with pytest.raises(ValueError):
            SimplexProduct([2, 2], [1.0])

    def test_analytic_center_is_member(self):
        for fs in _random_sets():
            assert fs.contains(analytic_center(fs))
