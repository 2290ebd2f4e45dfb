"""Geometry tests: Bregman distances, prox-mappings, projections, support
oracles, and the prox inequalities every solver step relies on."""

import ast
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oevi
from oevi.geometry import (
    Ball,
    Box,
    FullSpace,
    SimplexProduct,
    analytic_center,
    bregman,
    partition_slices,
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


@pytest.mark.parametrize("fs", _random_sets(), ids=lambda s: type(s).__name__)
def test_set_contract(fs):
    # what a set owns, against projections of random points: the start
    # point, the support oracle, the closed-form maxima, and the split
    rng = np.random.default_rng(37)
    x1 = analytic_center(fs)
    assert fs.contains(x1)
    sizes = (2, 3, 1)  # the blocks of the simplex product in _random_sets
    if type(fs) is Ball:
        assert fs.split((fs.dim,)) == [fs]
        with pytest.raises(ValueError):
            fs.split(sizes)
    else:
        parts = list(zip(partition_slices(sizes, fs.dim), fs.split(sizes)))
    if not fs.bounded:
        for query in (lambda: fs.support_min(x1), lambda: fs.max_bregman_from(x1),
                      fs.bregman_diameter, lambda: fs.max_convex_quadratic(x1, 1.0, x1)):
            with pytest.raises(ValueError):
                query()
    for _ in range(300):
        z1, z2 = rng.normal(size=(2, fs.dim)) * 3.0
        p1, p2 = fs.project(z1), fs.project(z2)
        if type(fs) is not Ball:
            blockwise = np.concatenate([part.project(z1[sl]) for sl, part in parts])
            assert blockwise.tobytes() == p1.tobytes()
        if not fs.bounded:
            continue
        c, lin = rng.normal(size=(2, fs.dim))
        alpha = float(rng.uniform(0.0, 3.0))
        assert float(c @ fs.support_min(c)) <= float(c @ p1) + 1e-9
        for start in (x1, p2):
            assert fs.max_bregman_from(start) >= bregman(start, p1) - 1e-9
            value = alpha * bregman(start, p1) + float(lin @ p1)
            assert fs.max_convex_quadratic(start, alpha, lin) >= value - 1e-9
        assert fs.bregman_diameter() >= bregman(p1, p2) - 1e-9


def test_set_kinds_are_named_only_in_geometry():
    # a set kind is one class in geometry.py: no other module branches on it
    kinds = {"FullSpace", "Ball", "Box", "SimplexProduct"}
    found = []
    for path in sorted(Path(oevi.__file__).parent.glob("*.py")):
        if path.name == "geometry.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                    and len(node.args) == 2):
                continue
            named = {n.id if isinstance(n, ast.Name) else n.attr
                     for n in ast.walk(node.args[1]) if isinstance(n, (ast.Name, ast.Attribute))}
            if named & kinds:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


class TestProjectSimplex:
    def test_already_feasible(self):
        np.testing.assert_allclose(project_simplex([0.5, 0.5], 1.0), [0.5, 0.5])
        np.testing.assert_allclose(project_simplex([1.0, 1.0, 1.0], 3.0), [1.0, 1.0, 1.0])

    def test_outside_point(self):
        np.testing.assert_allclose(project_simplex([2.0, 0.0], 1.0), [1.0, 0.0])

    def test_negative_demand_rejected(self):
        with pytest.raises(ValueError):
            project_simplex([1.0, 2.0], -1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            project_simplex([], 1.0)

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
    for sl, d in zip(partition_slices(fs.block_sizes), fs.demands):
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


def padded_projection(fs, z, w=None):
    """Reference: every block a row of a (blocks, widest block) array,
    padded on the right with -inf (weight 1), projected by one row-wise sort
    and threshold and read back through the mask of real entries; the
    projection as written before one-block and equal-block sets were
    projected unpadded, and ragged ones block by block.  Its weighted sort
    is stable, as the library's is: an unstable one orders tied keys (exact
    zeros) by the row's length, so a padded row and its block alone may
    sum them in different orders."""
    sizes = np.array(fs.block_sizes)
    num, width = sizes.shape[0], int(sizes.max())
    mask = np.arange(width) < sizes[:, None]
    demands = np.array(fs.demands)
    rows = np.full(mask.shape, -np.inf)
    rows[mask] = z
    if w is None:
        u = np.sort(rows, axis=1)[:, ::-1]
        css = np.cumsum(u, axis=1)
        css -= demands[:, None]
        rho = _padded_support_size(u, css, np.arange(1, width + 1))
        tau = css[np.arange(num), rho] / (rho + 1.0)
        out = rows - tau[:, None]
        return np.maximum(out, 0.0, out=out)[mask]
    weights = np.ones(mask.shape)
    weights[mask] = w
    keys = weights * rows
    order = np.argsort(keys, axis=1, kind="stable")[:, ::-1]
    inv_w = np.take_along_axis(1.0 / weights, order, axis=1)
    css = np.cumsum(np.take_along_axis(rows, order, axis=1), axis=1)
    css -= demands[:, None]
    scale = np.cumsum(inv_w, axis=1)
    rho = _padded_support_size(np.take_along_axis(keys, order, axis=1), css, scale)
    tau = css[np.arange(num), rho] / scale[np.arange(num), rho]
    out = rows - tau[:, None] / weights
    return np.maximum(out, 0.0, out=out)[mask]


def _padded_support_size(keys, css, scale):
    qualifies = keys > css / scale
    qualifies[:, 0] = True
    return keys.shape[1] - 1 - np.argmax(qualifies[:, ::-1], axis=1)


@st.composite
def _partition_cases(draw):
    """A simplex product of one block, of equal blocks, or of ragged blocks
    with a size-1 block; demands 0 or spread over 10^+-3; a point z with
    ties and exact zeros, spread over 10^+-3; positive weights spread over
    10^+-3."""
    route = draw(st.sampled_from(["one", "equal", "ragged"]))
    if route == "one":
        sizes = [draw(st.integers(1, 40))]
    elif route == "equal":
        sizes = [draw(st.integers(1, 12))] * draw(st.integers(2, 6))
    else:
        sizes = draw(st.permutations([1, draw(st.integers(2, 12)),
                                      *draw(st.lists(st.integers(1, 12), max_size=4))]))
    demand = st.one_of(st.just(0.0), st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e))
    fs = SimplexProduct(sizes, draw(st.lists(demand, min_size=len(sizes), max_size=len(sizes))))
    tied = st.builds(lambda m, e: m * 10.0 ** e, st.sampled_from([-1.5, -1.0, 0.0, 0.5, 1.0]),
                     st.integers(-3, 3))
    z = draw(hnp.arrays(np.float64, fs.dim, elements=st.one_of(tied, st.floats(-1e3, 1e3))))
    w = 10.0 ** draw(hnp.arrays(np.float64, fs.dim, elements=st.floats(-3.0, 3.0)))
    return fs, z, w


@settings(max_examples=400, deadline=None)
@given(_partition_cases())
# tied zero keys in a ragged block: an unstable weighted sort put them in
# another order in the padded row than in the block alone (1 ulp apart)
@example((SimplexProduct((10, 9), (1.0, 1.0)),
          np.array([-1.5] * 14 + [0.0, -1.5, 0.0, 0.0, -1.5]),
          np.array([10.0] * 14 + [1.0] + [10.0] * 4)))
def test_projection_routes_agree_bytewise(case):
    # the one-block, equal-block and block-by-block ragged routes all give
    # the bytes of the padded projection, and of projecting each block on
    # its own
    fs, z, w = case
    parts = list(zip(partition_slices(fs.block_sizes), fs.split(fs.block_sizes)))
    for weights in (None, w):
        x = fs.project(z, weights)
        assert x.tobytes() == padded_projection(fs, z, weights).tobytes()
        blockwise = [part.project(z[sl], None if weights is None else weights[sl])
                     for sl, part in parts]
        assert x.tobytes() == np.concatenate(blockwise).tobytes()
    if len(fs.block_sizes) == 1:
        assert project_simplex(z, fs.demands[0]).tobytes() == fs.project(z).tobytes()


@pytest.mark.parametrize("fs", [SimplexProduct((3, 2), (1.0, 2.0)),
                                Box(np.zeros(5), np.ones(5))], ids=["simplex", "box"])
@pytest.mark.parametrize("bad", [-1.0, 0.0, np.nan, np.inf],
                         ids=["negative", "zero", "nan", "inf"])
def test_weighted_projection_rejects_bad_weights(fs, bad):
    # unchecked, a negative weight gives an infeasible point, a NaN one NaN,
    # and a zero one a division by zero
    w = np.array([1.0, bad, 1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="weights must be finite and positive"):
        fs.project([0.3, 0.1, 0.9, 1.0, 0.5], w)


def weighted_threshold(z, w, d):
    """Independent oracle: the tau with sum_i max(0, z_i - tau / w_i) = d,
    by bisection between a tau where every term is at least d and one
    where every term is 0 (with d = 0, the least such tau)."""
    lo, hi = float((w * (z - d)).min()), float((w * z).max())
    for _ in range(2000):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if np.maximum(z - mid / w, 0.0).sum() > d:
            lo = mid
        else:
            hi = mid
    return hi


@st.composite
def _weighted_projection_cases(draw):
    """A ragged simplex product (size-1 blocks and zero demands included) or a
    box, a point z, and positive weights w: constant, or spread over 10^+-1.5."""
    n = draw(st.integers(1, 12))
    if draw(st.booleans()):
        cuts = draw(st.sets(st.integers(1, n - 1), max_size=n - 1)) if n > 1 else set()
        edges = [0, *sorted(cuts), n]
        sizes = [hi - lo for lo, hi in zip(edges, edges[1:])]
        demand = st.one_of(st.just(0.0), st.floats(0.0, 3.0))
        fs = SimplexProduct(sizes, draw(st.lists(demand, min_size=len(sizes),
                                                 max_size=len(sizes))))
    else:
        lower = draw(hnp.arrays(np.float64, n, elements=st.floats(-2.0, 0.0)))
        fs = Box(lower, lower + draw(hnp.arrays(np.float64, n, elements=st.floats(0.0, 2.0))))
    z = draw(hnp.arrays(np.float64, n, elements=st.floats(-5.0, 5.0)))
    if draw(st.booleans()):
        w = np.full(n, 10.0 ** draw(st.floats(-1.5, 1.5)))
    else:
        w = 10.0 ** draw(hnp.arrays(np.float64, n, elements=st.floats(-1.5, 1.5)))
    return fs, z, w


@settings(max_examples=300, deadline=None)
@given(_weighted_projection_cases())
def test_weighted_projection(case):
    # argmin sum_i w_i (x_i - z_i)^2 over the set: feasible, of the KKT form
    # x_i = max(0, z_i - tau_b / w_i) per simplex block (clipping on a box),
    # and the Euclidean projection when w is constant
    fs, z, w = case
    x = fs.project(z, w)
    assert fs.contains(x)
    if type(fs) is Box:
        assert x.tobytes() == np.clip(z, fs.lower, fs.upper).tobytes()
    else:
        for sl, d in zip(partition_slices(fs.block_sizes), fs.demands):
            tau = weighted_threshold(z[sl], w[sl], d)
            np.testing.assert_allclose(x[sl], np.maximum(z[sl] - tau / w[sl], 0.0),
                                       rtol=0.0, atol=1e-10)
    if np.all(w == w[0]):
        np.testing.assert_allclose(x, fs.project(z), rtol=0.0, atol=1e-12)


def test_weighted_projection_kinds():
    # boxes and simplex products project in a diagonal metric; a ball does not
    assert Box([0.0], [1.0]).has_weighted_projection
    assert SimplexProduct([2], [1.0]).has_weighted_projection
    assert not Ball([0.0], 1.0).has_weighted_projection
    with pytest.raises(ValueError):
        SimplexProduct([2], [1.0]).project([0.5, 0.5], [1.0])
    with pytest.raises(ValueError, match="a ball has no weighted projection"):
        Ball([0.0], 1.0).project([2.0], [1.0])


class TestLinearMinimize:
    def test_simplex_unit_mass_on_min(self):
        fs = SimplexProduct([3], [1.0])
        np.testing.assert_allclose(fs.support_min([3.0, 1.0, 2.0]), [0.0, 1.0, 0.0])

    def test_ball_antipodal(self):
        fs = Ball([0.0, 0.0], 2.0)
        np.testing.assert_allclose(fs.support_min([0.0, 1.0]), [0.0, -2.0])

    def test_ball_zero_cost_returns_center(self):
        fs = Ball([1.0, -1.0], 2.0)
        np.testing.assert_allclose(fs.support_min([0.0, 0.0]), [1.0, -1.0])

    def test_box_vertex(self):
        fs = Box([0.0, 0.0], [1.0, 1.0])
        np.testing.assert_allclose(fs.support_min([-1.0, 1.0]), [1.0, 0.0])

    def test_simplex_tie_break_lowest_index(self):
        fs = SimplexProduct([3], [2.0])
        np.testing.assert_allclose(fs.support_min([1.0, 1.0, 5.0]), [2.0, 0.0, 0.0])

    def test_fullspace_rejected(self):
        with pytest.raises(ValueError):
            FullSpace(2).support_min([1.0, 0.0])

    @pytest.mark.parametrize("fs", _random_sets()[1:], ids=lambda s: type(s).__name__)
    def test_support_dominates_random_points(self, fs):
        rng = np.random.default_rng(31)
        for _ in range(200):
            c = rng.normal(size=fs.dim)
            best = fs.support_min(c)
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("fs", _random_sets(), ids=lambda s: type(s).__name__)
    def test_non_finite_point_is_no_member(self, fs, bad):
        # the whole space once took any point, and a simplex product a NaN,
        # whose block sum fails no comparison
        x = analytic_center(fs)
        x[0] = bad
        assert fs.contains(x) is False
