"""Metric tests: residuals (exact and certified), gap measures against
independent grid-search oracles, set-geometry helpers, and bound formulas."""

import csv
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oevi.geometry import (
    Ball,
    Box,
    FullSpace,
    SimplexProduct,
    analytic_center,
    bregman,
    partition_slices,
)
from oevi.metrics import (
    GAP_CLAMP,
    INNER_TOL,
    bound_gsmvi_linear,
    bound_mvi_gap,
    gap_surrogate,
    max_bregman_from,
    residual_certificate,
    residual_exact,
    weak_gap_exact_affine,
)
from oevi import cli, metrics
from oevi import schedules as S
from oevi.problems import (AffineSpec, _smaller_det, affine_problem, problem_to_json,
                           solve_reference, traffic_generate)
from oevi.solvers import OE_MVI_AVERAGE, RunConfig, oe_run, run, weighted_average


def skew_simplex_problem(n=6, blocks=2, seed=0):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    G = A - A.T  # skew: monotone with mu = 0
    b = rng.uniform(0.0, 1.0, size=n)
    fs = SimplexProduct([n // blocks] * blocks, [1.0] * blocks)
    return affine_problem(AffineSpec(G, b), fs)


class TestResidualExact:
    def test_fullspace_norm(self):
        assert residual_exact(FullSpace(2), np.zeros(2), [3.0, 4.0]) == pytest.approx(5.0)

    def test_ball_inward_force_removable(self):
        fs = Ball([0.0, 0.0], 1.0)
        assert residual_exact(fs, [1.0, 0.0], [-2.0, 0.0]) == pytest.approx(0.0, abs=1e-12)

    def test_ball_tangential_force_unremovable(self):
        fs = Ball([0.0, 0.0], 1.0)
        assert residual_exact(fs, [1.0, 0.0], [0.0, 3.0]) == pytest.approx(3.0)

    def test_ball_interior_norm(self):
        fs = Ball([0.0, 0.0], 2.0)
        assert residual_exact(fs, [0.5, 0.0], [1.0, 1.0]) == pytest.approx(math.sqrt(2.0))

    def test_ball_outward_force_not_removable(self):
        fs = Ball([0.0, 0.0], 1.0)
        # F pointing outward: no normal-cone element helps
        assert residual_exact(fs, [1.0, 0.0], [2.0, 0.0]) == pytest.approx(2.0)

    def test_simplex_unsupported(self):
        fs = SimplexProduct([2], [1.0])
        with pytest.raises(ValueError):
            residual_exact(fs, [0.5, 0.5], [1.0, 0.0])


class TestResidualCertificate:
    def test_stationary_tail_gives_zero(self):
        # zero operator: iterates never move, certificate must vanish
        p = affine_problem(AffineSpec(np.zeros((2, 2)), np.zeros(2)), FullSpace(2))
        traj = oe_run(p, S.OEGmviSchedule(1.0), np.array([1.0, -1.0]), 5)
        assert residual_certificate(traj, 3, p.operator(traj.xs[4])) == pytest.approx(0.0, abs=1e-14)

    def test_upper_bounds_exact_residual_on_fullspace(self):
        rng = np.random.default_rng(1)
        n = 8
        E = rng.normal(size=(n, n))
        shift = abs(float(np.linalg.eigvalsh(E + E.T)[0])) / 2.0 + 0.5
        p = affine_problem(AffineSpec(E + shift * np.eye(n), rng.normal(size=n)), FullSpace(n))
        sched = S.OEGsmviSchedule(p.constants.L, p.constants.mu)
        traj = oe_run(p, sched, np.ones(n), 60)
        for t in range(1, 61):
            cert = residual_certificate(traj, t, p.operator(traj.xs[t + 1]))
            exact = residual_exact(FullSpace(n), traj.xs[t + 1], p.operator(traj.xs[t + 1]))
            assert cert >= exact - 1e-9

    def test_certificate_equals_exact_on_unconstrained_prox(self):
        # on the whole space the prox step optimality makes delta = -F(x_{t+1})
        p = affine_problem(AffineSpec(np.eye(3) * 2.0, np.ones(3)), FullSpace(3))
        sched = S.OEGsmviSchedule(p.constants.L, p.constants.mu)
        traj = oe_run(p, sched, np.zeros(3), 10)
        for t in (1, 5, 10):
            cert = residual_certificate(traj, t, p.operator(traj.xs[t + 1]))
            exact = float(np.linalg.norm(p.operator(traj.xs[t + 1])))
            assert cert == pytest.approx(exact, rel=1e-10)

    def test_index_bounds(self):
        p = affine_problem(AffineSpec(np.eye(2), np.zeros(2)), FullSpace(2))
        traj = oe_run(p, S.OEGmviSchedule(1.0), np.ones(2), 4)
        with pytest.raises(ValueError):
            residual_certificate(traj, 0, np.zeros(2))
        with pytest.raises(ValueError):
            residual_certificate(traj, 5, np.zeros(2))

    def test_value_not_kept_names_t(self):
        # a run given checkpoints keeps F only at {t - 1, t} for each checkpoint t
        p = affine_problem(AffineSpec(np.eye(2) * 2.0, np.ones(2)), FullSpace(2))
        sched = S.OEGmviSchedule(p.constants.L)
        traj = run(p, sched, np.zeros(2), RunConfig("OE-GMVI", k=10, checkpoints=[0, 5, 10]))
        assert sorted(traj.ops) == [4, 5, 9, 10]
        assert residual_certificate(traj, 5, p.operator(traj.xs[6])) >= 0.0
        for t in (1, 6, 8):
            with pytest.raises(ValueError, match=rf"at t = {t} .*kept values only at its "
                                                 r"checkpoints"):
                residual_certificate(traj, t, p.operator(traj.xs[t + 1]))


class TestGapSurrogate:
    def test_zero_at_reference_solution(self):
        p = traffic_generate(10, 5, 0.5, seed=13)
        x_star = solve_reference(p, tol=1e-10)
        assert gap_surrogate(p.set, x_star, p.operator(x_star)) <= 1e-8

    def test_tight_for_constant_operator(self):
        fs = SimplexProduct([3], [1.0])
        c = np.array([2.0, 1.0, 3.0])
        p = affine_problem(AffineSpec(np.zeros((3, 3)), c), fs)
        x_bar = np.array([0.2, 0.5, 0.3])
        # exact weak gap for constant F: <c, x_bar> - min_x <c, x>
        exact = float(c @ x_bar) - 1.0
        assert gap_surrogate(p.set, x_bar, p.operator(x_bar)) == pytest.approx(exact, abs=1e-12)
        assert weak_gap_exact_affine(p, x_bar) == pytest.approx(exact, abs=1e-8)

    def test_nonnegative_at_random_feasible_points(self):
        p = skew_simplex_problem(seed=3)
        rng = np.random.default_rng(4)
        for _ in range(100):
            x = p.set.project(rng.normal(size=p.dim))
            assert gap_surrogate(p.set, x, p.operator(x)) >= 0.0

    def test_unbounded_set_rejected(self):
        p = affine_problem(AffineSpec(np.eye(2), np.zeros(2)), FullSpace(2))
        with pytest.raises(ValueError):
            gap_surrogate(p.set, np.zeros(2), p.operator(np.zeros(2)))


def grid_search_weak_gap(problem, x_bar, resolution=1e-3):
    """Dense grid oracle for 2-d boxes: max over the grid of <F(x), x_bar - x>."""
    fs = problem.set
    assert isinstance(fs, Box) and fs.dim == 2
    g0 = np.arange(fs.lower[0], fs.upper[0] + resolution / 2, resolution)
    g1 = np.arange(fs.lower[1], fs.upper[1] + resolution / 2, resolution)
    X0, X1 = np.meshgrid(g0, g1, indexing="ij")
    pts = np.stack([X0.ravel(), X1.ravel()], axis=1)
    F = pts @ problem.affine.G.T + problem.affine.b
    vals = ((x_bar - pts) * F).sum(axis=1)
    return float(vals.max())


def skewed_traffic_point():
    """Traffic n = 50 and the point with all of each block's demand on its
    first arc."""
    p = traffic_generate(50, 5, 0.005, seed=1)
    x_bar = np.zeros(50)
    for sl in partition_slices(p.set.block_sizes):
        x_bar[sl.start] = 1.0
    return p, x_bar


class TestWeakGapExact:
    def test_zero_at_solution_strongly_monotone(self):
        rng = np.random.default_rng(5)
        G = np.array([[2.0, 0.3], [0.1, 1.0]])
        b = np.array([-1.0, 0.5])
        fs = Box([-2.0, -2.0], [2.0, 2.0])
        p = affine_problem(AffineSpec(G, b), fs)
        x_star = solve_reference(p, tol=1e-10)
        assert weak_gap_exact_affine(p, x_star, inner_tol=1e-10) <= 1e-8

    def test_matches_grid_search_2d(self):
        rng = np.random.default_rng(6)
        for seed in range(3):
            rng = np.random.default_rng(60 + seed)
            A = rng.normal(size=(2, 2))
            G = A - A.T + 0.5 * np.eye(2)  # PSD symmetric part
            b = rng.normal(size=2)
            fs = Box([0.0, 0.0], [1.0, 1.0])
            p = affine_problem(AffineSpec(G, b), fs)
            x_bar = fs.project(rng.uniform(0, 1, size=2))
            fast = weak_gap_exact_affine(p, x_bar, inner_tol=1e-8)
            slow = grid_search_weak_gap(p, x_bar)
            assert fast == pytest.approx(slow, abs=1e-2)

    def test_skew_case_solved_exactly(self):
        p = skew_simplex_problem(seed=7)
        rng = np.random.default_rng(8)
        x_bar = p.set.project(rng.normal(size=p.dim))
        gap = weak_gap_exact_affine(p, x_bar)
        # independent evaluation: linear inner problem solved by block argmax
        G, b = p.affine.G, p.affine.b
        c = G.T @ x_bar - b
        best = p.set.support_min(-c)
        expect = float((G @ best + b) @ (x_bar - best))
        assert gap == pytest.approx(expect, rel=1e-12)

    def test_surrogate_dominates_exact(self):
        p = skew_simplex_problem(seed=9)
        rng = np.random.default_rng(10)
        for _ in range(50):
            x = p.set.project(rng.normal(size=p.dim))
            assert weak_gap_exact_affine(p, x) <= gap_surrogate(p.set, x, p.operator(x)) + 1e-8

    def test_indefinite_rejected(self):
        G = np.diag([1.0, -1.0])
        with pytest.warns(UserWarning, match="operator is not monotone") as caught:
            p = affine_problem(AffineSpec(G, np.zeros(2)), Box([0.0, 0.0], [1.0, 1.0]))
        assert len(caught) == 1 and not p.affine.monotone and p.constants.mu == 0.0
        with pytest.raises(ValueError, match="positive semidefinite"):
            weak_gap_exact_affine(p, np.zeros(2))

    def test_null_space_is_monotone_without_warning(self, tmp_path, capsys):
        # G = A A^T with rank(A) = 10 < n = 30: lambda_min(G + G^T)/2 is a
        # round-off below 0, inside the one monotonicity rule's tolerance
        A = np.random.default_rng(0).normal(size=(30, 10))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = affine_problem(AffineSpec(A @ A.T, np.ones(30)),
                               SimplexProduct([10] * 3, [1.0] * 3))
        assert p.affine.spectrum[0] < 0.0 and p.affine.monotone and p.constants.mu == 0.0
        (tmp_path / "p.json").write_text(problem_to_json(p))
        (tmp_path / "exp.ini").write_text(
            f"[problem]\nkind = json\npath = {tmp_path / 'p.json'}\n[run]\nk = 20\ncadence = 10\n"
            f"weak_gap = true\nreference = false\noutput = {tmp_path / 'out'}\n[policy:OE-MVI]\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["run", str(tmp_path / "exp.ini")]) == 0
        assert capsys.readouterr().err == ""
        with open(tmp_path / "out" / "OE-MVI_s0.csv") as f:
            gaps = [row["weak_gap_exact"] for row in csv.DictReader(f)]
        assert len(gaps) == 3 and all(float(g) >= 0.0 for g in gaps)

    def test_inner_cap_raises(self, monkeypatch):
        p, x_bar = skewed_traffic_point()
        assert weak_gap_exact_affine(p, x_bar, inner_tol=1e-12) > 0.0
        monkeypatch.setattr(metrics, "INNER_STEPS", 3)
        with pytest.raises(RuntimeError, match="within 3 steps"):
            weak_gap_exact_affine(p, x_bar, inner_tol=1e-12)

    def test_inner_steps_on_skewed_point(self, monkeypatch):
        # in the diagonal metric restarted FISTA takes 12 steps here (one
        # Euclidean projection each), where the Euclidean metric took 208;
        # 24 leaves twice that
        p, x_bar = skewed_traffic_point()
        w, L_w, _ = p.affine.jacobi_metric
        assert _smaller_det(w, L_w, p.affine.spectrum[1])
        calls = []
        project = p.set.project
        # count the Euclidean projections, not the weighted ones
        monkeypatch.setattr(p.set, "project",
                            lambda z, w=None: (w is None and calls.append(1)) or project(z, w))
        assert weak_gap_exact_affine(p, x_bar, inner_tol=1e-12) > 0.0
        assert 0 < len(calls) <= 24

    def test_constant_diagonal_takes_the_euclidean_steps(self, monkeypatch):
        # diag(G + G^T) constant: the diagonal metric is not chosen, and were
        # it forced, W L_w = lambda_max I makes its steps the Euclidean ones
        rng = np.random.default_rng(0)
        A = rng.normal(size=(50, 5))
        M = A @ A.T
        M /= np.sqrt(np.outer(np.diag(M), np.diag(M)))
        np.fill_diagonal(M, 1.0)
        B = rng.normal(size=(50, 50))
        fs = SimplexProduct([10] * 5, [1.0] * 5)
        G = 0.5 * M + 1e-3 * np.eye(50) + 0.3 * (B - B.T)
        p = affine_problem(AffineSpec(G, rng.uniform(0.0, 1.0, 50)), fs)
        x_bar = fs.project(3.0 * rng.normal(size=50))
        w, L_w, _ = p.affine.jacobi_metric
        assert not _smaller_det(w, L_w, p.affine.spectrum[1])
        calls = []
        project = fs.project
        # count the Euclidean projections, not the weighted ones
        monkeypatch.setattr(fs, "project",
                            lambda z, w=None: (w is None and calls.append(1)) or project(z, w))
        euclidean = weak_gap_exact_affine(p, x_bar, inner_tol=1e-12)
        steps = len(calls)
        w0 = 2.0 * G[0, 0]
        metric = (np.full(50, w0), p.affine.spectrum[1] / w0, None)
        monkeypatch.setitem(vars(p.affine), "jacobi_metric", metric)
        monkeypatch.setattr(metrics, "_smaller_det", lambda w, L_w, lam: True)
        assert weak_gap_exact_affine(p, x_bar, inner_tol=1e-12) == pytest.approx(euclidean,
                                                                                 abs=1e-12)
        assert steps == len(calls) - steps > 100  # 320 with OpenBLAS 0.3.31

    def test_ball_never_computes_the_jacobi_metric(self):
        # a ball has no weighted projection, so the weak gap steps in the
        # Euclidean metric without the metric's pass over G
        rng = np.random.default_rng(3)
        A = rng.normal(size=(6, 6))
        p = affine_problem(AffineSpec(A @ A.T + np.diag(np.arange(1.0, 7.0)), np.ones(6)),
                           Ball(np.zeros(6), 1.0))
        assert weak_gap_exact_affine(p, np.full(6, 0.1)) >= 0.0
        assert "jacobi_metric" not in vars(p.affine)

    def test_nonaffine_rejected(self):
        import dataclasses

        p = skew_simplex_problem(seed=11)
        p = dataclasses.replace(p, affine=None)
        with pytest.raises(ValueError):
            weak_gap_exact_affine(p, analytic_center(p.set))


def frank_wolfe_bracket(problem, x_bar, iters=3000):
    """Certified bracket [lower, upper] on max_{x in X} phi(x) for the
    weak-gap objective phi(x) = <G x + b, x_bar - x>, by Frank-Wolfe with
    exact line search from x_bar.  Every iterate z is feasible, so phi(z) is
    a lower bound; phi is concave, so phi(z) + max_{v in X} <grad phi(z), v - z>
    is an upper bound.  The linear maximization is written out here for
    simplex products and boxes."""
    G, b, fs = problem.affine.G, problem.affine.b, problem.set
    c = G.T @ x_bar - b
    z = x_bar.copy()
    lower, upper = -math.inf, math.inf
    for _ in range(iters):
        phi = float((G @ z + b) @ (x_bar - z))
        grad = c - (G + G.T) @ z
        if isinstance(fs, Box):
            v = np.where(grad > 0.0, fs.upper, fs.lower)
        else:
            v = np.zeros_like(z)
            for sl, d in zip(partition_slices(fs.block_sizes), fs.demands):
                v[sl.start + int(np.argmax(grad[sl]))] = d
        direction = v - z
        slope = float(grad @ direction)
        lower, upper = max(lower, phi), min(upper, phi + slope)
        if upper - lower <= 1e-13:
            break
        # phi(z + s d) = phi(z) + s slope - s^2 <d, G d>
        curvature = float(direction @ G @ direction)
        z = z + (1.0 if curvature <= 0.0 else min(1.0, slope / (2.0 * curvature))) * direction
    return lower, upper


@st.composite
def _monotone_affine_points(draw):
    """A monotone affine problem on a simplex product or a box, and a point."""
    n = draw(st.integers(2, 6))
    entries = st.floats(-2.0, 2.0)
    A = draw(hnp.arrays(np.float64, (n, n), elements=entries))
    B = draw(hnp.arrays(np.float64, (n, n), elements=entries))
    # a zero weight leaves G skew, which takes the linear branch
    G = draw(st.sampled_from([0.0, 0.05, 1.0])) * A @ A.T + B - B.T
    b = draw(hnp.arrays(np.float64, n, elements=entries))
    if draw(st.booleans()):
        cuts = draw(st.sets(st.integers(1, n - 1), max_size=n - 1))
        edges = [0, *sorted(cuts), n]
        sizes = [hi - lo for lo, hi in zip(edges, edges[1:])]
        demands = draw(st.lists(st.floats(0.0, 1.0), min_size=len(sizes),
                                max_size=len(sizes)))
        fs = SimplexProduct(sizes, demands)
    else:
        lower = draw(hnp.arrays(np.float64, n, elements=st.floats(-1.0, 0.0)))
        fs = Box(lower, lower + draw(hnp.arrays(np.float64, n, elements=st.floats(0.0, 1.0))))
    x_bar = fs.project(draw(hnp.arrays(np.float64, n, elements=st.floats(-3.0, 3.0))))
    return affine_problem(AffineSpec(G, b), fs), x_bar


# monotone by construction, so no "operator is not monotone" warning may arise
@pytest.mark.filterwarnings("error::UserWarning")
@settings(max_examples=60, deadline=None)
@given(_monotone_affine_points())
def test_weak_gap_within_frank_wolfe_bracket(case):
    p, x_bar = case
    gap = weak_gap_exact_affine(p, x_bar)
    lower, upper = frank_wolfe_bracket(p, x_bar)
    # the inner solve may stop short of the maximum by about INNER_TOL; on
    # the upper side, only rounding (both may evaluate phi at one vertex)
    assert lower - 2.0 * INNER_TOL <= gap <= upper + abs(GAP_CLAMP)


class TestGapBoundAlongRun:
    def test_averaged_iterate_obeys_gap_bound(self):
        p = skew_simplex_problem(n=8, blocks=2, seed=12)
        L = p.constants.L
        sched = S.OEMviSchedule(L)
        x1 = analytic_center(p.set)
        traj = oe_run(p, sched, x1, 400)
        max_v = max_bregman_from(p.set, x1)
        inner_tol = 1e-8
        for k in (50, 100, 400):
            x_bar = weighted_average(traj, OE_MVI_AVERAGE, k=k)
            gap = weak_gap_exact_affine(p, x_bar, inner_tol)
            assert gap <= bound_mvi_gap(L, k, max_v) + 2 * inner_tol


class TestSetGeometryHelpers:
    def test_ball_max_bregman(self):
        fs = Ball([1.0, 0.0], 2.0)
        x1 = np.array([0.0, 0.0])
        assert max_bregman_from(fs, x1) == pytest.approx(0.5 * 9.0)

    def test_simplex_max_bregman_matches_enumeration(self):
        fs = SimplexProduct([3, 2], [1.0, 2.0])
        x1 = analytic_center(fs)
        # brute force: all vertex pairs across blocks
        best = 0.0
        for i in range(3):
            for j in range(2):
                x = np.zeros(5)
                x[i] = 1.0
                x[3 + j] = 2.0
                best = max(best, bregman(x1, x))
        assert max_bregman_from(fs, x1) == pytest.approx(best)

    def test_box_max_bregman(self):
        fs = Box([0.0, -1.0], [2.0, 1.0])
        assert max_bregman_from(fs, np.array([0.0, 0.0])) == pytest.approx(0.5 * (4.0 + 1.0))

    def test_diameters(self):
        assert Ball([0.0, 0.0], 3.0).bregman_diameter() == pytest.approx(18.0)
        assert Box([0.0, 0.0], [1.0, 2.0]).bregman_diameter() == pytest.approx(2.5)
        assert SimplexProduct([2, 3], [1.0, 2.0]).bregman_diameter() == pytest.approx(5.0)
        # single-coordinate blocks are points: no spread
        assert SimplexProduct([1], [5.0]).bregman_diameter() == 0.0

    def test_max_convex_quadratic_vs_sampling(self):
        fs = SimplexProduct([3, 2], [1.0, 1.0])
        rng = np.random.default_rng(13)
        x1 = analytic_center(fs)
        lin = rng.normal(size=5)
        val = fs.max_convex_quadratic(x1, 2.0, lin)
        for _ in range(2000):
            x = fs.project(rng.normal(size=5) * 2)
            assert val >= 1.0 * float(((x - x1) ** 2).sum()) + float(lin @ x) - 1e-9

    def test_box_max_convex_quadratic_matches_vertices(self):
        # a convex function peaks at a vertex: enumerate all 2^n corners
        rng = np.random.default_rng(19)
        n = 5
        lower = rng.normal(size=n)
        fs = Box(lower, lower + rng.uniform(0.1, 2.0, size=n))
        for alpha in (0.0, 0.7, 3.0):
            x1, lin = fs.project(rng.normal(size=n)), rng.normal(size=n)
            best = max(alpha * bregman(x1, v) + float(lin @ v)
                       for v in (np.where(m, fs.upper, fs.lower)
                                 for m in itertools.product((False, True), repeat=n)))
            assert fs.max_convex_quadratic(x1, alpha, lin) == pytest.approx(best, rel=1e-12)

    def test_simplex_max_convex_quadratic_matches_vertices(self):
        # every vertex of random ragged products, zero demands among them
        rng = np.random.default_rng(29)
        for _ in range(200):
            sizes = rng.integers(1, 5, size=rng.integers(1, 5))
            demands = rng.uniform(0.0, 3.0, size=sizes.size) * (rng.random(sizes.size) > 0.2)
            fs = SimplexProduct(sizes, demands)
            x1, lin = rng.normal(size=(2, fs.dim))
            alpha = float(rng.choice([0.0, rng.uniform(0.0, 5.0)]))
            offsets = np.cumsum(sizes) - sizes
            best = -math.inf
            for js in itertools.product(*(range(s) for s in sizes)):
                v = np.zeros(fs.dim)
                v[offsets + js] = demands
                best = max(best, alpha * bregman(x1, v) + float(lin @ v))
            assert fs.max_convex_quadratic(x1, alpha, lin) == pytest.approx(best, rel=1e-12)

    def test_simplex_max_bregman_in_linear_memory(self):
        # once an s x s identity per block: 244 MB at s = 4000
        fs = SimplexProduct((4000,), (1.0,))
        x1 = analytic_center(fs)
        tracemalloc.start()
        try:
            value = fs.max_bregman_from(x1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        assert value == pytest.approx(0.5 * (1.0 - 1.0 / 4000), rel=1e-12)


class TestBoundFormulas:
    def test_linear_rate_bound_decreasing_in_k(self):
        vals = [bound_gsmvi_linear(2.0, 0.5, 1.0, k) for k in (1, 10, 100)]
        assert vals[0] > vals[1] > vals[2]
        assert bound_gsmvi_linear(2.0, 0.5, 1.0, 1) == pytest.approx(4.0)

    def test_gap_bound_scales(self):
        assert bound_mvi_gap(3.0, 100, 2.0) == pytest.approx(0.12)
