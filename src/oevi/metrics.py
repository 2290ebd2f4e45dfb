"""Termination and quality measures, plus the closed-form convergence bounds.

Two families of measures (the distance to a known solution is
``geometry.bregman``): residuals (the distance from -F(x) to the normal cone,
exact for the whole space and balls, upper-bounded by a certificate
computable from any stored trajectory), and weak-gap values for monotone
problems on bounded sets (an exact inner maximization for affine operators,
a support-function surrogate otherwise).  Measures that need F(x) take it
from the caller, so one evaluation can serve all of them.

The ``bound_*`` functions evaluate the convergence guarantees of each policy
so runs can be compared against them at face value.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import FeasibleSet, in_range
from .problems import VIProblem, _smaller_det
from .solvers import Trajectory

GAP_CLAMP = -1e-12  # gap values this close to zero are rounding, report 0
INNER_TOL = 1e-8  # the exact weak gap's stopping gradient-mapping norm
INNER_STEPS = 10**5  # and its cap on FISTA steps


def residual_exact(fs: FeasibleSet, x, Fx) -> float:
    """Exact residual min_{y in -N_X(x)} ||y - F(x)|| on sets with
    ``has_exact_residual`` (the whole space and balls); polyhedral sets
    report residuals through the certificate instead."""
    return fs.residual_exact(x, Fx)


def max_bregman_from(fs: FeasibleSet, x1) -> float:
    """max_{x in X} V(x1, x) (Euclidean generator), read by the gap bounds."""
    return fs.max_bregman_from(x1)


def residual_certificate(traj: Trajectory, t_index: int, F_next) -> float:
    """Residual upper bound ||delta_t|| from stored iterates at index t in [1, k]:

        delta_t = Fh(x_t) - F(x_{t+1}) + lambda_t [Fh(x_t) - Fh(x_{t-1})]
                  + (x_{t+1} - x_t) / gamma_t,

    where Fh are the operator values the run actually used (exact for
    deterministic runs, stored samples for stochastic ones) and ``F_next`` is
    the exact operator value F(x_{t+1}).  By the prox-mapping optimality
    condition this value upper-bounds the true residual at x_{t+1}.  A run
    given checkpoints keeps Fh only where its checkpoints need it; any other
    t raises ``ValueError``.
    """
    t = int(in_range("t_index", t_index, 1, closed=True, high=traj.k))
    missing = [s for s in (t - 1, t) if s not in traj.ops]
    if missing:
        raise ValueError(f"residual certificate at t = {t} needs the operator values at "
                         f"t = {missing}, but the run kept values only at its checkpoints")
    lam = float(traj.lams[t])
    gamma = float(traj.gammas[t])
    delta = (
        traj.ops[t]
        - np.asarray(F_next, dtype=float)
        + lam * (traj.ops[t] - traj.ops[t - 1])
        + (traj.xs[t + 1] - traj.xs[t]) / gamma
    )
    return float(np.linalg.norm(delta))


def gap_surrogate(fs: FeasibleSet, x_bar, Fx) -> float:
    """Support-function upper bound on the weak gap, given Fx = F(x_bar):
    <F(x_bar), x_bar> - min_{x in X} <F(x_bar), x>.

    Dominates the weak gap for monotone operators and is tight when F is
    constant.  Requires a bounded set.
    """
    xb = np.asarray(x_bar, dtype=float)
    Fb = np.asarray(Fx, dtype=float)
    best = fs.support_min(Fb)
    value = float(Fb @ (xb - best))
    if value < GAP_CLAMP:
        return value  # genuinely negative: caller should know
    return max(value, 0.0)


def has_exact_weak_gap(problem: VIProblem) -> bool:
    """Whether ``weak_gap_exact_affine`` applies: an affine operator, a bounded
    set, and G + G^T positive semidefinite by ``AffineSpec.monotone``."""
    return problem.affine is not None and problem.set.bounded and problem.affine.monotone


def weak_gap_exact_affine(problem: VIProblem, x_bar, inner_tol: float = INNER_TOL) -> float:
    """Exact weak gap max_{x in X} <F(x), x_bar - x> for affine monotone F,
    on problems that ``has_exact_weak_gap`` accepts (``ValueError`` otherwise).

    The inner problem is a concave quadratic maximization, solved by FISTA
    (Beck & Teboulle 2009) from x_bar with the gradient adaptive restart of
    O'Donoghue & Candes (2015): the momentum restarts whenever the projected
    gradient step x_new - y points against the move x_new - x_prev.  Each
    step majorizes S = G + G^T by lambda_max(S) I (the Euclidean step
    1/lambda_max(S)) or, on sets with ``has_weighted_projection`` (boxes,
    simplex products), by L_w W of ``AffineSpec.jacobi_metric`` when L_w W
    has the smaller determinant: W = diag(S) floored at a fixed fraction of
    lambda_max(S), L_w the Gershgorin bound on lambda_max(W^-1/2 S W^-1/2).
    Other sets never compute that metric.  x_new is then the
    W-projection of y + W^-1 grad phi(y) / L_w, and the restart test takes
    the W inner product.  A constant diagonal keeps the Euclidean step, as
    do balls.  Jacobi scaling is within a factor of the best diagonal
    scaling (van der Sluis 1969); on traffic instances (n = 1000, d_minus =
    0.005) it takes the condition number of S from about 200 to about 1.15.

    In either metric the solve stops once the Euclidean gradient-mapping
    norm at the extrapolated point y, ||y - P_X(y + step grad phi(y))|| /
    step with step = 1/lambda_max(S), drops below ``inner_tol``, and
    returns that projected point as the maximizer.  ``INNER_STEPS`` caps the
    number of FISTA steps (one Euclidean projection each, and in the
    diagonal metric one weighted projection per step that does not stop);
    ``RuntimeError`` if they do not get there.  When the quadratic part
    vanishes numerically (skew G), the inner problem is linear and is
    solved exactly through the support oracle.
    """
    if not has_exact_weak_gap(problem):
        raise ValueError("the exact weak gap needs an affine operator, a bounded set "
                         "and G + G^T positive semidefinite")
    spec = problem.affine
    G, b, fs = spec.G, spec.b, problem.set
    xb = np.asarray(x_bar, dtype=float)
    lam_min, lam_max = spec.spectrum

    # objective phi(x) = <G x + b, x_bar - x>, gradient G^T x_bar - S x - b
    c = G.T @ xb - b
    if lam_max <= 1e-12 * max(abs(lam_min), abs(lam_max), 1.0):
        x_opt = fs.support_min(-c)
    else:
        S = G + G.T
        step = 1.0 / lam_max
        w, scale = 1.0, None  # the Euclidean step
        if fs.has_weighted_projection:
            jw, L_w, _ = spec.jacobi_metric
            if _smaller_det(jw, L_w, lam_max):
                w, scale = jw, 1.0 / (L_w * jw)
        x = y = xb.copy()
        t = 1.0
        for _ in range(INNER_STEPS):
            grad = c - S @ y
            x_new = fs.project(y + step * grad)
            if float(np.linalg.norm(y - x_new)) / step <= inner_tol:
                x = x_new
                break
            if scale is not None:
                x_new = fs.project(y + scale * grad, w)
            if float((w * (x_new - y)) @ (x_new - x)) < 0.0:
                t = 1.0  # restart: the next y is x_new
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            y = x_new + ((t - 1.0) / t_next) * (x_new - x)
            x, t = x_new, t_next
        else:
            raise RuntimeError(
                f"weak-gap inner solve did not reach inner_tol={inner_tol} "
                f"within {INNER_STEPS} steps"
            )
        x_opt = x
    value = float((G @ x_opt + b) @ (xb - x_opt))
    if value < GAP_CLAMP:
        return value
    return max(value, 0.0)


# ---------------------------------------------------------------------------
# Convergence bounds (evaluated, not proved, here)
# ---------------------------------------------------------------------------


def bound_gsmvi_linear(L: float, mu: float, V1: float, k: int) -> float:
    """Linear-rate distance bound for the deterministic strongly monotone
    policy: (L/mu) (L/(L+mu))^(k-1) V1."""
    return (L / mu) * (L / (L + mu)) ** (k - 1) * V1


def bound_gmvi_movement(V1: float) -> float:
    """Total squared movement bound for the plain-monotone policy: 6 V1."""
    return 6.0 * V1


def bound_gmvi_residual(L: float, L_omega: float, V1: float, k: int) -> float:
    """Residual bound at the best-movement iterate: 4 L (2 + 3 L_omega) sqrt(3 V1 / k)."""
    return 4.0 * L * (2.0 + 3.0 * L_omega) * math.sqrt(3.0 * V1) / math.sqrt(k)


def bound_mvi_gap(L: float, k: int, max_V: float) -> float:
    """Averaged-iterate weak-gap bound: (2 L / k) max_x V(x1, x)."""
    return 2.0 * L / k * max_V


def bound_soe_decreasing(L: float, mu: float, sigma: float, V1: float, k: int) -> float:
    """Expected-distance bound for the decreasing stochastic policy."""
    t0 = 4.0 * L / mu
    denom = (k + t0 + 1.0) * (k + t0)
    return 2.0 * (t0 + 1.0) * (t0 + 2.0) * V1 / denom + 8.0 * (4.0 * k + 1.0) * sigma**2 / (
        mu**2 * denom
    )


def bound_soe_constant(L: float, mu: float, sigma: float, V1: float, k: int, q: float) -> float:
    """Expected-distance bound for the constant stochastic policy."""
    lg = math.log(k)
    return (
        2.0 * (1.0 + mu / (2.0 * L)) ** (-k) * V1
        + (2.0 + 8.0 * q * lg) * sigma**2 / (mu**2 * k)
        + 4.0 * q**2 * lg**2 * sigma**2 / (mu**2 * k**2)
    )


def bound_soe_restart(V1: float, s: int) -> float:
    """Expected distance after s restart epochs: 2^-s V1."""
    return 2.0**-s * V1


def bound_soe_gmvi_residual_sq(
    L: float, L_omega: float, sigma: float, V1: float, k: int
) -> float:
    """Expected squared residual of the uniform-index output with batch k+1:
    20 sigma^2/(k+1) + 32 [(L + 4 L L_omega)^2 + L^2] (2 V1 + sigma^2/L^2)/(k-1)."""
    lead = 20.0 * sigma**2 / (k + 1.0)
    coef = 32.0 * ((L + 4.0 * L * L_omega) ** 2 + L**2)
    return lead + coef * (2.0 * V1 + sigma**2 / L**2) / (k - 1.0)


def bound_sboe_linear(
    Lbar: float, b: int, mu: float, V1: float, F1_inner: float, k: int
) -> float:
    """Expected-distance bound for the block strongly monotone policy:
    2 rho^k [V1 + (b-1)/b * gamma * <F(x1), x1 - x*>], gamma = 1/(2 Lbar b)."""
    gamma = 1.0 / (2.0 * Lbar * b)
    rho = (1.0 + 2.0 * mu * gamma * (b - 1) / b) / (1.0 + 2.0 * mu * gamma)
    return 2.0 * rho**k * (V1 + (b - 1) / b * gamma * F1_inner)


def bound_sboe_gap(problem: VIProblem, Lbar: float, b: int, x1, k: int) -> float:
    """Expected weak-gap bound for the block monotone policy:
    4 Lbar b/(k-1+b) max_x [5 (b+1) V(x1, x) + (b-1)/(4 Lbar b) <F(x1), x1 - x>]."""
    x1v = np.asarray(x1, dtype=float)
    F1 = np.asarray(problem.operator(x1v), dtype=float)
    coef = (b - 1) / (4.0 * Lbar * b)
    inner_max = coef * float(F1 @ x1v) + problem.set.max_convex_quadratic(
        x1v, 5.0 * (b + 1.0), -coef * F1
    )
    return 4.0 * Lbar * b / (k - 1.0 + b) * inner_max


def bound_soe_mvi_gap(L: float, sigma: float, D_X: float, k: int) -> float:
    """Expected weak-gap bound for the tail-averaged stochastic monotone policy."""
    return (
        2.0
        * L
        / math.sqrt(k + 1.0)
        * (4.5 * math.log(5.0) * sigma**2 / L**2 + 3.75 * D_X + 7.0 * sigma**2 / (L**2 * k))
    )
