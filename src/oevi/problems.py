"""Concrete variational-inequality instances.

Two families are provided: affine operators F(y) = G y + b over a product of
demand simplices (the traffic-assignment family) and signal-estimation
operators from generalized linear models over a centered ball (hinge and
ramp-sigmoid links).  Each instance exposes an exact operator, a stochastic
oracle where one exists, and analytic Lipschitz / monotonicity constants.
Generators reject a size below 1, or one whose n x n matrix of doubles
exceeds physical memory (``check_memory``), before any draw, and the JSON reader a
document that is not an object, misses a key, holds NaN or Infinity or a value
of the wrong JSON type, with ValueError.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .geometry import (
    Ball,
    FeasibleSet,
    SimplexProduct,
    doc_value,
    in_range,
    partition_slices,
    set_from_doc,
)

_SQRT2PI = math.sqrt(2.0 * math.pi)
# floor of the Jacobi metric's weights (``AffineSpec.jacobi_metric``), as a
# fraction of lambda_max(G + G^T)
_METRIC_FLOOR = 1e-3


@dataclass(frozen=True)
class Constants:
    """Problem constants: Lipschitz L, monotonicity modulus mu, oracle noise
    sigma (0 for deterministic problems), and generator smoothness L_omega."""

    L: float
    mu: float
    sigma: float = 0.0
    L_omega: float = 1.0


@dataclass
class VIProblem:
    """A variational-inequality instance.

    ``operator`` is the exact map F; ``oracle`` (optional) is a mini-batch
    estimator ``oracle(x, rng, m) -> mean of m unbiased samples``.  When the
    operator is affine, ``affine`` carries (G, b) so solvers can use recursive
    operator updates.  The block constant ``Lbar`` and ``blocks``, the (slice,
    set) pair of each block, are computed here, on first use, once per problem.
    """

    dim: int
    set: FeasibleSet
    operator: Callable[[np.ndarray], np.ndarray]
    constants: Constants
    oracle: Optional[Callable[[np.ndarray, np.random.Generator, int], np.ndarray]] = None
    known_solution: Optional[np.ndarray] = None
    block_partition: Optional[tuple[int, ...]] = None
    affine: Optional["AffineSpec"] = None
    glm: Optional["GLMSpec"] = None
    seed: Optional[int] = None

    def __post_init__(self):
        if self.block_partition is not None:  # as a tuple of ints
            self.block_partition = tuple(sl.stop - sl.start for sl in
                                         partition_slices(self.block_partition, self.dim))

    @cached_property
    def blocks(self) -> list[tuple[slice, FeasibleSet]]:
        """``ValueError`` without a partition, or from ``set.split`` where the set cannot split."""
        if self.block_partition is None:
            raise ValueError("problem has no block partition")
        return list(zip(partition_slices(self.block_partition, self.dim),
                        self.set.split(self.block_partition)))

    @cached_property
    def Lbar(self) -> float:
        """``block_lipschitz`` of the affine data; L without G or a block partition."""
        if self.affine is None or self.block_partition is None:
            return self.constants.L
        return block_lipschitz(self.affine, self.block_partition)


@dataclass(frozen=True)
class AffineSpec:
    """Affine operator data F(y) = G y + b.

    Traffic instances carry nonnegative data; the class itself accepts any
    square G (skew tests and monotone benchmark instances need signed
    entries).  G is stored column-major (Fortran order), once, at
    construction: a block run reads the column slab G[:, block] in place,
    and a full evaluation G y takes the column-major matrix-vector kernel.
    A G given column-major is kept without a copy.
    """

    G: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        G = np.asfortranarray(self.G, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if G.ndim != 2 or G.shape[0] != G.shape[1]:
            raise ValueError("G must be square")
        if b.shape != (G.shape[0],):
            raise ValueError("b must match G")
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "b", b)

    @property
    def dim(self) -> int:
        return self.G.shape[0]

    @cached_property
    def spectrum(self) -> tuple[float, float]:
        """(lambda_min, lambda_max) of G + G^T, computed on first use."""
        eigs = np.linalg.eigvalsh(self.G + self.G.T)
        return float(eigs[0]), float(eigs[-1])

    @cached_property
    def jacobi_metric(self) -> tuple[np.ndarray, float, float]:
        """(w, L_w, L_D), computed on first use by one pass over G in panels
        of ``_GRAM_PANEL`` rows and columns, never a whole n x n matrix.

        w is the diagonal of G + G^T floored at ``_METRIC_FLOOR``
        lambda_max(G + G^T), and W = diag(w).  L_w, the largest row sum of
        |W^-1/2 (G + G^T) W^-1/2|, bounds that matrix's largest eigenvalue
        (Gershgorin); L_D, the square root of the largest column sum times
        the largest row sum of |W^-1/2 G W^-1/2|, bounds that matrix's
        spectral norm (Schur's test), skew part included.  A caller steps in
        L W only on a set with a weighted projection and when L W has the
        smaller determinant (``_smaller_det``), so a constant w keeps the
        Euclidean step.
        """
        w = np.maximum(2.0 * np.diagonal(self.G), _METRIC_FLOOR * self.spectrum[1])
        r = 1.0 / np.sqrt(w)
        sym_rows, rows, cols = np.empty(self.dim), np.zeros(self.dim), np.empty(self.dim)
        for i in range(0, self.dim, _GRAM_PANEL):
            j = min(i + _GRAM_PANEL, self.dim)
            panel = self.G[i:j] + self.G[:, i:j].T
            sym_rows[i:j] = np.abs(panel, out=panel) @ r
            panel = np.abs(self.G[:, i:j])
            cols[i:j] = r @ panel
            rows += panel @ r[i:j]
        L_w = float((sym_rows * r).max())
        L_D = math.sqrt(float((rows * r).max()) * float((cols * r).max()))
        return w, L_w, L_D

    @property
    def monotone(self) -> bool:
        """G + G^T is positive semidefinite up to round-off:
        lambda_min >= -1e-8 max(|lambda_min|, |lambda_max|, 1).  The library's
        one monotonicity rule: ``affine_constants`` warns and the exact weak
        gap (``metrics.has_exact_weak_gap``) refuses by it."""
        lam_min, lam_max = self.spectrum
        return lam_min >= -1e-8 * max(abs(lam_min), abs(lam_max), 1.0)


def check_memory(nbytes: int, who: str, array: str) -> None:
    """``ValueError`` naming ``who`` when ``array`` of ``nbytes`` exceeds physical
    memory; where ``os.sysconf`` cannot tell the memory size, nothing is checked."""
    try:
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return
    if nbytes > memory > 0:
        raise ValueError(f"{who} needs a {nbytes / 2**30:.1f} GiB {array}, "
                         f"more than the {memory / 2**30:.1f} GiB of physical memory")


def _smaller_det(w: np.ndarray, L_w: float, lam: float) -> bool:
    """L_w diag(w) has a smaller determinant than lam I: L_w times the
    geometric mean of w is below lam."""
    return L_w * math.exp(float(np.log(w).mean())) < lam


def affine_eval(spec: AffineSpec, y) -> np.ndarray:
    """Evaluate F(y) = G y + b."""
    yv = np.asarray(y, dtype=float)
    if yv.shape != (spec.dim,):
        raise ValueError(f"y has shape {yv.shape}, expected ({spec.dim},)")
    return spec.G @ yv + spec.b


# rows or columns per panel of a pass over G (Gram matrices, metric sums,
# generation): one full-size product leaves a larger BLAS buffer resident for
# the rest of the process
_GRAM_PANEL = 100


def _sigma_max(M: np.ndarray) -> float:
    """Largest singular value of M, the square root of the largest eigenvalue
    of the smaller Gram matrix (M M^T or M^T M) by ``eigvalsh``.

    Only the Gram's lower triangle, the part ``eigvalsh`` reads, is formed, in
    row panels of ``_GRAM_PANEL`` rows.  An M whose largest entry lies outside
    [2^-400, 2^400] is first rescaled by a power of two, exactly, so that the
    Gram neither overflows nor underflows.  The dense eigensolve is accurate
    to round-off on either side; power or Lanczos iteration would be cheaper
    but approaches sigma_max from below, which is unsafe for stepsizes built
    as 1/L.
    """
    if M.shape[0] > M.shape[1]:
        M = M.T
    amax = max(float(M.max()), -float(M.min()))
    shift = 0 if 2.0**-400 < amax < 2.0**400 else math.frexp(amax)[1]
    if shift:
        M = np.ldexp(M, -shift)
    m = M.shape[0]
    gram = np.zeros((m, m))
    for i in range(0, m, _GRAM_PANEL):
        j = min(i + _GRAM_PANEL, m)
        np.matmul(M[i:j], M[:j].T, out=gram[i:j, :j])
    return math.ldexp(math.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0)), shift)


def affine_constants(spec: AffineSpec) -> tuple[float, float]:
    """(L, mu) for an affine operator: L = sigma_max(G), mu = max(lambda_min(G + G^T)/2, 0).

    L comes from the largest eigenvalue of G G^T (``_sigma_max``), which costs
    about half of a full SVD.  A G that ``AffineSpec.monotone`` rejects warns
    once; a positive semidefinite G + G^T with a null space never does.
    """
    L, mu = _sigma_max(spec.G), 0.5 * spec.spectrum[0]
    if not spec.monotone:
        warnings.warn(f"operator is not monotone (lambda_min(G+G^T)/2 = {mu:.3e}); "
                      "reporting mu = 0", stacklevel=2)
    return L, max(mu, 0.0)


def block_lipschitz(spec: AffineSpec, block_partition) -> float:
    """Largest per-block Lipschitz constant: max_i sigma_max of the block rows
    of G, each from the eigenvalues of its b_i x b_i Gram G_i G_i^T
    (``_sigma_max``), not from an SVD or power iteration."""
    return max(_sigma_max(spec.G[sl, :]) for sl in partition_slices(block_partition, spec.dim))


def affine_problem(
    spec: AffineSpec,
    fs: FeasibleSet,
    *,
    noise_sigma: float = 0.0,
    known_solution=None,
    block_partition=None,
    seed: int | None = None,
) -> VIProblem:
    """Wrap affine data as a VIProblem.

    ``noise_sigma`` > 0 attaches an additive-Gaussian oracle with
    E||F~(x) - F(x)||^2 = noise_sigma^2 exactly (iid N(0, sigma^2/n) per
    coordinate), which makes the stochastic convergence bounds checkable
    without estimation slack.
    """
    if fs.dim != spec.dim:
        raise ValueError("set and operator dimensions differ")
    L, mu = affine_constants(spec)
    oracle = None
    if in_range("sigma", noise_sigma, closed=True) > 0:
        scale = noise_sigma / math.sqrt(spec.dim)

        def oracle(x, rng, m=1, _scale=scale, _spec=spec):
            noise = rng.standard_normal((int(m), _spec.dim)) * _scale
            return affine_eval(_spec, x) + noise.mean(axis=0)

    sol = None if known_solution is None else in_range("known_solution", known_solution, -math.inf)
    if sol is not None and sol.shape != (spec.dim,):
        raise ValueError("known_solution must match G")
    return VIProblem(
        dim=spec.dim,
        set=fs,
        operator=lambda y, _spec=spec: affine_eval(_spec, y),
        constants=Constants(L=L, mu=mu, sigma=noise_sigma),
        oracle=oracle,
        known_solution=sol,
        block_partition=block_partition,
        affine=spec,
        seed=seed,
    )


def traffic_generate(n: int, num_od: int, d_minus: float, seed: int) -> VIProblem:
    """Random affine traffic-assignment instance over a product of simplices.

    The cost matrix is G = diag(g) + d_minus * 1e-2 * Ghat with Ghat uniform
    on [0, 1] and g equidistant on [d_minus, 1] (endpoints included); the
    offset is b = 5 * ones.  Arcs are split into ``num_od`` equal blocks with
    unit demands.  The construction is strongly monotone for d_minus >= 1e-3;
    instances that come out non-monotone are rejected; n or num_od below 1, or
    d_minus outside (0, 1], raise ``ValueError`` before any draw.
    """
    in_range("n", n, 1, closed=True)
    in_range("the block count num_od", num_od, 1, closed=True)
    in_range("d_minus", d_minus, high=1.0)
    if n % num_od != 0:
        raise ValueError("n must be divisible by num_od (equal block sizes)")
    check_memory(8 * n * n, f"n = {n}", "n x n matrix")
    rng = np.random.default_rng(seed)
    # G is built in place and column-major, the layout AffineSpec stores, so
    # generation holds one n x n array; the draws fill it in row panels of
    # _GRAM_PANEL rows, in the order of one row-major (n, n) draw
    G = np.empty((n, n), order="F")
    for i in range(0, n, _GRAM_PANEL):
        G[i:i + _GRAM_PANEL] = rng.uniform(0.0, 1.0, size=(min(_GRAM_PANEL, n - i), n))
    G *= d_minus * 1e-2
    G.flat[:: n + 1] += np.linspace(d_minus, 1.0, n)
    b = 5.0 * np.ones(n)
    spec = AffineSpec(G=G, b=b)

    block_sizes = (n // num_od,) * num_od
    fs = SimplexProduct(block_sizes, (1.0,) * num_od)

    problem = affine_problem(spec, fs, block_partition=block_sizes, seed=seed)
    if problem.constants.mu <= 0:
        raise ValueError(
            f"traffic instance came out non-monotone (mu = {problem.constants.mu}); "
            "increase d_minus"
        )
    return problem


# ---------------------------------------------------------------------------
# Generalized linear models (signal estimation)
# ---------------------------------------------------------------------------

HINGE = "hinge"
RAMP = "ramp"


def _link(link: str, s):
    if link == HINGE:
        return np.maximum(s, 0.0)
    if link == RAMP:
        return s.clip(0.0, 1.0)
    raise ValueError(f"unknown link {link!r}")


@dataclass(frozen=True)
class GLMSpec:
    """Signal-estimation instance: labels satisfy E[y | eta] = f(eta^T A x*).

    The signal x* lies on the sphere of radius R; the feasible set is the
    centered ball of that radius; the ramp link needs A = I.  ``sigma_y`` is
    the label noise standard deviation.  ``A_x_star`` = A x* and ``sigma_max``
    = sigma_max(A), from the SVD that tests A's rank, are computed once.
    """

    link: str
    A: np.ndarray
    x_star: np.ndarray
    R: float
    sigma_y: float
    A_x_star: np.ndarray = field(init=False, repr=False, compare=False)
    sigma_max: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        in_range("radius", self.R)
        in_range("sigma_y", self.sigma_y, closed=True)
        A = in_range("A", self.A, -math.inf)
        x_star = in_range("x_star", self.x_star, -math.inf)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "x_star", x_star)
        if self.link not in (HINGE, RAMP):
            raise ValueError(f"unknown link {self.link!r}")
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("A must be square")
        n = A.shape[0]
        if x_star.shape != (n,):
            raise ValueError("x_star must match A")
        # scale-free: the norm of x* itself overflows for R past 1e154
        if abs(float(np.linalg.norm(x_star / self.R)) - 1.0) > 1e-9:
            raise ValueError("x_star must have norm R")
        if self.link == RAMP and not np.allclose(A, np.eye(n)):
            raise ValueError("the ramp link needs A = I, where its closed form holds")
        s = np.linalg.svd(A, compute_uv=False)
        if s.min() <= s.max() * n * np.finfo(float).eps:  # matrix_rank's tolerance
            raise ValueError("A must be full rank")
        object.__setattr__(self, "A_x_star", A @ x_star)
        object.__setattr__(self, "sigma_max", float(s.max()))

    @property
    def dim(self) -> int:
        return self.A.shape[0]


def glm_oracle(spec: GLMSpec, x, rng: np.random.Generator, m: int = 1) -> np.ndarray:
    """Mean of m iid unbiased operator samples eta * f(eta^T A x) - eta * y,
    each with eta ~ N(0, I) and y ~ N(f(eta^T A x*), sigma_y)."""
    m = int(m)
    if m < 1:
        raise ValueError("batch size must be at least 1")
    xv = np.asarray(x, dtype=float)
    if xv.shape != (spec.dim,):
        raise ValueError("x has wrong dimension")
    eta = rng.standard_normal((m, spec.dim))
    s = eta @ (spec.A @ xv)
    s_star = eta @ spec.A_x_star
    y = _link(spec.link, s_star) + spec.sigma_y * rng.standard_normal(m)
    return eta.T @ (_link(spec.link, s) - y) / m


def glm_exact_hinge(spec: GLMSpec, x) -> np.ndarray:
    """Exact operator for the hinge link: F(x) = A (x - x*) / 2."""
    if spec.link != HINGE:
        raise ValueError("exact hinge operator requires the hinge link")
    xv = np.asarray(x, dtype=float)
    return 0.5 * (spec.A @ (xv - spec.x_star))


def _ramp_mean_map(x: np.ndarray) -> np.ndarray:
    """E[eta f(eta^T x)] for the ramp link with A = I: x * erf(1/(sqrt(2)||x||)) / 2."""
    nrm = float(np.linalg.norm(x))
    if nrm == 0.0:
        # erf(inf) = 1 and the prefactor vanishes, so the limit is 0.
        return np.zeros_like(x)
    return 0.5 * x * math.erf(1.0 / (math.sqrt(2.0) * nrm))


def glm_exact_ramp(spec: GLMSpec, x) -> np.ndarray:
    """Exact operator for the ramp-sigmoid link (``GLMSpec`` holds A = I)."""
    if spec.link != RAMP:
        raise ValueError("exact ramp operator requires the ramp link")
    xv = np.asarray(x, dtype=float)
    return _ramp_mean_map(xv) - _ramp_mean_map(spec.x_star)


def ramp_mean_jacobian(x) -> np.ndarray:
    """Jacobian of the ramp mean map:
    erf(1/(sqrt(2)||x||))/2 * I - exp(-1/(2||x||^2)) / (sqrt(2 pi) ||x||^3) * x x^T.
    """
    xv = np.asarray(x, dtype=float)
    nrm = float(np.linalg.norm(xv))
    if nrm == 0.0:
        raise ValueError("Jacobian is undefined at x = 0")
    n = xv.shape[0]
    coef = math.exp(-1.0 / (2.0 * nrm * nrm)) / (_SQRT2PI * nrm**3)
    return 0.5 * math.erf(1.0 / (math.sqrt(2.0) * nrm)) * np.eye(n) - coef * np.outer(xv, xv)


def glm_constants(spec: GLMSpec) -> tuple[float, float]:
    """Analytic (L, mu) for the exact GLM operator."""
    if spec.link == HINGE:
        mu = 0.25 * float(np.linalg.eigvalsh(spec.A + spec.A.T)[0])
        return 0.5 * spec.sigma_max, max(mu, 0.0)
    # Ramp link (A = I): the Jacobian eigenvalues are erf(1/(sqrt(2) r))/2 <= L = 1/2
    # and erf(1/(sqrt(2) r))/2 - exp(-1/(2 r^2)) / (sqrt(2 pi) r), minimized at r = R.
    R = float(in_range("R", spec.R, math.sqrt(np.finfo(float).tiny), closed=True))  # mu squares R
    if R <= 100.0:
        return 0.5, 0.5 * math.erf(1.0 / (math.sqrt(2.0) * R)) - math.exp(
            -1.0 / (2.0 * R * R)
        ) / (_SQRT2PI * R)
    # past R = 100 that difference of two terms near 1/(sqrt(2 pi) R) cancels;
    # mu is the integral of t^2 phi(t) over [0, u], u = 1/R, whose series
    # sum_j (-1)^j u^(2j+3) / (sqrt(2 pi) 2^j j! (2j+3)) is exact to round-off
    # in four terms (u^2 / 2 <= 5e-5)
    u = 1.0 / R
    x = -0.5 * u * u
    series = sum(x**j / (math.factorial(j) * (2 * j + 3)) for j in range(4))
    return 0.5, u**3 / _SQRT2PI * series


def glm_sigma_bound(spec: GLMSpec) -> float:
    """Analytic upper bound on the oracle variance sup_x E||F~(x) - F(x)||^2.

    Uses |f(s1) - f(s2)| <= |s1 - s2| (both links are 1-Lipschitz),
    E[||eta||^2 (eta^T w)^2] = (n + 2) ||w||^2 for standard normal eta, and
    ||x - x*|| <= 2R on the ball.  The ramp link is additionally bounded by 1,
    capping that term at E||eta||^2 = n.  A term past the largest double is
    inf, so the ramp cap still applies.
    """
    n = spec.dim
    drift = _times_square(n + 2.0, spec.sigma_max * 2.0 * spec.R)
    if spec.link == RAMP:
        drift = min(drift, float(n))
    return drift + _times_square(n, spec.sigma_y)


def _times_square(c: float, v: float) -> float:
    """c v^2 for c >= 1 and v >= 0, or inf once v^2 would pass the largest
    double, where a float power raises ``OverflowError``."""
    return c * v**2 if v <= math.sqrt(np.finfo(float).max / c) else math.inf


def glm_generate(
    n: int,
    link: str,
    R: float,
    sigma_y: float,
    seed: int,
    *,
    d_minus: float | None = None,
) -> VIProblem:
    """Random GLM instance over the centered ball of radius R.

    The signal x* has entries uniform on [0, 1], normalized to norm R.  For
    the hinge link, A = diag(d) + d_minus * 1e-2 * Ahat with Ahat uniform on
    [0, 1] and d equidistant on [d_minus, 1]; the ramp link uses A = I (its
    closed-form operator is only available there).
    """
    in_range("n", n, 1, closed=True)
    check_memory(8 * n * n, f"n = {n}", "n x n matrix")
    rng = np.random.default_rng(seed)
    x_star = rng.uniform(0.0, 1.0, size=n)
    x_star *= R / float(np.linalg.norm(x_star))

    if link == HINGE:
        if d_minus is None:
            d_minus = 0.1
        in_range("d_minus", d_minus, high=1.0)
        d = np.linspace(d_minus, 1.0, n)
        Ahat = rng.uniform(0.0, 1.0, size=(n, n))
        A = np.diag(d) + d_minus * 1e-2 * Ahat
    elif link == RAMP:
        A = np.eye(n)
    else:
        raise ValueError(f"unknown link {link!r}")

    spec = GLMSpec(link=link, A=A, x_star=x_star, R=float(R), sigma_y=float(sigma_y))
    return glm_problem(spec, seed=seed)


def glm_problem(spec: GLMSpec, *, seed: int | None = None) -> VIProblem:
    """Wrap a GLMSpec as a VIProblem with exact operator and sampling oracle;
    ``ValueError`` if its variance bound ``glm_sigma_bound`` is not finite."""
    L, mu = glm_constants(spec)
    variance = glm_sigma_bound(spec)
    in_range(f"the oracle variance bound at R = {spec.R:g}, sigma_y = {spec.sigma_y:g}",
             variance, closed=True)
    exact = glm_exact_hinge if spec.link == HINGE else glm_exact_ramp
    return VIProblem(
        dim=spec.dim,
        set=Ball(np.zeros(spec.dim), spec.R),
        operator=lambda x, _s=spec, _e=exact: _e(_s, x),
        constants=Constants(L=L, mu=mu, sigma=math.sqrt(variance)),
        oracle=lambda x, rng, m=1, _s=spec: glm_oracle(_s, x, rng, m),
        known_solution=spec.x_star.copy(),
        glm=spec,
        seed=seed,
    )


# Anderson acceleration of the reference solve: differences kept, the
# residual growth over the best iterate that clears them, and the cap on steps
_AA_MEMORY = 10
_AA_RESTART = 100.0
_AA_STEPS = 10**6


def solve_reference(problem: VIProblem, tol: float = 1e-10) -> np.ndarray:
    """High-accuracy reference solution of a strongly monotone instance.

    Type-II Anderson acceleration of the projected map
    T(x) = P_X^D(x - D^-1 F(x)), started at the analytic center, where P_X^D
    is the projection in the norm ||v||_D^2 = sum_i D_i v_i^2.  Each step
    evaluates F once and moves to P_X^D(T(x) - (dX + dR) c), where the
    columns of dX and dR are the last ten differences of iterates and of
    residuals T(x) - x, and c minimizes ||T(x) - x - dR c||_D (least
    squares).  Every iterate is feasible.  In the variable D^1/2 x these are
    Euclidean Anderson steps; on an affine problem they act like GMRES on
    the identified face (Walker & Ni 2011).

    D is the Jacobi metric L_D W of ``AffineSpec.jacobi_metric`` (W the
    diagonal of G + G^T, floored; L_D a bound on ||W^-1/2 G W^-1/2||) on sets
    with ``has_weighted_projection`` (boxes, simplex products) when L_D W has
    the smaller determinant (L_D times the geometric mean of W below L);
    otherwise, and for balls, the full space and non-affine operators,
    D = L, the Euclidean step 1/L.  Jacobi scaling is within a factor of the
    best diagonal scaling (van der Sluis 1969): on traffic instances W^-1 G
    is close to the identity plus a rank-one term, and the solve takes 6
    operator calls at n = 1000 (262 with the Euclidean step, and thousands
    for plain projected steps at rate 1 - O(mu/L)).

    The solve returns the first iterate whose Euclidean natural residual
    ||x - P_X(x - F(x))|| is at most ``tol``; by the error bound of strongly
    monotone problems it lies within (1 + L) tol / mu of the solution, and
    the result is suitable as ``known_solution``; ``RuntimeError`` if 10^6
    steps (``_AA_STEPS``) do not get there.  An iterate whose map
    residual ||T(x) - x||_D exceeds 100 times the smallest seen clears the
    differences and restarts from the iterate with that smallest one.
    Measured by the natural residual instead, which can rise several-fold
    along a good step in the D metric, restarts can replay the same steps
    forever.
    """
    in_range("mu", problem.constants.mu)  # the solve needs a strongly monotone problem
    L = problem.constants.L
    fs = problem.set
    F = problem.operator
    D, weights = np.full(problem.dim, L), None  # the Euclidean step 1/L
    if problem.affine is not None and fs.has_weighted_projection:
        w, _, L_D = problem.affine.jacobi_metric
        if _smaller_det(w, L_D, L):
            D = weights = L_D * w
    root_D = np.sqrt(D)

    x = fs.analytic_center()
    dX = np.empty((x.shape[0], _AA_MEMORY))
    dR = np.empty_like(dX)
    used = slot = 0
    prev = None  # (x, T(x) - x) of the last step
    best_r, best = math.inf, None  # smallest ||T(x) - x||_D, and its (x, T(x))
    for _ in range(_AA_STEPS):
        Fx = F(x)
        if float(np.linalg.norm(x - fs.project(x - Fx))) <= tol:
            return x
        Tx = fs.project(x - Fx / D, weights)
        r = float(np.linalg.norm(root_D * (Tx - x)))
        if r > _AA_RESTART * best_r:
            x, Tx = best
            used = slot = 0
            prev = None
        elif r < best_r:
            best_r, best = r, (x, Tx)
        res = Tx - x
        if prev is not None:
            dX[:, slot] = x - prev[0]
            dR[:, slot] = res - prev[1]
            slot = (slot + 1) % _AA_MEMORY
            used = min(used + 1, _AA_MEMORY)
        prev = (x, res)
        if used:
            c = np.linalg.lstsq(root_D[:, None] * dR[:, :used], root_D * res, rcond=None)[0]
            x = fs.project(Tx - (dX[:, :used] + dR[:, :used]) @ c, weights)
        else:
            x = Tx
    raise RuntimeError(
        f"reference solve did not reach tol={tol} within {_AA_STEPS} iterations; "
        "check the problem configuration"
    )


# ---------------------------------------------------------------------------
# JSON serialization (replayable problem instances)
# ---------------------------------------------------------------------------


PROBLEM_JSON_FORMAT = 1


class _Doc(dict):
    """A JSON object whose missing keys raise ``ValueError``, not ``KeyError``."""

    def __missing__(self, key):
        raise ValueError(f"problem JSON lacks the key {key!r}")


def _optional_list(doc: dict, key: str) -> Optional[np.ndarray]:
    """The list of numbers at ``key``, or None when the key is absent or null."""
    return None if doc.get(key) is None else doc_value(doc, key, 1)


def problem_to_json(problem: VIProblem) -> str:
    """Serialize a problem to the documented JSON form (matrices row-major).

    Every document carries "format": PROBLEM_JSON_FORMAT.  Affine instances
    carry "kind": "affine" with "G", "b", the set ("set": "full", "ball"
    with "center" and "radius", "box" with "lower" and "upper", or "simplex"
    with "blocks" and "demands"), the oracle noise level "sigma",
    "known_solution" and "block_partition" (null when absent).  Other set
    types raise ``ValueError``.  GLM instances carry "kind": "glm" with "A",
    "x_star", "R", "sigma_y" and "link".  "seed" records generation
    provenance.
    """
    if problem.affine is not None:
        if not isinstance(problem.set, FeasibleSet):
            raise ValueError(f"cannot serialize a {type(problem.set).__name__} set")
        sol, part = problem.known_solution, problem.block_partition
        doc = {
            "format": PROBLEM_JSON_FORMAT,
            "kind": "affine",
            "G": problem.affine.G.tolist(),
            "b": problem.affine.b.tolist(),
            **problem.set.to_doc(),
            "sigma": problem.constants.sigma,
            "known_solution": None if sol is None else np.asarray(sol, dtype=float).tolist(),
            "block_partition": None if part is None else [int(s) for s in part],
            "seed": problem.seed,
        }
        return json.dumps(doc)
    if problem.glm is not None:
        spec = problem.glm
        doc = {
            "format": PROBLEM_JSON_FORMAT,
            "kind": "glm",
            "A": spec.A.tolist(),
            "x_star": spec.x_star.tolist(),
            "R": spec.R,
            "sigma_y": spec.sigma_y,
            "link": spec.link,
            "seed": problem.seed,
        }
        return json.dumps(doc)
    raise ValueError("only affine and GLM problems are serializable")


def problem_from_json(text: str) -> VIProblem:
    """Rebuild a problem from its JSON form (inverse of problem_to_json).

    A document of another format version raises ``ValueError``; one without
    "format" predates the key and reads as format 1.  A document that lacks
    a key its kind or set needs, or that is not a JSON object, raises
    ``ValueError``, and so does a value of the wrong JSON type: each numeric
    key is read by ``doc_value`` as a number, a list or a matrix of numbers.
    """
    doc = json.loads(text, object_hook=_Doc)
    if not isinstance(doc, dict):
        raise ValueError(f"problem JSON must be an object, got {type(doc).__name__}")
    fmt = doc.get("format", PROBLEM_JSON_FORMAT)
    if fmt != PROBLEM_JSON_FORMAT or isinstance(fmt, bool):
        raise ValueError(f"unsupported problem JSON format {fmt!r} "
                         f"(this version reads format {PROBLEM_JSON_FORMAT})")
    kind = doc.get("kind")
    if kind == "affine":
        spec = AffineSpec(G=in_range("G", doc_value(doc, "G", 2), -math.inf),
                          b=in_range("b", doc_value(doc, "b", 1), -math.inf))
        # documents without "block_partition" predate it: simplex blocks were the partition
        part = "block_partition" if "block_partition" in doc else "blocks"
        sigma = float(doc_value(doc, "sigma", 0)) if "sigma" in doc else 0.0
        return affine_problem(spec, set_from_doc(doc, spec.dim), noise_sigma=sigma,
                              known_solution=_optional_list(doc, "known_solution"),
                              block_partition=_optional_list(doc, part), seed=doc.get("seed"))
    if kind == "glm":
        spec = GLMSpec(
            link=doc["link"],
            A=doc_value(doc, "A", 2),
            x_star=doc_value(doc, "x_star", 1),
            R=float(doc_value(doc, "R", 0)),
            sigma_y=float(doc_value(doc, "sigma_y", 0)),
        )
        return glm_problem(spec, seed=doc.get("seed"))
    raise ValueError(f"unknown problem kind {kind!r}")
