"""Concrete variational-inequality instances.

Two families are provided: affine operators F(y) = G y + b over a product of
demand simplices (the traffic-assignment family) and signal-estimation
operators from generalized linear models over a centered ball (hinge and
ramp-sigmoid links).  Each instance exposes an exact operator, a stochastic
oracle where one exists, and analytic Lipschitz / monotonicity constants.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .geometry import (
    EUCLIDEAN,
    Ball,
    Box,
    FeasibleSet,
    FullSpace,
    SimplexProduct,
    analytic_center,
    bregman,
    prox_step,
)

_SQRT2PI = math.sqrt(2.0 * math.pi)


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
    operator updates.
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
    label: str = ""
    seed: Optional[int] = None

    def block_slices(self) -> list[slice]:
        if self.block_partition is None:
            raise ValueError("problem has no block partition")
        offsets = np.cumsum((0,) + tuple(self.block_partition))
        return [slice(int(a), int(b)) for a, b in zip(offsets[:-1], offsets[1:])]


@dataclass(frozen=True)
class AffineSpec:
    """Affine operator data F(y) = G y + b.

    Traffic instances carry nonnegative data; the class itself accepts any
    square G (skew tests and monotone benchmark instances need signed
    entries).
    """

    G: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        G = np.asarray(self.G, dtype=float)
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


def affine_eval(spec: AffineSpec, y) -> np.ndarray:
    """Evaluate F(y) = G y + b."""
    yv = np.asarray(y, dtype=float)
    if yv.shape != (spec.dim,):
        raise ValueError(f"y has shape {yv.shape}, expected ({spec.dim},)")
    return spec.G @ yv + spec.b


def affine_constants(spec: AffineSpec) -> tuple[float, float]:
    """(L, mu) for an affine operator: L = sigma_max(G), mu = lambda_min(G + G^T)/2.

    mu is clamped at 0 (with a warning) when G + G^T has a negative eigenvalue,
    i.e. the instance is not monotone.
    """
    L = float(np.linalg.norm(spec.G, 2))
    mu_raw = 0.5 * float(np.linalg.eigvalsh(spec.G + spec.G.T)[0])
    if mu_raw < 0:
        warnings.warn(
            f"operator is not monotone (lambda_min(G+G^T)/2 = {mu_raw:.3e}); reporting mu = 0",
            stacklevel=2,
        )
    return L, max(mu_raw, 0.0)


def block_lipschitz(spec: AffineSpec, block_partition) -> float:
    """Largest per-block Lipschitz constant: max_i sigma_max of the block rows of G."""
    offsets = np.cumsum((0,) + tuple(block_partition))
    if offsets[-1] != spec.dim:
        raise ValueError("block partition does not cover the dimension")
    return max(
        float(np.linalg.norm(spec.G[int(a):int(b), :], 2))
        for a, b in zip(offsets[:-1], offsets[1:])
    )


def affine_problem(
    spec: AffineSpec,
    fs: FeasibleSet,
    *,
    noise_sigma: float = 0.0,
    known_solution=None,
    block_partition=None,
    label: str = "affine",
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
    if noise_sigma > 0:
        scale = noise_sigma / math.sqrt(spec.dim)

        def oracle(x, rng, m=1, _scale=scale, _spec=spec):
            noise = rng.standard_normal((int(m), _spec.dim)) * _scale
            return affine_eval(_spec, x) + noise.mean(axis=0)

    sol = None if known_solution is None else np.asarray(known_solution, dtype=float)
    return VIProblem(
        dim=spec.dim,
        set=fs,
        operator=lambda y, _spec=spec: affine_eval(_spec, y),
        constants=Constants(L=L, mu=mu, sigma=noise_sigma),
        oracle=oracle,
        known_solution=sol,
        block_partition=None if block_partition is None else tuple(block_partition),
        affine=spec,
        label=label,
        seed=seed,
    )


def traffic_generate(
    n: int,
    num_od: int,
    d_minus: float,
    seed: int,
    *,
    demands=None,
) -> VIProblem:
    """Random affine traffic-assignment instance over a product of simplices.

    The cost matrix is G = diag(g) + d_minus * 1e-2 * Ghat with Ghat uniform
    on [0, 1] and g equidistant on [d_minus, 1] (endpoints included); the
    offset is b = 5 * ones.  Arcs are split into ``num_od`` equal blocks with
    unit demands unless ``demands`` is given.  The construction is strongly
    monotone for d_minus >= 1e-3; instances that come out non-monotone are
    rejected.
    """
    if not (0 < d_minus <= 1):
        raise ValueError("d_minus must lie in (0, 1]")
    if n % num_od != 0:
        raise ValueError("n must be divisible by num_od (equal block sizes)")
    rng = np.random.default_rng(seed)
    g = np.linspace(d_minus, 1.0, n)
    Ghat = rng.uniform(0.0, 1.0, size=(n, n))
    G = np.diag(g) + d_minus * 1e-2 * Ghat
    b = 5.0 * np.ones(n)
    spec = AffineSpec(G=G, b=b)

    block_sizes = (n // num_od,) * num_od
    if demands is None:
        demands = (1.0,) * num_od
    fs = SimplexProduct(block_sizes, demands)

    problem = affine_problem(
        spec, fs, block_partition=block_sizes, label=f"traffic-n{n}", seed=seed
    )
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
        return np.clip(s, 0.0, 1.0)
    raise ValueError(f"unknown link {link!r}")


@dataclass(frozen=True)
class GLMSpec:
    """Signal-estimation instance: labels satisfy E[y | eta] = f(eta^T A x*).

    The signal x* lies on the sphere of radius R; the feasible set is the
    centered ball of that radius.  ``sigma_y`` is the label noise standard
    deviation.
    """

    link: str
    A: np.ndarray
    x_star: np.ndarray
    R: float
    sigma_y: float

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        x_star = np.asarray(self.x_star, dtype=float)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "x_star", x_star)
        if self.link not in (HINGE, RAMP):
            raise ValueError(f"unknown link {self.link!r}")
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("A must be square")
        n = A.shape[0]
        if x_star.shape != (n,):
            raise ValueError("x_star must match A")
        if self.R <= 0:
            raise ValueError("radius must be positive")
        if abs(float(np.linalg.norm(x_star)) - self.R) > 1e-9 * self.R:
            raise ValueError("x_star must have norm R")
        if np.linalg.matrix_rank(A) < n:
            raise ValueError("A must be full rank")
        if self.sigma_y < 0:
            raise ValueError("sigma_y must be nonnegative")

    @property
    def dim(self) -> int:
        return self.A.shape[0]


def glm_sample(spec: GLMSpec, x, rng: np.random.Generator) -> np.ndarray:
    """One unbiased operator sample eta * f(eta^T A x) - eta * y.

    Draws eta ~ N(0, I) and y ~ N(f(eta^T A x*), sigma_y).
    """
    return glm_oracle(spec, x, rng, 1)


def glm_oracle(spec: GLMSpec, x, rng: np.random.Generator, m: int = 1) -> np.ndarray:
    """Mean of m iid operator samples (vectorized; m = 1 matches glm_sample)."""
    m = int(m)
    if m < 1:
        raise ValueError("batch size must be at least 1")
    xv = np.asarray(x, dtype=float)
    if xv.shape != (spec.dim,):
        raise ValueError("x has wrong dimension")
    eta = rng.standard_normal((m, spec.dim))
    s = eta @ (spec.A @ xv)
    s_star = eta @ (spec.A @ spec.x_star)
    y = rng.normal(_link(spec.link, s_star), spec.sigma_y)
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
    """Exact operator for the ramp-sigmoid link with A = I."""
    if spec.link != RAMP:
        raise ValueError("exact ramp operator requires the ramp link")
    if not np.allclose(spec.A, np.eye(spec.dim)):
        raise ValueError("the ramp closed form is available only for A = I")
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
        L = 0.5 * float(np.linalg.norm(spec.A, 2))
        mu = 0.25 * float(np.linalg.eigvalsh(spec.A + spec.A.T)[0])
        return L, max(mu, 0.0)
    # Ramp link (A = I): the Jacobian eigenvalues are erf(1/(sqrt(2) r))/2 and
    # erf(1/(sqrt(2) r))/2 - exp(-1/(2 r^2)) / (sqrt(2 pi) r), minimized at r = R.
    R = spec.R
    L = 0.5
    mu = 0.5 * math.erf(1.0 / (math.sqrt(2.0) * R)) - math.exp(
        -1.0 / (2.0 * R * R)
    ) / (_SQRT2PI * R)
    return L, mu


def glm_sigma_bound(spec: GLMSpec) -> float:
    """Analytic upper bound on the oracle variance sup_x E||F~(x) - F(x)||^2.

    Uses |f(s1) - f(s2)| <= |s1 - s2| (both links are 1-Lipschitz),
    E[||eta||^2 (eta^T w)^2] = (n + 2) ||w||^2 for standard normal eta, and
    ||x - x*|| <= 2R on the ball.  The ramp link is additionally bounded by 1,
    capping that term at E||eta||^2 = n.
    """
    n = spec.dim
    smax = float(np.linalg.norm(spec.A, 2))
    drift = (n + 2.0) * (smax * 2.0 * spec.R) ** 2
    if spec.link == RAMP:
        drift = min(drift, float(n))
    return drift + n * spec.sigma_y**2


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
    rng = np.random.default_rng(seed)
    x_star = rng.uniform(0.0, 1.0, size=n)
    x_star *= R / float(np.linalg.norm(x_star))

    if link == HINGE:
        if d_minus is None:
            d_minus = 0.1
        if not (0 < d_minus <= 1):
            raise ValueError("d_minus must lie in (0, 1]")
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
    """Wrap a GLMSpec as a VIProblem with exact operator and sampling oracle."""
    L, mu = glm_constants(spec)
    exact = glm_exact_hinge if spec.link == HINGE else glm_exact_ramp
    return VIProblem(
        dim=spec.dim,
        set=Ball(np.zeros(spec.dim), spec.R),
        operator=lambda x, _s=spec, _e=exact: _e(_s, x),
        constants=Constants(L=L, mu=mu, sigma=math.sqrt(glm_sigma_bound(spec))),
        oracle=lambda x, rng, m=1, _s=spec: glm_oracle(_s, x, rng, m),
        known_solution=spec.x_star.copy(),
        glm=spec,
        label=f"glm-{spec.link}-n{spec.dim}",
        seed=seed,
    )


def minibatch(oracle, x, m: int, rng: np.random.Generator) -> np.ndarray:
    """Mean of m independent single-sample oracle calls (variance sigma^2 / m)."""
    m = int(m)
    if m < 1:
        raise ValueError("batch size must be at least 1")
    total = np.asarray(oracle(x, rng), dtype=float).copy()
    for _ in range(m - 1):
        total += oracle(x, rng)
    return total / m


def solve_reference(problem: VIProblem, tol: float = 1e-10, max_iter: int = 10**6) -> np.ndarray:
    """High-accuracy reference solution of a strongly monotone instance.

    Runs operator extrapolation with the linear-rate schedule until both the
    Bregman movement V(x_{t+1}, x_t) and the residual certificate drop below
    ``tol``; the result is suitable as ``known_solution``.
    """
    if problem.constants.mu <= 0:
        raise ValueError("reference solve requires a strongly monotone problem (mu > 0)")
    L, mu = problem.constants.L, problem.constants.mu
    gamma = 1.0 / (2.0 * L)
    lam = 1.0 / (mu / L + 1.0)
    fs = problem.set
    F = problem.operator

    x_prev = analytic_center(fs)
    x = x_prev.copy()
    F_prev = F(x_prev)
    F_cur = F_prev.copy()
    for _ in range(max_iter):
        g = F_cur + lam * (F_cur - F_prev)
        x_next = prox_step(EUCLIDEAN, fs, x, g, gamma)
        F_next = F(x_next)
        movement = bregman(EUCLIDEAN, x_next, x)
        # certificate for the step just taken: F(x_t) - F(x_{t+1})
        # + lam [F(x_t) - F(x_{t-1})] + (x_{t+1} - x_t) / gamma
        delta = F_cur - F_next + lam * (F_cur - F_prev) + (x_next - x) / gamma
        if movement <= tol and float(np.linalg.norm(delta)) <= tol:
            return x_next
        x_prev, x = x, x_next
        F_prev, F_cur = F_cur, F_next
    raise RuntimeError(
        f"reference solve did not reach tol={tol} within {max_iter} iterations; "
        "check the problem configuration"
    )


# ---------------------------------------------------------------------------
# JSON serialization (replayable problem instances)
# ---------------------------------------------------------------------------


def _set_to_doc(fs: FeasibleSet) -> dict:
    if isinstance(fs, FullSpace):
        return {"set": "full"}
    if isinstance(fs, Ball):
        return {"set": "ball", "center": fs.center.tolist(), "radius": fs.radius}
    if isinstance(fs, Box):
        return {"set": "box", "lower": fs.lower.tolist(), "upper": fs.upper.tolist()}
    if isinstance(fs, SimplexProduct):
        return {"set": "simplex", "blocks": list(fs.block_sizes), "demands": list(fs.demands)}
    raise ValueError(f"cannot serialize a {type(fs).__name__} set")


def _set_from_doc(doc: dict, dim: int) -> FeasibleSet:
    kind = doc.get("set", "simplex" if "blocks" in doc else "full")
    if kind == "full":
        return FullSpace(dim)
    if kind == "ball":
        return Ball(doc["center"], doc["radius"])
    if kind == "box":
        return Box(doc["lower"], doc["upper"])
    if kind == "simplex":
        return SimplexProduct(doc["blocks"], doc["demands"])
    raise ValueError(f"unknown set kind {kind!r}")


def problem_to_json(problem: VIProblem) -> str:
    """Serialize a problem to the documented JSON form (matrices row-major).

    Affine instances carry "kind": "affine" with "G", "b", the set ("set":
    "full", "ball" with "center" and "radius", "box" with "lower" and
    "upper", or "simplex" with "blocks" and "demands"), the oracle noise
    level "sigma", "known_solution" and "block_partition" (null when
    absent).  Other set types raise ``ValueError``.  GLM instances carry
    "kind": "glm" with "A", "x_star", "R", "sigma_y" and "link".  "seed"
    records generation provenance.
    """
    if problem.affine is not None:
        sol, part = problem.known_solution, problem.block_partition
        doc = {
            "kind": "affine",
            "G": problem.affine.G.tolist(),
            "b": problem.affine.b.tolist(),
            **_set_to_doc(problem.set),
            "sigma": problem.constants.sigma,
            "known_solution": None if sol is None else np.asarray(sol, dtype=float).tolist(),
            "block_partition": None if part is None else [int(s) for s in part],
            "seed": problem.seed,
        }
        return json.dumps(doc)
    if problem.glm is not None:
        spec = problem.glm
        doc = {
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
    """Rebuild a problem from its JSON form (inverse of problem_to_json)."""
    doc = json.loads(text)
    kind = doc.get("kind")
    if kind == "affine":
        spec = AffineSpec(G=np.array(doc["G"], dtype=float), b=np.array(doc["b"], dtype=float))
        fs = _set_from_doc(doc, spec.dim)
        # documents without "block_partition" predate it: simplex blocks were the partition
        blocks = doc.get("block_partition", doc.get("blocks"))
        return affine_problem(
            spec, fs, noise_sigma=float(doc.get("sigma", 0.0)),
            known_solution=doc.get("known_solution"),
            block_partition=None if blocks is None else tuple(int(s) for s in blocks),
            seed=doc.get("seed"),
        )
    if kind == "glm":
        spec = GLMSpec(
            link=doc["link"],
            A=np.array(doc["A"], dtype=float),
            x_star=np.array(doc["x_star"], dtype=float),
            R=float(doc["R"]),
            sigma_y=float(doc["sigma_y"]),
        )
        return glm_problem(spec, seed=doc.get("seed"))
    raise ValueError(f"unknown problem kind {kind!r}")
