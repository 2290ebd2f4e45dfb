"""Feasible sets, Bregman distances, and the prox-mapping subproblem.

Every solver iteration in this package reduces to a single prox-mapping

    x+ = argmin_{x in X}  gamma * <g, x> + V(x_t, x),

where V is the Bregman distance of a distance-generating function.  Only the
Euclidean generator omega(x) = ||x||^2 / 2 is implemented, for which
V(x, y) = ||x - y||^2 / 2 and the prox-mapping is the Euclidean projection of
x_t - gamma * g onto X.  Four set variants are supported: the whole space, a
Euclidean ball, a box, and a product of scaled simplices (one simplex per
demand block).

All operations are pure functions of their inputs and safe to call from
concurrent solver runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Absolute feasibility tolerance for membership tests; well above
# double-precision accumulation error at the dimensions this package targets.
MEMBERSHIP_TOL = 1e-9
# Simplex blocks may carry slightly negative coordinates from projection
# round-off; anything below this is a genuine violation.
SIMPLEX_NONNEG_TOL = -1e-12


def _vector(x, dim: int | None = None, name: str = "x") -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{name} must be a 1-d vector, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"{name} has dimension {v.shape[0]}, expected {dim}")
    return v


class FeasibleSet:
    """Base class for constraint geometries.

    Subclasses implement ``contains`` (tolerant membership), ``project``
    (exact Euclidean projection) and, for bounded sets, ``support_min``
    (a minimizer of a linear functional).
    """

    dim: int

    def contains(self, x) -> bool:
        raise NotImplementedError

    def project(self, z) -> np.ndarray:
        raise NotImplementedError

    @property
    def bounded(self) -> bool:
        return True

    def support_min(self, c) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class FullSpace(FeasibleSet):
    dim: int

    def contains(self, x) -> bool:
        _vector(x, self.dim)
        return True

    def project(self, z) -> np.ndarray:
        return _vector(z, self.dim, "z").copy()

    @property
    def bounded(self) -> bool:
        return False

    def support_min(self, c) -> np.ndarray:
        raise ValueError("linear minimization is undefined on an unbounded set")


class Ball(FeasibleSet):
    """Euclidean ball {x : ||x - center|| <= radius}."""

    def __init__(self, center, radius: float):
        self.center = _vector(center, name="center")
        self.radius = float(radius)
        self.dim = self.center.shape[0]
        if self.radius <= 0:
            raise ValueError("ball radius must be positive")

    def contains(self, x) -> bool:
        v = _vector(x, self.dim)
        return float(np.linalg.norm(v - self.center)) <= self.radius + MEMBERSHIP_TOL

    def project(self, z) -> np.ndarray:
        v = _vector(z, self.dim, "z")
        d = v - self.center
        nrm = float(np.linalg.norm(d))
        if nrm <= self.radius:
            return v.copy()
        return self.center + d * (self.radius / nrm)

    def support_min(self, c) -> np.ndarray:
        v = _vector(c, self.dim, "c")
        nrm = float(np.linalg.norm(v))
        if nrm == 0.0:
            return self.center.copy()
        return self.center - v * (self.radius / nrm)


class Box(FeasibleSet):
    """Axis-aligned box {x : lower <= x <= upper} (componentwise)."""

    def __init__(self, lower, upper):
        self.lower = _vector(lower, name="lower")
        self.upper = _vector(upper, self.lower.shape[0], "upper")
        self.dim = self.lower.shape[0]
        if np.any(self.lower > self.upper):
            raise ValueError("box requires lower <= upper componentwise")

    def contains(self, x) -> bool:
        v = _vector(x, self.dim)
        return bool(
            np.all(v >= self.lower - MEMBERSHIP_TOL)
            and np.all(v <= self.upper + MEMBERSHIP_TOL)
        )

    def project(self, z) -> np.ndarray:
        return np.clip(_vector(z, self.dim, "z"), self.lower, self.upper)

    def support_min(self, c) -> np.ndarray:
        v = _vector(c, self.dim, "c")
        # c_i < 0 pushes to the upper face; ties (c_i == 0) stay at lower for
        # deterministic output.
        return np.where(v < 0, self.upper, self.lower).astype(float)


class SimplexProduct(FeasibleSet):
    """Product of scaled simplices: block w satisfies sum(x_w) = d_w, x_w >= 0."""

    def __init__(self, block_sizes, demands):
        self.block_sizes = tuple(int(s) for s in block_sizes)
        self.demands = tuple(float(d) for d in demands)
        if len(self.block_sizes) != len(self.demands):
            raise ValueError("need one demand per block")
        if any(s <= 0 for s in self.block_sizes):
            raise ValueError("block sizes must be positive")
        if any(d < 0 for d in self.demands):
            raise ValueError("demands must be nonnegative")
        self.dim = sum(self.block_sizes)
        offsets = np.cumsum((0,) + self.block_sizes)
        self._slices = [slice(int(a), int(b)) for a, b in zip(offsets[:-1], offsets[1:])]

    @property
    def num_blocks(self) -> int:
        return len(self.block_sizes)

    def block_slices(self) -> list[slice]:
        return list(self._slices)

    def contains(self, x) -> bool:
        v = _vector(x, self.dim)
        if np.any(v < SIMPLEX_NONNEG_TOL):
            return False
        for sl, d in zip(self._slices, self.demands):
            if abs(float(v[sl].sum()) - d) > MEMBERSHIP_TOL:
                return False
        return True

    def project(self, z) -> np.ndarray:
        v = _vector(z, self.dim, "z")
        out = np.empty_like(v)
        for sl, d in zip(self._slices, self.demands):
            out[sl] = project_simplex(v[sl], d)
        return out

    def support_min(self, c) -> np.ndarray:
        v = _vector(c, self.dim, "c")
        out = np.zeros(self.dim)
        for sl, d in zip(self._slices, self.demands):
            # np.argmin breaks ties toward the lowest index, which keeps runs
            # reproducible.
            out[sl.start + int(np.argmin(v[sl]))] = d
        return out

    def vertices_block(self, w: int) -> np.ndarray:
        """Vertices of block w as rows (demand placed on one coordinate)."""
        n_w = self.block_sizes[w]
        return self.demands[w] * np.eye(n_w)


def project_simplex(v, d: float) -> np.ndarray:
    """Euclidean projection of v onto {x : sum(x) = d, x >= 0}.

    Sort-then-threshold algorithm, O(n log n); exact up to round-off.
    """
    v = _vector(v, name="v")
    d = float(d)
    if d < 0:
        raise ValueError("simplex demand must be nonnegative")
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - d
    j = np.arange(1, v.shape[0] + 1)
    # largest index with u_j > (cumsum_j - d) / j ; at least j = 1 qualifies
    rho = int(np.nonzero(u > css / j)[0][-1]) if np.any(u > css / j) else 0
    tau = css[rho] / (rho + 1.0)
    return np.maximum(v - tau, 0.0)


def bregman(x, y) -> float:
    """Bregman distance V(x, y); equals ||x - y||^2 / 2 for the Euclidean generator."""
    xv = _vector(x)
    yv = _vector(y, xv.shape[0], "y")
    diff = yv - xv
    return 0.5 * float(diff @ diff)


def linear_minimize(fs: FeasibleSet, c) -> np.ndarray:
    """argmin_{x in X} <c, x> for a bounded set (support oracle for gap metrics)."""
    if not fs.bounded:
        raise ValueError("linear minimization is undefined on an unbounded set")
    return fs.support_min(c)


def analytic_center(fs: FeasibleSet) -> np.ndarray:
    """A canonical interior/representative point of the set.

    Used as the default start of solver runs and as the reference point of
    the default V(x_1, x*) estimate.
    """
    if isinstance(fs, FullSpace):
        return np.zeros(fs.dim)
    if isinstance(fs, Ball):
        return fs.center.copy()
    if isinstance(fs, Box):
        return 0.5 * (fs.lower + fs.upper)
    if isinstance(fs, SimplexProduct):
        out = np.empty(fs.dim)
        for sl, d, n_w in zip(fs.block_slices(), fs.demands, fs.block_sizes):
            out[sl] = d / n_w
        return out
    raise TypeError(f"unknown feasible set {type(fs).__name__}")
