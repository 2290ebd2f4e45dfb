"""Feasible sets, Bregman distances, and the prox-mapping subproblem.

Every solver iteration in this package reduces to a single prox-mapping

    x+ = argmin_{x in X}  gamma * <g, x> + V(x_t, x),

where V is the Bregman distance of a distance-generating function.  Only the
Euclidean generator omega(x) = ||x||^2 / 2 is implemented, for which
V(x, y) = ||x - y||^2 / 2 and the prox-mapping is the Euclidean projection of
x_t - gamma * g onto X.  Four set kinds are supported: the whole space, a
Euclidean ball, a box, and a product of scaled simplices (one simplex per
demand block).  Each kind is one ``FeasibleSet`` subclass that owns all of
its geometry, so no other module branches on the kind of a set.

All operations are pure functions of their inputs and safe to call from
concurrent solver runs.
"""

from __future__ import annotations

import math
import reprlib
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


def in_range(name: str, value, low: float = 0.0, *, closed: bool = False,
             high: float = math.inf) -> np.ndarray:
    """The one range rule of every constant: ``value`` as a float array (0-d
    for a scalar) if every entry is finite, above ``low`` (or equal, with
    ``closed``) and at most ``high``; else ``ValueError("<name> must be in
    <interval>, got <value>")``, naming an array's first bad entry."""
    v = np.asarray(value, dtype=float)
    ok = np.isfinite(v) & (v >= low if closed else v > low) & (v <= high)
    if not ok.all():
        bounds = f"{'[' if closed else '('}{low:g}, {high:g}{']' if high < math.inf else ')'}"
        raise ValueError(f"{name} must be in {bounds}, got {value if v.ndim == 0 else v[~ok][0]}")
    return v


# what doc_value reads at each array dimension
_DOC_SHAPES = ("a number", "a list of numbers", "a list of equal-length lists of numbers")


def doc_value(doc: dict, key: str, ndim: int) -> np.ndarray:
    """The number (``ndim`` 0), list (1) or matrix (2) of numbers a JSON
    problem document holds at ``key``, as a float array; ``ValueError``
    naming the key for a value of another shape, or one that holds a
    string, a boolean, null or an integer too large for a double."""
    value = doc[key]
    try:
        v = np.asarray(value)
    except ValueError:  # a ragged list
        v = None
    if v is None or v.ndim != ndim or v.dtype.kind not in "iuf":
        raise ValueError(f"problem JSON key {key!r} must be {_DOC_SHAPES[ndim]}, "
                         f"got {reprlib.repr(value)}")
    return v.astype(float)


def partition_slices(sizes, dim: int | None = None) -> list[slice]:
    """Slices of consecutive blocks of the given sizes; ``ValueError`` unless
    every size is an integer of at least 1 and, given ``dim``, at most ``dim``
    and they sum to it."""
    v = in_range("block sizes", sizes, 1, closed=True, high=math.inf if dim is None else dim)
    if (v % 1).any():
        raise ValueError(f"block sizes must be integers, got {v[v % 1 > 0][0]}")
    sizes = tuple(int(s) for s in v)
    if dim is not None and sum(sizes) != dim:
        raise ValueError(f"block partition {sizes} does not cover the dimension {dim}")
    offsets = np.cumsum((0,) + sizes)
    return [slice(int(a), int(b)) for a, b in zip(offsets[:-1], offsets[1:])]


class FeasibleSet:
    """Base class for constraint geometries: a set kind is one subclass.

    A kind implements ``contains`` (tolerant membership, which no point with a
    NaN or infinite coordinate has), ``project(z, w)`` (exact projection in
    the diagonal metric sum_i w_i (x_i - z_i)^2, the Euclidean one for w None;
    a kind takes a w if ``has_weighted_projection``) and, as far as its shape
    allows: ``support_min(c)`` = argmin <c, x>, the start point
    ``analytic_center()``, the maxima ``bregman_diameter()`` and
    ``max_convex_quadratic(x1, alpha, l)`` = max alpha ||x - x1||^2 / 2 +
    <l, x> (by ``_max_quadratic``), whose alpha = 1, l = 0 case is
    ``max_bregman_from(x1)`` = max V(x1, x), the exact normal-cone residual
    (if ``has_exact_residual``), ``split`` into one set per block, and
    ``to_doc()``, read back by ``SET_KINDS[kind]``.
    The defaults here raise.
    """

    dim: int
    bounded = True
    has_exact_residual = False
    has_weighted_projection = False

    def contains(self, x) -> bool:
        raise NotImplementedError

    def project(self, z, w=None) -> np.ndarray:
        raise NotImplementedError

    def support_min(self, c) -> np.ndarray:
        raise NotImplementedError

    def analytic_center(self) -> np.ndarray:
        raise TypeError(f"unknown feasible set {type(self).__name__}")

    def max_bregman_from(self, x1) -> float:
        if not self.bounded:
            raise ValueError(f"max Bregman radius unsupported for {type(self).__name__}")
        return self.max_convex_quadratic(x1, 1.0, np.zeros(self.dim))

    def bregman_diameter(self) -> float:
        raise ValueError(f"Bregman diameter unsupported for {type(self).__name__}")

    def max_convex_quadratic(self, x1, alpha: float, linear) -> float:
        in_range("alpha", alpha, closed=True)
        return self._max_quadratic(_vector(x1, self.dim, "x1"), alpha,
                                   _vector(linear, self.dim, "linear"))

    def _max_quadratic(self, x1v: np.ndarray, alpha: float, lv: np.ndarray) -> float:
        raise ValueError(f"unsupported set {type(self).__name__}")

    def residual_exact(self, x, Fx) -> float:
        raise ValueError(f"exact residual unsupported for {type(self).__name__}; "
                         "use residual_certificate")

    def split(self, sizes) -> list[FeasibleSet]:
        raise ValueError(f"{type(self).__name__} sets cannot be split into blocks")

    def to_doc(self) -> dict:
        raise ValueError(f"cannot serialize a {type(self).__name__} set")


@dataclass(frozen=True)
class FullSpace(FeasibleSet):
    dim: int
    kind = "full"
    bounded = False
    has_exact_residual = True

    def contains(self, x) -> bool:
        return bool(np.isfinite(_vector(x, self.dim)).all())

    def project(self, z, w=None) -> np.ndarray:
        return _vector(z, self.dim, "z").copy()

    def support_min(self, c) -> np.ndarray:
        raise ValueError("linear minimization is undefined on an unbounded set")

    def analytic_center(self) -> np.ndarray:
        return np.zeros(self.dim)

    def residual_exact(self, x, Fx) -> float:
        return float(np.linalg.norm(np.asarray(Fx, dtype=float)))

    def split(self, sizes) -> list[FeasibleSet]:
        return [FullSpace(sl.stop - sl.start) for sl in partition_slices(sizes, self.dim)]

    def to_doc(self) -> dict:
        return {"set": self.kind}

    @classmethod
    def from_doc(cls, doc: dict, dim: int) -> FullSpace:
        return cls(dim)


class Ball(FeasibleSet):
    """Euclidean ball {x : ||x - center|| <= radius}."""

    kind = "ball"
    has_exact_residual = True

    def __init__(self, center, radius: float):
        self.center = in_range("center", _vector(center, name="center"), -math.inf)
        self.radius = float(in_range("radius", radius))
        self.dim = self.center.shape[0]

    def contains(self, x) -> bool:
        v = _vector(x, self.dim)
        return float(np.linalg.norm(v - self.center)) <= self.radius + MEMBERSHIP_TOL

    def project(self, z, w=None) -> np.ndarray:
        if w is not None:
            raise ValueError("a ball has no weighted projection")
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

    def analytic_center(self) -> np.ndarray:
        return self.center.copy()

    def bregman_diameter(self) -> float:
        return 2.0 * self.radius**2

    def _max_quadratic(self, x1v, alpha, lv) -> float:
        # objective is convex, so the max sits on the sphere; there it is
        # linear in the direction u: maximize <alpha (c - x1) + l, u>
        c, R = self.center, self.radius
        base = 0.5 * alpha * float(np.linalg.norm(c - x1v)) ** 2 + 0.5 * alpha * R**2
        drift = alpha * (c - x1v) + lv
        return base + float(lv @ c) + R * float(np.linalg.norm(drift))

    def residual_exact(self, x, Fx) -> float:
        # interior points: ||F(x)||; on the boundary the component of -F
        # along the outward normal ray is removable
        xv = np.asarray(x, dtype=float)
        Fv = np.asarray(Fx, dtype=float)
        if not self.contains(xv):
            raise ValueError("x is not feasible")
        r = float(np.linalg.norm(xv - self.center))
        if r < self.radius - MEMBERSHIP_TOL:
            return float(np.linalg.norm(Fv))
        u = (xv - self.center) / self.radius
        removable = max(0.0, -float(Fv @ u))
        return math.sqrt(max(float(Fv @ Fv) - removable**2, 0.0))

    def split(self, sizes) -> list[FeasibleSet]:
        if len(partition_slices(sizes, self.dim)) != 1:
            raise ValueError("a ball cannot be split into blocks")
        return [self]

    def to_doc(self) -> dict:
        return {"set": self.kind, "center": self.center.tolist(), "radius": self.radius}

    @classmethod
    def from_doc(cls, doc: dict, dim: int) -> Ball:
        return cls(doc_value(doc, "center", 1), doc_value(doc, "radius", 0))


class Box(FeasibleSet):
    """Axis-aligned box {x : lower <= x <= upper} (componentwise)."""

    kind = "box"
    has_weighted_projection = True

    def __init__(self, lower, upper):
        self.lower = _vector(lower, name="lower")
        self.upper = _vector(upper, self.lower.shape[0], "upper")
        self.dim = self.lower.shape[0]
        in_range("upper - lower", self.upper - self.lower, closed=True)  # so both are finite

    def contains(self, x) -> bool:
        v = _vector(x, self.dim)
        return bool((v >= self.lower - MEMBERSHIP_TOL).all()
                    and (v <= self.upper + MEMBERSHIP_TOL).all())

    def project(self, z, w=None) -> np.ndarray:
        # separable: each coordinate clips whatever its weight
        if w is not None:
            _weights(w, self.dim)
        return _vector(z, self.dim, "z").clip(self.lower, self.upper)

    def support_min(self, c) -> np.ndarray:
        v = _vector(c, self.dim, "c")
        # c_i < 0 pushes to the upper face; ties (c_i == 0) stay at lower for
        # deterministic output.
        return np.where(v < 0, self.upper, self.lower).astype(float)

    def analytic_center(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    def bregman_diameter(self) -> float:
        return bregman(self.lower, self.upper)

    def _max_quadratic(self, x1v, alpha, lv) -> float:
        # separable and convex per coordinate: sum the larger endpoint values
        ends = np.stack([self.lower, self.upper])
        return float((0.5 * alpha * (ends - x1v) ** 2 + lv * ends).max(axis=0).sum())

    def split(self, sizes) -> list[FeasibleSet]:
        return [Box(self.lower[sl], self.upper[sl]) for sl in partition_slices(sizes, self.dim)]

    def to_doc(self) -> dict:
        return {"set": self.kind, "lower": self.lower.tolist(), "upper": self.upper.tolist()}

    @classmethod
    def from_doc(cls, doc: dict, dim: int) -> Box:
        return cls(doc_value(doc, "lower", 1), doc_value(doc, "upper", 1))


class SimplexProduct(FeasibleSet):
    """Product of scaled simplices: block w satisfies sum(x_w) = d_w, x_w >= 0.
    Membership and vertex maxima take O(n); no non-finite point is a member."""

    kind = "simplex"
    has_weighted_projection = True

    def __init__(self, block_sizes, demands):
        self._slices = partition_slices(block_sizes)
        self.block_sizes = tuple(sl.stop - sl.start for sl in self._slices)
        self.demands = tuple(float(d) for d in in_range("demands", demands, closed=True))
        if len(self.block_sizes) != len(self.demands):
            raise ValueError("need one demand per block")
        self.dim = sum(self.block_sizes)
        self._demand_array = np.array(self.demands)
        self._starts = np.array([sl.start for sl in self._slices], dtype=np.intp)  # block offsets
        # rows for project: their shape, demands and offsets; a ragged set keeps its parts
        num, width = len(self.block_sizes), max(self.block_sizes, default=0)
        self._divisors, self._parts = np.arange(1.0, width + 1.0), None
        if num == 1:
            self._row_shape, self._row_demands, self._row_starts = self.dim, self.demands[0], 0
        elif len(set(self.block_sizes)) <= 1:
            self._row_shape, self._row_demands = (num, width), self._demand_array[:, None]
            self._row_starts = self._starts[:, None]
        else:
            self._parts = self.split(self.block_sizes)

    def contains(self, x) -> bool:
        v = _vector(x, self.dim)  # NaN and -inf fail the sign test, +inf its block's sum
        return bool((v >= SIMPLEX_NONNEG_TOL).all() and np.all(
            abs(np.add.reduceat(v, self._starts) - self._demand_array) <= MEMBERSHIP_TOL))

    def project(self, z, w=None) -> np.ndarray:
        """Sort and threshold every block at once, on rows: a one-block set
        thresholds z itself with a scalar tau, and equal blocks reshape z to
        (blocks, size).  A ragged set projects each block through its
        one-block part and concatenates.  Every route gives the bytes of
        projecting each block on its own."""
        v = _vector(z, self.dim, "z")
        if w is not None:
            w = _weights(w, self.dim)
        if self._parts is not None:
            return np.concatenate([part.project(v[sl], None if w is None else w[sl])
                                   for sl, part in zip(self._slices, self._parts)])
        rows = v.reshape(self._row_shape)
        if w is None:
            out = _project_rows(rows, self._row_demands, self._divisors, self._row_starts)
        else:
            out = _project_rows_weighted(rows, w.reshape(self._row_shape),
                                         self._row_demands, self._row_starts)
        return out.ravel()

    def support_min(self, c) -> np.ndarray:
        v = _vector(c, self.dim, "c")
        out = np.zeros(self.dim)
        for sl, d in zip(self._slices, self.demands):
            # np.argmin breaks ties toward the lowest index: runs reproduce
            out[sl.start + int(np.argmin(v[sl]))] = d
        return out

    def analytic_center(self) -> np.ndarray:
        return np.repeat(self._demand_array / self.block_sizes, self.block_sizes)

    def bregman_diameter(self) -> float:
        # farthest vertex pair per block: distance sqrt(2) d_w (0 for one coordinate)
        return sum(d * d for d, s in zip(self.demands, self.block_sizes) if s > 1)

    def _max_quadratic(self, x1v, alpha, lv) -> float:
        # a convex function peaks at a vertex (Rockafellar 1970, Cor. 32.3.4); at
        # block w's d_w e_j it is alpha/2 (||x1_w||^2 - 2 d_w x1_j + d_w^2) + d_w l_j,
        # so with d_w >= 0 the block's max is that of l_j - alpha x1_j
        d, starts = self._demand_array, self._starts
        tilt = np.maximum.reduceat(lv - alpha * x1v, starts)
        return float((0.5 * alpha * (np.add.reduceat(x1v * x1v, starts) + d * d)
                      + d * tilt).sum())

    def split(self, sizes) -> list[FeasibleSet]:
        if tuple(sizes) != self.block_sizes:
            raise ValueError("block partition must match the simplex-product structure")
        return [SimplexProduct((s,), (d,)) for s, d in zip(self.block_sizes, self.demands)]

    def to_doc(self) -> dict:
        return {"set": self.kind, "blocks": list(self.block_sizes),
                "demands": list(self.demands)}

    @classmethod
    def from_doc(cls, doc: dict, dim: int) -> SimplexProduct:
        blocks = doc_value(doc, "blocks", 1)
        partition_slices(blocks, dim)  # before the set allocates its widest block
        return cls(blocks, doc_value(doc, "demands", 1))


# the one table from a doc's "set" kind to its class
SET_KINDS = {cls.kind: cls for cls in (FullSpace, Ball, Box, SimplexProduct)}


def set_from_doc(doc: dict, dim: int) -> FeasibleSet:
    """Rebuild a set from its doc; a doc without "set" predates the key and
    names a simplex product when it has "blocks", the whole space otherwise."""
    kind = doc.get("set", "simplex" if "blocks" in doc else "full")
    if not isinstance(kind, str) or kind not in SET_KINDS:
        raise ValueError(f"unknown set kind {kind!r}")
    return SET_KINDS[kind].from_doc(doc, dim)


def project_simplex(v, d: float) -> np.ndarray:
    """Euclidean projection of v onto {x : sum(x) = d, x >= 0}: the one-block
    simplex product, by sort and threshold in O(n log n)."""
    z, d = _vector(v, name="v"), float(in_range("d", d, closed=True))
    if z.shape[0] == 0:
        raise ValueError("need a nonempty v")
    return _project_rows(z, d, np.arange(1.0, z.shape[0] + 1.0), 0)


def _weights(w, dim: int) -> np.ndarray:
    """The vector w of a weighted projection; ``ValueError`` unless every
    w_i is finite and positive."""
    v = _vector(w, dim, "w")
    if not ((v > 0.0) & (v < np.inf)).all():
        raise ValueError("projection weights must be finite and positive")
    return v


def _project_rows(rows: np.ndarray, demands, scale: np.ndarray, starts) -> np.ndarray:
    """Project each row of ``rows`` onto its simplex {sum(x) = d, x >= 0};
    a 1-d ``rows`` is one row.

    One sort and one cumulative sum for all rows.  ``demands`` is d per row
    as a column (a scalar for one row), ``scale`` is 1, 2, ..., width, and
    ``starts`` the flat offset of each row as a column (0 for one row).  The
    ndarray methods run the loops of their np.* forms without the function
    dispatch, which at a few hundred entries costs more than the arithmetic.
    """
    u = rows.copy()
    u.sort()
    u = u[..., ::-1]
    css = u.cumsum(-1)
    css -= demands
    rho = _support_size(u, css, scale)
    tau = css.take(starts + rho) / (rho + 1.0)
    out = rows - tau
    return np.maximum(out, 0.0, out=out)


def _project_rows_weighted(rows: np.ndarray, weights: np.ndarray,
                           demands, starts) -> np.ndarray:
    """Project each row of ``rows`` onto its simplex in the metric
    sum_i w_i (x_i - z_i)^2, for positive ``weights`` of the same shape.

    The solution is x_i = max(0, z_i - tau / w_i), with tau the root of
    sum_i x_i = d.  Sorting the breakpoints w_i z_i in decreasing order
    picks the support as in ``_project_rows``, which is the case w = 1 and
    takes ``demands`` and ``starts`` alike.  The sort is stable, so tied
    breakpoints (exact zeros) keep one order whatever the row's length.
    """
    keys = weights * rows
    order = starts + keys.argsort(kind="stable")[..., ::-1]  # flat positions, keys decreasing
    css = rows.take(order).cumsum(-1)
    css -= demands
    scale = (1.0 / weights).take(order).cumsum(-1)
    rho = _support_size(keys.take(order), css, scale)
    at = starts + rho
    tau = css.take(at) / scale.take(at)
    out = rows - tau / weights
    return np.maximum(out, 0.0, out=out)


def _support_size(keys: np.ndarray, css: np.ndarray, scale) -> np.ndarray:
    """Per row, rho: the largest index j with keys_j > css_j / scale_j, for
    keys in decreasing order; a column for 2-d rows, a scalar for one row.

    With d > 0, j = 1 qualifies; a row where none does (d = 0) takes
    rho = 0, and marking j = 1 in every row gives that without moving any
    other rho.
    """
    qualifies = keys > css / scale
    qualifies[..., 0] = True
    return keys.shape[-1] - 1 - qualifies[..., ::-1].argmax(-1, keepdims=keys.ndim > 1)


def bregman(x, y) -> float:
    """Bregman distance V(x, y); equals ||x - y||^2 / 2 for the Euclidean generator."""
    xv = _vector(x)
    yv = _vector(y, xv.shape[0], "y")
    diff = yv - xv
    return 0.5 * float(diff @ diff)


def analytic_center(fs: FeasibleSet) -> np.ndarray:
    """The set's canonical interior/representative point: the default start
    of solver runs and the reference point of the default V(x_1, x*) estimate."""
    return fs.analytic_center()
