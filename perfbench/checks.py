"""Correctness checks computed apart from the library.

Nothing here calls oevi: feasibility, projection, the operator, the
convergence bound and the set radius are recomputed from the problem data
(G, b, block sizes, demands) with plain NumPy, so a fault in the
library cannot hide itself by also corrupting the check.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

TRAJECTORY_COLUMNS = (
    "run_id", "policy", "seed", "t", "gamma", "lambda", "theta", "V_to_solution",
    "residual_exact", "residual_certificate", "gap_surrogate", "weak_gap_exact",
    "movement_sq", "oracle_calls", "wall_time_ns",
)
FEAS_TOL = 1e-9
CHUNK_ROWS = 64  # rows per scan of a trajectory: 0.5 MB of temporaries at n = 1000


def checkpoint_grid(k: int, cadence: int) -> list[int]:
    ts = list(range(0, k + 1, cadence))
    if ts[-1] != k:
        ts.append(k)
    return ts


# ---------------------------------------------------------------------------
# Product of scaled simplices
# ---------------------------------------------------------------------------


def _blocks(x: np.ndarray, block_sizes) -> list[np.ndarray]:
    """Views of the blocks along the last axis."""
    edges = np.cumsum((0,) + tuple(block_sizes))
    return [x[..., a:b] for a, b in zip(edges[:-1], edges[1:])]


def row_chunks(xs: np.ndarray, rows: int = CHUNK_ROWS):
    """Views of at most ``rows`` rows of a stack of points (one point: itself),
    so that a scan of a whole trajectory allocates nothing of its size."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim < 2:
        yield xs
        return
    for a in range(0, xs.shape[0], rows):
        yield xs[a:a + rows]


def all_finite(xs) -> bool:
    return all(bool(np.isfinite(chunk).all()) for chunk in row_chunks(xs))


def simplex_product_feasible(x, block_sizes, demands, tol: float = FEAS_TOL) -> bool:
    """Every row of ``x`` (one point or a stack of points) is in the set."""
    for chunk in row_chunks(x):
        if not np.isfinite(chunk).all() or (chunk < -tol).any():
            return False
        if not all(bool(np.all(np.abs(blk.sum(axis=-1) - d) <= tol))
                   for blk, d in zip(_blocks(chunk, block_sizes), demands)):
            return False
    return True


def project_simplex_product(z, block_sizes, demands, iters: int = 200) -> np.ndarray:
    """Euclidean projection by bisection on each block's threshold tau,
    the root of sum(max(z - tau, 0)) = d."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    for blk, out_blk, d in zip(_blocks(z, block_sizes), _blocks(out, block_sizes), demands):
        lo, hi = float(blk.min()) - d, float(blk.max())
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            if np.maximum(blk - mid, 0.0).sum() > d:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 4 * np.finfo(float).eps * max(abs(lo), abs(hi), 1.0):
                break
        out_blk[:] = np.maximum(blk - 0.5 * (lo + hi), 0.0)
    return out


def natural_residual(x, G, b, block_sizes, demands) -> float:
    """||x - P_X(x - F(x))|| with F(x) = G x + b; zero exactly at solutions."""
    x = np.asarray(x, dtype=float)
    return float(np.linalg.norm(x - project_simplex_product(x - (G @ x + b), block_sizes, demands)))


def simplex_center(block_sizes, demands) -> np.ndarray:
    return np.concatenate([np.full(s, d / s) for s, d in zip(block_sizes, demands)])


def max_half_sq_dist(x1, block_sizes, demands) -> float:
    """max_{x in X} ||x - x1||^2 / 2: a convex function peaks at a vertex,
    so each block contributes its farthest vertex d * e_i."""
    total = 0.0
    for blk, d in zip(_blocks(np.asarray(x1, dtype=float), block_sizes), demands):
        sq = float(blk @ blk)
        total += 0.5 * max(sq - blk[i] ** 2 + (d - blk[i]) ** 2 for i in range(blk.size))
    return total


def weak_gap_bracket(G, b, x_bar, block_sizes, demands, iters: int = 1000) -> tuple[float, float]:
    """Certified bracket [lower, upper] on the weak gap
    max_{z in X} phi(z), phi(z) = <G z + b, x_bar - z>, for monotone G.

    Frank-Wolfe from z = x_bar with exact line search: every iterate is
    feasible, so phi(z) is a lower bound, and since phi is concave,
    phi(z) + max_{v in X} <grad phi(z), v - z> is an upper bound.
    """
    x_bar = np.asarray(x_bar, dtype=float)
    c = G.T @ x_bar - b
    z = x_bar.copy()
    Gz, GTz = G @ z, G.T @ z
    lower, upper = -math.inf, math.inf
    for _ in range(iters):
        phi = float((Gz + b) @ (x_bar - z))
        grad = c - Gz - GTz
        v = np.zeros_like(z)
        for g_blk, v_blk, d in zip(_blocks(grad, block_sizes), _blocks(v, block_sizes), demands):
            v_blk[int(np.argmax(g_blk))] = d
        step = v - z
        slope = float(grad @ step)
        lower, upper = max(lower, phi), min(upper, phi + slope)
        if slope <= 0.0:
            break
        G_step, GT_step = G @ step, G.T @ step
        curvature = float(step @ G_step)  # phi(z + s step) = phi + s slope - s^2 curvature
        s = 1.0 if curvature <= 0.0 else min(1.0, slope / (2.0 * curvature))
        z += s * step
        Gz += s * G_step
        GTz += s * GT_step
    return lower, upper


def lipschitz_and_modulus(G) -> tuple[float, float]:
    """(L, mu) of F(x) = G x + b: the largest singular value of G and the
    smallest eigenvalue of (G + G^T)/2."""
    L = float(np.linalg.svd(G, compute_uv=False)[0])
    mu = float(np.linalg.eigvalsh(0.5 * (G + G.T))[0])
    return L, mu


def linear_rate_bound(L: float, mu: float, V1: float, t: int) -> float:
    """The paper's linear rate for OE-GSMVI: V(x_{t+1}, x*) <= (L/mu) (L/(L+mu))^(t-1) V1."""
    return (L / mu) * math.exp((t - 1) * math.log(L / (L + mu))) * V1


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def read_trajectory_csv(path: Path) -> list[dict]:
    """Rows of a trajectory CSV; fields parsed to float (None when empty).
    Raises ValueError when the header is not the documented schema."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if tuple(lines[0].split(",")) != TRAJECTORY_COLUMNS:
        raise ValueError(f"{path.name}: header is not the trajectory schema")
    rows = []
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != len(TRAJECTORY_COLUMNS):
            raise ValueError(f"{path.name}: row has {len(fields)} fields")
        row = dict(zip(TRAJECTORY_COLUMNS, fields))
        for name in TRAJECTORY_COLUMNS[3:]:
            row[name] = float(row[name]) if row[name] else None
        rows.append(row)
    return rows


def rows_finite(rows: list[dict]) -> bool:
    return all(
        v is None or math.isfinite(v)
        for row in rows for name, v in row.items() if name in TRAJECTORY_COLUMNS[3:]
    )


def directory_digest(outdir: Path) -> str:
    """Digest of every CSV's name and bytes under ``outdir``."""
    h = hashlib.sha256()
    for path in sorted(outdir.glob("*.csv")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def trajectory_digest(traj) -> str:
    h = hashlib.sha256()
    for chunk in row_chunks(traj.xs):
        h.update(np.ascontiguousarray(chunk))
    return h.hexdigest()
