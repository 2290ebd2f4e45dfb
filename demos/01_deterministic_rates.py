#!/usr/bin/env python3
"""Deterministic operator extrapolation across the three problem regimes.

Walks one solver through three instances and compares what it achieves
against the matching convergence guarantee:

  1. strongly monotone affine  -> linear decay of the distance V(x_k, x*)
  2. barely monotone (skew + tiny PSD) -> residual decay like 1/sqrt(k)
  3. skew over a product of simplices  -> weak gap of the averaged iterate
     decaying like 1/k

Run:  python3 demos/01_deterministic_rates.py
"""

import numpy as np

from oevi import schedules as S
from oevi.geometry import FullSpace, SimplexProduct, analytic_center, bregman
from oevi.metrics import (
    bound_gmvi_residual,
    bound_gsmvi_linear,
    bound_mvi_gap,
    max_bregman_from,
    residual_certificate,
    weak_gap_exact_affine,
)
from oevi.problems import AffineSpec, affine_problem
from oevi.solvers import OE_MVI_AVERAGE, oe_run, select_best_movement, weighted_average

rng = np.random.default_rng(1)

print("=" * 72)
print("1. Strongly monotone: the distance to x* contracts linearly")
print("=" * 72)
n = 40
E = rng.normal(size=(n, n))
shift = abs(float(np.linalg.eigvalsh(E + E.T)[0])) / 2.0 + 1.0
G = E + shift * np.eye(n)
b = rng.normal(size=n)
problem = affine_problem(AffineSpec(G, b), FullSpace(n),
                         known_solution=np.linalg.solve(G, -b))
L, mu = problem.constants.L, problem.constants.mu
print(f"instance: n={n}, L={L:.2f}, mu={mu:.2f}, condition number {L / mu:.1f}")

x1 = np.ones(n)
V1 = bregman(x1, problem.known_solution)
traj = oe_run(problem, S.OEGsmviSchedule(L, mu), x1, 200)
print(f"{'k':>6} {'V(x_k+1, x*)':>14} {'guarantee':>14}")
for k in (1, 5, 20, 50, 100, 200):
    v = bregman(traj.xs[k + 1], problem.known_solution)
    print(f"{k:>6} {v:>14.3e} {bound_gsmvi_linear(L, mu, V1, k):>14.3e}")

print()
print("=" * 72)
print("2. Plain monotone: the best-movement residual decays like 1/sqrt(k)")
print("=" * 72)
A = rng.normal(size=(30, 30))
G = (A - A.T) / 2.0 + 1e-3 * np.eye(30)
b = rng.normal(size=30)
problem = affine_problem(AffineSpec(G, b), FullSpace(30),
                         known_solution=np.linalg.solve(G, -b))
L = problem.constants.L
x1 = np.zeros(30)
V1 = bregman(x1, problem.known_solution)
traj = oe_run(problem, S.OEGmviSchedule(L), x1, 10_000)
print(f"instance: skew + 1e-3 I, L={L:.2f}; movement budget 6 V1 = {6 * V1:.3f}")
print(f"{'k':>6} {'sum of moves^2':>15} {'certificate':>13} {'guarantee':>12}")
for k in (100, 1000, 10_000):
    moved = float(traj.movement_sq[1 : k + 1].sum())
    sums = traj.movement_sq[1 : k + 1] + traj.movement_sq[:k]
    R = int(np.argmin(sums)) + 1
    cert = residual_certificate(traj, R, problem.operator(traj.xs[R + 1]))
    print(f"{k:>6} {moved:>15.4f} {cert:>13.3e} "
          f"{bound_gmvi_residual(L, problem.constants.L_omega, V1, k):>12.3e}")

print()
print("=" * 72)
print("3. Monotone on a bounded set: the averaged iterate's gap decays like 1/k")
print("=" * 72)
A = rng.normal(size=(20, 20))
G = A - A.T
b = rng.uniform(0.0, 1.0, 20)
fs = SimplexProduct([4] * 5, [1.0] * 5)
problem = affine_problem(AffineSpec(G, b), fs)
L = problem.constants.L
x1 = analytic_center(fs)
traj = oe_run(problem, S.OEMviSchedule(L), x1, 2000)
max_v = max_bregman_from(fs, x1)
print(f"instance: skew over 5 unit simplices, L={L:.2f}, max_x V(x1, x)={max_v:.3f}")
print(f"{'k':>6} {'gap(avg iterate)':>17} {'guarantee 2L/k max V':>21}")
for k in (100, 500, 2000):
    x_bar = weighted_average(traj, OE_MVI_AVERAGE, k=k)
    gap = weak_gap_exact_affine(problem, x_bar)
    print(f"{k:>6} {gap:>17.3e} {bound_mvi_gap(L, k, max_v):>21.3e}")

R, x_out = select_best_movement(traj)
print(f"\n(best-movement output index for the same run: R = {R})")
