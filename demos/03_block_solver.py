#!/usr/bin/env python3
"""Randomized block updates on a traffic-assignment instance.

The traffic family routes demand over a product of simplices with an affine
arc-cost map.  The block solver updates one randomly chosen demand block per
iteration; with an affine operator it maintains the full operator value by a
rank update restricted to the changed block, so each iteration costs
O(n * n_block) instead of O(n^2).

Run:  python3 demos/03_block_solver.py
"""

import numpy as np

from oevi import schedules as S
from oevi.geometry import analytic_center, bregman
from oevi.harness import mean_iteration_ns
from oevi.problems import block_lipschitz, solve_reference, traffic_generate
from oevi.solvers import oe_run, sboe_run

print("=" * 72)
print("Convergence: full updates vs block updates (n = 100, b = 5)")
print("=" * 72)
problem = traffic_generate(100, 5, 0.01, seed=7)
c = problem.constants
x_star = solve_reference(problem, 1e-10)
Lbar = block_lipschitz(problem.affine, problem.block_partition)
x1 = analytic_center(problem.set)
V1 = bregman(x1, x_star)
print(f"L={c.L:.3f}  mu={c.mu:.4f}  Lbar={Lbar:.3f}  V(x1,x*)={V1:.3e}\n")

k = 4000
t_oe = oe_run(problem, S.OEGsmviSchedule(c.L, c.mu), x1, k)
t_b = sboe_run(problem, S.SboeGsmviSchedule(Lbar=Lbar, b=5, mu=c.mu, L=c.L),
               x1, k, seed=3)
print(f"{'k':>6} {'full-update V':>14} {'block-update V':>15}")
for kk in (100, 500, 1000, 4000):
    v_oe = bregman(t_oe.xs[kk + 1], x_star)
    v_b = bregman(t_b.xs[kk + 1], x_star)
    print(f"{kk:>6} {v_oe:>14.3e} {v_b:>15.3e}")
print("\n(the block solver needs more iterations, but each one is cheaper)")
print(f"operator work: full run = {t_oe.operator_evals} evaluations; "
      f"block run = {t_b.operator_evals} evaluation + {t_b.block_updates} block updates")

print()
print("=" * 72)
print("Per-iteration cost at n = 1000")
print("=" * 72)
big = traffic_generate(1000, 5, 0.005, seed=9)
cb = big.constants
Lbar_big = block_lipschitz(big.affine, big.block_partition)
x1 = analytic_center(big.set)
t_oe = oe_run(big, S.OEGsmviSchedule(cb.L, cb.mu), x1, 300)
t_fast = sboe_run(big, S.SboeGsmviSchedule(Lbar=Lbar_big, b=5, mu=cb.mu, L=cb.L),
                  x1, 300, seed=1, recursive_affine=True)
t_slow = sboe_run(big, S.SboeGsmviSchedule(Lbar=Lbar_big, b=5, mu=cb.mu, L=cb.L),
                  x1, 300, seed=1, recursive_affine=False)
print(f"full prox step:                {mean_iteration_ns(t_oe) / 1e3:8.0f} us/iteration")
print(f"block step, recursive update:  {mean_iteration_ns(t_fast) / 1e3:8.0f} us/iteration")
print(f"block step, full re-evaluation:{mean_iteration_ns(t_slow) / 1e3:8.0f} us/iteration")
assert np.allclose(t_fast.xs, t_slow.xs, atol=1e-10)
print("(both block variants produce the same iterates)")
