#!/usr/bin/env python3
"""Stochastic policies on the hinge-link signal-estimation problem.

Builds an ill-conditioned instance (the diagonal of the sensing matrix
spans [1e-3, 1]), runs the four stochastic extrapolation policies and both
stochastic-approximation baselines at a shared oracle budget, and prints the
mean distance to the planted signal over a few seeds.

The classic Robbins-Monro baseline (SA-RM) takes 1/(mu t) steps whose early
iterations are far too long; the parity-offset baseline (SA) starts at the
same scale as the extrapolation policies.  The restart policy (SOE-3) resets
its local index at geometrically growing epochs.

Run:  python3 demos/02_stochastic_policies.py
"""

import numpy as np

from oevi import schedules as S
from oevi.geometry import analytic_center, bregman
from oevi.problems import glm_generate, glm_sigma_bound
from oevi.solvers import sa_run, soe_run

n, R, d_minus = 60, 50.0, 1e-3
k, m, seeds = 800, 100, 5
problem = glm_generate(n, "hinge", R=R, sigma_y=1.0, seed=11, d_minus=d_minus)
c = problem.constants
x1 = analytic_center(problem.set)
x_star = problem.known_solution
V1 = bregman(x1, x_star)
sigma_eff = np.sqrt(glm_sigma_bound(problem.glm) / m)

print(f"hinge instance: n={n}, R={R}, d_minus={d_minus:g}")
print(f"L={c.L:.3f}  mu={c.mu:.2e}  condition number {c.L / c.mu:.0f}")
print(f"V(x1, x*) = {V1:.1f}, per-step noise bound {sigma_eff:.2f} (batch {m})")
print(f"budget: k={k} steps x {m} samples, {seeds} seeds\n")

policies = {
    "SOE-1 (decreasing)": S.SoeDecreasingSchedule(c.L, c.mu),
    "SOE-2 (constant)": S.SoeConstantSchedule(c.L, c.mu, sigma_eff, V1, k),
    "SOE-3 (restart)": S.SoeRestartSchedule(c.L, c.mu, noise_ratio=1.0),
    "SOE-4 (monotone)": S.SoeGmviSchedule(c.L, k),
    "SA (offset)": S.SaSchedule(c.L, c.mu),
    "SA-RM (classic)": S.SaSchedule(c.L, c.mu, parity_offset=False),
}

print(f"{'policy':<20} {'mean V(x_k+1, x*)':>18} {'vs start':>10}")
for label, sched in policies.items():
    runner = sa_run if label.startswith("SA") else soe_run
    finals = []
    for seed in range(seeds):
        traj = runner(problem, sched, x1, k, seed=seed,
                      batch=None if "SOE-4" in label else m)
        finals.append(bregman(traj.final, x_star))
    mean = float(np.mean(finals))
    print(f"{label:<20} {mean:>18.4e} {mean / V1:>10.2e}")
print("(SOE-4 draws its own batch of k+1 samples per step, a larger budget)")

print("\nRestart epochs of SOE-3 with the default noise-ratio estimate of 1:")
sched = S.SoeRestartSchedule(c.L, c.mu, noise_ratio=1.0)
print("  epoch ends:", sched.epoch_ends(4))
print("  (each completed epoch halves the expected distance; lambda resets")
print("   to 0 there.  At this instance's honest noise level the guaranteed")
print("   epochs would be ~1e9 iterations long, hence the O(1) estimate.)")
