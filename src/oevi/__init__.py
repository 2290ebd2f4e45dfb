"""Operator-extrapolation solvers for (generalized) monotone variational
inequalities: geometry primitives, problem generators, stepsize policies with
validators, iteration engines, convergence metrics, and a benchmark harness.
"""

from .geometry import (
    Ball,
    Box,
    FeasibleSet,
    FullSpace,
    SimplexProduct,
    analytic_center,
    bregman,
    project_simplex,
)
from .problems import (
    AffineSpec,
    Constants,
    GLMSpec,
    VIProblem,
    affine_constants,
    affine_eval,
    affine_problem,
    block_lipschitz,
    glm_exact_hinge,
    glm_exact_ramp,
    glm_generate,
    glm_oracle,
    glm_problem,
    problem_from_json,
    problem_to_json,
    solve_reference,
    traffic_generate,
)
from .schedules import POLICY_NAMES, Schedule, make_schedule, validate
from .solvers import (
    RunConfig,
    Trajectory,
    oe_run,
    output_rng,
    run,
    sa_run,
    sboe_run,
    select_best_movement,
    select_uniform_R,
    soe_run,
    weighted_average,
)
from .metrics import (
    gap_surrogate,
    max_bregman_from,
    residual_certificate,
    residual_exact,
    weak_gap_exact_affine,
)

__version__ = "0.1.0"
