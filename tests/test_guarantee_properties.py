"""The deterministic, stochastic and block guarantees as properties over
random instances.

Each example is an affine problem read by ``problem_from_json`` from a drawn
document: G = mu0 I + s A A^T + K (B - B^T) with mu0 in {0, 1e-3, 0.2, 1},
half of them spread to D^1/2 G D^1/2 with D = diag(e^U[-3, 3]), n from 1 to
12, over any of the four set kinds (simplex products with size-1 and
zero-demand blocks too), and a budget k from 5 to 400.  ``check_bounds``
runs OE-GSMVI and OE-GMVI where mu > 0 (their bounds read x*) and OE-MVI
where the set is bounded (G + G^T is positive semidefinite by construction).

The property: at the true constants every schedule validates and every bound
record passes; and with tuned L and mu overrides, whenever ``validate``
passes at the true constants, every bound record of that policy passes.

The stochastic and block property draws the same documents with n from 2 to
8, the additive-Gaussian oracle at sigma in {0.1, 1} (its variance is exactly
sigma^2), a block partition on every set, k from 20 to 150 and 8 to 12 seeds.
It checks SOE-1, SOE-2, SOE-4 and SBOE-GSMVI where mu > 0 and SOE-MVI and
SBOE-MVI where the set is bounded, except the block policies on a ball, which
cannot split; each override goes only to the policies that read it.  SOE-3
runs where mu > 0 on its own config: the document at sigma = 0.1, the honest
noise ratio sigma^2 / (mu^2 V1) as an override, and k at its second epoch
end, where that end is within SOE_3_BUDGET steps, so each SOE-3 run checks
two halvings (20 of the 60 examples).  Its worst measured/limit ratios are
0.24 after epoch 1 and 0.058 after epoch 2.  Flipping the extrapolation sign
in ``solvers._iterate`` fails it on SOE-1, SOE-2 and SBOE-GSMVI, a block draw
that never picks the last block fails it on SBOE-GSMVI, and SOE-3 epochs whose
base length is cut to an eighth fail it on SOE-3.  Not resetting SOE-3's
lambda to 0 at an epoch start passes (its epoch-2 ratio moves from 0.0583 to
0.0586).  SOE-4 and SOE-MVI sit 130 and 14 times under their limits, so it
does not guard those two.
"""

import json
import math
from typing import NamedTuple

import numpy as np
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st

from oevi.geometry import bregman, set_from_doc
from oevi.harness import ExperimentConfig, PolicyRun, check_bounds, ensure_reference, schedule_for
from oevi.problems import problem_from_json
from oevi.schedules import POLICIES, validate


class Instance(NamedTuple):
    n: int
    kind: str  # "full", "ball", "box" or "simplex"
    mu0: float
    s: float  # weight of the symmetric part A A^T
    K: float  # weight of the skew part B - B^T
    spread: bool  # G -> D^1/2 G D^1/2
    at_solution: bool  # b = -G x_c, so the start point x1 = x_c solves the VI
    cuts: tuple  # simplex blocks end before these coordinates
    demands: tuple  # one per simplex block
    seed: int  # the numpy draws: A, B, D, b and the set's data
    k: int
    L_factor: float  # the overrides are these multiples of the true L and mu
    mu_factor: float
    sigma: float = 0.0  # the additive-Gaussian oracle's standard deviation
    partitioned: bool = False  # the cuts partition every set, not only a simplex product
    seeds: int = 1


@st.composite
def instances(draw):
    n = draw(st.integers(1, 12))
    cuts = tuple(sorted(draw(st.sets(st.integers(1, n - 1))))) if n > 1 else ()
    return Instance(
        n=n, kind=draw(st.sampled_from(("full", "ball", "box", "simplex"))),
        mu0=draw(st.sampled_from((0.0, 1e-3, 0.2, 1.0))), s=draw(st.sampled_from((0.0, 0.1, 1.0))),
        K=draw(st.sampled_from((0.0, 0.5, 2.0))), spread=draw(st.booleans()),
        at_solution=draw(st.integers(0, 4)) == 0, cuts=cuts,
        demands=tuple(draw(st.lists(st.sampled_from((0.0, 0.5, 1.0, 3.0)),
                                    min_size=len(cuts) + 1, max_size=len(cuts) + 1))),
        seed=draw(st.integers(0, 2**32 - 1)), k=draw(st.integers(5, 400)),
        # the true constants half of the time
        L_factor=draw(st.sampled_from((1.0, 1.0, 1.0, 0.5, 0.9, 2.0))),
        mu_factor=draw(st.sampled_from((1.0, 1.0, 0.5))))


def _document(inst: Instance) -> str:
    """The instance as a problem JSON document; its cuts make the block
    partition of a simplex product, and of any set when it is partitioned."""
    n, rng = inst.n, np.random.default_rng(inst.seed)
    sizes = np.diff((0,) + inst.cuts + (n,)).tolist()
    A, B = rng.standard_normal((2, n, n)) / math.sqrt(n)
    sym = inst.mu0 * np.eye(n) + inst.s * (A @ A.T)
    G = 0.5 * (sym + sym.T) + inst.K * (B - B.T)
    if inst.spread:
        r = np.exp(0.5 * rng.uniform(-3.0, 3.0, n))
        G = np.outer(r, r) * G  # r_i r_j is symmetric bit for bit, so the skew part stays skew
    if inst.kind == "full":
        set_doc = {"set": "full"}
    elif inst.kind == "ball":
        set_doc = {"set": "ball", "center": rng.uniform(-1.0, 1.0, n).tolist(),
                   "radius": float(rng.uniform(0.5, 3.0))}
    elif inst.kind == "box":
        lower = rng.uniform(-2.0, 0.0, n)
        set_doc = {"set": "box", "lower": lower.tolist(),
                   "upper": (lower + rng.uniform(0.1, 3.0, n)).tolist()}
    else:
        set_doc = {"set": "simplex", "blocks": sizes, "demands": list(inst.demands)}
    if inst.at_solution:
        b = -G @ set_from_doc(set_doc, n).analytic_center()
    else:
        b = rng.standard_normal(n)
    return json.dumps({"format": 1, "kind": "affine", "G": G.tolist(), "b": b.tolist(),
                       **set_doc, "sigma": inst.sigma, "known_solution": None,
                       "block_partition": sizes if inst.partitioned or inst.kind == "simplex"
                       else None, "seed": inst.seed})


def _edge(n, kind, *, mu0=0.2, s=1.0, K=0.5, cuts=(), demands=(1.0,), at_solution=False):
    return Instance(n, kind, mu0, s, K, False, at_solution, cuts, demands, 3, 50, 1.0, 1.0)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(instances())
@example(_edge(1, "simplex"))  # n = 1: the set is one point
@example(_edge(1, "ball"))
@example(_edge(6, "simplex", demands=(2.0,)))  # one block
@example(_edge(5, "simplex", cuts=(1, 2, 3, 4), demands=(1.0, 0.5, 2.0, 1.0, 3.0)))  # size 1
@example(_edge(6, "simplex", cuts=(2, 4), demands=(1.0, 0.0, 2.0)))  # a zero demand
@example(_edge(6, "box", mu0=0.0, s=0.0, K=2.0))  # mu = 0: OE-MVI on a skew G
@example(_edge(6, "simplex", mu0=0.0, s=0.0, K=2.0, cuts=(3,), demands=(1.0, 1.0)))
@example(_edge(6, "ball", at_solution=True))  # x1 = x*, so V1 = 0
@example(_edge(6, "full", at_solution=True))
def test_deterministic_guarantees_hold(inst):
    problem = problem_from_json(_document(inst))
    c = problem.constants
    assume(c.L > 0)  # no schedule steps on G = 0
    names = (["OE-GSMVI", "OE-GMVI"] if c.mu > 0 else []) + (["OE-MVI"] if problem.set.bounded
                                                            else [])
    assume(names)
    # mu is clamped to the tuned L, where OE-GSMVI's schedule needs it
    tuned = dict(L=inst.L_factor * c.L, mu=min(inst.mu_factor * c.mu, inst.L_factor * c.L))
    policies = [PolicyRun(name, **(tuned if name == "OE-GSMVI" else {"L": tuned["L"]}))
                for name in names]
    config = ExperimentConfig(problem=problem, policies=policies, k=inst.k)
    checks = check_bounds(config)
    x1 = problem.set.analytic_center()
    for policy in policies:
        records = [r for r in checks if r.policy == policy.name]
        report = validate(schedule_for(policy, problem, inst.k, x1), inst.k, L=c.L, mu=c.mu)
        if inst.L_factor == inst.mu_factor == 1.0:
            assert report.passed, report.summary()
        if report.passed:
            assert records and all(r.passed for r in records), (inst, records)
        else:
            assert [r.bound for r in records] == ["schedule validation"], records


# the stochastic guarantees that read x* (mu > 0), and those that need a bounded
# set; SOE-3 runs where mu > 0 too, on its own config (_soe_3_config)
STRONGLY_MONOTONE = ("SOE-1", "SOE-2", "SOE-4", "SBOE-GSMVI")
BOUNDED = ("SOE-MVI", "SBOE-MVI")


@st.composite
def noisy_instances(draw):
    n = draw(st.integers(2, 8))
    cuts = tuple(sorted(draw(st.sets(st.integers(1, n - 1)))))
    return Instance(
        n=n, kind=draw(st.sampled_from(("full", "ball", "box", "simplex"))),
        mu0=draw(st.sampled_from((0.0, 1e-3, 0.2, 1.0))), s=draw(st.sampled_from((0.0, 0.1, 1.0))),
        K=draw(st.sampled_from((0.0, 0.5, 2.0))), spread=draw(st.booleans()),
        at_solution=draw(st.integers(0, 4)) == 0, cuts=cuts,
        demands=tuple(draw(st.lists(st.sampled_from((0.0, 0.5, 1.0, 3.0)),
                                    min_size=len(cuts) + 1, max_size=len(cuts) + 1))),
        seed=draw(st.integers(0, 2**32 - 1)), k=draw(st.integers(20, 150)),
        L_factor=draw(st.sampled_from((1.0, 1.0, 1.0, 0.5, 0.9, 2.0))),
        mu_factor=draw(st.sampled_from((1.0, 1.0, 0.5))), sigma=draw(st.sampled_from((0.1, 1.0))),
        partitioned=True, seeds=draw(st.integers(8, 12)))


def _noisy_policies(problem) -> list[str]:
    """The policies whose preconditions the problem meets; a block policy
    rightly refuses a ball, which cannot split along a partition."""
    names = [name for name in STRONGLY_MONOTONE if problem.constants.mu > 0]
    names += [name for name in BOUNDED if problem.set.bounded]
    return [name for name in names
            if not (POLICIES[name].source == "block" and problem.set.kind == "ball")]


def _noisy_edge(n, kind, *, mu0=0.2, s=1.0, K=0.5, cuts=(), demands=(1.0,), sigma=0.1, k=60):
    return Instance(n, kind, mu0, s, K, False, False, cuts, demands, 3, k, 1.0, 1.0, sigma, True, 8)


def _reference(inst):
    """The instance's problem, with x* attached, and its start point."""
    problem = ensure_reference(problem_from_json(_document(inst)))
    return problem, problem.set.analytic_center()


# SOE-2's q is clamped when the noise dominates mu^2 V1
SOE_2_CLAMPED = _noisy_edge(6, "box", mu0=1e-3, s=0.0, K=0.5, sigma=1.0)
# SOE-3 runs where its second epoch ends within this budget
SOE_3_BUDGET = 400


def _soe_3_config(inst, tuned):
    """SOE-3 on the instance at sigma = 0.1, given its honest noise ratio
    sigma^2 / (mu^2 V1) at the tuned mu, over a budget that ends at its second
    epoch end; None where that end lies past SOE_3_BUDGET.  At x1 = x* the
    ratio is sized for V1 = 1, the V1 its check then halves from."""
    problem, x1 = _reference(inst._replace(sigma=0.1))
    V1 = bregman(x1, problem.known_solution) or 1.0
    policy = PolicyRun("SOE-3", noise_ratio=0.1**2 / (tuned["mu"] ** 2 * V1), **tuned)
    k = schedule_for(policy, problem, inst.k, x1).epoch_ends(2)[1]
    if k > SOE_3_BUDGET:
        return None
    return ExperimentConfig(problem=problem, policies=[policy], k=k,
                            seeds=tuple(range(inst.seeds)))


def test_noisy_edges_are_edges():
    problem, x1 = _reference(SOE_2_CLAMPED)
    assert schedule_for(PolicyRun("SOE-2"), problem, SOE_2_CLAMPED.k, x1).q_clamped


# a fixed seed, where derandomize would draw from a digest of the body's
# source, so that an edit of the body re-rolls neither the draws nor the runtime
@seed(201102987)
@settings(max_examples=60, database=None, deadline=None)
@given(noisy_instances())
@example(_noisy_edge(6, "simplex", demands=(2.0,)))  # one block
@example(_noisy_edge(5, "simplex", cuts=(1, 2, 3, 4), demands=(1.0, 0.5, 2.0, 1.0, 3.0)))
@example(_noisy_edge(5, "box", cuts=(1, 2, 3, 4)))  # size-1 blocks
@example(_noisy_edge(6, "simplex", cuts=(2, 4), demands=(1.0, 0.0, 2.0)))  # a zero demand
@example(SOE_2_CLAMPED)
# two blocks over a long budget: SBOE-GSMVI's bound falls far below a block never drawn
@example(_noisy_edge(4, "full", mu0=1.0, s=0.1, K=0.0, cuts=(2,), k=150))
def test_stochastic_and_block_guarantees_hold(inst):
    problem = problem_from_json(_document(inst))
    c = problem.constants
    assume(c.L > 0)
    names = _noisy_policies(problem)
    assume(names)
    # mu is clamped to the tuned L, where the strongly monotone schedules need it
    tuned = dict(L=inst.L_factor * c.L, mu=min(inst.mu_factor * c.mu, inst.L_factor * c.L))
    policies = [PolicyRun(name, **(tuned if "mu" in POLICIES[name].reads else {"L": tuned["L"]}))
                for name in names]
    configs = [ExperimentConfig(problem=problem, policies=policies, k=inst.k,
                                seeds=tuple(range(inst.seeds)))]
    if c.mu > 0:
        configs.append(_soe_3_config(inst, tuned))
    for config in filter(None, configs):
        checks = check_bounds(config)
        x1 = config.problem.set.analytic_center()
        for policy in config.policies:
            records = [r for r in checks if r.policy == policy.name]
            Lbar = config.problem.Lbar if POLICIES[policy.name].source == "block" else None
            report = validate(schedule_for(policy, config.problem, config.k, x1), config.k,
                              L=c.L, mu=c.mu, Lbar=Lbar)
            if inst.L_factor == inst.mu_factor == 1.0:
                assert report.passed, report.summary()
            if report.passed:
                assert records and all(r.passed for r in records), (inst, records)
            else:
                assert [r.bound for r in records] == ["schedule validation"], records
