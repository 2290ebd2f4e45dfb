"""The deterministic guarantees as properties over random instances.

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
"""

import json
import math
from typing import NamedTuple

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oevi.geometry import set_from_doc
from oevi.harness import ExperimentConfig, PolicyRun, check_bounds, schedule_for
from oevi.problems import problem_from_json
from oevi.schedules import validate


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
    """The instance as a problem JSON document."""
    n, rng = inst.n, np.random.default_rng(inst.seed)
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
        sizes = np.diff((0,) + inst.cuts + (n,)).tolist()
        set_doc = {"set": "simplex", "blocks": sizes, "demands": list(inst.demands)}
    if inst.at_solution:
        b = -G @ set_from_doc(set_doc, n).analytic_center()
    else:
        b = rng.standard_normal(n)
    return json.dumps({"format": 1, "kind": "affine", "G": G.tolist(), "b": b.tolist(),
                       **set_doc, "sigma": 0.0, "known_solution": None,
                       "block_partition": set_doc.get("blocks"), "seed": inst.seed})


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
