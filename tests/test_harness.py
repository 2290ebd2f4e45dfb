"""Harness tests: config validation and parsing, CSV schema, end-to-end
determinism, aggregation consistency, bound checks, and the CLI surface."""

import contextlib
import dataclasses
import itertools
import json
import logging
import math
import os
import re
import struct
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from oevi import cli, harness
from oevi import problems as problems_module
from oevi.geometry import analytic_center
from oevi.harness import (
    BOUND_CHECKS,
    METRIC_COLUMNS,
    ROW_FIELDS,
    TRAJECTORY_HEADER,
    ConfigError,
    ExperimentConfig,
    PolicyRun,
    aggregate_rows,
    check_bounds,
    checkpoints,
    ensure_reference,
    format_bound_checks,
    load_config,
    run_experiment,
    schedule_for,
    suite_glm,
    suite_traffic,
    trajectory_rows,
    write_aggregate_csv,
    write_trajectory_csv,
)
from oevi.problems import glm_generate, problem_to_json, traffic_generate
from oevi.schedules import POLICIES, POLICY_NAMES, OEGsmviSchedule
from oevi.solvers import RunConfig, oe_run, run, seed_free


def tiny_problem(noise=0.0):
    return traffic_generate(10, 5, 0.5, seed=42)


def tiny_config(tmp_path, policies=None, **kw):
    defaults = dict(
        problem=tiny_problem(),
        policies=policies or [PolicyRun("OE-GSMVI")],
        k=10,
        seeds=(1,),
        output=tmp_path / "out",
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestConfigValidation:
    def test_duplicate_seeds_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            tiny_config(tmp_path, seeds=(1, 1))

    def test_empty_policies_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            ExperimentConfig(problem=tiny_problem(), policies=[], k=10, seeds=(1,))

    def test_bad_k_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            tiny_config(tmp_path, k=0)

    def test_repeated_policy_rejected(self, tmp_path):
        # both runs would write SOE-1_s*.csv and agg_SOE-1.csv
        with pytest.raises(ConfigError, match="SOE-1 is configured more than once"):
            tiny_config(tmp_path, policies=[PolicyRun("SOE-1"), PolicyRun("SOE-1", batch=4)])

    @pytest.mark.parametrize("m", [0, -3])
    def test_nonpositive_batch_rejected(self, tmp_path, m):
        with pytest.raises(ConfigError, match=re.escape(
                f"cannot build policy SOE-1: batch size m must be in [1, inf), got {m}") + "$"):
            tiny_config(tmp_path, policies=[PolicyRun("SOE-1", batch=m)])

    def test_cadence_default(self, tmp_path):
        assert tiny_config(tmp_path, k=500).resolved_cadence() == 1
        assert tiny_config(tmp_path, k=10_000).resolved_cadence() == 100

    @pytest.mark.parametrize("key,value", [("cadence", 0), ("cadence", -4),
                                           ("workers", 0), ("workers", -1)])
    def test_nonpositive_cadence_or_workers_rejected(self, tmp_path, key, value):
        with pytest.raises(ConfigError,
                           match=re.escape(f"{key} must be in [1, inf), got {value}") + "$"):
            tiny_config(tmp_path, **{key: value})

    @pytest.mark.parametrize("value", ["0", "-2", "two"])
    def test_bad_workers_env_rejected(self, tmp_path, monkeypatch, value):
        monkeypatch.setenv(harness.WORKERS_ENV, value)
        cfg = tiny_config(tmp_path)
        with pytest.raises(ConfigError, match=harness.WORKERS_ENV):
            cfg.resolved_workers()
        with pytest.raises(ConfigError, match=harness.WORKERS_ENV):
            run_experiment(cfg)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("policy,partition,match", [
        ("SBOE-GSMVI", (2, 4),
         "policy SBOE-GSMVI: block partition must match the simplex-product structure"),
        ("SBOE-MVI", None, "policy SBOE-MVI: problem has no block partition"),
    ], ids=["mismatched-partition", "no-partition"])
    def test_block_policy_problem_rejected_before_work(self, tmp_path, monkeypatch, capsys,
                                                       policy, partition, match):
        from oevi.geometry import SimplexProduct
        from oevi.problems import AffineSpec, affine_problem

        def no_reference(*args, **kwargs):
            raise AssertionError("reference solved for a rejected config")

        monkeypatch.setattr(harness, "solve_reference", no_reference)
        rng = np.random.default_rng(3)
        A = rng.normal(size=(6, 6))
        spec = AffineSpec(A - A.T + 2 * np.eye(6), rng.normal(size=6))
        problem = affine_problem(spec, SimplexProduct([3, 3], [1, 1]), block_partition=partition)
        with pytest.raises(ConfigError, match=match):
            ExperimentConfig(problem=problem, policies=[PolicyRun(policy)], k=10, seeds=(1,))
        # the CLI reports it as a config error
        (tmp_path / "p.json").write_text(problem_to_json(problem))
        (tmp_path / "exp.ini").write_text(f"[problem]\nkind = json\npath = {tmp_path / 'p.json'}"
                                          f"\n\n[run]\nk = 10\n\n[policy:{policy}]\n")
        assert cli.main(["run", str(tmp_path / "exp.ini")]) == 1
        assert f"config error: {match}" in capsys.readouterr().err

    def test_block_policy_on_a_set_without_split_rejected(self):
        from oevi.geometry import FeasibleSet
        from oevi.problems import AffineSpec, affine_problem

        class Unsplittable(FeasibleSet):
            dim = 2

            def contains(self, x):
                return True

        problem = affine_problem(AffineSpec(np.eye(2), np.ones(2)), Unsplittable(),
                                 block_partition=(1, 1))
        with pytest.raises(ConfigError,
                           match="^policy SBOE-MVI: Unsplittable sets cannot be split into blocks$"):
            ExperimentConfig(problem=problem, policies=[PolicyRun("SBOE-MVI")], k=10)

    @pytest.mark.parametrize("policy,key,match", [
        ("OE-GSMVI", "m = 5",
         "policy OE-GSMVI: m is read only by SOE-1, SOE-2, SOE-3, SOE-4, SOE-MVI, SA, SA-RM"),
        ("SBOE-MVI", "m = 5",
         "policy SBOE-MVI: m is read only by SOE-1, SOE-2, SOE-3, SOE-4, SOE-MVI, SA, SA-RM"),
        ("OE-GSMVI", "recursive_affine = false",
         "policy OE-GSMVI: recursive_affine is read only by SBOE-GSMVI, SBOE-MVI"),
        ("SA", "recursive_affine = false",
         "policy SA: recursive_affine is read only by SBOE-GSMVI, SBOE-MVI"),
        ("OE-GMVI", "mu = 0.1",
         "policy OE-GMVI: mu is read only by OE-GSMVI, SOE-1, SOE-2, SOE-3, SBOE-GSMVI, SA, SA-RM"),
        ("SA", "sigma = 9",
         "policy SA: sigma is read only by SOE-1, SOE-2, SOE-3, SOE-4, SOE-MVI"),
        ("OE-GSMVI", "V1 = 4", "policy OE-GSMVI: V1 is read only by SOE-2"),
        ("SOE-2", "noise_ratio = 7", "policy SOE-2: noise_ratio is read only by SOE-3"),
    ], ids=["m-exact", "m-block", "recursive-exact", "recursive-oracle", "mu-exact",
            "sigma-baseline", "V1-exact", "noise_ratio-constant"])
    def test_override_the_source_never_reads_rejected(self, tmp_path, capsys, policy, key, match):
        # the override would go unused: these once ran with exit 0 and the
        # same CSVs as without it
        path = tmp_path / "exp.ini"
        path.write_text(CONFIG_TEXT.replace("[policy:OE-GSMVI]\n", "")
                        + f"\n[policy:{policy}]\n{key}\n")
        assert cli.main(["run", str(path), "--output", str(tmp_path / "out")]) == 1
        assert capsys.readouterr() == ("", f"config error: {match}\n")
        assert not (tmp_path / "out").exists()

    def test_overrides_accepted_where_their_source_reads_them(self, tmp_path):
        # an in-range value of each override besides L, on each policy: the 23
        # pairs of POLICIES' reads are accepted, where 57 once were, and
        # recursive_affine = true, its default, everywhere
        values = {"mu": 0.01, "sigma": 0.5, "V1": 2.0, "m": 3, "noise_ratio": 0.5,
                  "recursive_affine": False}
        assert set(values) == set(harness.POLICY_KEYS) - {"L"}
        accepted = set()
        for name, (key, value) in itertools.product(POLICY_NAMES, values.items()):
            with contextlib.suppress(ConfigError):
                tiny_config(tmp_path, policies=[PolicyRun(name, **{harness.POLICY_KEYS[key][0]:
                                                                   value})])
                accepted.add((name, key))
        assert accepted == {(name, key) for name in POLICY_NAMES for key in POLICIES[name].reads}
        assert len(accepted) == 23
        policies = [PolicyRun(name, recursive_affine=True) for name in POLICY_NAMES]
        assert tiny_config(tmp_path, policies=policies).policies == policies

    @pytest.mark.parametrize("command", ["run", "check"])
    def test_each_command_splits_the_partition_once_per_problem(self, tmp_path, monkeypatch,
                                                                command):
        # one split for the config's problem: ensure_reference attaches x* to
        # that problem, and no block-policy check or block run splits again
        from oevi.geometry import SimplexProduct

        calls = []
        split = SimplexProduct.split
        monkeypatch.setattr(SimplexProduct, "split",
                            lambda fs, sizes: calls.append(sizes) or split(fs, sizes))
        ini = str(Path(__file__).resolve().parents[1] / "scripts" / "golden_traffic.ini")
        argv = [command, ini] + (["--output", str(tmp_path / "out")] if command == "run" else [])
        assert cli.main(argv) == 0
        assert len(calls) == 1

    def test_checkpoints_include_endpoints(self):
        assert checkpoints(10, 1) == list(range(11))
        assert checkpoints(10, 4) == [0, 4, 8, 10]


class TestRunExperiment:
    def test_row_count_and_header(self, tmp_path):
        cfg = tiny_config(tmp_path)
        run_experiment(cfg)
        csv = (tmp_path / "out" / "OE-GSMVI_s1.csv").read_text().splitlines()
        assert csv[0] == TRAJECTORY_HEADER
        assert len(csv) == 12  # header + t = 0..10

    def test_rerun_byte_identical(self, tmp_path):
        cfg1 = tiny_config(tmp_path, output=tmp_path / "a",
                           policies=[PolicyRun("OE-GSMVI"), PolicyRun("SOE-1")])
        cfg2 = tiny_config(tmp_path, output=tmp_path / "b",
                           policies=[PolicyRun("OE-GSMVI"), PolicyRun("SOE-1")])
        run_experiment(cfg1)
        run_experiment(cfg2)
        for name in ("OE-GSMVI_s1.csv", "SOE-1_s1.csv", "agg_OE-GSMVI.csv", "agg_SOE-1.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_aggregate_recomputable_from_trajectory_rows(self, tmp_path):
        cfg = tiny_config(tmp_path, seeds=(1, 2, 3), policies=[PolicyRun("SOE-1")])
        aggs = run_experiment(cfg)
        # parse the trajectory CSVs back and re-aggregate
        per_seed = []
        for seed in (1, 2, 3):
            lines = (tmp_path / "out" / f"SOE-1_s{seed}.csv").read_text().splitlines()
            header = lines[0].split(",")
            rows = []
            for line in lines[1:]:
                vals = dict(zip(header, line.split(",")))
                rows.append(
                    {
                        "t": int(vals["t"]),
                        "V_to_solution": float(vals["V_to_solution"]) if vals["V_to_solution"] else None,
                        "residual_exact": None,
                        "residual_certificate": float(vals["residual_certificate"]) if vals["residual_certificate"] else None,
                        "gap_surrogate": float(vals["gap_surrogate"]) if vals["gap_surrogate"] else None,
                        "weak_gap_exact": None,
                        "movement_sq": float(vals["movement_sq"]) if vals["movement_sq"] else None,
                        "oracle_calls": int(vals["oracle_calls"]),
                    }
                )
            per_seed.append(rows)
        redone = aggregate_rows("SOE-1", per_seed)
        path = tmp_path / "redone.csv"
        write_aggregate_csv(path, redone)
        original = (tmp_path / "out" / "agg_SOE-1.csv").read_bytes()
        # timing column is empty in both (timing disabled)
        assert path.read_bytes() == original

    def test_timing_column_empty_by_default(self, tmp_path):
        cfg = tiny_config(tmp_path)
        run_experiment(cfg)
        lines = (tmp_path / "out" / "OE-GSMVI_s1.csv").read_text().splitlines()
        assert all(line.endswith(",") for line in lines[1:])

    def test_timing_column_filled_when_enabled(self, tmp_path):
        cfg = tiny_config(tmp_path, timing=True)
        run_experiment(cfg)
        lines = (tmp_path / "out" / "OE-GSMVI_s1.csv").read_text().splitlines()
        assert not lines[-1].endswith(",")

    def test_deterministic_policy_identical_across_seeds(self, tmp_path):
        cfg = tiny_config(tmp_path, seeds=(1, 2))
        aggs = run_experiment(cfg)
        agg = aggs["OE-GSMVI"]
        assert agg.n_seeds == 2
        assert all(se == 0.0 for se in agg.se["V_to_solution"])

    def test_seed_free_run_aggregates_to_its_own_values(self):
        # numpy's mean of three copies of this value is one ulp above it, and
        # their sample deviation is 3.07e-19 * sqrt(3), not 0
        v = 0.0037023757711315665
        row = {**dict.fromkeys(METRIC_COLUMNS), "t": 78, "V_to_solution": v,
               "oracle_calls": 79}
        agg = aggregate_rows("OE-GSMVI", [[row]] * 3)
        assert agg.n_seeds == 3
        assert agg.mean["V_to_solution"] == [v]
        assert agg.se["V_to_solution"] == [0.0]
        # a seeded policy's runs still average, also where they agree
        agg = aggregate_rows("SOE-1", [[row], [row], [{**row, "V_to_solution": 2 * v}]])
        assert agg.mean["V_to_solution"] == [pytest.approx(4 * v / 3, rel=1e-15)]
        assert agg.se["V_to_solution"][0] > 0.0

    def test_workers_parallel_same_results(self, tmp_path):
        cfg1 = tiny_config(tmp_path, output=tmp_path / "w1", seeds=(1, 2, 3, 4))
        cfg2 = tiny_config(tmp_path, output=tmp_path / "w4", seeds=(1, 2, 3, 4), workers=4)
        run_experiment(cfg1)
        run_experiment(cfg2)
        for seed in (1, 2, 3, 4):
            a = (tmp_path / "w1" / f"OE-GSMVI_s{seed}.csv").read_bytes()
            b = (tmp_path / "w4" / f"OE-GSMVI_s{seed}.csv").read_bytes()
            assert a == b


def count_engine_calls(monkeypatch) -> list[int]:
    """Record the seed of every engine call the harness makes."""
    seeds = []
    engine = harness.run

    def counted(problem, schedule, x1, config, **kwargs):
        seeds.append(config.seed)
        return engine(problem, schedule, x1, config, **kwargs)

    monkeypatch.setattr(harness, "run", counted)
    return seeds


def run_one(policy, problem, schedule, x1, k, seed, ts=None):
    """The engine call the harness makes for one (policy, seed) run."""
    config = RunConfig(policy.name, k, seed, policy.batch, checkpoints=ts)
    return run(problem, schedule, x1, config, recursive_affine=policy.recursive_affine)


def glm_problem():
    return glm_generate(5, "hinge", 2.0, 0.1, seed=3)  # has a stochastic oracle


class TestSeedFreeRuns:
    @pytest.mark.parametrize("policy,make,runs", [
        ("OE-GSMVI", tiny_problem, 1),
        ("SBOE-GSMVI", tiny_problem, 3),
        ("SOE-MVI", tiny_problem, 1),  # no oracle: the exact operator, noiseless
        ("SOE-MVI", glm_problem, 3),
    ])
    def test_engine_calls(self, tmp_path, monkeypatch, policy, make, runs):
        problem = make()
        assert seed_free(policy, problem) == (runs == 1)
        seeds = count_engine_calls(monkeypatch)
        cfg = tiny_config(tmp_path, problem=problem, policies=[PolicyRun(policy)],
                          seeds=(1, 2, 3))
        aggs = run_experiment(cfg)
        assert len(seeds) == runs
        assert aggs[policy].n_seeds == 3
        for seed in (1, 2, 3):
            rows = (tmp_path / "out" / f"{policy}_s{seed}.csv").read_text().splitlines()[1:]
            assert rows and all(r.startswith(f"{policy}_s{seed},{policy},{seed},") for r in rows)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_csvs_match_per_seed_runs(self, tmp_path, workers):
        problem = ensure_reference(tiny_problem())
        policies = [PolicyRun("OE-GMVI"), PolicyRun("SOE-1", batch=2),
                    PolicyRun("SBOE-GSMVI"), PolicyRun("SA")]
        cfg = tiny_config(tmp_path, problem=problem, policies=policies, k=12, cadence=5,
                          seeds=(4, 1, 7), workers=workers)
        run_experiment(cfg)
        x1 = analytic_center(problem.set)
        ts = checkpoints(12, 5)
        for policy in policies:
            schedule = schedule_for(policy, problem, 12, x1)
            per_seed = []
            for seed in cfg.seeds:
                traj = run_one(policy, problem, schedule, x1, 12, seed)
                rows = trajectory_rows(traj, problem, ts)
                per_seed.append(rows)
                run_id = f"{policy.name}_s{seed}"
                write_trajectory_csv(tmp_path / "direct.csv", run_id, policy.name, seed, rows)
                assert ((tmp_path / "out" / f"{run_id}.csv").read_bytes()
                        == (tmp_path / "direct.csv").read_bytes()), run_id
            write_aggregate_csv(tmp_path / "direct.csv", aggregate_rows(policy.name, per_seed))
            assert ((tmp_path / "out" / f"agg_{policy.name}.csv").read_bytes()
                    == (tmp_path / "direct.csv").read_bytes()), policy.name

    def test_check_bounds_matches_per_seed_runs(self, monkeypatch):
        problem = ensure_reference(tiny_problem())
        assert problem.oracle is None
        cfg = ExperimentConfig(problem=problem, policies=[PolicyRun("SOE-4")], k=40,
                               seeds=(1, 2, 3, 4))
        seeds = count_engine_calls(monkeypatch)
        checks = check_bounds(cfg)
        assert seeds == [1]
        assert checks[0].detail == "4 seeds"
        # the same checks from one run per seed
        seeds.clear()
        monkeypatch.setattr(harness, "seed_free", lambda policy, problem: False)
        assert check_bounds(cfg) == checks
        assert seeds == [1, 2, 3, 4]

    def test_unchecked_policies_run_nothing(self, monkeypatch):
        # SOE-3 ends before its first epoch, SA-RM has no bound, and the GLM
        # problem has no exact gap for SOE-MVI
        cfg = ExperimentConfig(problem=glm_generate(10, "hinge", 100.0, 1.0, seed=3),
                               policies=[PolicyRun("SOE-3"), PolicyRun("SA-RM"),
                                         PolicyRun("SOE-MVI")], k=50, seeds=(1, 2))
        seeds = count_engine_calls(monkeypatch)
        checks = check_bounds(cfg)
        assert [c.detail.split(":")[0] for c in checks] == [
            "skipped", "no bound attached to this policy", "skipped"]
        assert seeds == []

    def test_check_memory_flat_in_seed_count(self):
        # check_bounds holds no trajectory beyond the run it reads and the
        # one being made, whatever the seed count
        problem = ensure_reference(glm_generate(20, "hinge", 100.0, 1.0, seed=3))

        def peak(n_seeds):
            cfg = ExperimentConfig(problem=problem, policies=[PolicyRun("SOE-1")], k=1000,
                                   seeds=tuple(range(1, n_seeds + 1)))
            tracemalloc.start()
            try:
                check_bounds(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        two, twelve = peak(2), peak(12)
        assert twelve <= 1.5 * two, (two, twelve)

    def test_gap_bounds_skipped_without_exact_gap(self):
        # an affine problem on the whole space has no exact weak gap
        from oevi.geometry import FullSpace
        from oevi.problems import AffineSpec, affine_problem

        rng = np.random.default_rng(5)
        A = rng.normal(size=(6, 6))
        spec = AffineSpec(A - A.T + 2 * np.eye(6), rng.normal(size=6))
        problem = affine_problem(spec, FullSpace(6), block_partition=(3, 3))
        cfg = ExperimentConfig(problem=problem, k=20, seeds=(1, 2), policies=[
            PolicyRun("OE-MVI"), PolicyRun("SOE-MVI"), PolicyRun("SBOE-MVI"),
        ])
        checks = check_bounds(cfg)
        assert [(c.policy, c.bound) for c in checks] == [
            ("OE-MVI", "averaged-iterate gap"),
            ("SOE-MVI", "expected tail-average gap"),
            ("SBOE-MVI", "expected weighted-average gap"),
        ]
        assert all(c.passed and c.detail == "skipped: exact gap needs bounded affine"
                   for c in checks)


class TestValidationWarning:
    def test_warn_mode_logs_and_runs(self, tmp_path, monkeypatch, caplog, capsys):
        validate = harness.validate
        # judged at a far larger L, the schedule's stepsizes break its conditions
        monkeypatch.setattr(harness, "validate",
                            lambda schedule, k: validate(schedule, k, L=100 * schedule.L))
        cfg = tiny_config(tmp_path, validate_policies="warn")
        with caplog.at_level(logging.WARNING, logger="oevi.harness"):
            aggs = run_experiment(cfg)
        assert "OE-GSMVI" in aggs
        [record] = caplog.records
        assert record.levelno == logging.WARNING
        assert "policy OE-GSMVI: FAIL" in record.getMessage()
        assert capsys.readouterr().out == ""

    def test_fail_mode_raises(self, tmp_path, monkeypatch):
        validate = harness.validate
        monkeypatch.setattr(harness, "validate",
                            lambda schedule, k: validate(schedule, k, L=100 * schedule.L))
        with pytest.raises(ConfigError, match="schedule validation failed"):
            run_experiment(tiny_config(tmp_path))


def _row_bytes(rows):
    """Each row's fields, floats as their IEEE bytes."""
    return [[struct.pack("<d", v) if isinstance(v, float) else v
             for v in (row[f] for f in ROW_FIELDS)] for row in rows]


class TestKeptOperatorValues:
    @pytest.mark.parametrize("cadence", [3, 7])
    @pytest.mark.parametrize("make,policy", [
        (tiny_problem, PolicyRun("OE-GMVI")),  # exact operator
        (glm_problem, PolicyRun("SOE-MVI", batch=4)),  # noisy oracle
        (glm_problem, PolicyRun("SOE-4")),
        (tiny_problem, PolicyRun("SA")),  # the noiseless oracle wrap
        (tiny_problem, PolicyRun("SBOE-MVI")),  # block-recursive affine update
        (tiny_problem, PolicyRun("SBOE-MVI", recursive_affine=False)),
    ], ids=["exact", "oracle-m4", "oracle-SOE-4", "noiseless-oracle", "block-affine",
            "block-operator"])
    def test_grid_run_rows_match_keep_all_run(self, make, policy, cadence):
        problem = ensure_reference(make())
        x1 = analytic_center(problem.set)
        k = 40
        ts = checkpoints(k, cadence)
        schedule = schedule_for(policy, problem, k, x1)
        full = run_one(policy, problem, schedule, x1, k, 5)
        kept = run_one(policy, problem, schedule, x1, k, 5, ts)
        assert sorted(full.ops) == list(range(k + 1))
        assert set(kept.ops) == {s for t in ts[1:] for s in (t - 1, t)}
        for t, F in kept.ops.items():
            assert F.tobytes() == full.ops[t].tobytes(), t
        assert (_row_bytes(trajectory_rows(kept, problem, ts))
                == _row_bytes(trajectory_rows(full, problem, ts)))

    def test_run_memory_is_the_iterates(self):
        # with the grid passed down, the largest allocation is xs; keeping every
        # operator value as well would double the peak
        problem = ensure_reference(traffic_generate(100, 5, 0.005, seed=7))
        k = 3000
        cfg = ExperimentConfig(problem=problem, policies=[PolicyRun("OE-GSMVI")], k=k,
                               seeds=(1,), cadence=30, workers=1, compute_reference=False)
        xs_bytes = (k + 2) * problem.dim * 8
        tracemalloc.start()
        try:
            run_experiment(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * xs_bytes, (peak, xs_bytes)


CONFIG_TEXT = """
[problem]
kind = traffic
n = 10
blocks = 5
d_minus = 0.5
seed = 42

[run]
k = 10
seeds = 1, 2
cadence = 1

[policy:OE-GSMVI]

[policy:SOE-1]
m = 2
"""


class TestMetricInputs:
    @pytest.mark.parametrize("make", [
        lambda: traffic_generate(10, 5, 0.5, seed=42),  # simplex product
        lambda: glm_generate(5, "hinge", 2.0, 0.1, seed=3),  # ball
    ], ids=["simplex", "ball"])
    def test_one_operator_call_per_checkpoint(self, make):
        p = make()
        c = p.constants
        traj = oe_run(p, OEGsmviSchedule(c.L, c.mu), analytic_center(p.set), 20)
        calls = []

        def counted(x, _F=p.operator):
            calls.append(1)
            return _F(x)

        ts = checkpoints(20, 3)
        rows = trajectory_rows(traj, dataclasses.replace(p, operator=counted), ts)
        assert len(calls) == len(ts)
        assert all(row["residual_certificate"] is not None for row in rows[1:])
        assert all(row["gap_surrogate"] is not None for row in rows)

    def test_spectrum_computed_once(self, tmp_path, monkeypatch):
        # L and Lbar come from eigensolves of Gram matrices too, so only the
        # solves of G + G^T count as spectrum computations
        eigvalsh = np.linalg.eigvalsh
        solved = []

        def counted(a, *args, **kwargs):
            solved.append(np.array(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        problem = tiny_problem()
        G = problem.affine.G

        def spectrum_solves():
            return sum(np.array_equal(a, G + G.T) for a in solved)

        assert spectrum_solves() == 1  # at construction, for mu
        built = len(solved)
        cfg = ExperimentConfig(
            problem=problem, policies=[PolicyRun("OE-MVI"), PolicyRun("SBOE-MVI")],
            k=10, seeds=(1, 2), output=tmp_path / "out", weak_gap=True,
        )
        aggs = run_experiment(cfg)
        assert aggs["OE-MVI"].mean["weak_gap_exact"][-1] is not None
        assert spectrum_solves() == 1
        # the run may solve block Grams (2 x 2 here), never an n x n matrix
        assert all(a.shape != G.shape for a in solved[built:])


class TestConfigFile:
    def test_load_and_run(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(CONFIG_TEXT)
        cfg = load_config(path)
        assert cfg.k == 10
        assert cfg.seeds == (1, 2)
        assert [p.name for p in cfg.policies] == ["OE-GSMVI", "SOE-1"]
        assert cfg.policies[1].batch == 2
        cfg.output = tmp_path / "out"
        aggs = run_experiment(cfg)
        assert set(aggs) == {"OE-GSMVI", "SOE-1"}

    def test_json_problem_reference(self, tmp_path):
        p = tiny_problem()
        (tmp_path / "prob.json").write_text(problem_to_json(p))
        path = tmp_path / "exp.ini"
        path.write_text(
            "[problem]\nkind = json\npath = %s\n\n[run]\nk = 5\nseeds = 1\n\n[policy:OE-GSMVI]\n"
            % (tmp_path / "prob.json")
        )
        cfg = load_config(path)
        np.testing.assert_array_equal(cfg.problem.affine.G, p.affine.G)

    def test_missing_sections_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[run]\nk = 5\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.ini")

    @pytest.mark.parametrize("text", [
        CONFIG_TEXT + "\n[policy:SOE-1]\n",
        "k = 5\n" + CONFIG_TEXT,
        CONFIG_TEXT.replace("cadence = 1", "output = out%x"),
    ], ids=["repeated-section", "no-section-header", "bad-interpolation"])
    def test_malformed_file_rejected(self, tmp_path, text):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        with pytest.raises(ConfigError, match="malformed config file"):
            load_config(path)


REPO = Path(__file__).resolve().parents[1]


def readme_config_text() -> str:
    """The README's ``ini`` block, verbatim."""
    return re.search(r"```ini\n(.*?)```", (REPO / "README.md").read_text(), re.S).group(1)


# ExperimentConfig's defaults, and each pinned config's problem and other fields
CONFIG_DEFAULTS = dict(seeds=(0,), cadence=None, output=None, timing=False, weak_gap=False,
                       workers=None, compute_reference=True, validate_policies="fail")
PINNED_CONFIGS = {
    "golden_traffic.ini": (lambda: traffic_generate(100, 5, 0.005, seed=7), dict(
        k=400, seeds=(1, 2), cadence=5, weak_gap=True,
        policies=[PolicyRun("OE-GMVI"), PolicyRun("OE-MVI"), PolicyRun("SOE-MVI"),
                  PolicyRun("SBOE-MVI"), PolicyRun("SA"),
                  PolicyRun("SBOE-GSMVI", recursive_affine=False)])),
    "golden_glm.ini": (lambda: glm_generate(20, "hinge", 100.0, 1.0, seed=3), dict(
        k=600, seeds=(1, 2, 3),
        policies=[PolicyRun("SOE-MVI", batch=4), PolicyRun("SOE-1"), PolicyRun("SOE-2"),
                  PolicyRun("SOE-3"), PolicyRun("SOE-4"), PolicyRun("SA-RM", batch=2),
                  PolicyRun("OE-GMVI"), PolicyRun("OE-GSMVI")])),
    "golden_glm_sparse.ini": (lambda: glm_generate(20, "hinge", 100.0, 1.0, seed=3), dict(
        k=600, seeds=(1, 2, 3), cadence=7,
        policies=[PolicyRun("SOE-MVI", batch=4), PolicyRun("SOE-4")])),
    "README.md": (lambda: traffic_generate(200, 5, 0.01, seed=7), dict(
        k=2000, seeds=(1, 2, 3), cadence=10, output=Path("out/demo"),
        policies=[PolicyRun("OE-GSMVI"), PolicyRun("SOE-1", L=0.5, batch=100)])),
}

GLM_RAMP_TEXT = "[problem]\nkind = glm-ramp\nn = 5\nseed = 1\n\n[run]\nk = 5\n\n[policy:SA]\n"


class TestConfigKeys:
    def test_readme_key_table_matches_the_code(self):
        # every key is in README's "Every key" table, and each [policy:NAME]
        # row names exactly the policies that read its key
        text = (REPO / "README.md").read_text()
        table = re.search(r"Every key, .*?\n\n(\|.*?)\n\n", text, re.S).group(1)
        keys = {*harness.RUN_KEYS, *harness.POLICY_KEYS}
        keys.update(*harness.PROBLEM_KEYS.values())
        assert [key for key in sorted(keys) if f"`{key}`" not in table] == []
        rows = table[table.index("| `[policy:NAME]` |"):].splitlines()
        row_keys = [re.search(r"`(\w+)`", row.split("|")[2]).group(1) for row in rows]
        assert row_keys == list(harness.POLICY_KEYS)
        for key, row in zip(row_keys, rows):
            named = {name for name in POLICY_NAMES
                     if re.search(rf"(?<![\w-]){re.escape(name)}(?![\w-])", row)}
            readers = ({name for name in POLICY_NAMES if key in POLICIES[name].reads}
                       if key != "L" else set())  # every policy reads L, and its row says so
            assert named == readers, row
        assert "read by every policy" in rows[0]

    @pytest.mark.parametrize("name", list(PINNED_CONFIGS))
    def test_parsed_config_pinned(self, tmp_path, name):
        path = REPO / "scripts" / name
        if name == "README.md":
            path = tmp_path / "readme.ini"
            path.write_text(readme_config_text())
        make, fields = PINNED_CONFIGS[name]
        cfg = load_config(path)
        assert problem_to_json(cfg.problem) == problem_to_json(make())
        assert {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)
                if f.name != "problem"} == {**CONFIG_DEFAULTS, **fields}

    def test_readme_example_runs(self, tmp_path, capsys):
        # its inline ; comments are comments, not part of the values
        path = tmp_path / "readme.ini"
        path.write_text(readme_config_text())
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--k", "3", "--output", str(out)]) == 0
        assert (out / "agg_SOE-1.csv").exists()

    def test_every_key_sets_its_field(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(CONFIG_TEXT.replace("cadence = 1", "cadence = 2\noutput =\ntiming = yes\n"
                                            "weak_gap = on\nworkers = 2\nvalidate = warn\n"
                                            "reference = false")
                        .replace("m = 2", "m = 2\nL = 3\nmu = 0.5\nsigma = 2\n\n"
                                 "[policy:SOE-2]\nV1 = 4\n\n[policy:SOE-3]\nnoise_ratio = 0.1\n\n"
                                 "[policy:SBOE-GSMVI]\nrecursive_affine = no"))
        cfg = load_config(path)
        assert (cfg.cadence, cfg.output, cfg.timing, cfg.weak_gap, cfg.workers,
                cfg.validate_policies, cfg.compute_reference) == (2, None, True, True, 2,
                                                                  "warn", False)
        assert cfg.policies[1:] == [PolicyRun("SOE-1", L=3.0, mu=0.5, sigma=2.0, batch=2),
                                    PolicyRun("SOE-2", V1=4.0), PolicyRun("SOE-3", noise_ratio=0.1),
                                    PolicyRun("SBOE-GSMVI", recursive_affine=False)]

    @pytest.mark.parametrize("argv, text, name", [
        (["run"], CONFIG_TEXT.replace("m = 2", "batch = 50"), "'batch' in [policy:SOE-1]"),
        (["run"], CONFIG_TEXT.replace("cadence = 1", "weakgap = true"), "'weakgap' in [run]"),
        (["run"], CONFIG_TEXT.replace("seed = 42", "seed = 42\nnum_blocks = 9"),
         "'num_blocks' in [problem]"),
        (["run"], CONFIG_TEXT + "\n[polciy:SA]\n", "unknown section [polciy:SA]"),
        (["run"], "[DEFAULT]\nk = 7\n" + CONFIG_TEXT, "unknown section [DEFAULT]"),
        (["run"], GLM_RAMP_TEXT.replace("n = 5", "n = 5\nd_minus = 0.1"),
         "'d_minus' in [problem]"),
        (["run", "--seeds", ""], CONFIG_TEXT, "at least one seed"),
        (["suite", "glm-ramp", "--k", "5", "--sizes", "7,7", "--d-minus", "9"], None,
         "suite glm-ramp takes no --d-minus, --sizes"),
        (["suite", "traffic", "--k", "5", "--sizes", "10", "--n", "999"], None,
         "suite traffic takes no --n"),
    ], ids=["policy-key", "run-key", "problem-key", "section", "default-section",
            "ramp-d_minus", "empty-seeds", "glm-suite-flags", "traffic-suite-flag"])
    def test_unknown_input_is_a_config_error(self, tmp_path, capsys, argv, text, name):
        # each of these was once ignored and the run went ahead
        out = tmp_path / "out"
        if text is not None:
            (tmp_path / "exp.ini").write_text(text)
            argv = [argv[0], str(tmp_path / "exp.ini"), *argv[1:]]
        assert cli.main([*argv, "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and name in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "check", "suite"])
    def test_malformed_seeds_exit_1(self, tmp_path, capsys, command):
        (tmp_path / "exp.ini").write_text(CONFIG_TEXT)
        target = "traffic" if command == "suite" else str(tmp_path / "exp.ini")
        assert cli.main([command, target, "--seeds", "1,x"]) == 1
        assert "invalid literal for int()" in capsys.readouterr().err


class TestCheckBounds:
    def test_linear_rate_and_movement_pass(self, tmp_path):
        cfg = tiny_config(
            tmp_path,
            policies=[PolicyRun("OE-GSMVI"), PolicyRun("OE-GMVI")],
            k=100,
        )
        checks = check_bounds(cfg)
        assert all(c.passed for c in checks), [c for c in checks if not c.passed]

    def test_linear_rate_reports_its_slack(self, tmp_path):
        # measured is max_t V(x_{t+1}, x*) / bound_t, compared with 1
        [check] = check_bounds(tiny_config(tmp_path))
        assert check.bound == "linear-rate distance" and check.passed
        assert 0.0 < check.measured <= 1.0
        assert check.limit == 1.0

    def test_every_bounded_policy_has_a_check(self):
        assert set(POLICY_NAMES) - set(BOUND_CHECKS) == {"SA", "SA-RM"}
        assert set(BOUND_CHECKS) <= set(POLICY_NAMES)

    def test_corrupted_schedule_fails_validation(self, tmp_path):
        # L far below the true Lipschitz constant: gamma is too large for the
        # theorem conditions at the problem's actual constants
        cfg = tiny_config(
            tmp_path,
            policies=[PolicyRun("OE-GSMVI", L=0.6)],
            k=50,
        )
        checks = check_bounds(cfg)
        assert any(not c.passed and c.bound == "schedule validation" for c in checks)

    def test_gap_family_bounds(self):
        import dataclasses

        rng = np.random.default_rng(17)
        n = 8
        A = rng.normal(size=(n, n))
        G = A - A.T  # skew: monotone with bounded set, exact gap available
        b = rng.uniform(0, 1, n)
        from oevi.geometry import SimplexProduct
        from oevi.problems import AffineSpec, affine_problem

        fs = SimplexProduct([4, 4], [1.0, 1.0])
        p = affine_problem(AffineSpec(G, b), fs, noise_sigma=0.3, block_partition=(4, 4))
        cfg = ExperimentConfig(
            problem=p,
            policies=[PolicyRun("SOE-MVI"), PolicyRun("SBOE-MVI"), PolicyRun("OE-MVI")],
            k=400,
            seeds=tuple(range(1, 13)),
            compute_reference=False,
        )
        checks = check_bounds(cfg)
        assert len(checks) == 3
        assert all(c.passed for c in checks), [c for c in checks if not c.passed]

    def test_box_block_gap_bound(self):
        # a box problem read back from JSON, split into two blocks
        from oevi.geometry import Box
        from oevi.problems import AffineSpec, affine_problem, problem_from_json

        rng = np.random.default_rng(23)
        n = 6
        A = rng.normal(size=(n, n))
        spec = AffineSpec(np.eye(n) + 0.5 * (A - A.T), rng.normal(size=n))
        p = affine_problem(spec, Box(-np.ones(n), np.ones(n)), block_partition=(3, 3))
        cfg = ExperimentConfig(problem=problem_from_json(problem_to_json(p)),
                               policies=[PolicyRun("SBOE-MVI"), PolicyRun("OE-MVI")],
                               k=200, seeds=(1, 2))
        checks = {c.policy: c for c in check_bounds(cfg)}
        sboe = checks["SBOE-MVI"]
        assert sboe.bound == "expected weighted-average gap"
        assert math.isfinite(sboe.measured) and math.isfinite(sboe.limit)
        assert all(c.passed for c in checks.values()), checks

    def test_restart_halving_skipped_before_first_epoch(self):
        cfg = ExperimentConfig(problem=glm_generate(10, "hinge", 100.0, 1.0, seed=3),
                               policies=[PolicyRun("SOE-3")], k=50, seeds=(1, 2))
        assert format_bound_checks(check_bounds(cfg)) == (
            "[PASS] SOE-3: epoch halving skipped: k = 50 ends before the first "
            "epoch end K_1 = 128")

    def test_restart_halving_refuses_a_v1_override(self, tmp_path, capsys):
        # with noise_ratio given, SOE-3 sizes its epochs without V1; a V1
        # override was once accepted and left the halving limits unchanged
        path = tmp_path / "exp.ini"
        path.write_text("[problem]\nkind = glm-hinge\nn = 10\nseed = 3\n\n[run]\nk = 200\n"
                        "seeds = 1, 2\n\n[policy:SOE-3]\nnoise_ratio = 1\nV1 = 1e6\n")
        assert cli.main(["check", str(path)]) == 1
        assert capsys.readouterr() == ("", "config error: policy SOE-3: V1 is read only by SOE-2\n")

    def test_restart_halving_from_the_sized_v1_at_the_solution(self):
        # x1 = x*: V(x1, x*) = 0, so the epochs' own V1, sigma^2 / (mu^2 noise_ratio),
        # is halved; V = 0 once failed the noise the first epoch leaves behind
        from oevi.geometry import Box
        from oevi.problems import AffineSpec, affine_problem

        G = np.diag([1.0, 2.0, 3.0, 4.0])
        box = Box(-np.ones(4), np.ones(4) * 2.0)
        problem = affine_problem(AffineSpec(G, -G @ box.analytic_center()), box,
                                 noise_sigma=0.1, seed=1)
        cfg = ExperimentConfig(problem=problem, policies=[PolicyRun("SOE-3", noise_ratio=2.0)],
                               k=300, seeds=(1, 2, 3))
        checks = check_bounds(cfg)
        assert checks and all(c.passed for c in checks), checks
        assert checks[0].limit >= 0.1**2 / (1.0**2 * 2.0) / 2

    def test_soe_4_skipped_at_one_step(self, tmp_path, capsys, monkeypatch):
        # R is uniform on {2, ..., k}, so k = 1 leaves nothing to check and
        # nothing to run; it once ended in "error: k must be in [2, inf), got 1"
        made = []
        monkeypatch.setattr(harness, "run", lambda *args, **kw: made.append(args))
        path = tmp_path / "exp.ini"
        path.write_text("[problem]\nkind = glm-hinge\nn = 5\nseed = 1\n\n"
                        "[run]\nk = 1\n\n[policy:SOE-4]\n")
        assert cli.main(["check", str(path)]) == 0
        assert capsys.readouterr() == ("[PASS] SOE-4: expected squared residual skipped: "
                                       "k = 1 leaves no output index R >= 2\n", "")
        assert made == []

    def test_stochastic_mean_bound(self, tmp_path):
        p = tiny_problem()
        import dataclasses

        noisy = dataclasses.replace(
            p,
            oracle=lambda x, rng, m=1: p.operator(x)
            + rng.standard_normal((m, p.dim)).mean(axis=0) * (0.5 / math.sqrt(p.dim)),
            constants=dataclasses.replace(p.constants, sigma=0.5),
        )
        cfg = ExperimentConfig(
            problem=noisy,
            policies=[PolicyRun("SOE-1")],
            k=300,
            seeds=tuple(range(1, 21)),
        )
        checks = check_bounds(cfg)
        assert all(c.passed for c in checks)


class TestCheckRunMemory:
    def test_only_certificate_checks_keep_operator_values(self, monkeypatch):
        trajs = {}
        engine = harness.run

        def recorded(problem, schedule, x1, config, **kwargs):
            traj = engine(problem, schedule, x1, config, **kwargs)
            trajs[config.policy] = traj
            return traj

        monkeypatch.setattr(harness, "run", recorded)
        cfg = ExperimentConfig(problem=ensure_reference(tiny_problem()), k=40, seeds=(1,),
                               policies=[PolicyRun("OE-GSMVI"), PolicyRun("OE-GMVI"),
                                         PolicyRun("SOE-1")])
        checks = check_bounds(cfg)
        assert [c.policy for c in checks] == ["OE-GSMVI", "OE-GMVI", "OE-GMVI", "SOE-1"]
        assert trajs["OE-GSMVI"].ops == {} and trajs["SOE-1"].ops == {}
        assert sorted(trajs["OE-GMVI"].ops) == list(range(41))


class TestSuites:
    def test_traffic_suite_tiny(self, tmp_path):
        report = suite_traffic(sizes=(20, 40), d_minus=0.5, seeds=(1, 2), k=60,
                               output=tmp_path / "traffic")
        # timing assertion skipped below the size threshold; structural files exist
        assert (tmp_path / "traffic" / "timing.csv").exists()
        assert (tmp_path / "traffic" / "n20" / "OE-GSMVI_s1.csv").exists()
        assert (tmp_path / "traffic" / "n40" / "agg_SBOE-GSMVI.csv").exists()
        for label, ok, detail in report.assertions:
            assert ok, (label, detail)

    def test_traffic_suite_deterministic(self, tmp_path):
        for d in ("r1", "r2"):
            suite_traffic(sizes=(20,), d_minus=0.5, seeds=(1,), k=30,
                          output=tmp_path / d)
        a = sorted((tmp_path / "r1").rglob("*.csv"))
        b = sorted((tmp_path / "r2").rglob("*.csv"))
        for fa, fb in zip(a, b):
            if fa.name == "timing.csv":
                continue
            assert fa.read_bytes() == fb.read_bytes(), fa.name

    def test_glm_suite_tiny(self, tmp_path):
        report = suite_glm(
            "ramp", seeds=(1,), n=10, k=40, output=tmp_path / "glm",
            radius_grid=(2.0, 4.0),
        )
        assert report.passed, report.summary()
        assert (tmp_path / "glm" / "ramp_R2" / "agg_SOE-1.csv").exists()


    @pytest.mark.parametrize("link, kwargs", [
        ("hinge", dict(n=0)), ("nosuch", dict(n=10)), ("hinge", dict(k=0)),
        ("hinge", dict(seeds=(1, 1))), ("ramp", dict(seeds=(1, 1))), ("ramp", dict(seeds=())),
        ("hinge", dict(d_minus_grid=(0.1, 0.01, 0.1))), ("ramp", dict(radius_grid=(2.0, 2.0))),
        ("ramp", dict(radius_grid=(2.0, 2.0000001))),
    ], ids=["hinge-0", "nosuch-10", "hinge-k0", "hinge-repeated-seeds", "ramp-repeated-seeds",
            "ramp-no-seeds", "hinge-repeated-d-minus", "ramp-repeated-radius",
            "ramp-radii-print-alike"])
    def test_glm_suite_bad_input_leaves_no_directory(self, tmp_path, monkeypatch, link, kwargs):
        seeds = count_engine_calls(monkeypatch)
        out = tmp_path / "glm"
        with pytest.raises(ConfigError):
            suite_glm(link, **{"n": 10, "k": 5, **kwargs}, output=out)
        assert not out.exists()
        assert seeds == []

    @pytest.mark.parametrize("suite, kwargs, match", [
        (suite_glm, dict(link="hinge", n=10, restart_k=0), r"^k must be in \[1, inf\), got 0$"),
        (suite_glm, dict(link="hinge", n=10, d_minus_grid=()), "the suite has no study"),
        (suite_glm, dict(link="ramp", n=10, radius_grid=()), "the suite has no study"),
        (suite_traffic, dict(sizes=(10,), d_minus=2), r"^d_minus must be in \(0, 1\], got 2$"),
    ], ids=["hinge-restart-k0", "hinge-no-grid", "ramp-no-grid", "traffic-d-minus-2"])
    def test_bad_study_raises_before_any_work(self, tmp_path, monkeypatch, suite, kwargs,
                                              match):
        # every study is built, and so checked, before a directory or a run
        seeds = count_engine_calls(monkeypatch)
        out = tmp_path / "suite"
        with pytest.raises(ValueError, match=match):
            suite(**kwargs, seeds=(1,), k=5, output=out)
        assert not out.exists()
        assert seeds == []

    @pytest.mark.parametrize("kwargs, match", [
        (dict(k=0), r"^k must be in \[1, inf\), got 0$"),
        (dict(seeds=(1, 1)), "seeds must be distinct"),
        (dict(blocks=0), r"^blocks must be in \[1, inf\), got 0$"),
        (dict(sizes=(10, 20, 10)), "without repeats"),
    ], ids=["k0", "repeated-seeds", "blocks0", "repeated-size"])
    def test_traffic_suite_bad_input_leaves_no_directory(self, tmp_path, monkeypatch,
                                                         kwargs, match):
        def no_instance(*args, **kwargs):
            raise AssertionError("instance generated for rejected input")

        monkeypatch.setattr(harness, "traffic_generate", no_instance)
        out = tmp_path / "traffic"
        with pytest.raises(ConfigError, match=match):
            suite_traffic(**{"sizes": (10,), "seeds": (1,), "k": 5, **kwargs}, output=out)
        assert not out.exists()


class TestCli:
    def test_validate_schedule_pass(self, capsys):
        rc = cli.main(["validate-schedule", "OE-GSMVI", "--L", "2.0", "--mu", "0.5",
                       "--k", "1000"])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_validate_schedule_block_policy(self, capsys):
        rc = cli.main(["validate-schedule", "SBOE-GSMVI", "--L", "2.0", "--mu", "0.5",
                       "--k", "1000", "--b", "5"])
        assert rc == 0

    def test_validate_schedule_failure_exit_code(self, capsys):
        # Lbar far below L: the final-step condition at the true L fails
        rc = cli.main(["validate-schedule", "SBOE-GSMVI", "--L", "50.0", "--mu", "0.5",
                       "--k", "100", "--b", "2", "--Lbar", "1.0"])
        assert rc == 2
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_validate_schedule_rejects_nonpositive_k(self, capsys, k):
        rc = cli.main(["validate-schedule", "OE-GSMVI", "--L", "2", "--mu", "0.1", "--k", k])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: k must be in [1, inf), got {k}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("argv, message", [
        (["OE-GSMVI", "--L", "inf", "--mu", "0.1", "--k", "100"], "L must be in (0, inf)"),
        (["SOE-2", "--L", "1", "--mu", "0.1", "--sigma", "inf", "--V1", "1", "--k", "100"],
         "sigma must be in [0, inf)"),
    ], ids=["L", "sigma"])
    def test_validate_schedule_rejects_infinite_constants(self, capsys, argv, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would fail the call, not print
            rc = cli.main(["validate-schedule", *argv])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}, got inf\n"
        assert captured.out == ""

    @pytest.mark.parametrize("argv, section, name, size", [
        (["run"], "[run]\nk = 1000000000000000\n\n[policy:OE-GSMVI]\n",
         "k = 1000000000000000", f"{(10**15 + 2) * 20 * 8 / 2**30:.1f} GiB trajectory"),
        (["check"], "[run]\nk = 5\n\n[policy:SOE-1]\nm = 100000000000000\n",
         "m = 100000000000000", f"{10**14 * 20 * 8 / 2**30:.1f} GiB oracle batch"),
        (["suite", "traffic", "--sizes", "20", "--k", "1000000000000000"], None,
         "k = 1000000000000000", f"{(10**15 + 2) * 20 * 8 / 2**30:.1f} GiB trajectory"),
    ], ids=["run-k", "check-m", "suite-k"])
    def test_array_beyond_memory_is_a_config_error(self, tmp_path, capsys, argv, section, name,
                                                   size):
        # no machine holds these; the run once stopped in a numpy MemoryError traceback
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        out = tmp_path / "out"
        if section is not None:
            (tmp_path / "exp.ini").write_text("[problem]\nkind = glm-hinge\nn = 20\nseed = 1\n\n"
                                              + section)
            argv = argv + [str(tmp_path / "exp.ini")]
        argv = argv + (["--output", str(out)] if argv[0] != "check" else [])
        assert cli.main(argv) == 1
        assert capsys.readouterr() == ("", f"config error: {name} at n = 20 needs a {size}, more "
                                       f"than the {memory / 2**30:.1f} GiB of physical memory\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv, problem", [
        (["run"], "kind = traffic\nn = 1000000"),
        (["run"], "kind = glm-ramp\nn = 1000000"),
        (["suite", "traffic", "--sizes", "1000000"], None),
    ], ids=["run-traffic", "run-glm", "suite-traffic"])
    def test_matrix_beyond_memory_refused_before_any_draw(self, tmp_path, capsys, argv,
                                                          problem):
        # 7.3 TiB: generation once stopped in numpy's _ArrayMemoryError traceback
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        out = tmp_path / "out"
        if problem is not None:
            (tmp_path / "exp.ini").write_text(f"[problem]\n{problem}\n\n[run]\nk = 5\n\n"
                                              "[policy:SA]\n")
            argv = argv + [str(tmp_path / "exp.ini")]
        assert cli.main(argv + ["--output", str(out)]) == 1
        assert capsys.readouterr() == ("", f"error: n = 1000000 needs a {8e12 / 2**30:.1f} GiB "
                                       f"n x n matrix, more than the {memory / 2**30:.1f} GiB of "
                                       "physical memory\n")
        assert not out.exists()

    def test_infinite_policy_override_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "exp.ini"
        path.write_text(CONFIG_TEXT + "\n[policy:SBOE-GSMVI]\nL = inf\n")
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot build policy SBOE-GSMVI: ")
        assert err.endswith(" must be in (0, inf), got inf\n")
        assert not out.exists()

    @pytest.mark.parametrize("line, message", [
        ("sigma = inf", "sigma must be in [0, inf), got inf"),
        ("sigma = nan", "sigma must be in [0, inf), got nan"),
        ("sigma = -1", "sigma must be in [0, inf), got -1.0"),
        ("mu = -0.5", "mu must be in [0, inf), got -0.5"),
        ("L = 0", "L must be in (0, inf), got 0.0"),
        ("V1 = nan", "V1 must be in (0, inf), got nan"),
        ("noise_ratio = -inf", "noise_ratio must be in (0, inf), got -inf"),
    ], ids=["sigma-inf", "sigma-nan", "sigma-negative", "mu-negative", "L-zero", "V1-nan",
            "noise_ratio-inf"])
    def test_bad_policy_override_is_a_config_error(self, tmp_path, capsys, line, message):
        # sigma = inf once checked as PASS with limit=inf, nan as FAIL, and -1
        # was taken as given
        path = tmp_path / "exp.ini"
        path.write_text(CONFIG_TEXT.replace("m = 2", f"m = 2\n{line}"))
        assert cli.main(["check", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"config error: cannot build policy SOE-1: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("sigma, message", [
        ("1e154", "the expected distance limit is inf, not a finite number"),
        ("1e200", "its bound overflows a float"),
    ], ids=["limit-inf", "overflow"])
    def test_nonfinite_bound_is_a_config_error(self, tmp_path, capsys, sigma, message):
        # finite overrides whose bound leaves the doubles: no PASS or FAIL line
        path = tmp_path / "exp.ini"
        path.write_text(CONFIG_TEXT.replace("m = 2", f"m = 2\nsigma = {sigma}"))
        assert cli.main(["check", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"config error: policy SOE-1: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("argv, message", [
        (["validate-schedule", "SOE-2", "--L", "1", "--mu", "0.1", "--sigma", "1e200", "--V1", "1",
          "--k", "100"], "error: sigma must be in (0, 1.34078e+154], got 1e+200"),
        (["validate-schedule", "OE-GSMVI", "--L", "1e300", "--mu", "0.1", "--k", "10"],
         "error: L must be in (0, 1.34078e+154], got 1e+300"),
        (["validate-schedule", "SBOE-MVI", "--L", "2", "--k", "20", "--sigma=-inf"],
         "error: sigma must be in [0, inf), got -inf"),
    ], ids=["SOE-2-sigma-squared", "validator-L-squared", "unread-sigma"])
    def test_validate_schedule_rejects_constants_out_of_range(self, capsys, argv, message):
        # the first two once ended in an OverflowError traceback; the last exited 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv) == 1
        assert capsys.readouterr() == ("", message + "\n")

    def test_unparsable_command_line_exits_1(self, capsys):
        # argparse's own exit code 2 would read as a bound-check failure
        assert cli.main(["validate-schedule", "OE-GSMVI", "--L", "abc", "--k", "3"]) == 1
        assert capsys.readouterr().err.endswith(
            "oevi validate-schedule: error: argument --L: invalid float value: 'abc'\n")

    @pytest.mark.parametrize("command", ["run", "check"])
    @pytest.mark.parametrize("section, message", [
        ("[policy:SOE-2]\nsigma = 1e200\n",
         "SOE-2: sigma must be in (0, 1.34078e+154], got 1e+200"),
        ("[policy:SOE-3]\nnoise_ratio = 1e308\n",
         "SOE-3: noise_ratio must be in (0, 1.09722e+304], got 1e+308"),
    ], ids=["SOE-2-sigma", "SOE-3-noise_ratio"])
    def test_override_past_its_closed_form_is_a_config_error(self, tmp_path, capsys, command,
                                                              section, message):
        # finite overrides that once overflowed inside the schedule: an
        # OverflowError traceback from SOE-2's q and from SOE-3's epoch length
        path = tmp_path / "exp.ini"
        path.write_text("[problem]\nkind = glm-hinge\nn = 5\nseed = 1\n\n[run]\nk = 5\n\n"
                        + section)
        out = tmp_path / "out"
        argv = [command, str(path)] + (["--output", str(out)] if command == "run" else [])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv) == 1
        assert capsys.readouterr() == ("", f"config error: cannot build policy {message}\n")
        assert not out.exists()

    def test_glm_huge_radius_stops_at_the_variance_bound(self, tmp_path, capsys):
        # the norm check on x* once overflowed here, printing a numpy warning
        path = tmp_path / "exp.ini"
        path.write_text(GLM_RAMP_TEXT.replace("glm-ramp", "glm-hinge")
                        .replace("n = 5", "n = 5\nR = 1e200"))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["run", str(path), "--output", str(out)]) == 1
        assert capsys.readouterr() == ("", "error: the oracle variance bound at R = 1e+200, "
                                       "sigma_y = 1 must be in [0, inf), got inf\n")
        assert not out.exists()

    def test_glm_ramp_huge_radius_builds_but_does_not_run(self, tmp_path, capsys):
        # the ramp's variance bound is finite at any R, but a run squares
        # distances up to 2R: past sqrt(DBL_MAX) / 2 they overflow, with numpy
        # warnings, in V1, the metrics and the ramp operator's norm
        path = tmp_path / "exp.ini"
        path.write_text(GLM_RAMP_TEXT.replace("n = 5", "n = 5\nR = 1e200"))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["run", str(path), "--output", str(out)]) == 1
        assert capsys.readouterr() == ("", "config error: R must be in (0, 6.7039e+153], "
                                       "got 1e+200\n")
        assert not out.exists()

    def test_glm_infinite_variance_bound_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "exp.ini"
        path.write_text(GLM_RAMP_TEXT.replace("n = 5", "n = 5\nsigma_y = 1e300"))
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--output", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: the oracle variance bound at R = 100, sigma_y = 1e+300 "
                                "must be in [0, inf), got inf\n")
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("sizes, message", [
        (",", "traffic sizes must be a nonempty list of positive"),
        ("200,0", "sizes must be in [5, inf), got 0.0"),
        ("200,-5", "sizes must be in [5, inf), got -5.0"),
        ("200,203", "traffic sizes must be a nonempty list of positive"),
        ("200,200", "traffic sizes must be a nonempty list of positive"),
    ], ids=["empty", "zero", "negative", "not-a-block-multiple", "repeated"])
    def test_suite_traffic_rejects_bad_sizes(self, tmp_path, capsys, sizes, message):
        out = tmp_path / "traffic"
        rc = cli.main(["suite", "traffic", "--sizes", sizes, "--output", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: {message}")
        assert captured.out == ""
        assert not out.exists()

    def test_run_subcommand(self, tmp_path, capsys):
        path = tmp_path / "exp.ini"
        path.write_text(CONFIG_TEXT)
        rc = cli.main(["run", str(path), "--output", str(tmp_path / "out"), "--k", "5"])
        assert rc == 0
        assert (tmp_path / "out" / "OE-GSMVI_s1.csv").exists()

    def test_run_rejects_bad_cadence_and_workers(self, tmp_path, capsys):
        path = tmp_path / "exp.ini"
        path.write_text(CONFIG_TEXT.replace("cadence = 1", "cadence = -4"))
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--output", str(out)]) == 1
        assert capsys.readouterr().err == "config error: cadence must be in [1, inf), got -4\n"
        path.write_text(CONFIG_TEXT)
        assert cli.main(["run", str(path), "--output", str(out), "--workers", "0"]) == 1
        assert capsys.readouterr().err == "config error: workers must be in [1, inf), got 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_suite_glm_rejects_nonpositive_n(self, tmp_path, capsys, n):
        rc = cli.main(["suite", "glm-hinge", "--n", n, "--k", "5",
                       "--output", str(tmp_path / "glm")])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == f"config error: n must be in [1, inf), got {n}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("doc, key", [
        ({"kind": "affine", "G": [[1.0]]}, "b"),
        ({"kind": "glm", "A": [[1.0]], "x_star": [1.0], "R": 1.0, "link": "hinge"},
         "sigma_y"),
        ({"kind": "affine", "G": [[1.0]], "b": [0.0], "set": "ball", "center": [0.0]},
         "radius"),
    ], ids=["affine-no-b", "glm-no-sigma_y", "ball-no-radius"])
    def test_json_problem_missing_key(self, tmp_path, capsys, doc, key):
        (tmp_path / "p.json").write_text(json.dumps(doc))
        path = tmp_path / "exp.ini"
        path.write_text(f"[problem]\nkind = json\npath = {tmp_path / 'p.json'}\n\n"
                        "[run]\nk = 5\n\n[policy:OE-GSMVI]\n")
        assert cli.main(["run", str(path), "--output", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: problem JSON lacks the key {key!r}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("reference", ["true", "false"])
    @pytest.mark.parametrize("fields, message", [
        ({"set": "simplex", "blocks": [2], "demands": [math.nan]},
         "demands must be in [0, inf), got nan"),
        ({"set": "ball", "center": [0.0, 0.0], "radius": math.nan},
         "radius must be in (0, inf), got nan"),
        ({"set": "ball", "center": [0.0, 0.0], "radius": 1.0, "b": [math.nan, 1.0]},
         "b must be in (-inf, inf), got nan"),
        ({"set": "box", "lower": [0.0, 0.0], "upper": [math.inf, 1.0]},
         "upper - lower must be in [0, inf), got inf"),
    ], ids=["demand-nan", "radius-nan", "b-nan", "upper-inf"])
    def test_json_problem_number_not_finite(self, tmp_path, capfd, fields, message, reference):
        # these once printed LAPACK's DLASCL message and an SVD error, or,
        # without the reference solve, an infeasible start or a diverged run
        doc = {"kind": "affine", "G": [[2.0, 0.0], [0.0, 2.0]], "b": [1.0, -1.0], **fields}
        (tmp_path / "p.json").write_text(json.dumps(doc))
        path = tmp_path / "exp.ini"
        path.write_text(f"[problem]\nkind = json\npath = {tmp_path / 'p.json'}\n\n"
                        f"[run]\nk = 5\nreference = {reference}\n\n[policy:OE-MVI]\n")
        assert cli.main(["run", str(path), "--output", str(tmp_path / "out")]) == 1
        assert capfd.readouterr() == ("", f"error: {message}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("doc, kind", [([1, 2], "list"), ("affine", "str"), (3, "int")],
                             ids=["array", "string", "number"])
    def test_json_problem_not_an_object(self, tmp_path, capsys, doc, kind):
        (tmp_path / "p.json").write_text(json.dumps(doc))
        path = tmp_path / "exp.ini"
        path.write_text(f"[problem]\nkind = json\npath = {tmp_path / 'p.json'}\n\n"
                        "[run]\nk = 5\n\n[policy:OE-GSMVI]\n")
        assert cli.main(["run", str(path), "--output", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: problem JSON must be an object, got {kind}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line, bad, message", [
        ("blocks = 5", "blocks = 0", "the block count num_od must be in [1, inf), got 0"),
        ("n = 10", "n = -5", "n must be in [1, inf), got -5"),
    ], ids=["blocks0", "n-negative"])
    def test_traffic_sizes_checked(self, tmp_path, capsys, line, bad, message):
        path = tmp_path / "exp.ini"
        path.write_text(CONFIG_TEXT.replace(line, bad))
        assert cli.main(["run", str(path), "--output", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_config_error_exit_code(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[problem]\nkind = nosuch\n\n[run]\nk = 5\n\n[policy:SA]\n")
        assert cli.main(["run", str(path)]) == 1

    @pytest.mark.parametrize("command", ["run", "check"])
    @pytest.mark.parametrize("text", [
        CONFIG_TEXT + "\n[policy:SOE-1]\n",
        CONFIG_TEXT.replace("m = 2", "m = 0"),
    ], ids=["repeated-section", "zero-batch"])
    def test_bad_config_file_is_config_error(self, tmp_path, capsys, command, text):
        path = tmp_path / "exp.ini"
        path.write_text(text)
        argv = [command, str(path)]
        if command == "run":
            argv += ["--output", str(tmp_path / "out")]
        assert cli.main(argv) == 1
        assert "config error: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "check"])
    def test_unknown_policy_is_config_error(self, tmp_path, capsys, command):
        path = tmp_path / "exp.ini"
        path.write_text(CONFIG_TEXT + "\n[policy:NOPE]\n")
        argv = [command, str(path)]
        if command == "run":
            argv += ["--output", str(tmp_path / "out")]
        assert cli.main(argv) == 1
        assert "config error: unknown policy 'NOPE'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "check"])
    @pytest.mark.parametrize("override", [("--seeds", "3,3"), ("--k", "0")],
                             ids=["duplicate-seeds", "zero-k"])
    def test_overrides_are_validated(self, tmp_path, capsys, command, override):
        path = tmp_path / "exp.ini"
        path.write_text(CONFIG_TEXT)
        argv = [command, str(path), *override]
        if command == "run":
            argv += ["--output", str(tmp_path / "out")]
        assert cli.main(argv) == 1
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_check_subcommand_pass(self, tmp_path, capsys):
        path = tmp_path / "exp.ini"
        path.write_text(CONFIG_TEXT.replace("[policy:SOE-1]\nm = 2\n", ""))
        rc = cli.main(["check", str(path), "--k", "60"])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "PASS" in out

    def test_check_subcommand_failure_exit_code(self, tmp_path, capsys):
        path = tmp_path / "exp.ini"
        path.write_text(
            CONFIG_TEXT.replace("[policy:OE-GSMVI]", "[policy:OE-GSMVI]\nL = 0.6")
            .replace("[policy:SOE-1]\nm = 2\n", "")
        )
        rc = cli.main(["check", str(path), "--k", "50"])
        assert rc == 2

    @pytest.mark.parametrize("kind, key, value, message", [
        ("simplex", "demands", 1.0, "'demands' must be a list of numbers, got 1.0"),
        ("simplex", "blocks", 2, "'blocks' must be a list of numbers, got 2"),
        ("simplex", "block_partition", 2, "'block_partition' must be a list of numbers, got 2"),
        ("simplex", "sigma", [0.0], "'sigma' must be a number, got [0.0]"),
        ("glm", "R", [1.0], "'R' must be a number, got [1.0]"),
        ("glm", "A", [[1.0, 0.0], [0.0]],
         "'A' must be a list of equal-length lists of numbers, got [[1.0, 0.0], [0.0]]"),
    ], ids=["demands", "blocks", "block_partition", "sigma", "R", "ragged-A"])
    def test_json_value_of_the_wrong_type_is_an_error(self, tmp_path, capsys, kind, key, value,
                                                     message):
        # the first five once ended in a TypeError traceback, the last in
        # numpy's "inhomogeneous shape" text without the key
        problem = (traffic_generate(4, 2, 0.5, seed=1) if kind == "simplex"
                   else glm_generate(2, "hinge", R=2.0, sigma_y=0.1, seed=8))
        doc = {**json.loads(problem_to_json(problem)), key: value}
        (tmp_path / "p.json").write_text(json.dumps(doc))
        path = tmp_path / "exp.ini"
        path.write_text(f"[problem]\nkind = json\npath = {tmp_path / 'p.json'}\n\n"
                        "[run]\nk = 5\n\n[policy:OE-GSMVI]\n")
        assert cli.main(["run", str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: problem JSON key {message}\n")

    def test_json_block_size_above_the_dimension_is_an_error(self, tmp_path, capsys):
        # once numpy's "error: Maximum allowed size exceeded", naming neither key nor value
        doc = {**json.loads(problem_to_json(traffic_generate(8, 4, 0.5, seed=1))),
               "blocks": [1e300, 2, 2, 2]}
        (tmp_path / "p.json").write_text(json.dumps(doc))
        path = tmp_path / "exp.ini"
        path.write_text(f"[problem]\nkind = json\npath = {tmp_path / 'p.json'}\n\n"
                        "[run]\nk = 5\n\n[policy:OE-GSMVI]\n")
        assert cli.main(["run", str(path)]) == 1
        assert capsys.readouterr() == ("", "error: block sizes must be in [1, 8], got 1e+300\n")


class TestProblemConstantsComputedOnce:
    """L-bar and x* are values of the problem: each made once per problem object."""

    @staticmethod
    def count(monkeypatch, module, name) -> list[int]:
        calls = [0]
        real = getattr(module, name)

        def counted(*args):
            calls[0] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counted)
        return calls

    def count_block_lipschitz(self, monkeypatch) -> list[int]:
        return self.count(monkeypatch, problems_module, "block_lipschitz")

    def count_solves(self, monkeypatch) -> list[int]:
        return self.count(monkeypatch, harness, "solve_reference")

    def test_golden_traffic_computes_lbar_once_per_entry_point(self, monkeypatch):
        # two block policies: four passes in check_bounds and two in
        # run_experiment when the harness derived L-bar itself, and one more
        # in run_experiment when ensure_reference returned a copy
        calls = self.count_block_lipschitz(monkeypatch)
        config = dataclasses.replace(load_config(REPO / "scripts" / "golden_traffic.ini"),
                                     k=20, weak_gap=False)
        check_bounds(config)
        assert calls == [1]
        run_experiment(config)  # the same problem object, L-bar already made
        assert calls == [1]

    @pytest.mark.parametrize("command", ["run", "check"])
    def test_each_command_solves_the_reference_once(self, tmp_path, monkeypatch, command):
        calls = self.count_solves(monkeypatch)
        argv = [command, str(REPO / "scripts" / "golden_traffic.ini")]
        assert cli.main(argv + (["--output", str(tmp_path / "out")] if command == "run" else [])) == 0
        assert calls == [1]

    def test_check_then_run_solve_the_reference_once(self, tmp_path, monkeypatch):
        # x* is attached to the config's problem, in place, so the run reads it
        calls = self.count_solves(monkeypatch)
        config = tiny_config(tmp_path, policies=[PolicyRun("OE-GSMVI"), PolicyRun("SOE-1")])
        check_bounds(config)
        assert calls == [1] and config.problem.known_solution is not None
        run_experiment(config)
        assert calls == [1]

    def test_check_carries_the_reference_into_a_later_run_without_one(self, tmp_path,
                                                                       monkeypatch):
        # check_bounds solves x* whatever compute_reference says, onto the
        # config's problem, so a reference = false run after it reads x* as a
        # known solution and writes what a reference = true run alone writes
        calls = self.count_solves(monkeypatch)
        config = tiny_config(tmp_path, compute_reference=False)
        check_bounds(config)
        carried = run_experiment(config)["OE-GSMVI"].mean["V_to_solution"]
        alone = run_experiment(tiny_config(tmp_path))["OE-GSMVI"].mean["V_to_solution"]
        assert calls == [2] and None not in carried and list(carried) == list(alone)

    def test_ensure_reference_attaches_to_the_problem_it_is_given(self, monkeypatch):
        calls = self.count_solves(monkeypatch)
        problem = tiny_problem()
        assert ensure_reference(problem) is problem
        x_star = problem.known_solution
        assert ensure_reference(problem) is problem and problem.known_solution is x_star
        assert calls == [1]

    def test_without_compute_reference_nothing_is_solved(self, tmp_path, monkeypatch):
        calls = self.count_solves(monkeypatch)
        config = tiny_config(tmp_path, compute_reference=False)
        aggs = run_experiment(config)
        assert calls == [0] and config.problem.known_solution is None
        assert set(aggs["OE-GSMVI"].mean["V_to_solution"]) == {None}

    def test_config_without_a_block_policy_never_computes_lbar(self, tmp_path, monkeypatch):
        calls = self.count_block_lipschitz(monkeypatch)
        config = tiny_config(tmp_path, policies=[PolicyRun("OE-GSMVI"), PolicyRun("SOE-1")])
        check_bounds(config)
        run_experiment(config)
        assert calls == [0]
