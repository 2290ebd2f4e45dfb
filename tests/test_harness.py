"""Harness tests: config validation and parsing, CSV schema, end-to-end
determinism, aggregation consistency, bound checks, and the CLI surface."""

import dataclasses
import logging
import math
import struct
import tracemalloc

import numpy as np
import pytest

from oevi import cli, harness
from oevi.geometry import analytic_center
from oevi.harness import (
    BOUND_CHECKS,
    ROW_FIELDS,
    TRAJECTORY_HEADER,
    ConfigError,
    ExperimentConfig,
    PolicyRun,
    _bound_checks_for,
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
from oevi.schedules import POLICY_NAMES, OEGsmviSchedule
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
        with pytest.raises(ConfigError, match="batch size m must be >= 1"):
            tiny_config(tmp_path, policies=[PolicyRun("SOE-1", batch=m)])

    def test_cadence_default(self, tmp_path):
        assert tiny_config(tmp_path, k=500).resolved_cadence() == 1
        assert tiny_config(tmp_path, k=10_000).resolved_cadence() == 100

    @pytest.mark.parametrize("key,value", [("cadence", 0), ("cadence", -4),
                                           ("workers", 0), ("workers", -1)])
    def test_nonpositive_cadence_or_workers_rejected(self, tmp_path, key, value):
        with pytest.raises(ConfigError, match=f"{key} must be >= 1, got {value}"):
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
        ("SBOE-MVI", None, "policy SBOE-MVI needs a block partition"),
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
        policy = PolicyRun("SOE-4")
        cfg = ExperimentConfig(problem=problem, policies=[policy], k=40, seeds=(1, 2, 3, 4))
        x1 = analytic_center(problem.set)
        schedule = schedule_for(policy, problem, 40, x1)
        trajs = [run_one(policy, problem, schedule, x1, 40, seed) for seed in cfg.seeds]
        expected = _bound_checks_for(policy, schedule, problem, trajs, x1, 40)
        seeds = count_engine_calls(monkeypatch)
        assert check_bounds(cfg) == expected
        assert seeds == [1]
        assert expected[0].detail == "4 seeds"

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
        eigvalsh = np.linalg.eigvalsh
        calls = []

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        problem = tiny_problem()
        assert len(calls) == 1  # at construction, for mu
        cfg = ExperimentConfig(
            problem=problem, policies=[PolicyRun("OE-MVI"), PolicyRun("SBOE-MVI")],
            k=10, seeds=(1, 2), output=tmp_path / "out", weak_gap=True,
        )
        aggs = run_experiment(cfg)
        assert aggs["OE-MVI"].mean["weak_gap_exact"][-1] is not None
        assert len(calls) == 1


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
    ], ids=["hinge-0", "nosuch-10", "hinge-k0", "hinge-repeated-seeds", "ramp-repeated-seeds",
            "ramp-no-seeds"])
    def test_glm_suite_bad_input_leaves_no_directory(self, tmp_path, link, kwargs):
        out = tmp_path / "glm"
        with pytest.raises(ConfigError):
            suite_glm(link, **{"n": 10, "k": 5, **kwargs}, output=out)
        assert not out.exists()

    @pytest.mark.parametrize("kwargs, match", [
        (dict(k=0), "k must be >= 1"), (dict(seeds=(1, 1)), "seeds must be distinct"),
    ], ids=["k0", "repeated-seeds"])
    def test_traffic_suite_bad_input_leaves_no_directory(self, tmp_path, monkeypatch,
                                                         kwargs, match):
        def no_instance(*args, **kwargs):
            raise AssertionError("instance generated for rejected input")

        monkeypatch.setattr(harness, "traffic_generate", no_instance)
        out = tmp_path / "traffic"
        with pytest.raises(ConfigError, match=match):
            suite_traffic(sizes=(10,), **{"seeds": (1,), "k": 5, **kwargs}, output=out)
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
        assert "config error: k must be >= 1" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("sizes", [",", "200,0", "200,-5", "200,203"],
                             ids=["empty", "zero", "negative", "not-a-block-multiple"])
    def test_suite_traffic_rejects_bad_sizes(self, tmp_path, capsys, sizes):
        out = tmp_path / "traffic"
        rc = cli.main(["suite", "traffic", "--sizes", sizes, "--output", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert "config error: traffic sizes must be a nonempty list of positive" in captured.err
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
        assert "config error: cadence must be >= 1, got -4" in capsys.readouterr().err
        path.write_text(CONFIG_TEXT)
        assert cli.main(["run", str(path), "--output", str(out), "--workers", "0"]) == 1
        assert "config error: workers must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_suite_glm_rejects_nonpositive_n(self, tmp_path, capsys, n):
        rc = cli.main(["suite", "glm-hinge", "--n", n, "--k", "5",
                       "--output", str(tmp_path / "glm")])
        assert rc == 1
        captured = capsys.readouterr()
        assert "error: n must be >= 1" in captured.err
        assert captured.out == ""

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
