"""Command-line interface.

Subcommands:
    run <config>                 execute an experiment config, write CSVs
    suite traffic|glm-hinge|glm-ramp   canned benchmark studies
    check <config>               run policies and verify convergence bounds
    validate-schedule <policy>   check a policy's side conditions

Each subcommand passes on only the flags given: a ``run`` or ``check`` flag
replaces its config key, and a ``suite`` flag is an argument of the suite's
function (output ``out/<name>`` unless ``--output`` is given); a flag that
function does not take is a configuration error.

Exit codes: 0 success, 1 configuration error, 2 bound-check or validation
failure.  The OEVI_WORKERS environment variable sets the worker count for
(policy, seed) pairs.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

from .harness import (
    ConfigError,
    ValidationFailed,
    check_bounds,
    format_bound_checks,
    load_config,
    parse_int_list,
    run_experiment,
    suite_glm,
    suite_traffic,
)
from .schedules import POLICY_NAMES, make_schedule, validate

SUITES = {"traffic": suite_traffic, "glm-hinge": partial(suite_glm, "hinge"),
          "glm-ramp": partial(suite_glm, "ramp")}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="oevi", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, summary: str) -> argparse.ArgumentParser:
        # a flag that is not given is absent from the parsed namespace
        return sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)

    p_run = add("run", "run an experiment config")
    p_run.add_argument("config", type=Path)
    p_run.add_argument("--output", type=Path, help="override the output directory")
    p_run.add_argument("--k", type=int, help="override the iteration budget")
    p_run.add_argument("--seeds", help="override seeds, e.g. '1,2,3'")
    p_run.add_argument("--workers", type=int, help="override the worker count")

    p_suite = add("suite", "run a canned benchmark suite")
    p_suite.add_argument("name", choices=tuple(SUITES))
    p_suite.add_argument("--sizes", help="traffic sizes, e.g. '200,500,1000'")
    p_suite.add_argument("--d-minus", type=float, help="traffic perturbation level")
    p_suite.add_argument("--seeds", help="e.g. '1,2,3'")
    p_suite.add_argument("--k", type=int, help="iteration budget")
    p_suite.add_argument("--n", type=int, help="GLM dimension")
    p_suite.add_argument("--output", type=Path, help="output directory (default out/<name>)")

    p_check = add("check", "verify convergence bounds for a config")
    p_check.add_argument("config", type=Path)
    p_check.add_argument("--k", type=int, help="override the iteration budget")
    p_check.add_argument("--seeds", help="override seeds")

    p_val = add("validate-schedule", "check a policy's side conditions")
    p_val.add_argument("policy", choices=POLICY_NAMES)
    p_val.add_argument("--L", type=float, required=True)
    p_val.add_argument("--mu", type=float)
    p_val.add_argument("--k", type=int, required=True)
    p_val.add_argument("--b", type=int)
    # the command validates at unit noise; make_schedule's own default is 0
    p_val.add_argument("--sigma", type=float, default=1.0)
    p_val.add_argument("--V1", type=float)
    p_val.add_argument("--Lbar", type=float)
    return parser


def main(argv=None) -> int:
    try:
        flags = vars(build_parser().parse_args(argv))
    except SystemExit as exc:  # argparse exits 2 on a bad command line, a configuration error
        return 1 if exc.code else 0
    command = flags.pop("command")
    try:
        for key in ("seeds", "sizes"):
            if key in flags:
                flags[key] = parse_int_list(flags[key])
        if command in ("run", "check"):
            config = replace(load_config(flags.pop("config")), **flags)
            if command == "run":
                run_experiment(config)
                return 0
            checks = check_bounds(config)
            print(format_bound_checks(checks))
            return 0 if all(c.passed for c in checks) else 2
        if command == "suite":
            name = flags.pop("name")
            unknown = flags.keys() - inspect.signature(SUITES[name]).parameters.keys()
            if unknown:
                raise ConfigError(f"suite {name} takes no "
                                  + ", ".join(f"--{f.replace('_', '-')}" for f in sorted(unknown)))
            report = SUITES[name](**{"output": Path("out") / name, **flags})
            print(report.summary())
            return 0 if report.passed else 2
        policy = flags.pop("policy")  # validate-schedule
        report = validate(make_schedule(policy, **flags), flags["k"])
        print(report.summary())
        return 0 if report.passed else 2
    except ValidationFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
