"""Command-line interface.

Subcommands:
    run <config>                 execute an experiment config, write CSVs
    suite traffic|glm-hinge|glm-ramp   canned benchmark studies
    check <config>               run policies and verify convergence bounds
    validate-schedule <policy>   check a policy's side conditions

Exit codes: 0 success, 1 configuration error, 2 bound-check or validation
failure.  The OEVI_WORKERS environment variable sets the worker count for
(policy, seed) pairs; command-line flags override config keys.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .harness import (
    ConfigError,
    check_bounds,
    format_bound_checks,
    load_config,
    run_experiment,
    suite_glm,
    suite_traffic,
)
from .schedules import POLICY_NAMES, make_schedule, validate


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.replace(",", " ").split())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="oevi", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config", type=Path)
    p_run.add_argument("--output", type=Path, help="override the output directory")
    p_run.add_argument("--k", type=int, help="override the iteration budget")
    p_run.add_argument("--seeds", type=str, help="override seeds, e.g. '1,2,3'")
    p_run.add_argument("--workers", type=int, help="override the worker count")

    p_suite = sub.add_parser("suite", help="run a canned benchmark suite")
    p_suite.add_argument("name", choices=("traffic", "glm-hinge", "glm-ramp"))
    p_suite.add_argument("--sizes", type=str, default=None,
                         help="traffic sizes, e.g. '200,500,1000'")
    p_suite.add_argument("--d-minus", type=float, default=0.005)
    p_suite.add_argument("--seeds", type=str, default="1,2,3")
    p_suite.add_argument("--k", type=int, default=None)
    p_suite.add_argument("--n", type=int, default=100, help="GLM dimension")
    p_suite.add_argument("--output", type=Path, default=None)

    p_check = sub.add_parser("check", help="verify convergence bounds for a config")
    p_check.add_argument("config", type=Path)
    p_check.add_argument("--k", type=int, help="override the iteration budget")
    p_check.add_argument("--seeds", type=str, help="override seeds")

    p_val = sub.add_parser("validate-schedule", help="check a policy's side conditions")
    p_val.add_argument("policy", choices=POLICY_NAMES)
    p_val.add_argument("--L", type=float, required=True)
    p_val.add_argument("--mu", type=float, default=0.0)
    p_val.add_argument("--k", type=int, required=True)
    p_val.add_argument("--b", type=int, default=1)
    p_val.add_argument("--sigma", type=float, default=1.0)
    p_val.add_argument("--V1", type=float, default=1.0)
    p_val.add_argument("--Lbar", type=float, default=None)
    return parser


def _apply_overrides(config, args):
    """Command-line values replace config keys; the result is validated again."""
    changes = {}
    if getattr(args, "k", None) is not None:
        changes["k"] = args.k
    if getattr(args, "seeds", None):
        changes["seeds"] = _parse_int_list(args.seeds)
    if getattr(args, "output", None) is not None:
        changes["output"] = args.output
    if getattr(args, "workers", None) is not None:
        changes["workers"] = args.workers
    return replace(config, **changes)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            config = _apply_overrides(load_config(args.config), args)
            run_experiment(config)
            return 0
        if args.command == "suite":
            seeds = _parse_int_list(args.seeds)
            if args.name == "traffic":
                sizes = _parse_int_list(args.sizes) if args.sizes else (200, 500, 1000)
                report = suite_traffic(
                    sizes, args.d_minus, seeds, k=args.k,
                    output=args.output or Path("out/traffic"),
                )
            else:
                link = "hinge" if args.name.endswith("hinge") else "ramp"
                kwargs = {}
                if args.k is not None:
                    kwargs["k"] = args.k
                report = suite_glm(
                    link, seeds, n=args.n,
                    output=args.output or Path(f"out/glm-{link}"), **kwargs,
                )
            print(report.summary())
            return 0 if report.passed else 2
        if args.command == "check":
            config = _apply_overrides(load_config(args.config), args)
            checks = check_bounds(config)
            print(format_bound_checks(checks))
            return 0 if all(c.passed for c in checks) else 2
        if args.command == "validate-schedule":
            if args.k < 1:
                raise ConfigError("k must be >= 1")
            schedule = make_schedule(
                args.policy, L=args.L, mu=args.mu, sigma=args.sigma,
                V1=args.V1, k=args.k, b=args.b, Lbar=args.Lbar,
            )
            report = validate(schedule, args.k)
            print(report.summary())
            return 0 if report.passed else 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
