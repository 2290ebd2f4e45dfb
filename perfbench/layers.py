"""Per-layer metrics of one traced round.

Layers are the oevi modules.  ``*_s`` metrics are inclusive span times and
``*_calls`` span counts; ``<module>.self_s`` is the run-phase self time of
that module's spans.  Metrics named for the solver iterations, the metrics and
the CSV output cover the run phase; generation, the reference solve,
feasibility tests and schedule construction and validation are counted in
both phases, since they are set-up work wherever they happen.

``harness.self_s`` is the remainder of the run phase: its wall time minus
the time under top-level spans (the loop over runs, the run dispatch,
bookkeeping).  So, by construction,

    trace.run_s = problems.self_s + geometry.self_s + schedules.self_s
                  + solvers.self_s + metrics.self_s + harness.csv_s
                  + harness.aggregate_s + harness.self_s

The measured question is how far the traced ``trace.run_s`` sits above the
untraced ``run_s``: the tracing overhead, which ``report.py`` prints.
"""

from __future__ import annotations

from spans import RUN, SETUP

MODULES = ("problems", "geometry", "schedules", "solvers", "metrics")

LAYER_UNITS = {
    "trace.setup_s": "s",
    "trace.run_s": "s",
    "problems.generate_s": "s",
    "problems.reference_s": "s",
    "problems.reference_operator_calls": "count",
    "problems.operator_calls": "count",
    "problems.operator_s": "s",
    "problems.self_s": "s",
    "geometry.project_calls": "count",
    "geometry.project_s": "s",
    "geometry.contains_calls": "count",
    "geometry.contains_s": "s",
    "geometry.self_s": "s",
    "schedules.build_s": "s",
    "schedules.validate_s": "s",
    "schedules.table_s": "s",
    "schedules.self_s": "s",
    "solvers.runs": "count",
    "solvers.iterations": "count",
    "solvers.engine_s": "s",
    "solvers.self_s": "s",
    "solvers.rng_streams": "count",
    "solvers.rng_s": "s",
    "solvers.duplicate_runs": "count",
    "solvers.trajectory_mb": "MB",
    "metrics.checkpoints": "count",
    "metrics.operator_calls": "count",
    "metrics.residual_s": "s",
    "metrics.gap_surrogate_s": "s",
    "metrics.weak_gap_calls": "count",
    "metrics.weak_gap_s": "s",
    "metrics.weak_gap_project_calls": "count",
    "metrics.self_s": "s",
    "harness.csv_files": "count",
    "harness.csv_bytes": "count",
    "harness.csv_s": "s",
    "harness.aggregate_s": "s",
    "harness.self_s": "s",
}


def layer_metrics(tracer) -> dict[str, float]:
    """Layer metrics of the tracer's last round, except the two the round
    loop measures itself (``solvers.duplicate_runs``, ``solvers.trajectory_mb``)."""

    def run_s(key):
        return tracer.incl[RUN, key] / 1e9

    def all_s(key):
        return (tracer.incl[SETUP, key] + tracer.incl[RUN, key]) / 1e9

    def run_calls(key):
        return tracer.calls[RUN, key]

    def all_calls(key):
        return tracer.calls[SETUP, key] + tracer.calls[RUN, key]

    module_self = dict.fromkeys(MODULES + ("harness",), 0)
    for (phase, key), ns in tracer.self_ns.items():
        if phase == RUN:
            module_self[key.split(".")[0]] += ns
    run_ns = tracer.phase_ns(RUN)
    root_self = run_ns - tracer.covered_ns[RUN]

    out = {
        "trace.setup_s": tracer.phase_ns(SETUP) / 1e9,
        "trace.run_s": run_ns / 1e9,
        "problems.generate_s": all_s("problems.generate"),
        "problems.reference_s": all_s("problems.reference"),
        "problems.reference_operator_calls": all_calls("problems.operator@problems.reference"),
        "problems.operator_calls": run_calls("problems.operator@solvers.engine"),
        "problems.operator_s": run_s("problems.operator@solvers.engine"),
        "geometry.project_calls": run_calls("geometry.project"),
        "geometry.project_s": run_s("geometry.project"),
        "geometry.contains_calls": all_calls("geometry.contains"),
        "geometry.contains_s": all_s("geometry.contains"),
        "schedules.build_s": all_s("schedules.build"),
        "schedules.validate_s": all_s("schedules.validate"),
        "schedules.table_s": run_s("schedules.table"),
        "solvers.runs": run_calls("solvers.engine"),
        "solvers.iterations": tracer.iterations,
        "solvers.engine_s": run_s("solvers.engine"),
        "solvers.rng_streams": run_calls("solvers.rng"),
        "solvers.rng_s": run_s("solvers.rng"),
        "metrics.checkpoints": tracer.counts["metrics.checkpoints"],
        "metrics.operator_calls": run_calls("problems.operator@metrics.rows"),
        "metrics.residual_s": run_s("metrics.residual"),
        "metrics.gap_surrogate_s": run_s("metrics.gap_surrogate"),
        "metrics.weak_gap_calls": run_calls("metrics.weak_gap"),
        "metrics.weak_gap_s": run_s("metrics.weak_gap"),
        "metrics.weak_gap_project_calls": tracer.counts["metrics.weak_gap_project_calls"],
        "harness.csv_files": tracer.counts["harness.csv_files"],
        "harness.csv_bytes": tracer.counts["harness.csv_bytes"],
        "harness.csv_s": run_s("harness.csv"),
        "harness.aggregate_s": run_s("harness.aggregate"),
        "harness.self_s": root_self / 1e9,
    }
    for module in MODULES:
        out[f"{module}.self_s"] = module_self[module] / 1e9
    return out
