"""Timing of the calls into each oevi module, installed from outside the library.

A ``Tracer`` times one *round* of a workload: problem generation through the
last CSV.  The round splits into two phases at the first solver-engine call:
*setup* (generation, reference solve, schedule construction and validation)
and *run* (every engine call, checkpoint metrics, aggregation, CSV emission).

With ``traced=False`` only the engine boundary is timed: one pair of clock
reads per (policy, seed) run, which the end-to-end metrics need.  With
``traced=True`` every function listed in ``_FUNCTION_SPANS`` and the
``project``/``contains``/``table`` methods of the set and schedule classes
are replaced by timing wrappers.  Each wrapper records a span; a span's self
time is its duration minus its child spans, and the round's own remainder
(harness code between spans) is the harness self time, so the self times of
a phase add up to the phase's wall time.

Spans are aggregated as they close (about 10^5 spans per round), so memory
does not grow with the run length.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from contextlib import contextmanager

from oevi import geometry, harness, problems, schedules, solvers

SETUP, RUN = 0, 1

# (module, attribute, span key).  Harness attributes are the names the harness
# resolves at call time, so wrapping them there catches every harness call.
_FUNCTION_SPANS = (
    (harness, "traffic_generate", "problems.generate"),
    (harness, "solve_reference", "problems.reference"),
    (problems, "affine_eval", "problems.operator"),
    (harness, "make_schedule", "schedules.build"),
    (harness, "validate", "schedules.validate"),
    (harness, "run", "solvers.engine"),
    (solvers, "_philox", "solvers.rng"),
    (harness, "trajectory_rows", "metrics.rows"),
    (harness, "residual_exact", "metrics.residual"),
    (harness, "residual_certificate", "metrics.residual"),
    (harness, "gap_surrogate", "metrics.gap_surrogate"),
    (harness, "weak_gap_exact_affine", "metrics.weak_gap"),
    (harness, "write_trajectory_csv", "harness.csv"),
    (harness, "write_aggregate_csv", "harness.csv"),
    (harness, "aggregate_rows", "harness.aggregate"),
)

# Operator calls are attributed to the nearest open span among these: the
# reference solve, the solver iterations, or the checkpoint metrics.
OPERATOR_CONTEXTS = ("problems.reference", "solvers.engine", "metrics.rows")


def _method_spans():
    """(class, method, key) for every set and schedule class defining it."""
    out = []
    for cls in (geometry.FullSpace, geometry.Ball, geometry.Box, geometry.SimplexProduct):
        out.append((cls, "project", "geometry.project"))
        out.append((cls, "contains", "geometry.contains"))
    pending = [schedules.Schedule]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "table" in vars(cls):
            out.append((cls, "table", "schedules.table"))
    return out


class Tracer:
    """Phase clock for one round, plus optional per-layer spans.

    After ``end_round``: ``incl``/``self_ns``/``calls`` map (phase, key) to
    inclusive ns, self ns and call counts; ``counts`` holds the named event
    counts; ``covered_ns[phase]`` is the time under top-level spans.
    """

    def __init__(self, traced: bool):
        self.traced = traced
        self.paused = False
        self.on_run = None  # callback(problem, config, traj) after each engine call
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list] = []  # open spans: [key, child_ns]
        self.start_round()

    # -- round bookkeeping -------------------------------------------------

    def start_round(self):
        self.phase = SETUP
        self.t_boundary = None
        self.t_end = None
        self.excluded_ns = [0, 0]
        self.covered_ns = [0, 0]
        self.engine_ns = 0
        self.iterations = 0
        self.incl: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.t_start = time.perf_counter_ns()

    def end_round(self):
        self.t_end = time.perf_counter_ns()
        if self.t_boundary is None:
            raise RuntimeError("the round made no solver-engine call")

    def phase_ns(self, phase: int) -> int:
        """Wall time of a phase, without the benchmark's own checks."""
        if phase == SETUP:
            return self.t_boundary - self.t_start - self.excluded_ns[SETUP]
        return self.t_end - self.t_boundary - self.excluded_ns[RUN]

    @contextmanager
    def excluded(self):
        """Benchmark work (checks) inside a round: untimed and untraced."""
        phase = self.phase
        self.paused = True
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self.excluded_ns[phase] += time.perf_counter_ns() - t0
            self.paused = False

    # -- installation ------------------------------------------------------

    @contextmanager
    def installed(self):
        """Install the wrappers for the lifetime of the block."""
        try:
            if self.traced:
                for owner, name, key in _FUNCTION_SPANS:
                    self._patch(owner, name, self._span(key, vars(owner)[name]))
                for cls, name, key in _method_spans():
                    self._patch(cls, name, self._span(key, vars(cls)[name]))
            self._patch(harness, "run", self._engine_clock(harness.run))
            yield self
        finally:
            for owner, name, original in reversed(self._patches):
                setattr(owner, name, original)
            self._patches.clear()

    def _patch(self, owner, name, replacement):
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, replacement)

    def _engine_clock(self, engine):
        """Outermost wrapper of the engine: marks the setup/run boundary,
        times the engine call and hands the trajectory to the checks."""

        def clocked(problem, schedule, x1, config, **kwargs):
            if self.t_boundary is None:
                self.t_boundary = time.perf_counter_ns()
                self.phase = RUN
            t0 = time.perf_counter_ns()
            traj = engine(problem, schedule, x1, config, **kwargs)
            self.engine_ns += time.perf_counter_ns() - t0
            self.iterations += config.k
            if self.on_run is not None:
                with self.excluded():
                    self.on_run(problem, config, traj)
            return traj

        return clocked

    def _span(self, key, fn):
        stack = self._stack

        def spanned(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            frame = [key, 0]
            stack.append(frame)
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter_ns() - t0
                stack.pop()
                phase = self.phase
                if key == "problems.operator":
                    key_here = f"{key}@{self._open_context()}"
                else:
                    key_here = key
                self.incl[phase, key_here] += dt
                self.self_ns[phase, key_here] += dt - frame[1]
                self.calls[phase, key_here] += 1
                if stack:
                    stack[-1][1] += dt
                else:
                    self.covered_ns[phase] += dt
                self._count(key, args, kwargs)

        return spanned

    def _open_context(self) -> str:
        for open_key, _ in reversed(self._stack):
            if open_key in OPERATOR_CONTEXTS:
                return open_key
        return "other"

    def _count(self, key, args, kwargs):
        if key == "geometry.project":
            if any(open_key == "metrics.weak_gap" for open_key, _ in self._stack):
                self.counts["metrics.weak_gap_project_calls"] += 1
        elif key == "metrics.rows":
            self.counts["metrics.checkpoints"] += len(args[2])
        elif key == "harness.csv":
            self.counts["harness.csv_files"] += 1
            self.counts["harness.csv_bytes"] += os.path.getsize(args[0])
