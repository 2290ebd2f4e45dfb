"""The benchmark's quick rounds, run as its driver runs them: a rename of a
name ``perfbench/spans.py`` wraps, or a change that breaks a round's checks,
fails here rather than first in the benchmark.  The runs write under
``perfbench/out/``.  The text each fault of the benchmark's self-test is
planted on must stay in ``src/``, once."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("trace", [0, 1], ids=["end-to-end", "traced"])
@pytest.mark.parametrize("workload", ["traffic-solve", "gap-trace"])
def test_quick_round_is_correct(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--quick", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, (result, proc.stderr)
    assert result["attempted"] > 0 and result["metrics"]


def _planted_faults():
    """``MUTATIONS`` of ``perfbench/selftest.py``, read from its source text,
    so nothing under ``perfbench/`` is imported or written."""
    tree = ast.parse((ROOT / "perfbench" / "selftest.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["MUTATIONS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/selftest.py assigns no MUTATIONS")


PLANTED = _planted_faults()


@pytest.mark.parametrize("workload, path, text, fault", PLANTED,
                         ids=[workload for workload, *_ in PLANTED])
def test_planted_fault_text_occurs_once(workload, path, text, fault):
    # the self-test patches this text in a copy of src/: a text that moved
    # would leave the fault unplanted
    assert (ROOT / "src" / path).read_text().count(text) == 1, (workload, path, text)
