"""The benchmark's quick rounds, run as its driver runs them: a rename of a
name ``perfbench/spans.py`` wraps, or a change that breaks a round's checks,
fails here rather than first in the benchmark.  The runs write under
``perfbench/out/``."""

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
