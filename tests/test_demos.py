"""Smoke test of the demos under demos/: each runs to the end in a fresh
process, exits 0 and writes no traceback or warning.  Demo 02, whose
stochastic runs take several seconds, is left out."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["01_deterministic_rates", "03_block_solver",
                                  "04_schedule_validation"])
def test_demo_runs_clean(demo):
    src = str(ROOT / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")],
                          env=dict(os.environ, PYTHONPATH=path), cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    for text in ("Traceback", "Warning"):
        assert text not in proc.stderr, proc.stderr
