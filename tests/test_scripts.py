"""Tests for the helper scripts under scripts/."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.fixture(scope="module")
def golden():
    spec = importlib.util.spec_from_file_location("golden_csvs", SCRIPTS / "golden_csvs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


def test_csv_drift_reports_largest_relative_change_per_column(tmp_path, golden):
    old = write(tmp_path / "old.csv", "t,x,y,name\n0,1.0,,a\n1,2.0,5,b\n2,0,0,c\n")
    new = write(tmp_path / "new.csv", "t,x,y,name\n0,1.0,,a\n1,2.5,5,b\n2,0,0,d\n")
    assert golden.csv_drift(new, old) == ["x: largest relative change 0.25",
                                          "name: 1 cells changed text"]


def test_csv_drift_from_zero_is_infinite(tmp_path, golden):
    old = write(tmp_path / "old.csv", "x\n0\n")
    new = write(tmp_path / "new.csv", "x\n1e-300\n")
    assert golden.csv_drift(new, old) == ["x: largest relative change inf"]


def test_csv_drift_flags_a_changed_shape(tmp_path, golden):
    old = write(tmp_path / "old.csv", "x\n1\n")
    new = write(tmp_path / "new.csv", "x\n1\n2\n")
    assert golden.csv_drift(new, old) == ["header or row count differs (3 vs 2 rows)"]


def test_text_drift_lists_the_lines_that_differ(tmp_path, golden):
    old = write(tmp_path / "old.txt", "same\n[PASS] L=1.0000000000000002\nend\n")
    new = write(tmp_path / "new.txt", "same\n[PASS] L=1.0000000000000004\nend\n")
    assert golden.drift(new, old) == ["-[PASS] L=1.0000000000000002",
                                      "+[PASS] L=1.0000000000000004"]
