#!/usr/bin/env python3
"""Write a golden set of oevi outputs and print its sha256 manifest.

Runs, each in a fresh process started in the repository root:
  - ``oevi run`` and ``oevi check`` on the four configs next to this script
    (golden_traffic.ini, golden_glm.ini, golden_glm_sparse.ini, and
    golden_ragged.ini, whose instance is golden_ragged.json);
  - ``oevi suite traffic --sizes 200,500``, ``oevi suite glm-hinge`` and
    ``oevi suite glm-ramp``;
  - ``oevi validate-schedule`` on every policy at one setting, plus the
    settings in VALIDATIONS that fail a side condition or print a note.

All outputs land under OUTDIR.  The manifest lists ``<sha256>  <path>`` for
every file except the wall-clock ``timing.csv``, sorted by path.  With
``--compare MANIFEST`` the script prints, in place of the manifest, every
entry that is added, missing or changed against MANIFEST, and exits 1 on any
difference, so byte identity between two checkouts is:

    python3 scripts/golden_csvs.py /tmp/golden-a --src ../other/src > a.txt
    python3 scripts/golden_csvs.py /tmp/golden-b --compare a.txt

With ``--against OLD_OUTDIR`` as well (the directory that wrote MANIFEST),
each changed entry is followed by its drift: for a CSV, the largest relative
change |new - old| / |old| of every column that moved; for any other file,
the lines that differ.

The processes run two at a time, or one on a single available CPU.  With
OPENBLAS_NUM_THREADS=1 on a 2-core host the whole set took 96-99 s over
two runs, against 168-176 s over two runs one process at a time.
"""

from __future__ import annotations

import argparse
import csv
import difflib
import hashlib
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
CONFIGS = ("golden_traffic.ini", "golden_glm.ini", "golden_glm_sparse.ini", "golden_ragged.ini")
SUITES = (("traffic", "--sizes", "200,500"), ("glm-hinge",), ("glm-ramp",))
# spelled out, not imported: the script runs against any checkout's --src
POLICY_NAMES = ("OE-GSMVI", "OE-GMVI", "OE-MVI", "SOE-1", "SOE-2", "SOE-3", "SOE-4",
                "SOE-MVI", "SBOE-GSMVI", "SBOE-MVI", "SA", "SA-RM")
VALIDATE_SETTING = ("--L", "2", "--mu", "0.1", "--sigma", "1", "--V1", "1", "--b", "4",
                    "--k", "1000")
# (report name, validate-schedule arguments)
VALIDATIONS = (
    *((name, (name, *VALIDATE_SETTING)) for name in POLICY_NAMES),
    # L^2 gamma_k^2 exceeds the block final-step bound
    ("SBOE-GSMVI_final", ("SBOE-GSMVI", "--L", "10", "--Lbar", "1", "--b", "2", "--mu", "0.1",
                          "--k", "100")),
    ("SBOE-MVI_final", ("SBOE-MVI", "--L", "10", "--Lbar", "1", "--b", "2", "--k", "100")),
    # the noise dominates mu^2 V1, so q is clamped
    ("SOE-2_clamped", ("SOE-2", "--L", "1", "--mu", "0.01", "--sigma", "100", "--V1", "1",
                       "--k", "100")),
)
UNSTABLE = {"timing.csv"}  # wall-clock table, outside the byte-identity contract
# oevi processes at a time: the available CPUs, at most two
WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1)


def oevi(src: Path, args: list[str], stdout_path: Path | None = None) -> str | None:
    """Run one ``oevi`` command in a fresh process; the error report if it
    failed, else None."""
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, "-m", "oevi.cli", *args]
    if stdout_path is None:
        stdout_path = Path(os.devnull)
    else:
        stdout_path.parent.mkdir(parents=True, exist_ok=True)
    with open(stdout_path, "w") as out:
        # from the repository root, where golden_ragged.ini finds its instance
        proc = subprocess.run(cmd, env=env, cwd=HERE.parent, stdout=out,
                              stderr=subprocess.PIPE, text=True)
    # check and validate-schedule exit 2 on a failure; the output still
    # belongs in the manifest
    if proc.returncode not in (0, 2):
        return f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}"
    return None


def run_all(src: Path, jobs: list[tuple[list[str], Path | None]]):
    """Run every (arguments, stdout path) job, ``WORKERS`` at a time, and
    exit with the first failure in job order.  Each job writes its own
    files, so the outputs do not depend on the order the jobs finish in."""
    with ThreadPoolExecutor(WORKERS) as pool:
        futures = [pool.submit(oevi, src, args, stdout_path) for args, stdout_path in jobs]
        for future in futures:
            error = future.result()
            if error is not None:
                pool.shutdown(cancel_futures=True)
                sys.exit(error)


def manifest(outdir: Path) -> list[str]:
    lines = []
    for path in sorted(p for p in outdir.rglob("*") if p.is_file()):
        if path.name in UNSTABLE:
            continue
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        lines.append(f"{digest}  {path.relative_to(outdir)}")
    return lines


def compare(lines: list[str], reference: list[str]) -> list[str]:
    """``added``/``missing``/``changed`` lines for the paths whose digests
    differ between two manifests, sorted by path."""
    new, old = ({path: digest for digest, path in (line.split("  ", 1) for line in m if line)}
                for m in (lines, reference))
    diffs = []
    for path in sorted(new.keys() | old.keys()):
        if path not in old:
            diffs.append(f"added    {path}")
        elif path not in new:
            diffs.append(f"missing  {path}")
        elif new[path] != old[path]:
            diffs.append(f"changed  {path}")
    return diffs


def _relative_change(new: str, old: str) -> float | None:
    """|new - old| / |old| of two CSV cells, 0 for equal text, None when
    either cell is not a number."""
    if new == old:
        return 0.0
    try:
        a, b = float(new), float(old)
    except ValueError:
        return None
    if a == b:
        return 0.0
    return abs(a - b) / abs(b) if b else math.inf


def csv_drift(new_path: Path, old_path: Path) -> list[str]:
    """One line per CSV column that moved: its largest relative change, or
    how many of its cells changed text when a changed cell is not a number."""
    with open(new_path, newline="") as f:
        new = list(csv.reader(f))
    with open(old_path, newline="") as f:
        old = list(csv.reader(f))
    if not new or not old or new[0] != old[0] or len(new) != len(old):
        return [f"header or row count differs ({len(new)} vs {len(old)} rows)"]
    lines = []
    for col, name in enumerate(new[0]):
        changes = [_relative_change(a[col], b[col]) for a, b in zip(new[1:], old[1:])]
        if any(c is None for c in changes):
            lines.append(f"{name}: {sum(c != 0.0 for c in changes)} cells changed text")
        elif max(changes, default=0.0) > 0.0:
            lines.append(f"{name}: largest relative change {max(changes):.3g}")
    return lines


def drift(new_path: Path, old_path: Path) -> list[str]:
    """How one changed entry differs from its old version."""
    if new_path.suffix == ".csv":
        return csv_drift(new_path, old_path)
    diff = difflib.unified_diff(old_path.read_text().splitlines(),
                                new_path.read_text().splitlines(), lineterm="", n=0)
    return [line for line in diff if line[:3] not in ("---", "+++") and line[:2] != "@@"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", type=Path)
    parser.add_argument("--src", type=Path, default=HERE.parent / "src",
                        help="directory holding the oevi package (default: this checkout's src)")
    parser.add_argument("--compare", type=Path, metavar="MANIFEST",
                        help="print the differences from MANIFEST; exit 1 if there are any")
    parser.add_argument("--against", type=Path, metavar="OLD_OUTDIR",
                        help="with --compare: the output directory MANIFEST was written "
                             "from; print each changed entry's drift")
    args = parser.parse_args(argv)
    if args.against is not None and args.compare is None:
        parser.error("--against needs --compare")
    reference = args.compare.read_text().splitlines() if args.compare else None
    outdir, src = args.outdir.resolve(), args.src.resolve()
    outdir.mkdir(parents=True, exist_ok=True)
    jobs = []
    for cfg in CONFIGS:
        stem = Path(cfg).stem
        jobs.append((["run", str(HERE / cfg), "--output", str(outdir / "run" / stem)], None))
        jobs.append((["check", str(HERE / cfg)], outdir / "check" / f"{stem}.txt"))
    for name, *extra in SUITES:
        # the suite summaries quote wall-clock times, so only their CSVs count
        jobs.append((["suite", name, *extra, "--output", str(outdir / "suite" / name)], None))
    for stem, flags in VALIDATIONS:
        jobs.append((["validate-schedule", *flags], outdir / "validate" / f"{stem}.txt"))
    run_all(src, jobs)
    lines = manifest(outdir)
    if reference is None:
        print("\n".join(lines))
        return 0
    diffs = compare(lines, reference)
    for line in diffs:
        print(line)
        status, path = line.split(maxsplit=1)
        if args.against is not None and status == "changed":
            for detail in drift(outdir / path, args.against / path):
                print(f"    {detail}")
    print(f"{len(diffs)} entries differ from {args.compare} ({len(lines)} written)")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
