#!/usr/bin/env python3
"""Write a golden set of oevi outputs and print its sha256 manifest.

Runs, each in a fresh process:
  - ``oevi run`` and ``oevi check`` on the two configs next to this script
    (golden_traffic.ini, golden_glm.ini);
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

The whole set took 109-155 s over two runs on a 2-core host with
OPENBLAS_NUM_THREADS=1.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CONFIGS = ("golden_traffic.ini", "golden_glm.ini")
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


def oevi(src: Path, args: list[str], stdout_path: Path | None = None):
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, "-m", "oevi.cli", *args]
    if stdout_path is None:
        stdout_path = Path(os.devnull)
    else:
        stdout_path.parent.mkdir(parents=True, exist_ok=True)
    with open(stdout_path, "w") as out:
        proc = subprocess.run(cmd, env=env, stdout=out, stderr=subprocess.PIPE, text=True)
    # check and validate-schedule exit 2 on a failure; the output still
    # belongs in the manifest
    if proc.returncode not in (0, 2):
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", type=Path)
    parser.add_argument("--src", type=Path, default=HERE.parent / "src",
                        help="directory holding the oevi package (default: this checkout's src)")
    parser.add_argument("--compare", type=Path, metavar="MANIFEST",
                        help="print the differences from MANIFEST; exit 1 if there are any")
    args = parser.parse_args(argv)
    reference = args.compare.read_text().splitlines() if args.compare else None
    outdir, src = args.outdir.resolve(), args.src.resolve()
    outdir.mkdir(parents=True, exist_ok=True)
    for cfg in CONFIGS:
        stem = Path(cfg).stem
        oevi(src, ["run", str(HERE / cfg), "--output", str(outdir / "run" / stem)])
        oevi(src, ["check", str(HERE / cfg)], outdir / "check" / f"{stem}.txt")
    for name, *extra in SUITES:
        # the suite summaries quote wall-clock times, so only their CSVs count
        oevi(src, ["suite", name, *extra, "--output", str(outdir / "suite" / name)])
    for stem, flags in VALIDATIONS:
        oevi(src, ["validate-schedule", *flags], outdir / "validate" / f"{stem}.txt")
    lines = manifest(outdir)
    if reference is None:
        print("\n".join(lines))
        return 0
    diffs = compare(lines, reference)
    for line in diffs:
        print(line)
    print(f"{len(diffs)} entries differ from {args.compare} ({len(lines)} written)")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
