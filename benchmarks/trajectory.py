#!/usr/bin/env python3
"""Append one row to the committed end-to-end perf trajectory.

Run from the repository root::

    python3 benchmarks/trajectory.py

Runs every ``benchmarks/e2e`` workload untraced and traced at seed 1 and
10 s (``run.write_baseline``, into a temporary file and a temporary
output directory, so nothing under ``benchmarks/e2e`` is written) and
appends the resulting baseline document as one compact JSON line to
``BENCH_e2e.jsonl`` at the repository root.  A perf change appends its
row, so the diff it leaves is one line per run.  To measure another
commit, run this script from a clone of it and copy the row over.
Every line is a baseline document that
``python3 benchmarks/e2e/check_result.py -`` accepts.

The row's ``meta`` carries ``dirty``: true when tracked files differed
from ``git_sha`` at run time (a change measured before it is committed).
The exit code is 0 only when every workload's correctness gate passed.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
TRAJECTORY = ROOT / "BENCH_e2e.jsonl"
SEED = 1
SECONDS = 10


def tree_is_dirty() -> bool:
    """Whether tracked files differ from the checked-out commit."""
    try:
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, cwd=ROOT, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return False
    return bool(status.stdout.strip())


def measure() -> tuple[dict, bool]:
    """One baseline document for this checkout, and whether it was correct."""
    sys.path.insert(0, str(HERE / "e2e"))
    import run
    run.import_program()
    import workloads

    with tempfile.TemporaryDirectory(prefix="trajectory-") as tmp:
        tmp_dir = pathlib.Path(tmp)
        out_dir = tmp_dir / "out"
        out_dir.mkdir()
        path = tmp_dir / "baseline.json"
        ok = run.write_baseline(path, SEED, SECONDS, out_dir,
                                list(workloads.WORKLOADS))
        row = json.loads(path.read_text())
    row["meta"]["dirty"] = tree_is_dirty()
    return row, ok


def append_row(row: dict, path: pathlib.Path) -> None:
    """Append ``row`` to ``path`` as one compact JSON line."""
    with path.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(row, separators=(",", ":")) + "\n")


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(
        argv)
    row, ok = measure()
    append_row(row, TRAJECTORY)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
