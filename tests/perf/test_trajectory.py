"""The committed perf trajectory (``BENCH_e2e.jsonl``) and its writer.

Every line must be one baseline document that the end-to-end benchmark's
own checker accepts against ``BENCHMARK.json``, the same check CI runs
on each row.
"""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[2]
TRAJECTORY = ROOT / "BENCH_e2e.jsonl"


def _load(name: str, path: pathlib.Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_result = _load("check_result",
                     ROOT / "benchmarks" / "e2e" / "check_result.py")
trajectory = _load("trajectory", ROOT / "benchmarks" / "trajectory.py")


def test_every_committed_row_passes_the_benchmark_checker():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines = TRAJECTORY.read_text().splitlines()
    assert lines
    for number, line in enumerate(lines, 1):
        row = json.loads(line)
        assert check_result.check(row, spec) == [], number
        assert row["seed"] == trajectory.SEED
        assert row["seconds"] == trajectory.SECONDS
        assert isinstance(row["meta"]["dirty"], bool)


def test_append_row_writes_one_compact_line_per_row(tmp_path):
    path = tmp_path / "trajectory.jsonl"
    rows = [{"meta": {"git_sha": "a"}, "workloads": {"w": {"x": [1, 2]}}},
            {"meta": {"git_sha": "b"}, "workloads": {}}]
    for row in rows:
        trajectory.append_row(row, path)
    lines = path.read_text().splitlines()
    assert [json.loads(line) for line in lines] == rows
    assert all(" " not in line for line in lines)
