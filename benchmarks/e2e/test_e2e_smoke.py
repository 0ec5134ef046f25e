"""Smoke test of the end-to-end benchmark: schema, not speed.

Opt-in like the rest of the benchmark harness (``pytest benchmarks/e2e``;
bare ``pytest`` stays on ``tests/``).  Runs every workload at
``--scale 0.05`` for two seconds, untraced and traced, and checks that
what is printed is what ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [entry["name"] for entry in BENCHMARK["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_follows_the_contract():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    assert BENCHMARK["command"][-1].startswith("benchmarks/e2e/")
    assert isinstance(BENCHMARK["run_seconds"], int) and 1 <= BENCHMARK["run_seconds"] <= 60
    assert len(WORKLOADS) == 4
    for entry in BENCHMARK["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    assert len(BENCHMARK["end_to_end"]) == 7
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    for entry in BENCHMARK["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 <= entry["bound"] <= 0.25
    for entry in BENCHMARK["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    declared = BENCHMARK["workloads"] + BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    names = [entry["name"] for entry in declared]
    assert len(names) == len(set(names))
    for entry in declared:
        assert NAME.fullmatch(entry["name"]), entry["name"]
        assert entry.get("better", "lower") in ("lower", "higher")
        assert UNIT.fullmatch(entry.get("unit", "s")), entry
    setup = next(e for e in BENCHMARK["end_to_end"] if e["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(e["bound"] for e in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_the_declared_metrics(workload, trace):
    child = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "2", "--scale", "0.05", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert child.returncode == 0, child.stdout + child.stderr
    lines = child.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [entry["name"] for entry in declared]
    printed = {words[0] for words in map(str.split, lines[:-1]) if words}
    for entry in declared:
        reported = result["metrics"][entry["name"]]
        assert reported["unit"] == entry["unit"]
        assert isinstance(reported["value"], (int, float))
        assert f"{workload}/{entry['name']}" in printed
    if not trace:
        assert all(reported["value"] > 0 for reported in result["metrics"].values())
