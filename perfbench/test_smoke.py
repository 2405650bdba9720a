"""Smoke test of the benchmark itself, kept out of the tier-1 suite.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload at a tiny size in both modes and checks that each metric
BENCHMARK.json names is printed with its unit and that every output check
passes.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_every_metric_printed_with_its_unit():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", "3",
         "--seconds", "1", "--tiny"],
        capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for workload in SPEC["workloads"]:
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            name, unit = f"{workload['name']}.{metric['name']}", metric["unit"]
            assert result["metrics"][name]["unit"] == unit
            assert isinstance(result["metrics"][name]["value"], (int, float))
            line = rf"^# {re.escape(workload['name'])} +{re.escape(metric['name'])} +\S+ {unit}$"
            assert re.search(line, proc.stdout, re.M), name
    assert result["metrics"]["montecarlo.simulator.false_negatives"]["value"] == 0
    assert result["metrics"]["solver.tcdelta.iterations"]["value"] > 0
    assert result["metrics"]["closed-form.linalg.eigh_calls"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "solver", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
