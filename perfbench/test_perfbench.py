"""Self-test of the benchmark: tiny seeded runs of every workload.

    python3 -m pytest perfbench/test_perfbench.py -q

Checks that each run prints every metric BENCHMARK.json names, with its
unit, in the human lines and in the final JSON line; that the outcome
fractions and the count-type metrics repeat exactly for one seed; and that
the command refuses to run where the package sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
OUTCOME_FRACTIONS = ("failed_frac", "optimal_frac", "length_ratio")


def bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3):
    return subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
            "--scale", "tiny",
        ],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def parse(proc) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    printed = {}
    for line in lines[:-1]:
        if line.startswith("metric "):
            _, name, value, unit = line.split()
            printed[name] = (float(value), unit)
    return result, printed


def check_metrics(result: dict, printed: dict, listed: list[dict]) -> None:
    expected = {m["name"]: m["unit"] for m in listed}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert printed[name][1] == metric["unit"], name
        assert isinstance(metric["value"], (int, float)), name
        assert printed[name][0] == metric["value"], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_printed_and_outcomes_repeat(workload):
    runs = [parse(bench(workload, 0)) for _ in range(2)]
    for result, printed in runs:
        check_metrics(result, printed, SPEC["end_to_end"])
    first, second = (printed for _, printed in runs)
    for name in OUTCOME_FRACTIONS:
        assert first[name] == second[name], name
    for key in ("attempted", "failed"):
        assert runs[0][0][key] == runs[1][0][key], key


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_are_printed_and_counts_repeat(workload):
    runs = [parse(bench(workload, 1)) for _ in range(2)]
    for result, printed in runs:
        check_metrics(result, printed, SPEC["per_layer"])
    first, second = (result["metrics"] for result, _ in runs)
    for m in SPEC["per_layer"]:
        if m["unit"] == "count" or m["name"] in OUTCOME_FRACTIONS:
            assert first[m["name"]]["value"] == second[m["name"]]["value"], m["name"]
    for key in ("attempted", "failed"):
        assert runs[0][0][key] == runs[1][0][key], key


def test_refuses_to_run_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
