"""Self-test of the benchmark's correctness check and its smoke mode.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

import checker
import workloads

HERE = Path(__file__).resolve().parent


def _first(workload: str, command: str):
    exp = next(e for e in workloads.experiments(workload, 0) if e.command == command)
    reference = checker.load_reference(workload)
    return exp, reference, copy.deepcopy(reference[exp.key])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_generated_experiment_has_a_passing_reference(workload):
    reference = checker.load_reference(workload)
    for seed in range(20):
        for exp in workloads.experiments(workload, seed):
            assert checker.check_report(exp, reference[exp.key], reference) == []


def test_altered_exact_value_is_a_failure():
    exp, reference, report = _first("interval-transport", "folner-average")
    defect = report["defect"]
    num, _, den = defect.partition("/")
    report["defect"] = f"{int(num) + 1}/{den or 1}"
    assert checker.check_report(exp, report, reference) == [
        "value of 'defect' differs from the reference"]


def test_altered_mesh_breaks_reference_and_invariant():
    exp, reference, report = _first("tree-geometry", "certify")
    report["levels"][2]["mesh"] = "1/5"
    problems = checker.check_report(exp, report, reference)
    assert "value of 'levels' differs from the reference" in problems
    assert "level 3 mesh 1/5" in problems


def test_missing_key_fails_and_added_key_passes():
    exp, reference, report = _first("tree-transport", "defect")
    report["provenance"] = {"witness": "g"}
    assert checker.check_report(exp, report, reference) == []
    del report["rows"]
    assert checker.check_report(exp, report, reference) == ["missing key 'rows'"]


def test_negative_control_must_fail_with_exit_2(tmp_path):
    exp = next(e for e in workloads.experiments("tree-geometry", 0) if e.expected_code)
    reference = checker.load_reference("tree-geometry")
    path = tmp_path / "certify.json"
    path.write_text(json.dumps(reference[exp.key]))
    assert checker.check(exp, 2, path, reference) == []
    assert checker.check(exp, 0, path, reference) == ["exit code 0, expected 2"]


def test_smoke_mode_passes():
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=300, check=False)
    assert done.returncode == 0, done.stdout + done.stderr
    rows = [json.loads(line) for line in done.stdout.splitlines()]
    assert [row["workload"] for row in rows] == list(workloads.WORKLOADS)
    assert all(row["failures"] == [] for row in rows)
