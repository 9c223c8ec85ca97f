"""Correctness of one experiment: its exit code, its reference, its invariants.

A report passes when it holds every key of the reference report recorded for
the same experiment, with an equal value (added keys are allowed), and when
the exact invariants the paper's claims give hold:

* ``certify`` on the odometer is ``Certified`` and level n has mesh 2**(1-n);
* the ``odometer-corrupt`` control ends with exit 2 and verdict ``Failed``;
* ``classify`` on the depth-D odometer is ``cantor-like`` of size 2**D;
* ``proximality`` on the odometer (an isometry) has a flat trace;
* every ``defect`` row is at most its 2*sup/(2n+1) column.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str) -> dict:
    with open(reference_path(workload), encoding="utf-8") as fh:
        return json.load(fh)


def _depth(system: str) -> int | None:
    _, _, args = system.partition(":")
    for part in args.split(","):
        key, _, value = part.partition("=")
        if key == "D":
            return int(value)
    return None


def invariant_problems(exp, report: dict) -> list[str]:
    problems = []
    depth = _depth(exp.system)
    if exp.command == "certify":
        verdict = "Failed" if exp.expected_code == 2 else "Certified"
        if report.get("verdict") != verdict:
            problems.append(f"verdict {report.get('verdict')!r}, expected {verdict!r}")
        if not exp.expected_code:
            for level in report.get("levels", ()):
                if Fraction(level["mesh"]) != Fraction(2) ** (1 - level["n"]):
                    problems.append(f"level {level['n']} mesh {level['mesh']}")
    elif exp.command == "classify" and depth is not None:
        if report.get("verdict") != "cantor-like" or report.get("size") != 2 ** depth:
            problems.append(f"classify gave {report.get('verdict')!r} of size "
                            f"{report.get('size')}, expected cantor-like of size {2 ** depth}")
    elif exp.command == "proximality" and depth is not None:
        spreads = {row[1] for row in report.get("rows", ())}
        if len(spreads) != 1:
            problems.append(f"odometer proximality trace is not flat: {sorted(spreads)}")
    elif exp.command == "defect":
        for n, defect, bound in report.get("rows", ()):
            if Fraction(defect) > Fraction(bound):
                problems.append(f"defect {defect} above 2*sup/(2n+1) = {bound} at n={n}")
    return problems


def check(exp, code: int, report_path: Path, reference: dict) -> list[str]:
    """Everything wrong with one experiment's outcome; empty when it passed."""
    if code != exp.expected_code:
        return [f"exit code {code}, expected {exp.expected_code}"]
    try:
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"no readable report: {exc}"]
    return check_report(exp, report, reference)


def check_report(exp, report: dict, reference: dict) -> list[str]:
    expected = reference.get(exp.key)
    if expected is None:
        return [f"no reference for {exp.key}"]
    problems = []
    for key, value in expected.items():
        if key not in report:
            problems.append(f"missing key {key!r}")
        elif report[key] != value:
            problems.append(f"value of {key!r} differs from the reference")
    return problems + invariant_problems(exp, report)
