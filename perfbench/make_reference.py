"""Record the reference reports that ``checker.py`` compares against.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs every experiment that any seed can generate, once, through the same
child path as the benchmark, and writes ``reference/<workload>.json`` mapping
each experiment's key to its report.  Every report must already satisfy the
exact invariants of ``checker.py``.  The references pin the program's output
at the commit that recorded them: rerun this only for a change that is meant
to alter reports, and say so in that change.
"""

from __future__ import annotations

import json
import sys

import checker
import run
import workloads


def record(workload: str) -> dict:
    exps = workloads.all_experiments(workload)
    slots = run.prepare(exps, "reference")
    reference = {}
    for slot in slots:
        code = run.spawn(["run", str(slot.config)], slot.log).code
        if code != slot.exp.expected_code:
            raise SystemExit(f"{slot.exp.key}: exit {code}\n"
                             + slot.log.read_text(errors="replace"))
        report = json.loads(slot.report.read_text(encoding="utf-8"))
        problems = checker.invariant_problems(slot.exp, report)
        if problems:
            raise SystemExit(f"{slot.exp.key}: {problems}")
        reference[slot.exp.key] = report
    return reference


def main(names: list[str]) -> int:
    checker.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in names or list(workloads.WORKLOADS):
        reference = record(workload)
        with open(checker.reference_path(workload), "w", encoding="utf-8") as fh:
            json.dump(reference, fh, sort_keys=True, indent=1)
            fh.write("\n")
        print(f"{workload}: {len(reference)} reports")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
