"""The benchmark's workloads: lists of CLI experiments built from a seed.

Each experiment is one ``dendrodyn run --config`` call.  The seed picks only
the base points (a leaf of the binary tree, or a non-dyadic point of the unit
interval) from a fixed candidate list, so that every input the benchmark can
generate has a committed reference report (see ``make_reference.py``).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

# Leaf indices (least-significant bit first) on the odometer trees.  All leaves
# lie in one orbit, so every choice costs the same.
LEAVES = (0, 3, 5, 6, 9, 12, 17, 30)

# Non-dyadic starting points for the interval minimal-set experiment.  Orbit
# ball sizes from dyadic-free points vary by a factor of ten with the point;
# these eight give radius-8 balls of 159 to 186 points, so a seed does not
# change the workload's cost.
INTERVAL_POINTS = ("3/13", "2/15", "2/9", "4/21", "3/17", "4/19", "16/17", "5/12")

CERTIFY = {"n_max": 6, "mesh_target": "1/16"}


@dataclass(frozen=True)
class Experiment:
    command: str
    system: str
    parameters: dict
    rung: str               # name of this experiment's scaling-ladder rung
    expected_code: int = 0  # the negative control must end with exit 2

    @property
    def key(self) -> str:
        """Reference key: the config fields the report depends on."""
        return f"{self.command} {self.system} {json.dumps(self.parameters, sort_keys=True)}"

    def config(self, out_dir: str) -> dict:
        return {"command": self.command, "system": self.system,
                "parameters": self.parameters, "out": out_dir}


def _tree_geometry(choice: int) -> list[Experiment]:
    x = {"leaf": LEAVES[choice]}
    exps = [Experiment("certify", f"odometer:D={d}", {**CERTIFY, "x": x},
                       rung=f"certify.D={d}") for d in (7, 8, 9)]
    exps.append(Experiment("certify", "odometer-corrupt:D=8", {**CERTIFY, "x": x},
                           rung="certify.corrupt.D=8", expected_code=2))
    exps += [Experiment("classify", f"odometer:D={d}", {"x": x},
                        rung=f"classify.D={d}") for d in (6, 7, 8)]
    return exps


def _tree_transport(choice: int) -> list[Experiment]:
    dirac = {"dirac": {"leaf": LEAVES[choice]}}
    exps = [Experiment("folner-average", "odometer:D=5", {"n": n, "measure": dirac},
                       rung=f"folner-average.n={n}") for n in (4, 8, 16)]
    exps.append(Experiment("defect", "odometer:D=5",
                           {"ns": list(range(1, 7)), "measure": dirac},
                           rung="defect.ns=1..6"))
    exps.append(Experiment("proximality", "odometer:D=3",
                           {"R": 3, "measure": "canonical"}, rung="proximality.R=3"))
    return exps


def _interval_transport(choice: int) -> list[Experiment]:
    exps = [Experiment("folner-average", "thompson", {"n": n, "measure": "canonical"},
                       rung=f"folner-average.n={n}") for n in (8, 16, 32)]
    exps.append(Experiment("defect", "thompson",
                           {"ns": list(range(1, 13)), "measure": "canonical"},
                           rung="defect.ns=1..12"))
    exps.append(Experiment("proximality", "thompson",
                           {"R": 5, "measure": "canonical"}, rung="proximality.R=5"))
    exps.append(Experiment("minimal-set", "thompson",
                           {"R": 8, "x": INTERVAL_POINTS[choice]}, rung="minimal-set.R=8"))
    return exps


WORKLOADS = {
    "tree-geometry": (_tree_geometry, len(LEAVES)),
    "tree-transport": (_tree_transport, len(LEAVES)),
    "interval-transport": (_interval_transport, len(INTERVAL_POINTS)),
}


def choice_for(workload: str, seed: int) -> int:
    _, choices = WORKLOADS[workload]
    return random.Random(seed).randrange(choices)


def experiments(workload: str, seed: int) -> list[Experiment]:
    build, _ = WORKLOADS[workload]
    return build(choice_for(workload, seed))


def all_experiments(workload: str) -> list[Experiment]:
    """Every experiment any seed can generate, each once."""
    build, choices = WORKLOADS[workload]
    unique = {}
    for choice in range(choices):
        for exp in build(choice):
            unique.setdefault(exp.key, exp)
    return list(unique.values())


def smallest_rungs(exps: list[Experiment]) -> list[Experiment]:
    """The first (smallest) experiment of each command, plus any negative control."""
    seen, out = set(), []
    for exp in exps:
        if exp.command not in seen or exp.expected_code:
            seen.add(exp.command)
            out.append(exp)
    return out
