"""The dendrodyn benchmark: whole CLI experiments, timed end to end and by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout.  A workload (see ``workloads.py``) is a list
of ``dendrodyn run --config`` experiments.  One pass runs them one after
another, each in its own fresh interpreter, so system construction,
generator validation and report writing are paid per experiment, as a user
pays them, and nothing cached in one experiment helps the next.  Passes repeat
for S seconds and each metric is the median over passes.  Every report is
checked against the committed reference for its inputs (``checker.py``).

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over at
least five repetitions, one before each pass, of the summed time for a fresh
interpreter to import dendrodyn and build each distinct system of the
workload), ``wall_s`` (one pass, from
the first spawn to the last exit) and ``peak_rss_mb`` (largest child
``ru_maxrss`` in a pass).  ``--trace 1`` alternates untraced and traced passes
and reports per-layer calls and self time (``tracer.py``), work counts and the
tracing overhead.  In both modes the line before the result holds diagnostics
that are not gated: per-command wall times, ``error_rate``, the wall time of
each scaling-ladder rung, and a host-speed probe timed at the start and end of
every pass.  ``--smoke`` runs the smallest rung of each command of every
workload once and checks the reports.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import checker
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"  # configs, reports, traces and logs; rebuilt per run
SETUP_REPEATS = 5


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("DENDRODYN_LOG", None)  # a lower log level would add logging to the timings
    return env


class Child(NamedTuple):
    seconds: float   # wall time from spawn to exit
    code: int
    rss_kib: int     # ru_maxrss
    cpu_s: float     # user plus system time


def spawn(args: list[str], log_path: Path) -> Child:
    """Run one child of ``child.py`` to its exit."""
    with open(log_path, "wb") as log:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *args],
                                cwd=ROOT, env=_child_env(),
                                stdout=log, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        elapsed = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(elapsed, proc.returncode, usage.ru_maxrss,
                 usage.ru_utime + usage.ru_stime)


def host_probe_ms() -> float:
    """A fixed pure-Fraction kernel; its time tracks host speed, not dendrodyn."""
    start = perf_counter()
    total = Fraction(0)
    for k in range(1, 1500):
        total += Fraction(1, k) * Fraction(k + 1, k + 2)
    return (perf_counter() - start) * 1000


@dataclass
class Slot:
    """Where one experiment's config, report, trace and log live."""
    exp: workloads.Experiment
    config: Path
    report: Path
    trace: Path
    log: Path


def prepare(exps: list[workloads.Experiment], purpose: str) -> list[Slot]:
    work = WORK / purpose
    shutil.rmtree(work, ignore_errors=True)
    slots = []
    for i, exp in enumerate(exps):
        d = work / f"{i:02d}"
        (d / "out").mkdir(parents=True)
        config = d / "config.json"
        config.write_text(json.dumps(exp.config(str(d / "out"))), encoding="utf-8")
        slots.append(Slot(exp, config, d / "out" / f"{exp.command}.json",
                          d / "trace.json", d / "log.txt"))
    return slots


@dataclass
class Pass:
    wall_s: float
    children: list[Child]          # one per experiment, in order
    probe_ms: tuple[float, float]  # at the start and at the end
    failures: list[str]
    traces: list[dict] | None

    @property
    def seconds(self) -> list[float]:
        return [c.seconds for c in self.children]


def run_pass(slots: list[Slot], reference: dict, traced: bool) -> Pass:
    for slot in slots:
        slot.report.unlink(missing_ok=True)
        slot.trace.unlink(missing_ok=True)
    probe_start = host_probe_ms()
    results = []
    start = perf_counter()
    for slot in slots:
        args = ["run", str(slot.config)]
        if traced:
            args += ["--trace-out", str(slot.trace)]
        results.append(spawn(args, slot.log))
    wall = perf_counter() - start
    probe_end = host_probe_ms()
    failures = []
    for slot, child in zip(slots, results):
        problems = checker.check(slot.exp, child.code, slot.report, reference)
        if problems:
            tail = slot.log.read_text(errors="replace")[-300:]
            failures.append(f"{slot.exp.key}: {'; '.join(problems)} | {tail}")
    traces = None
    if traced:
        traces = [json.loads(slot.trace.read_text()) for slot in slots]
    return Pass(wall, results, (probe_start, probe_end), failures, traces)


def set_up(systems: list[str]) -> float:
    """Summed fresh-interpreter set-up time of the systems."""
    log = WORK / "bench" / "setup.log"
    total = 0.0
    for system in systems:
        child = spawn(["setup", system], log)
        if child.code != 0:
            raise RuntimeError(f"set-up of {system} failed: "
                               + log.read_text(errors="replace")[-500:])
        total += child.seconds
    return total


def run_rounds(slots, reference, systems, seconds: float, trace: bool):
    """Rounds until the next would overrun ``seconds``: (rounds, set-up times).

    An untraced round is one set-up repetition and one pass, so set-up is
    sampled across the whole run; a traced round is an untraced pass and a
    traced pass.
    """
    rounds, setups, durations = [], [], []
    start = perf_counter()
    while True:
        began = perf_counter()
        if not trace:
            setups.append(set_up(systems))
        plain = run_pass(slots, reference, traced=False)
        rounds.append((plain, run_pass(slots, reference, traced=True) if trace else None))
        durations.append(perf_counter() - began)
        if perf_counter() - start + statistics.median(durations) > seconds:
            break
    while not trace and len(setups) < SETUP_REPEATS:
        setups.append(set_up(systems))
    return rounds, setups


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def command_metrics(slots, passes: list[Pass]) -> dict:
    out = {}
    for command in dict.fromkeys(s.exp.command for s in slots):
        per_pass = [sum(t for s, t in zip(slots, p.seconds) if s.exp.command == command)
                    for p in passes]
        out[command.replace("-", "_") + "_s"] = metric(statistics.median(per_pass), "s")
    return out


def diagnostics(slots, passes: list[Pass], attempted: int, failed: int) -> dict:
    probes = [ms for p in passes for ms in p.probe_ms]
    return {
        "passes": len(passes),
        "pass_wall_s": [p.wall_s for p in passes],
        "pass_cpu_s": [sum(c.cpu_s for c in p.children) for p in passes],
        "command_metrics": command_metrics(slots, passes),
        "error_rate": metric(failed / attempted, "ratio"),
        "rungs_s": {s.exp.rung: statistics.median(p.seconds[i] for p in passes)
                    for i, s in enumerate(slots)},
        "host_probe_ms": {"median": statistics.median(probes),
                          "min": min(probes), "max": max(probes),
                          "first": probes[0], "last": probes[-1]},
    }


def _traced_totals(traced: Pass) -> dict:
    """One traced pass, summed over its children."""
    calls = dict.fromkeys(tracer.NAMES, 0)
    self_s = dict.fromkeys(tracer.NAMES, 0.0)
    counts = dict.fromkeys(tracer.COUNTS, 0)
    root = counting = 0.0
    for doc in traced.traces:
        for name in tracer.NAMES:
            calls[name] += doc["calls"][name]
            self_s[name] += doc["self_s"][name]
        for key, combine in tracer.COUNTS.items():
            counts[key] = combine(counts[key], doc["counts"][key])
        accounted = sum(doc["self_s"].values()) + doc["counting_s"]
        if abs(accounted - doc["root_s"]) > 1e-6 * max(1.0, doc["root_s"]):
            raise RuntimeError(f"self times {accounted} do not sum to spans {doc['root_s']}")
        root += doc["root_s"]
        counting += doc["counting_s"]
    return {"calls": calls, "self_s": self_s, "counts": counts,
            "counting_s": counting, "unwrapped_s": traced.wall_s - root}


def layer_metrics(slots, rounds) -> tuple[dict, dict]:
    """Per-layer metrics (medians over traced passes) and their diagnostics."""
    totals = [_traced_totals(traced) for _, traced in rounds]

    def med(key, name=None):
        return statistics.median(t[key] if name is None else t[key][name] for t in totals)

    out = {}
    for name in tracer.NAMES:
        out[f"{name}.calls"] = metric(med("calls", name), "count")
        out[f"{name}.self_s"] = metric(med("self_s", name), "s")
    for key in tracer.COUNTS:
        out[key] = metric(med("counts", key), "count")
    composes = out["homeo.compose.calls"]["value"]
    pushes = out["measure.push_forward.calls"]["value"]
    out["homeo.compose.per_push"] = metric(composes / pushes if pushes else 0.0,
                                           "compose/push")
    plain_wall = statistics.median(p.wall_s for p, _ in rounds)
    traced_wall = statistics.median(t.wall_s for _, t in rounds)
    out["trace.overhead"] = metric(traced_wall / plain_wall, "ratio")
    out["trace.unwrapped_s"] = metric(med("unwrapped_s"), "s")

    by_command = {}
    _, first = rounds[0]
    for slot, doc in zip(slots, first.traces):
        table = by_command.setdefault(slot.exp.command, dict.fromkeys(tracer.NAMES, 0.0))
        for name in tracer.NAMES:
            table[name] += doc["self_s"][name]
    # wrapped self time + counting + unwrapped remainder = traced wall time
    diag = {
        "traced_wall_s": traced_wall,
        "untraced_wall_s": plain_wall,
        "wrapped_self_s": statistics.median(sum(t["self_s"].values()) for t in totals),
        "counting_s": med("counting_s"),
        "per_push_base": f"{pushes} push_forward calls",
        "top_self_by_command_first_pass": {
            command: sorted(((round(s, 6), name) for name, s in table.items() if s),
                            reverse=True)[:3]
            for command, table in by_command.items()},
    }
    return out, diag


def benchmark(workload: str, seed: int, seconds: float, trace: bool) -> int:
    exps = workloads.experiments(workload, seed)
    reference = checker.load_reference(workload)
    slots = prepare(exps, "bench")
    systems = list(dict.fromkeys(e.system for e in exps))
    # Compile the package's bytecode once, outside every timed region.
    spawn(["setup", systems[0]], WORK / "bench" / "warmup.log")
    rounds, setup_runs = run_rounds(slots, reference, systems, seconds, trace)
    plain = [p for p, _ in rounds]
    every = plain + [t for _, t in rounds if t is not None]
    attempted = len(every) * len(slots)
    failures = [f for p in every for f in p.failures]
    diag = {"workload": workload, "seed": seed,
            "choice": workloads.choice_for(workload, seed),
            "setup_runs_s": setup_runs,
            **diagnostics(slots, plain, attempted, len(failures))}
    if trace:
        metrics, trace_diag = layer_metrics(slots, rounds)
        diag["trace"] = trace_diag
    else:
        metrics = {
            "setup_s": metric(statistics.median(setup_runs), "s"),
            "wall_s": metric(statistics.median(p.wall_s for p in plain), "s"),
            "peak_rss_mb": metric(
                statistics.median(max(c.rss_kib for c in p.children) for p in plain) / 1024,
                "MB"),
        }
    for failure in failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"diagnostics": diag}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def smoke() -> int:
    ok = True
    for workload in workloads.WORKLOADS:
        exps = workloads.smallest_rungs(workloads.experiments(workload, 0))
        slots = prepare(exps, "smoke")
        done = run_pass(slots, checker.load_reference(workload), traced=False)
        ok = ok and not done.failures
        print(json.dumps({"workload": workload, "experiments": len(slots),
                          "wall_s": done.wall_s, "failures": done.failures}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the smallest rung of every workload once")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dendrodyn" / "cli.py").is_file():
        print(f"error: no dendrodyn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    return benchmark(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
