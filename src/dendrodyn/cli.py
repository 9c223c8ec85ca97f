"""Config-driven experiment runner.

One experiment = one JSON config: a system (zoo name or explicit files), a
command, and parameters.  Reports are deterministic JSON (sorted keys, exact
rationals as strings); ``--format csv`` additionally writes the two-column
plot table for commands that have one.  Exit codes: 0 success, 2 when a
verdict comes back Failed, 1 on errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import serialization as ser
from .action import (
    Word,
    classify_minimal_set,
    detect_finite_orbit,
    minimal_set_approx,
    orbit,
    word_images,
)
from .dendrite import eps_grid_values, hausdorff_distance
from .equicontinuity import (
    build_tree_tower,
    equicontinuity_certificate,
    strong_proximality_scan,
    tamper_remove_edge,
    verify_cover_equivariance,
)
from .errors import ConfigInvalid, DendrodynError, ReportMissing
from .measure import (
    TestFunction,
    canonical_measure,
    dirac,
    folner_average,
    folner_ratio,
    invariance_defect,
    push_forward,
)
from .util import Record, frac, frac_str, read_param
from .zoo import (
    ZooSystem,
    folner_scheme_Z,
    get_system,
    leaf_point,
    list_systems,
    verify_paradox_partition,
)

COMMANDS = ("orbit", "finite-orbit", "minimal-set", "classify", "tower", "cover",
            "certify", "measure", "pushforward", "folner-average", "defect",
            "paradox-check", "folner-ratio", "proximality", "zoo")

SYSTEMLESS = {"paradox-check", "folner-ratio", "zoo"}

MINIMAL_CLASSES = ("finite", "finite-orbit", "cantor-like", "whole-space")


class ExperimentConfig(Record):
    command: str
    system: object = None
    parameters: dict
    out: str = "."
    format: str = "json"
    seed: int = 0

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ConfigInvalid("config must be a JSON object")
        command = doc.get("command")
        if command not in COMMANDS:
            raise ConfigInvalid(f"unknown command {command!r}; expected one of {COMMANDS}")
        parameters = doc.get("parameters", {})
        if not isinstance(parameters, dict):
            raise ConfigInvalid(f"parameters must be an object, got {parameters!r}")
        cfg = cls(command=command,
                  system=doc.get("system"),
                  parameters=parameters,
                  out=_param_text(doc, "out", "."),
                  format=doc.get("format", "json"),
                  seed=read_param(doc.get("seed", 0), "seed", minimum=None))
        if cfg.format not in ("json", "csv"):
            raise ConfigInvalid(f"unknown format {cfg.format!r}")
        if cfg.command not in SYSTEMLESS and cfg.system is None:
            raise ConfigInvalid(f"command {command!r} needs a system")
        return cfg


def _load_document(path, what: str):
    """The JSON document at ``path``; a path that is no string, or a missing,
    unreadable or undecodable file, is a config error."""
    if not isinstance(path, str):  # os.path.exists and open take an int as a descriptor
        raise ConfigInvalid(f"{what} file path must be a string, got {path!r}")
    if not os.path.exists(path):
        raise ConfigInvalid(f"{what} file {path!r} does not exist")
    try:
        return ser.load_json(path)
    except OSError as exc:  # a directory, or no permission to read
        raise ConfigInvalid(f"{what} file {path!r} cannot be read: {exc.strerror}") from None
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ConfigInvalid(f"{what} file {path!r} is not valid JSON: {exc}") from None


def _resolve_system(spec) -> ZooSystem:
    if isinstance(spec, str):
        return get_system(spec)
    if isinstance(spec, dict):
        from .action import GeneratorSet
        dpath = spec.get("dendrite")
        if dpath is None:
            raise ConfigInvalid("explicit system needs a 'dendrite' file path")
        dendrite = ser.dendrite_from_json(_load_document(dpath, "dendrite"))
        gens = []
        with ser.decoding("generator"):
            for row in spec.get("generators", ()):
                symbol = row.get("symbol")
                if symbol is None:
                    raise ConfigInvalid("each generator needs a 'symbol'")
                if "file" in row:
                    doc = _load_document(row["file"], "homeo")
                else:
                    doc = row.get("homeo")
                gens.append((symbol, ser.homeo_from_json(doc, dendrite)))
        return ZooSystem("custom", dendrite, GeneratorSet(dendrite, gens), {})
    raise ConfigInvalid(f"cannot interpret system spec {spec!r}")


def _resolve_point(spec, system: ZooSystem):
    X = system.dendrite
    if spec is None:
        depth = system.properties.get("depth")
        if depth is not None:
            return leaf_point(X, depth, 0)
        if len(X.edges) == 1:
            return X.point(X.edges[0].eid, Fraction(1, 2))
        raise ConfigInvalid("no default base point for this system; supply 'x'")
    if isinstance(spec, dict):
        if "leaf" in spec:
            depth = system.properties.get("depth")
            if depth is None:
                raise ConfigInvalid("'leaf' points only apply to tree systems")
            index = read_param(spec["leaf"], "leaf")
            if index >= 2 ** depth:
                raise ConfigInvalid(f"leaf must be below 2**{depth} = {2 ** depth}, got {index}")
            return leaf_point(X, depth, index)
        return ser.point_from_json(spec, X)
    if isinstance(spec, (str, int)):
        if len(X.edges) != 1:
            raise ConfigInvalid("bare interval coordinates need a single-edge dendrite")
        return X.point(X.edges[0].eid, read_param(spec, "point coordinate", frac, None))
    raise ConfigInvalid(f"cannot interpret point spec {spec!r}")


def _resolve_measure(spec, system: ZooSystem):
    if spec in (None, "canonical"):
        return canonical_measure(system.dendrite)
    if isinstance(spec, dict):
        if "dirac" in spec:
            return dirac(system.dendrite, _resolve_point(spec["dirac"], system))
        if "file" in spec:
            spec = _load_document(spec["file"], "measure")
        return ser.measure_from_json(spec, system.dendrite)
    raise ConfigInvalid(f"cannot interpret measure spec {spec!r}")


def _minimal_set(system: ZooSystem, params: dict):
    """Seed resolution: (approximate minimal set, certified flag, tower class).

    A truncated tree action certifies every orbit as finite, so the tower
    class follows the system's documented minimal-set character (or an
    explicit ``minimal_class`` parameter) rather than the closure flag alone.
    """
    x = _resolve_point(params.get("x"), system)
    depth = system.properties.get("depth")
    # tree systems have finite orbits closing within one sweep of the cycle;
    # elsewhere keep the look-ahead short since infinite orbit balls grow fast
    default_budget = 2 ** depth + 1 if depth is not None else 16
    budget = read_param(params.get("budget", default_budget), "budget", minimum=1)
    radius = read_param(params.get("R", 6), "R")
    eps = _resolution(params, "eps", "1/16")
    result = detect_finite_orbit(system.generators, x, budget)
    if result.found:
        points, certified = result.orbit, True
    else:
        approx = minimal_set_approx(system.generators, x, max(radius, 2), eps)
        points, certified = approx.points, False
    minimal_class = params.get("minimal_class")
    if minimal_class is None:
        minimal_class = system.properties.get("expected_minimal_class")
    elif minimal_class not in MINIMAL_CLASSES:
        raise ConfigInvalid(f"minimal_class must be one of {MINIMAL_CLASSES}, "
                            f"got {minimal_class!r}")
    if minimal_class in ("cantor-like", "whole-space"):
        tower_class = "cantor-like"
    else:
        tower_class = "finite" if certified else "cantor-like"
    return points, certified, tower_class


def _resolution(params: dict, key: str, default):
    """A positive rational resolution (``eps``, ``mesh_target``) read from ``params``."""
    value = read_param(params.get(key, default), key, frac, None)
    if value <= 0:
        raise ConfigInvalid(f"{key} must be positive, got {frac_str(value)}")
    return value


def _orbit_budget(params: dict) -> int | None:
    budget = params.get("orbit_budget")
    return None if budget is None else read_param(budget, "orbit_budget", minimum=1)


def _param_text(params: dict, key: str, default) -> str:
    value = params.get(key, default)
    if not isinstance(value, str):
        raise ConfigInvalid(f"{key} must be a string, got {value!r}")
    return value


def _param_list(params: dict, key: str, default):
    values = params.get(key, default)
    if values is not None and not isinstance(values, list):
        raise ConfigInvalid(f"{key} must be a list, got {values!r}")
    return values


def _default_dictionary(system: ZooSystem, params: dict) -> list[TestFunction]:
    X = system.dendrite
    probes = _param_list(params, "dictionary", None)
    if probes is not None:
        return [TestFunction.distance_to(X, _resolve_point(p, system)) for p in probes]
    depth = system.properties.get("depth")
    if depth is not None:
        points = [leaf_point(X, depth, 0), X.vertex_point("r"),
                  X.vertex_point("0"), X.vertex_point("1"),
                  leaf_point(X, depth, 2 ** depth - 1)]
    else:
        points = [X.point(X.edges[0].eid, Fraction(1, 2))] + [
            X.vertex_point(v) for v in sorted(X.vertices, key=str)]
    return [TestFunction.distance_to(X, p) for p in points]


# -- command implementations -----------------------------------------------------


def _cmd_orbit(cfg, system):
    params = cfg.parameters
    x = _resolve_point(params.get("x"), system)
    radius = read_param(params.get("R", 4), "R")
    report = orbit(system.generators, x, radius)
    return {
        "base": ser.point_to_json(report.base),
        "R": radius,
        "points": [ser.point_to_json(p) for p in report.points],
        "growth": [[r, size] for r, size in enumerate(report.growth)],
        "closed": report.closed,
    }, 0


def _cmd_finite_orbit(cfg, system):
    params = cfg.parameters
    x = _resolve_point(params.get("x"), system)
    budget = read_param(params.get("budget", params.get("R", 16)), "budget", minimum=1)
    result = detect_finite_orbit(system.generators, x, budget)
    doc = {
        "base": ser.point_to_json(system.dendrite.check_point(x)),
        "budget": budget,
        "found": result.found,
        "growth": [[r, size] for r, size in enumerate(result.growth)],
    }
    if result.found:
        doc["radius"] = result.radius
        doc["orbit"] = [ser.point_to_json(p) for p in result.orbit]
    return doc, 0


def _cmd_minimal_set(cfg, system):
    params = cfg.parameters
    x = _resolve_point(params.get("x"), system)
    radius = read_param(params.get("R", 4), "R", minimum=2)
    eps = _resolution(params, "eps", "1/16")
    approx = minimal_set_approx(system.generators, x, radius, eps)
    return {
        "base": ser.point_to_json(system.dendrite.check_point(x)),
        "R": radius,
        "eps": frac_str(eps),
        "points": [ser.point_to_json(p) for p in approx.points],
        "increments": [[r + 1, frac_str(d)] for r, d in enumerate(approx.increments)],
        "converged": approx.converged,
        "certified_finite": approx.certified_finite,
    }, 0


def _cmd_classify(cfg, system):
    params = cfg.parameters
    eps = _resolution(params, "eps", "1/8")
    m, certified, tower_class = _minimal_set(system, params)
    verdict = classify_minimal_set(system.dendrite, m, eps,
                                   certified_finite=tower_class == "finite")
    doc = {
        "eps": frac_str(eps),
        "size": len(m),
        "certified_finite": certified,
        "verdict": verdict.kind,
    }
    if "max_probe_gap" in verdict.details:
        doc["max_probe_gap"] = frac_str(verdict.details["max_probe_gap"])
    for key in ("sparse_witness", "isolated_point"):
        if key in verdict.details:
            doc[key] = ser.point_to_json(verdict.details[key])
    return doc, 0


def _cmd_tower(cfg, system):
    params = cfg.parameters
    n_max = read_param(params.get("n_max", 4), "n_max", minimum=1)
    m, _, tower_class = _minimal_set(system, params)
    tower = build_tree_tower(system.generators, m, n_max,
                             minimal_class=tower_class,
                             orbit_budget=_orbit_budget(params))
    levels = []
    for lvl in tower.levels:
        levels.append({
            "n": lvl.index,
            "orbit_size": len(lvl.orbit),
            "frontier_size": len(lvl.frontier),
            "strict": lvl.strict,
            "frontier_to_set": frac_str(hausdorff_distance(lvl.frontier, m)),
        })
    return {"n_max": n_max, "levels": levels, "set_size": len(m)}, 0


def _cmd_cover(cfg, system):
    params = cfg.parameters
    n = read_param(params.get("n", 1), "n", minimum=1)
    m, _, tower_class = _minimal_set(system, params)
    tower = build_tree_tower(system.generators, m, n,
                             minimal_class=tower_class,
                             orbit_budget=_orbit_budget(params))
    level = tower.levels[-1]
    cover = tower.cover(level.index)
    equi = verify_cover_equivariance(system.generators, cover)
    cells = [{"anchor": ser.point_to_json(a),
              "diameter": frac_str(d),
              "edges": len(c.portions)} for (a, c), d in zip(cover.cells, cover.diameters)]
    return {
        "n": level.index,
        "mesh": frac_str(cover.mesh()),
        "cells": cells,
        "equivariant": equi.ok,
    }, 0


def _cmd_certify(cfg, system):
    params = cfg.parameters
    n_max = read_param(params.get("n_max", 4), "n_max", minimum=1)
    m, _, tower_class = _minimal_set(system, params)
    eps_grid = _param_list(params, "eps_grid", None)
    if eps_grid is not None:
        eps_grid = [read_param(e, "eps_grid", frac, None) for e in eps_grid]
        try:
            eps_grid_values(eps_grid)
        except ValueError as exc:
            raise ConfigInvalid(f"eps_grid: {exc}, got {[frac_str(e) for e in eps_grid]}") from None
    cert = equicontinuity_certificate(
        system.generators, m, n_max,
        mesh_target=(None if params.get("mesh_target") is None
                     else _resolution(params, "mesh_target", None)),
        eps_grid=eps_grid,
        minimal_class=tower_class,
        orbit_budget=_orbit_budget(params),
        cover_tamper=tamper_remove_edge if system.corrupt_cover else None)
    doc = ser.certificate_to_json(cert)
    return doc, (2 if cert.verdict == "Failed" else 0)


def _cmd_measure(cfg, system):
    mu = canonical_measure(system.dendrite)
    return {"measure": ser.measure_to_json(mu),
            "total_mass": frac_str(mu.total_mass())}, 0


def _cmd_pushforward(cfg, system):
    params = cfg.parameters
    mu = _resolve_measure(params.get("measure"), system)
    w = Word.parse(_param_text(params, "word", "e"))
    _, pushed = next(word_images(system.generators, [w], mu, push_forward))
    return {"word": str(w),
            "measure": ser.measure_to_json(pushed),
            "total_mass": frac_str(pushed.total_mass())}, 0


def _cmd_folner_average(cfg, system):
    params = cfg.parameters
    scheme = folner_scheme_Z(_param_text(params, "scheme_symbol", system.generators.symbols[0]))
    mu0 = _resolve_measure(params.get("measure", {"dirac": params.get("x")}), system)
    n = read_param(params.get("n", 4), "n")
    nu = folner_average(system.generators, scheme, mu0, n)
    fns = _default_dictionary(system, params)
    return {"n": n,
            "measure": ser.measure_to_json(nu),
            "defect": frac_str(invariance_defect(system.generators, nu, fns))}, 0


def _cmd_defect(cfg, system):
    params = cfg.parameters
    ns = [read_param(n, "ns") for n in _param_list(params, "ns", [1, 2, 4, 8, 16])]
    scheme = folner_scheme_Z(_param_text(params, "scheme_symbol", system.generators.symbols[0]))
    mu0 = _resolve_measure(params.get("measure", {"dirac": params.get("x")}), system)
    fns = _default_dictionary(system, params)
    sup = max(f.sup_norm() for f in fns)

    rows = []
    for n in ns:
        nu = folner_average(system.generators, scheme, mu0, n)
        rows.append([n, frac_str(invariance_defect(system.generators, nu, fns)),
                     frac_str(2 * sup / (2 * n + 1))])
    return {"rows": rows, "sup_norm": frac_str(sup)}, 0


def _cmd_paradox(cfg, system):
    params = cfg.parameters
    max_length = read_param(params.get("L", 3), "L", minimum=1)
    report = verify_paradox_partition(max_length)
    doc = {
        "L": max_length,
        "total_words": report.total_words,
        "bt1": {"counts": report.first_letter_counts, "ok": report.partition_ok},
        "two_piece": {"checked": report.two_piece_checked, "ok": report.two_piece_ok},
        "literal_bt2": {
            "missing_count": len(report.literal_missing),
            "missing_examples": list(report.literal_missing[:10]),
            "overlap_count": len(report.literal_overlap),
            "overlap_examples": list(report.literal_overlap[:10]),
        },
    }
    return doc, (0 if report.ok else 2)


def _cmd_folner_ratio(cfg, system):
    params = cfg.parameters
    ns = [read_param(n, "ns") for n in _param_list(params, "ns", [2, 10, 50])]
    symbol = _param_text(params, "scheme_symbol", "g")
    scheme = folner_scheme_Z(symbol)
    g = _param_text(params, "g", symbol)
    rows = [[n, frac_str(folner_ratio(scheme, g, n))] for n in ns]
    return {"g": g, "rows": rows}, 0


def _cmd_proximality(cfg, system):
    params = cfg.parameters
    mu0 = _resolve_measure(params.get("measure"), system)
    radius = read_param(params.get("R", 3), "R")
    trace = strong_proximality_scan(system.generators, mu0, radius)
    return {"R": radius,
            "rows": [[k, frac_str(s), w] for k, s, w in trace.rows]}, 0


def _cmd_zoo(cfg, system):
    params = cfg.parameters
    action = params.get("action", "list")
    if action == "list":
        return {"systems": list_systems()}, 0
    if action == "export":
        name = _param_text(params, "name", "")
        if not name:
            raise ConfigInvalid("zoo export needs a 'name'")
        target = get_system(name)
        return {
            "name": target.name,
            "dendrite": ser.dendrite_to_json(target.dendrite),
            "generators": [{"symbol": sym, "homeo": ser.homeo_to_json(h)}
                           for sym, h in target.generators.items],
            "properties": {k: v for k, v in sorted(target.properties.items())},
        }, 0
    raise ConfigInvalid(f"unknown zoo action {action!r}")


_HANDLERS = {
    "orbit": _cmd_orbit,
    "finite-orbit": _cmd_finite_orbit,
    "minimal-set": _cmd_minimal_set,
    "classify": _cmd_classify,
    "tower": _cmd_tower,
    "cover": _cmd_cover,
    "certify": _cmd_certify,
    "measure": _cmd_measure,
    "pushforward": _cmd_pushforward,
    "folner-average": _cmd_folner_average,
    "defect": _cmd_defect,
    "paradox-check": _cmd_paradox,
    "folner-ratio": _cmd_folner_ratio,
    "proximality": _cmd_proximality,
    "zoo": _cmd_zoo,
}

_PLOT_KINDS = {
    "mesh": ("levels", "n", "mesh", "n,mesh"),
    "defect": ("rows", 0, 1, "n,defect"),
    "orbit": ("growth", 0, 1, "R,orbit"),
    "delta": ("delta_table", 0, 1, "eps,delta"),
}


def export_plot_data(report_path: str, kind: str) -> str:
    """Two-column CSV extracted from a report file."""
    if kind not in _PLOT_KINDS:
        raise ConfigInvalid(f"unknown plot kind {kind!r}; expected {sorted(_PLOT_KINDS)}")
    if not os.path.exists(report_path):
        raise ReportMissing(f"report {report_path!r} does not exist")
    doc = _load_document(report_path, "report")
    key, xk, yk, header = _PLOT_KINDS[kind]
    if not isinstance(doc, dict) or key not in doc:
        raise ReportMissing(f"report has no {key!r} table for kind {kind!r}")
    try:
        lines = [header] + [f"{row[xk]},{row[yk]}" for row in doc[key]]
    except (IndexError, KeyError, TypeError):
        raise ReportMissing(f"report's {key!r} rows lack the columns {xk!r} and {yk!r} "
                            f"for kind {kind!r}") from None
    return "\n".join(lines) + "\n"


def run_experiment(cfg: ExperimentConfig):
    """Execute one command; returns (report dict, exit code)."""
    system = (None if cfg.command in SYSTEMLESS and cfg.system is None
              else _resolve_system(cfg.system))
    handler = _HANDLERS[cfg.command]
    body, code = handler(cfg, system)
    report = {
        "command": cfg.command,
        "system": cfg.system if isinstance(cfg.system, str) else
                  ("custom" if cfg.system else None),
        "seed": cfg.seed,
    }
    report.update(body)
    return report, code


_CSV_FOR_COMMAND = {"certify": "mesh", "defect": "defect", "orbit": "orbit"}


def write_report(cfg: ExperimentConfig, report: dict) -> Path:
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{cfg.command}.json"
    ser.dump_json(report, path)
    if cfg.format == "csv" and cfg.command in _CSV_FOR_COMMAND:
        kind = _CSV_FOR_COMMAND[cfg.command]
        csv_path = out_dir / f"{cfg.command}.{kind}.csv"
        csv_path.write_text(export_plot_data(str(path), kind), encoding="utf-8")
    return path


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dendrodyn",
        description="exact experiments with group actions on tree-like spaces")
    sub = parser.add_subparsers(dest="mode", required=True)

    run = sub.add_parser("run", help="run a config-driven experiment")
    run.add_argument("--config", required=True, help="experiment JSON file")
    run.add_argument("--out", default=None, help="output directory")
    run.add_argument("--format", default=None, choices=("json", "csv"))
    run.add_argument("--seed", type=int, default=None)

    zoo = sub.add_parser("zoo", help="inspect the bundled systems")
    zoo_sub = zoo.add_subparsers(dest="zoo_action", required=True)
    lst = zoo_sub.add_parser("list", help="list bundled systems")
    lst.add_argument("--out", default=None, help="output directory")
    exp = zoo_sub.add_parser("export", help="export one system as JSON")
    exp.add_argument("name")
    exp.add_argument("--out", default=None, help="output directory")

    plot = sub.add_parser("export-plot", help="extract a CSV table from a report")
    plot.add_argument("report")
    plot.add_argument("--kind", required=True, choices=sorted(_PLOT_KINDS))
    plot.add_argument("--out", default=None, help="CSV output path (default stdout)")
    return parser


def _read_config(path: str, overrides: dict) -> ExperimentConfig:
    """The config file at ``path`` with the command-line flags laid over it."""
    doc = _load_document(path, "config")
    if not isinstance(doc, dict):
        raise ConfigInvalid("config must be a JSON object")
    doc.update((flag, value) for flag, value in overrides.items() if value is not None)
    return ExperimentConfig.from_dict(doc)


_LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "WARN", "ERROR", "CRITICAL", "FATAL", "NOTSET")


def _log_level() -> str:
    """The logging level named by ``DENDRODYN_LOG`` (default WARNING)."""
    name = os.environ.get("DENDRODYN_LOG", "WARNING")
    if name.upper() not in _LOG_LEVELS:
        raise ConfigInvalid(f"unknown DENDRODYN_LOG level {name!r}; expected one of "
                            "DEBUG, INFO, WARNING, ERROR, CRITICAL")
    return name.upper()


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        level = _log_level()
        log = None
        if level in ("DEBUG", "INFO", "NOTSET"):  # only these show the one INFO line
            import logging
            logging.basicConfig(level=level)
            log = logging.getLogger("dendrodyn")
        if args.mode == "run":
            cfg = _read_config(args.config, {"out": args.out, "format": args.format,
                                             "seed": args.seed})
            report, code = run_experiment(cfg)
            path = write_report(cfg, report)
            if log is not None:
                log.info("report written to %s", path)
            print(path)
            return code
        if args.mode == "zoo":
            cfg = ExperimentConfig(command="zoo", out=args.out or ".", parameters=(
                {"action": "list"} if args.zoo_action == "list"
                else {"action": "export", "name": args.name}))
            report, code = run_experiment(cfg)
            if args.out is None:
                print(json.dumps(report, sort_keys=True, indent=2))
            else:
                print(write_report(cfg, report))
            return code
        if args.mode == "export-plot":
            text = export_plot_data(args.report, args.kind)
            if args.out:
                Path(args.out).write_text(text, encoding="utf-8")
                print(args.out)
            else:
                sys.stdout.write(text)
            return 0
    except (DendrodynError, OSError) as exc:  # an OSError here comes from writing output
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


def console_entry():
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()
