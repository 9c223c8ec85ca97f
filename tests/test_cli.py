import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import dendrodyn
from dendrodyn import cli
from dendrodyn import serialization as ser
from dendrodyn.cli import ExperimentConfig, export_plot_data, main
from dendrodyn.equicontinuity import build_tree_tower, frontier_cover
from dendrodyn.errors import ConfigInvalid, ReportMissing
from dendrodyn.util import frac_str

F = Fraction
INTERVAL = {"vertices": ["0", "1"], "edges": [{"id": "e", "u": "0", "v": "1"}]}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run(tmp_path, doc):
    cfg = write_config(tmp_path, {**doc, "out": str(tmp_path / "out")})
    code = main(["run", "--config", cfg])
    report_path = tmp_path / "out" / f"{doc['command']}.json"
    report = json.loads(report_path.read_text()) if report_path.exists() else None
    return code, report, report_path


class TestConfigValidation:
    def test_unknown_command(self):
        with pytest.raises(ConfigInvalid):
            ExperimentConfig.from_dict({"command": "noop"})

    def test_missing_system(self):
        with pytest.raises(ConfigInvalid):
            ExperimentConfig.from_dict({"command": "orbit"})

    def test_bad_format(self):
        with pytest.raises(ConfigInvalid):
            ExperimentConfig.from_dict({"command": "orbit", "system": "thompson",
                                        "format": "xml"})

    def test_cli_error_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"command": "orbit", "system": "mystery"})
        assert main(["run", "--config", cfg]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        assert main(["run", "--config", "/nonexistent.json"]) == 1

    @pytest.mark.parametrize("out, shown", [(5, "5"), (None, "None"), (["a"], "['a']")])
    def test_out_that_is_not_a_string(self, tmp_path, capsys, out, shown):
        cfg = write_config(tmp_path, {"command": "orbit", "system": "thompson",
                                      "parameters": {"x": "1/3", "R": 2}, "out": out})
        assert main(["run", "--config", cfg]) == 1
        assert capsys.readouterr().err == f"error: out must be a string, got {shown}\n"

    @pytest.mark.parametrize("command, system, parameters", [
        ("orbit", "thompson", {"x": "abc"}),
        ("orbit", "odometer:D=x", {}),
        ("orbit", "thompson", {"R": "two"}),
        ("defect", "odometer:D=3", {"ns": [-1]}),
        ("folner-average", "odometer:D=3", {"n": -2}),
        ("proximality", "odometer:D=3", {"R": -1}),
        ("orbit", "odometer:D=3", {"R": -1}),
        ("orbit", "odometer:D=0", {}),
        ("orbit", "thompson", {"x": "1/0"}),
        ("finite-orbit", "thompson", {"budget": 0}),
        ("minimal-set", "thompson", {"R": 1}),
        ("classify", "thompson", {"eps": "small"}),
        ("tower", "odometer:D=3", {"n_max": 0}),
        ("certify", "odometer:D=3", {"mesh_target": "tiny"}),
        ("paradox-check", None, {"L": 0}),
        ("orbit", "odometer:D=3,leaf=deep", {}),
        ("finite-orbit", "odometer:D=3", {"x": {"leaf": 1000}}),
        ("finite-orbit", "odometer:D=3", {"x": {"leaf": 8}}),
        ("finite-orbit", "odometer:D=3", {"x": {"leaf": -1}}),
        ("certify", "odometer:D=3", {"orbit_budget": "many"}),
        ("defect", "odometer:D=3", {"ns": 3}),
        ("defect", "odometer:D=3", {"dictionary": 3}),
        ("pushforward", "thompson", {"word": "f^x"}),
        ("proximality", "thompson", {"measure": {"atoms": [{"point": {"vertex": "0"}}]}}),
        ("proximality", "thompson", {"measure": {"atoms": [["x", "1"]]}}),
        ("proximality", "thompson", {"measure": {"atoms": "oops"}}),
        ("proximality", "thompson", {"measure": {"edges": [
            {"id": "e", "pieces": [{"a": "3/4", "b": "1/4", "density": "2"}]}]}}),
        ("proximality", "thompson", {"measure": {"atoms": [
            {"point": {"vertex": "0"}, "w": "-1"}]}}),
        ("proximality", "thompson", {"measure": {"atoms": [
            {"point": {"vertex": "0"}, "w": "1"}], "norm": "x"}}),
        ("certify", "odometer:D=3", {"eps_grid": ["1/2", "1/2"]}),
        ("certify", "odometer:D=3", {"eps_grid": ["1/4", "1/2"]}),
        ("certify", "odometer:D=3", {"eps_grid": ["1/2", "0"]}),
        ("orbit", "thompson", []),
        ("orbit", "thompson", [{"R": 2}]),
        ("orbit", "thompson", "R=2"),
        ("orbit", "thompson", None),
        ("orbit", "thompson", {"R": 2.7}),
        ("orbit", "thompson", {"R": True}),
        ("classify", "thompson", {"eps": True}),
        ("orbit", {"dendrite": INTERVAL, "generators": ["f"]}, {}),
        ("orbit", {"dendrite": INTERVAL, "generators": {"a": 1}}, {}),
        ("orbit", {"dendrite": INTERVAL, "generators": [
            {"symbol": "f", "homeo": {"interval_pl": {"x": [0, 1]}}}]}, {}),
        ("orbit", {"dendrite": INTERVAL, "generators": [{"symbol": "f", "homeo": 5}]}, {}),
        ("orbit", "thompson", {"x": {"edge": "e"}}),
        ("orbit", "thompson", {"x": {"edge": "e", "t": 0.5}}),
        ("orbit", "thompson", {"x": {"edge": "e", "t": True}}),
        ("proximality", "thompson", {"measure": {"atoms": [
            {"point": {"vertex": "0"}, "w": True}]}}),
        ("orbit", {"dendrite": {**INTERVAL, "weight_rule": {"custom": ["x"]}},
                   "generators": []}, {}),
        ("classify", "odometer:D=4", {"eps": "-1"}),
        ("classify", "thompson", {"eps": "0"}),
        ("minimal-set", "thompson", {"eps": "-1"}),
        ("tower", "odometer:D=3", {"eps": "-1"}),
        ("certify", "odometer:D=3", {"mesh_target": "0"}),
        ("certify", "odometer:D=3", {"mesh_target": "-1/2"}),
        ("folner-ratio", None, {"g": 5}),
        ("folner-ratio", None, {"scheme_symbol": 5}),
        ("folner-ratio", None, {"g": "gg"}),
        ("folner-ratio", None, {"g": "h"}),
        ("folner-average", "thompson", {"scheme_symbol": ["f"]}),
        ("defect", "thompson", {"scheme_symbol": ["f"]}),
        ("zoo", None, {"action": "export", "name": 5}),
        ("certify", "odometer:D=3", {"minimal_class": 5}),
        ("classify", "odometer:D=3", {"minimal_class": "cantor"}),
        ("orbit", "thompson:D=3", {}),
        ("orbit", "odometer:D=3,lef=level", {}),
        ("orbit", "odometer:D=3,D=5", {}),
    ])
    def test_malformed_values_are_config_errors(self, tmp_path, capsys,
                                                command, system, parameters):
        if isinstance(system, dict):  # an explicit system names its dendrite file
            system = {**system, "dendrite": write_config(tmp_path, system["dendrite"],
                                                         "dendrite.json")}
        code, report, _ = run(tmp_path, {"command": command, "system": system,
                                         "parameters": parameters})
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert report is None

    @pytest.mark.parametrize("level", ["verbose", "10", ""])
    def test_unknown_log_level_is_config_error(self, monkeypatch, capsys, level):
        monkeypatch.setenv("DENDRODYN_LOG", level)
        assert main(["zoo", "list"]) == 1
        assert capsys.readouterr().err == (
            f"error: unknown DENDRODYN_LOG level {level!r}; "
            "expected one of DEBUG, INFO, WARNING, ERROR, CRITICAL\n")

    def test_unknown_log_level_in_a_fresh_interpreter(self):
        env = {**os.environ, "DENDRODYN_LOG": "verbose", "PYTHONPATH": os.pathsep.join(
            [str(Path(dendrodyn.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-m", "dendrodyn.cli", "zoo", "list"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: unknown DENDRODYN_LOG level 'verbose'")
        assert "Traceback" not in proc.stderr

    def test_info_log_line_in_a_fresh_interpreter(self, tmp_path):
        cfg = write_config(tmp_path, {"command": "orbit", "system": "thompson",
                                      "parameters": {"R": 1}, "out": str(tmp_path / "out")})
        env = {**os.environ, "DENDRODYN_LOG": "info", "PYTHONPATH": os.pathsep.join(
            [str(Path(dendrodyn.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-m", "dendrodyn.cli", "run", "--config", cfg],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "report written to" in proc.stderr

    def test_config_that_is_not_json(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"command": "orbit", ', encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 1
        assert "is not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["config is a directory", "dendrite is a directory",
                                      "out is a file", "report is not JSON",
                                      "rows lack the column", "csv directory is missing"])
    def test_file_system_errors_are_config_errors(self, tmp_path, capsys, case):
        config = write_config(tmp_path, {"command": "orbit", "system": "thompson",
                                         "parameters": {"R": 1}})
        explicit = write_config(tmp_path, {"command": "orbit",
                                           "system": {"dendrite": str(tmp_path)}}, "explicit.json")
        text = tmp_path / "notes.txt"
        text.write_text("not JSON", encoding="utf-8")
        report = write_config(tmp_path, {"levels": [{"n": 1, "mesh": "1"}]}, "report.json")
        meshless = write_config(tmp_path, {"levels": [{"n": 1}]}, "meshless.json")
        argv = {
            "config is a directory": ["run", "--config", str(tmp_path)],
            "dendrite is a directory": ["run", "--config", explicit],
            "out is a file": ["run", "--config", config, "--out", config],
            "report is not JSON": ["export-plot", str(text), "--kind", "mesh"],
            "rows lack the column": ["export-plot", meshless, "--kind", "mesh"],
            "csv directory is missing": ["export-plot", report, "--kind", "mesh",
                                         "--out", str(tmp_path / "missing" / "x.csv")],
        }[case]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("role", ["dendrite", "homeo", "measure"])
    def test_referenced_file_that_is_not_json(self, tmp_path, capsys, role):
        from dendrodyn.zoo import thompson_generators, unit_interval_dendrite
        X = unit_interval_dendrite()
        f, _ = thompson_generators(X)
        broken = tmp_path / "broken.json"
        broken.write_text('{"vertices": [', encoding="utf-8")
        dendrite = tmp_path / "dendrite.json"
        ser.dump_json(ser.dendrite_to_json(X), dendrite)
        generator = {"symbol": "f", "homeo": ser.homeo_to_json(f)}
        if role == "homeo":
            generator = {"symbol": "f", "file": str(broken)}
        system = {"dendrite": str(broken if role == "dendrite" else dendrite),
                  "generators": [generator]}
        parameters = {"measure": {"file": str(broken)}} if role == "measure" else {}
        code, report, _ = run(tmp_path, {"command": "proximality", "system": system,
                                         "parameters": parameters})
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {role} file ")
        assert report is None

    @pytest.mark.parametrize("path", [0, True, ["a"]], ids=["zero", "true", "list"])
    @pytest.mark.parametrize("role", ["dendrite", "homeo", "measure"])
    def test_referenced_file_path_that_is_not_a_string(self, tmp_path, capsys, role, path):
        # an int path would be opened as a file descriptor: 0 reads standard input
        from dendrodyn.zoo import unit_interval_dendrite
        dendrite = tmp_path / "dendrite.json"
        ser.dump_json(ser.dendrite_to_json(unit_interval_dendrite()), dendrite)
        system = {"dendrite": path if role == "dendrite" else str(dendrite),
                  "generators": [{"symbol": "f", "file": path}] if role == "homeo" else []}
        parameters = {"measure": {"file": path}} if role == "measure" else {}
        code, report, _ = run(tmp_path, {"command": "proximality", "system": system,
                                         "parameters": parameters})
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {role} file path must be a string, got {path!r}\n")
        assert report is None

    @pytest.mark.parametrize("flags", [["--out", "elsewhere"], ["--format", "csv"],
                                       ["--seed", "3"]])
    def test_config_that_is_not_an_object(self, tmp_path, capsys, flags):
        cfg = write_config(tmp_path, [])
        assert main(["run", "--config", cfg] + flags) == 1
        assert capsys.readouterr().err == "error: config must be a JSON object\n"

    def test_malformed_measure_file_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "measure.json"
        path.write_text(json.dumps({"atoms": [{"point": {"vertex": "0"}}]}))
        code, report, _ = run(tmp_path, {"command": "proximality", "system": "thompson",
                                         "parameters": {"measure": {"file": str(path)}}})
        assert code == 1
        assert capsys.readouterr().err.startswith("error: malformed measure")
        assert report is None


class TestCommands:
    def test_orbit(self, tmp_path):
        code, report, _ = run(tmp_path, {
            "command": "orbit", "system": "thompson",
            "parameters": {"x": "1/2", "R": 1}})
        assert code == 0
        assert report["closed"] is False
        assert [row[1] for row in report["growth"]] == [1, 3]

    def test_finite_orbit_thompson_zero(self, tmp_path):
        code, report, _ = run(tmp_path, {
            "command": "finite-orbit", "system": "thompson",
            "parameters": {"x": {"vertex": "0"}, "budget": 3}})
        assert code == 0
        assert report["found"] and report["orbit"] == [{"vertex": "0"}]

    def test_minimal_set(self, tmp_path):
        code, report, _ = run(tmp_path, {
            "command": "minimal-set", "system": "odometer:D=3",
            "parameters": {"x": {"leaf": 0}, "R": 4, "eps": "1/16"}})
        assert code == 0
        assert len(report["points"]) == 8
        assert report["certified_finite"] is True

    def test_classify_odometer(self, tmp_path):
        code, report, _ = run(tmp_path, {
            "command": "classify", "system": "odometer:D=5",
            "parameters": {"eps": "1/8"}})
        assert code == 0
        assert report["verdict"] == "cantor-like"
        # provenance: the root is the worst skeleton probe, 1 above every leaf
        assert report["max_probe_gap"] == "1"
        assert report["sparse_witness"] == {"vertex": "r"}
        assert "isolated_point" not in report

    def test_classify_null_minimal_class_is_the_default(self, tmp_path):
        verdicts = []
        for parameters in ({}, {"minimal_class": None}):
            code, report, _ = run(tmp_path, {
                "command": "classify", "system": "odometer:D=4", "parameters": parameters})
            assert code == 0
            verdicts.append(report["verdict"])
        assert verdicts == ["inconclusive", "inconclusive"]

    def test_classify_isolated_point(self, tmp_path):
        code, report, _ = run(tmp_path, {
            "command": "classify", "system": "odometer:D=5",
            "parameters": {"eps": "1/64", "x": {"leaf": 3}}})
        assert code == 0
        assert report["verdict"] == "inconclusive"
        # sibling leaves lie 1/8 apart, so the first leaf is already isolated
        assert report["isolated_point"] == {"vertex": "00000"}
        assert report["max_probe_gap"] == "1"

    def test_classify_thompson_interior_seed(self, tmp_path):
        # infinite orbit: detection stays within the short default budget and
        # the dyadic orbit ball is epsilon-dense in the interval
        import time
        start = time.monotonic()
        code, report, _ = run(tmp_path, {
            "command": "classify", "system": "thompson",
            "parameters": {"x": "1/2", "eps": "1/8"}})
        assert code == 0
        assert report["verdict"] == "whole-space"
        assert not report["certified_finite"]
        assert time.monotonic() - start < 5

    def test_classify_two_point_orbit(self, tmp_path):
        code, report, _ = run(tmp_path, {
            "command": "classify", "system": "odometer:D=1",
            "parameters": {"eps": "1/4", "minimal_class": "finite"}})
        assert code == 0
        assert report["verdict"] == "finite-orbit"

    def test_tower_and_cover(self, tmp_path):
        code, report, _ = run(tmp_path, {
            "command": "tower", "system": "odometer:D=4",
            "parameters": {"n_max": 3}})
        assert code == 0
        assert [lvl["orbit_size"] for lvl in report["levels"]] == [2, 4, 8]
        code, report, _ = run(tmp_path, {
            "command": "cover", "system": "odometer:D=4",
            "parameters": {"n": 2}})
        assert code == 0
        assert report["mesh"] == "1/2" and report["equivariant"] is True

    @pytest.mark.parametrize("system, n", [
        ("odometer:D=3", 1), ("odometer:D=4", 3), ("odometer:D=5", 2),
        ("odometer:D=4,leaf=level", 2)])
    def test_cover_cells_match_frontier_cover(self, tmp_path, system, n):
        # the command cuts its cover from the tower's hull; frontier_cover
        # builds the hull of m and the level's frontier on its own
        code, report, _ = run(tmp_path, {"command": "cover", "system": system,
                                         "parameters": {"n": n}})
        assert code == 0 and report["n"] == n
        zoo_system = cli._resolve_system(system)
        m, _, tower_class = cli._minimal_set(zoo_system, {})
        level = build_tree_tower(zoo_system.generators, m, n,
                                 minimal_class=tower_class).levels[-1]
        X = zoo_system.dendrite
        cover = frontier_cover(X, m, X.hull(level.frontier), level.index)
        assert report["cells"] == [
            {"anchor": ser.point_to_json(a), "diameter": frac_str(d),
             "edges": len(c.portions)} for (a, c), d in zip(cover.cells, cover.diameters)]
        assert report["mesh"] == frac_str(cover.mesh())

    def test_certify_and_mesh_csv(self, tmp_path):
        code, report, path = run(tmp_path, {
            "command": "certify", "system": "odometer:D=5",
            "parameters": {"n_max": 3, "mesh_target": "1/4"}, "format": "csv"})
        assert code == 0
        assert report["verdict"] == "Certified"
        csv_path = path.parent / "certify.mesh.csv"
        assert csv_path.read_text().splitlines()[0] == "n,mesh"

    def test_certify_corrupt_exits_two(self, tmp_path):
        code, report, _ = run(tmp_path, {
            "command": "certify", "system": "odometer-corrupt:D=4",
            "parameters": {"n_max": 2}})
        assert code == 2
        assert report["verdict"] == "Failed"
        assert "witness" in report

    def test_measure_and_pushforward(self, tmp_path):
        code, report, _ = run(tmp_path, {
            "command": "pushforward", "system": "thompson",
            "parameters": {"word": "f", "measure": "canonical"}})
        assert code == 0
        pieces = report["measure"]["edges"][0]["pieces"]
        assert [p["density"] for p in pieces] == ["2", "1", "1/2"]
        assert report["total_mass"] == "1"

    def test_folner_average_and_defect(self, tmp_path):
        code, report, _ = run(tmp_path, {
            "command": "folner-average", "system": "odometer:D=3",
            "parameters": {"n": 2, "x": {"leaf": 0}}})
        assert code == 0
        assert len(report["measure"]["atoms"]) == 5
        code, report, _ = run(tmp_path, {
            "command": "defect", "system": "odometer:D=4",
            "parameters": {"ns": [1, 2, 4], "x": {"leaf": 0}}})
        assert code == 0
        defects = [F(row[1]) for row in report["rows"]]
        bounds = [F(row[2]) for row in report["rows"]]
        assert all(d <= b for d, b in zip(defects, bounds))

    def test_paradox_check(self, tmp_path):
        code, report, _ = run(tmp_path, {
            "command": "paradox-check", "parameters": {"L": 3}})
        assert code == 0
        assert report["bt1"]["ok"] and report["two_piece"]["ok"]
        assert report["literal_bt2"]["missing_count"] == 13

    def test_folner_ratio(self, tmp_path):
        code, report, _ = run(tmp_path, {
            "command": "folner-ratio", "parameters": {"ns": [2, 10, 50]}})
        assert code == 0
        assert report["rows"] == [[2, "2/5"], [10, "2/21"], [50, "2/101"]]

    def test_proximality(self, tmp_path):
        code, report, _ = run(tmp_path, {
            "command": "proximality", "system": "thompson-f",
            "parameters": {"R": 2}})
        assert code == 0
        spreads = [F(row[1]) for row in report["rows"]]
        assert spreads[0] > spreads[-1]

    def test_zoo_list_and_export(self, tmp_path):
        code, report, _ = run(tmp_path, {"command": "zoo",
                                         "parameters": {"action": "list"}})
        assert code == 0
        assert any(row["name"] == "thompson" for row in report["systems"])
        code, report, _ = run(tmp_path, {
            "command": "zoo", "parameters": {"action": "export",
                                             "name": "odometer:D=2"}})
        assert code == 0
        back = ser.dendrite_from_json(report["dendrite"])
        assert len(back.edges) == 6


class TestExplicitSystemFiles:
    def test_custom_system_runs(self, tmp_path):
        from dendrodyn.zoo import thompson_generators, unit_interval_dendrite
        X = unit_interval_dendrite()
        f, g = thompson_generators(X)
        dpath = tmp_path / "dendrite.json"
        ser.dump_json(ser.dendrite_to_json(X), dpath)
        code, report, _ = run(tmp_path, {
            "command": "orbit",
            "system": {"dendrite": str(dpath),
                       "generators": [
                           {"symbol": "f", "homeo": ser.homeo_to_json(f)},
                           {"symbol": "g", "homeo": ser.homeo_to_json(g)}]},
            "parameters": {"x": "1/2", "R": 1}})
        assert code == 0
        assert len(report["points"]) == 3


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        doc = {"command": "certify", "system": "odometer:D=4",
               "parameters": {"n_max": 3, "mesh_target": "1/2"}}
        cfg1 = write_config(tmp_path, {**doc, "out": str(tmp_path / "o1")}, "c1.json")
        cfg2 = write_config(tmp_path, {**doc, "out": str(tmp_path / "o2")}, "c2.json")
        assert main(["run", "--config", cfg1]) == 0
        assert main(["run", "--config", cfg2]) == 0
        b1 = (tmp_path / "o1" / "certify.json").read_bytes()
        b2 = (tmp_path / "o2" / "certify.json").read_bytes()
        assert b1 == b2

    def test_classify_byte_identical(self, tmp_path):
        doc = {"command": "classify", "system": "odometer:D=4",
               "parameters": {"eps": "1/32"}}
        for out in ("o1", "o2"):
            cfg = write_config(tmp_path, {**doc, "out": str(tmp_path / out)}, f"{out}.json")
            assert main(["run", "--config", cfg]) == 0
        assert ((tmp_path / "o1" / "classify.json").read_bytes()
                == (tmp_path / "o2" / "classify.json").read_bytes())

    def test_proximality_byte_identical(self, tmp_path):
        doc = {"command": "proximality", "system": "odometer:D=3",
               "parameters": {"R": 2, "measure": "canonical"}}
        for out in ("o1", "o2"):
            cfg = write_config(tmp_path, {**doc, "out": str(tmp_path / out)}, f"{out}.json")
            assert main(["run", "--config", cfg]) == 0
        assert ((tmp_path / "o1" / "proximality.json").read_bytes()
                == (tmp_path / "o2" / "proximality.json").read_bytes())

    def test_tree_reports_independent_of_hash_seed(self, tmp_path):
        # sub-dendrite portions follow dict insertion, which for a hull of a
        # point set follows its frozenset's hash order
        runs = [(command, system) for system in ("odometer:D=6", "odometer:D=5,leaf=level")
                for command in ("certify", "cover", "tower")]
        script = ("import sys; from dendrodyn.cli import main; "
                  "sys.exit(max(main(['run', '--config', c]) for c in sys.argv[1:]))")
        src = str(Path(dendrodyn.__file__).parents[1])
        reports = []
        for seed in ("0", "1"):
            configs = [write_config(tmp_path, {"command": command, "system": system,
                                               "out": str(tmp_path / seed / str(i))},
                                    f"{seed}-{i}.json")
                       for i, (command, system) in enumerate(runs)]
            env = {**os.environ, "PYTHONHASHSEED": seed,
                   "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
            proc = subprocess.run([sys.executable, "-c", script, *configs], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            reports.append([(tmp_path / seed / str(i) / f"{command}.json").read_bytes()
                            for i, (command, _) in enumerate(runs)])
        assert reports[0] == reports[1]

    def test_retired_threads_key_is_ignored(self, tmp_path):
        # "threads" is no longer a config key; like any unknown key it is
        # ignored, so old configs still run and write the same report
        doc = {"command": "defect", "system": "odometer:D=3",
               "parameters": {"ns": [1, 2, 4], "x": {"leaf": 0}}}
        cfg1 = write_config(tmp_path, {**doc, "out": str(tmp_path / "plain")}, "plain.json")
        cfg2 = write_config(tmp_path, {**doc, "out": str(tmp_path / "t4"),
                                       "threads": 4}, "t4.json")
        assert main(["run", "--config", cfg1]) == 0
        assert main(["run", "--config", cfg2]) == 0
        assert ((tmp_path / "plain" / "defect.json").read_bytes()
                == (tmp_path / "t4" / "defect.json").read_bytes())


class TestDefectGolden:
    """Exact defect rows at denominators Hypothesis never reaches.

    Recorded before push_forward and integrate became one merge walk per
    edge; they pin both kernels on Thompson's group and on the odometer.
    """

    def test_thompson_canonical(self, tmp_path):
        code, report, _ = run(tmp_path, {
            "command": "defect", "system": "thompson",
            "parameters": {"ns": list(range(1, 13)), "measure": "canonical"}})
        assert code == 0
        assert report["sup_norm"] == "1"
        assert report["rows"] == [
            [1, "7/48", "2/3"], [2, "83/640", "2/5"], [3, "101/896", "2/7"],
            [4, "449/4608", "2/9"], [5, "119/1408", "2/11"],
            [6, "1967/26624", "2/13"], [7, "2003/30720", "2/15"],
            [8, "8093/139264", "2/17"], [9, "4069/77824", "2/19"],
            [10, "32651/688128", "2/21"], [11, "32705/753664", "2/23"],
            [12, "130937/3276800", "2/25"]]

    def test_odometer_dirac(self, tmp_path):
        code, report, _ = run(tmp_path, {
            "command": "defect", "system": "odometer:D=5",
            "parameters": {"ns": list(range(1, 7)), "measure": {"dirac": {"leaf": 0}}}})
        assert code == 0
        assert report["sup_norm"] == "2"
        assert report["rows"] == [
            [1, "2/3", "4/3"], [2, "3/10", "4/5"], [3, "3/14", "4/7"],
            [4, "1/6", "4/9"], [5, "3/22", "4/11"], [6, "7/52", "4/13"]]


class TestExportPlot:
    def test_mesh_csv(self, tmp_path):
        _, _, path = run(tmp_path, {
            "command": "certify", "system": "odometer:D=4",
            "parameters": {"n_max": 3}})
        text = export_plot_data(str(path), "mesh")
        lines = text.splitlines()
        assert lines[0] == "n,mesh"
        assert lines[1] == "1,1"

    def test_orbit_growth_monotone(self, tmp_path):
        _, _, path = run(tmp_path, {
            "command": "orbit", "system": "thompson",
            "parameters": {"x": "1/2", "R": 6}})
        text = export_plot_data(str(path), "orbit")
        rows = [line.split(",") for line in text.splitlines()[1:]]
        sizes = [int(size) for _, size in rows]
        assert sizes == sorted(sizes)
        assert len(rows) == 7

    def test_defect_rows(self, tmp_path):
        _, _, path = run(tmp_path, {
            "command": "defect", "system": "odometer:D=4",
            "parameters": {"ns": list(range(1, 17)), "x": {"leaf": 0}}})
        text = export_plot_data(str(path), "defect")
        assert text.splitlines()[0] == "n,defect"
        assert len(text.splitlines()) == 17

    def test_missing_report(self):
        with pytest.raises(ReportMissing):
            export_plot_data("/nonexistent.json", "mesh")

    def test_unknown_kind(self, tmp_path):
        _, _, path = run(tmp_path, {"command": "paradox-check",
                                    "parameters": {"L": 1}})
        with pytest.raises(ConfigInvalid):
            export_plot_data(str(path), "spread")

    def test_cli_export_plot_stdout(self, tmp_path, capsys):
        _, _, path = run(tmp_path, {
            "command": "certify", "system": "odometer:D=4",
            "parameters": {"n_max": 2}})
        capsys.readouterr()
        assert main(["export-plot", str(path), "--kind", "delta"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "eps,delta"


class TestZooCLISurface:
    def test_module_entry_point(self):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(dendrodyn.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-m", "dendrodyn.cli", "zoo", "list"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert isinstance(json.loads(proc.stdout)["systems"], list)

    def test_zoo_list_stdout(self, capsys):
        assert main(["zoo", "list"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert any(row["name"].startswith("odometer") for row in doc["systems"])

    def test_zoo_export_to_dir(self, tmp_path, capsys):
        assert main(["zoo", "export", "thompson", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        doc = json.loads((tmp_path / "zoo.json").read_text())
        assert doc["name"] == "thompson"
        assert {g["symbol"] for g in doc["generators"]} == {"f", "g"}
