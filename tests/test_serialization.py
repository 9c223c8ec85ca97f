import json
from fractions import Fraction

import pytest

from dendrodyn import serialization as ser
from dendrodyn.dendrite import Dendrite
from dendrodyn.errors import ConfigInvalid
from dendrodyn.measure import canonical_measure, dirac, push_forward
from dendrodyn.zoo import (
    gehman_dendrite,
    odometer,
    thompson_generators,
    unit_interval_dendrite,
)

F = Fraction


class TestDendriteRoundTrip:
    def test_dyadic_rule(self):
        X = Dendrite(["a", "b", "c"], [("e1", "a", "b"), ("e2", "b", "c")])
        doc = ser.dendrite_to_json(X)
        assert doc["weight_rule"] == "dyadic"
        back = ser.dendrite_from_json(doc)
        assert back.same_space(X)

    def test_custom_rule(self):
        X = gehman_dendrite(3)
        doc = ser.dendrite_to_json(X)
        back = ser.dendrite_from_json(doc)
        assert back.same_space(X)
        assert back.total_weight() == X.total_weight()

    def test_nested_custom_weights_accepted(self):
        X = Dendrite(["a", "b"], [("e", "a", "b")], [F(1, 3)])
        doc = ser.dendrite_to_json(X)
        doc["weight_rule"] = {"custom": [["1/3"]]}
        back = ser.dendrite_from_json(doc)
        assert back.edge("e").weight == F(1, 3)

    def test_malformed_rejected(self):
        with pytest.raises(ConfigInvalid):
            ser.dendrite_from_json({"vertices": ["a"]})


class TestPointRoundTrip:
    def test_vertex(self):
        X = unit_interval_dendrite()
        p = X.vertex_point("0")
        assert ser.point_from_json(ser.point_to_json(p), X) == p

    def test_interior(self):
        X = unit_interval_dendrite()
        p = X.point("e", F(3, 7))
        doc = ser.point_to_json(p)
        assert doc == {"edge": "e", "t": "3/7"}
        assert ser.point_from_json(doc, X) == p

    def test_boundary_parameter_canonicalizes(self):
        X = unit_interval_dendrite()
        assert ser.point_from_json({"edge": "e", "t": "0"}, X) == X.vertex_point("0")


class TestHomeoRoundTrip:
    def test_interval_pl_format(self):
        X = unit_interval_dendrite()
        f, _ = thompson_generators(X)
        doc = ser.homeo_to_json(f)
        assert set(doc) == {"interval_pl"}
        assert doc["interval_pl"]["x"] == ["0", "1/2", "3/4", "1"]
        back = ser.homeo_from_json(doc, X)
        assert back == f

    def test_tree_auto_format(self):
        X = gehman_dendrite(3)
        g = odometer(3, X)
        doc = ser.homeo_to_json(g)
        assert set(doc) == {"tree_auto"}
        back = ser.homeo_from_json(doc, X)
        assert back == g


class TestMeasureRoundTrip:
    def test_canonical(self):
        X = gehman_dendrite(2)
        mu = canonical_measure(X)
        back = ser.measure_from_json(ser.measure_to_json(mu), X)
        assert back == mu
        assert back.norm == mu.norm

    def test_atoms_and_density_mixture(self):
        X = unit_interval_dendrite()
        f, _ = thompson_generators(X)
        mu = push_forward(f, canonical_measure(X)).scaled(F(1, 2)).add(
            dirac(X, X.point("e", F(1, 3)), F(1, 2)))
        back = ser.measure_from_json(ser.measure_to_json(mu), X)
        assert back == mu

    def test_schema_keys(self):
        X = unit_interval_dendrite()
        doc = ser.measure_to_json(canonical_measure(X))
        assert set(doc) == {"atoms", "edges", "norm"}
        assert doc["edges"][0]["pieces"][0] == {"a": "0", "b": "1", "density": "1"}


class TestMalformedDocuments:
    @pytest.mark.parametrize("what, doc", [
        ("dendrite", {"vertices": ["0", "1"], "edges": [{"id": "e", "u": "0"}]}),
        ("dendrite", {"vertices": ["0", "1"], "edges": [{"id": "e", "u": "0", "v": "1"}],
                      "weight_rule": {"custom": ["1/0"]}}),
        ("point", {"edge": "e"}),
        ("point", {"edge": "e", "t": "half"}),
        ("homeo", {"interval_pl": {"x": [0, 1]}}),
        ("homeo", {"tree_auto": {"vertex_map": 3}}),
        ("measure", {"atoms": [{"point": {"vertex": "0"}}]}),
        ("measure", {"edges": [{"id": "e", "pieces": [{"a": "0", "b": "1"}]}]}),
        ("point", {"atoms": [{"point": {"edge": "e"}, "w": "1"}]}),  # inside a measure
    ])
    def test_library_decoders_raise_config_errors(self, what, doc):
        X = unit_interval_dendrite()
        decode = {"dendrite": lambda: ser.dendrite_from_json(doc),
                  "point": lambda: ser.point_from_json(doc, X),
                  "homeo": lambda: ser.homeo_from_json(doc, X),
                  "measure": lambda: ser.measure_from_json(doc, X)}
        with pytest.raises(ConfigInvalid, match=f"malformed {what} document"):
            decode["measure" if "atoms" in doc else what]()


IDENTITY = {"x": ["0", "1"], "y": ["0", "1"]}
HALF_EDGE = [{"a": "0", "b": "1/2", "density": "2"}]


class TestRepeatedIds:
    @pytest.mark.parametrize("what, doc, repeat", [
        ("measure", {"edges": [{"id": "e", "pieces": HALF_EDGE},
                               {"id": "e", "pieces": [{"a": "1/2", "b": "1", "density": "2"}]}]},
         "measure edge id 'e'"),
        ("homeo", {"tree_auto": {
            "vertex_map": [["r", "r"], ["0", "0"], ["0", "1"], ["1", "0"]],
            "edge_maps": [{"edge": "e0", "target": "e1", "map": IDENTITY},
                          {"edge": "e1", "target": "e0", "map": IDENTITY}]}},
         "vertex_map source '0'"),
        ("homeo", {"tree_auto": {
            "vertex_map": [["r", "r"], ["0", "0"], ["1", "1"]],
            "edge_maps": [{"edge": "e0", "target": "e0",
                           "map": {"x": ["0", "1/2", "1"], "y": ["0", "1/4", "1"]}},
                          {"edge": "e0", "target": "e0", "map": IDENTITY},
                          {"edge": "e1", "target": "e1", "map": IDENTITY}]}},
         "edge_maps edge 'e0'"),
    ])
    def test_repeats_are_refused(self, what, doc, repeat):
        if what == "measure":
            decode = lambda: ser.measure_from_json(doc, unit_interval_dendrite())
        else:
            decode = lambda: ser.homeo_from_json(doc, gehman_dendrite(1))
        with pytest.raises(ConfigInvalid, match=f"repeated {repeat}"):
            decode()

    def test_repeated_atoms_are_added(self):
        X = unit_interval_dendrite()
        row = {"point": {"edge": "e", "t": "1/3"}, "w": "1/4"}
        mu = ser.measure_from_json({"atoms": [row, row],
                                    "edges": [{"id": "e", "pieces": HALF_EDGE}]}, X)
        assert mu.atoms == ((X.point("e", F(1, 3)), F(1, 2)),)
        assert mu.total_mass() == F(3, 2)


class TestDumpDeterminism:
    def test_byte_identical(self, tmp_path):
        X = gehman_dendrite(2)
        doc = ser.dendrite_to_json(X)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        t1 = ser.dump_json(doc, p1)
        t2 = ser.dump_json(doc, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert t1 == t2
        json.loads(t1)
