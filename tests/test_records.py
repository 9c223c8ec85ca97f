"""The package's records: value semantics of the hot types and the report records,
and an import that loads neither ``dataclasses`` nor ``inspect``."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import dendrodyn
from dendrodyn.action import (
    Classification,
    FiniteOrbitResult,
    MinimalSetApprox,
    OrbitReport,
    RecurrenceDiagnostic,
    RecurrenceWitness,
    Word,
)
from dendrodyn.cli import ExperimentConfig
from dendrodyn.dendrite import Edge, EdgePoint, VertexPoint
from dendrodyn.equicontinuity import (
    CertificateLevel,
    EquicontinuityCertificate,
    EquivarianceReport,
    FrontierCover,
    ProximalityTrace,
    TowerLevel,
    TreeTower,
)
from dendrodyn.homeo import ValidationReport, Violation
from dendrodyn.measure import FolnerScheme
from dendrodyn.zoo import ParadoxReport, ZooSystem

F = Fraction

# the fields each record leaves out of equality and hashing
UNCOMPARED = {
    Classification: {"details"},
    ParadoxReport: {"first_letter_counts"},
    ZooSystem: {"properties"},
    TreeTower: {"rooted"},
}
RECORDS = [Violation, ValidationReport, OrbitReport, FiniteOrbitResult, MinimalSetApprox,
           Classification, RecurrenceWitness, RecurrenceDiagnostic, TowerLevel, TreeTower,
           FrontierCover, EquivarianceReport, CertificateLevel,
           EquicontinuityCertificate, ProximalityTrace, FolnerScheme, ParadoxReport,
           ZooSystem, ExperimentConfig]


def sample(cls, **changed):
    """An instance with field i set to i, uncompared fields set to dicts (unhashable)."""
    values = {name: ({"i": i} if name in UNCOMPARED.get(cls, ()) else i)
              for i, name in enumerate(cls.__annotations__)}
    return cls(**{**values, **changed})


def test_startup_loads_neither_dataclasses_nor_inspect():
    env = {**os.environ, "PYTHONPATH": str(Path(dendrodyn.__file__).parents[1])}
    code = ("import sys, dendrodyn.cli; "
            "print(sorted({'dataclasses', 'inspect', 'logging'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
class TestRecord:
    def test_equal_by_value_positionally_or_by_keyword(self, cls):
        a = sample(cls)
        b = cls(*(getattr(a, name) for name in cls.__annotations__))
        assert a == b and not a != b
        assert a != object()
        for i, name in enumerate(cls.__annotations__):
            if name not in UNCOMPARED.get(cls, ()):
                assert a != sample(cls, **{name: -1 - i}), name

    def test_uncompared_fields_are_ignored(self, cls):
        a = sample(cls, **{name: {"other": 1} for name in UNCOMPARED.get(cls, ())})
        assert a == sample(cls)
        assert hash(a) == hash(sample(cls))

    def test_hash_agrees_with_equality(self, cls):
        assert hash(sample(cls)) == hash(sample(cls))
        assert len({sample(cls), sample(cls)}) == 1

    def test_assignment(self, cls):
        a = sample(cls)
        name = next(iter(cls.__annotations__))
        with pytest.raises(AttributeError):
            setattr(a, name, 99)
        with pytest.raises(AttributeError):
            delattr(a, name)
        with pytest.raises(AttributeError):
            a.extra = 1
        assert getattr(a, name) == getattr(sample(cls), name)

    def test_dataclass_style_repr(self, cls):
        a = sample(cls)
        fields = ", ".join(f"{name}={getattr(a, name)!r}" for name in cls.__annotations__)
        assert repr(a) == f"{cls.__qualname__}({fields})"

    def test_missing_or_unknown_fields_are_refused(self, cls):
        with pytest.raises(TypeError):
            cls()
        with pytest.raises(TypeError):
            sample(cls, no_such_field=1)
        names = list(cls.__annotations__)
        with pytest.raises(TypeError):
            cls(*range(len(names) + 1))
        with pytest.raises(TypeError):
            cls(0, **{names[0]: 0})

    def test_copy_and_pickle_keep_the_value(self, cls):
        a = sample(cls)
        assert copy.copy(a) == a
        assert pickle.loads(pickle.dumps(a)) == a


def test_record_defaults():
    assert ValidationReport(True, ()).notes == ()
    cert = EquicontinuityCertificate("Certified", (), (), "why")
    assert cert.witness is None
    assert ZooSystem("z", None, None, {}).corrupt_cover is False
    assert TreeTower((), None).corrupt_cover is False
    cfg = ExperimentConfig("zoo", parameters={})
    assert (cfg.system, cfg.out, cfg.format, cfg.seed) == (None, ".", "json", 0)
    with pytest.raises(TypeError):  # its parameters are a dict
        hash(cfg)


def test_records_refuse_an_unknown_uncompared_field():
    from dendrodyn.util import Record

    with pytest.raises(TypeError):
        class Broken(Record, uncompared=("missing",)):
            present: int


HOT = [
    (VertexPoint, ("r01",), ("r00",)),
    (EdgePoint, ("e3", F(1, 2)), ("e3", F(1, 4))),
    (Edge, ("e3", "r0", "r01", 3, F(1, 8)), ("e3", "r0", "r01", 3, F(1, 4))),
    (Word, ((("f", 1), ("g", -1)),), ((("f", 1),),)),
]


@pytest.mark.parametrize("cls, args, other", HOT, ids=lambda v: getattr(v, "__name__", ""))
class TestHotValue:
    def test_equality_and_hash(self, cls, args, other):
        a, b = cls(*args), cls(*args)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != cls(*other)
        assert a != args and a != object()
        # the hash of the field tuple, as before, so set and dict orders are unchanged
        assert hash(a) == hash(args)

    def test_assignment_is_refused(self, cls, args, other):
        a = cls(*args)
        name = cls.__slots__[0]
        with pytest.raises(AttributeError):
            setattr(a, name, other[0])
        with pytest.raises(AttributeError):
            delattr(a, name)
        with pytest.raises(AttributeError):
            a.extra = 1
        assert getattr(a, name) == args[0]

    def test_copy_and_pickle_keep_the_value(self, cls, args, other):
        a = cls(*args)
        assert copy.copy(a) == a
        assert copy.deepcopy(a) == a
        assert pickle.loads(pickle.dumps(a)) == a


def test_hot_reprs_and_word_text():
    assert repr(VertexPoint("r01")) == "V(r01)"
    assert repr(EdgePoint("e", F(3, 8))) == "P(e@3/8)"
    assert repr(Edge("e1", "r", "0", 1, F(1, 2))) == \
        "Edge(eid='e1', u='r', v='0', level=1, weight=Fraction(1, 2))"
    assert repr(Word((("f", 1),))) == "Word(letters=(('f', 1),))"
    assert str(Word.parse("f g^-1 f^2")) == "f g^-1 f f"
    assert str(Word()) == str(Word.identity()) == "e"
    assert len(Word()) == 0 and not Word()
