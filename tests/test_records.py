"""Every record class against its standard-library twin.

:func:`gradevote.core.record` generates the methods that
``dataclasses.dataclass`` generated for these classes before.  Each test
builds, with ``dataclasses.make_dataclass``, a twin of a record with the same
fields, defaults, frozen flag and ``__post_init__``, and holds the two to the
same ``==``, ``hash``, ``repr``, defaults and refusals.
"""

import dataclasses
import importlib
from fractions import Fraction

import pytest

from gradevote import (
    APPROVAL_SCALE, ApprovalTally, BracketBallot, BracketNode, Candidate, ConsistencyViolation,
    GradeProfile, GradeScale, NoShowCounterexample, NodeDecision, Outcome, ParseIssue,
    RankedEntry,
)
from gradevote.core import FrozenRecordError, factory
from gradevote.properties import Deviation
from gradevote.results import Block

MODULES = ["approval", "ballot_io", "bracket", "core", "fixtures", "mj", "mj3", "properties",
           "results"]
#: every class a module defines with :func:`gradevote.core.record`
RECORDS = {
    name: cls
    for module in MODULES
    for name, cls in vars(importlib.import_module(f"gradevote.{module}")).items()
    if isinstance(cls, type) and cls.__module__ == f"gradevote.{module}"
    and "_record_fields" in vars(cls)
}
#: the records that were plain ``@dataclass`` (the others were frozen)
MUTABLE = {"CrossMethodReport", "ManipulationReport", "NoShowSweepReport", "ParseReport",
           "PartitionCheckReport"}

S3 = GradeScale(("positive", "neutral", "negative"))
A, B = Candidate("a"), Candidate("b")
PA, PB = GradeProfile("a", (1, 0, 0)), GradeProfile("b", (0, 0, 1))
ENTRY = RankedEntry(1, "a", "a", (1, 0, 0))
NODE = BracketNode(("a", "b"), ("a",), ("b",))
WIN_A, WIN_B = Outcome("winner", "a"), Outcome("winner", "b")

#: two or three field-value tuples per record, in field order
SAMPLES = {
    "GradeScale": [(("x", "y"),), (("x", "y", "z"),)],
    "Candidate": [("a",), ("a", "Ann", "P", "teacher"), ("a", "a")],
    "Ballot": [("v1",), ("v2", {"a": "positive"})],
    "GradeProfile": [("a", (1, 0, 0)), ("a", (0, 1, 0)), ("a", [1, 0, 0])],
    "ElectionProfile": [(S3, (A, B), (PA, PB), 1), (S3, (A,), (PA,), 1)],
    "RankedEntry": [(1, "a", "a", (1, 0, 0)),
                    (2, "b", "B", (0, 0, 1), Block.ELECTABLE, "negative", -1, 0)],
    "RankedResult": [("mj3", S3, 1, (ENTRY,)),
                     ("approval3", APPROVAL_SCALE, 1, (ENTRY,), (("a", "b"),), True)],
    "Outcome": [("winner", "a"), ("tie", None, ("a", "b")), ("rejected",)],
    "ElectionConfig": [("mj3", None), ("mj", S3, (A,), 4, 7), ("bracket", None, (A, B))],
    "ParseIssue": [(3, "v1", "bad"), (None, None, "bad", True)],
    "ParseReport": [(), (2, 1, [ParseIssue(1, "v", "r")], ["n"])],
    "ApprovalTally": [(2, 2, 1), (0, 0, 0)],
    "MajorityGrade": [(0, "positive"), (2, "negative")],
    "Tally3": [(1, 2, 3), (0, 0, 0)],
    "ScorePair": [(1, -2), (0, 0)],
    "AltScores": [(Fraction(1, 2), None, Fraction(-1, 3)), (None, None, None)],
    "BracketNode": [(("a", "b"), ("a",), ("b",)), (("a", "b", "c"), ("a", "b"), ("c",))],
    "BracketBallot": [("v1", True, ("upper",)), ("v2", False, ["lower"])],
    "NodeDecision": [(NODE, 2, 1, "upper", False), (NODE, 1, 1, "upper", True)],
    "BracketResult": [(("a", "b"), 2, 1, True, (NodeDecision(NODE, 2, 1, "upper", False),), "a"),
                      (("a", "b"), 0, 3, False, (), None)],
    "Fixture": [("f", "mj3", S3, (A,)),
                ("g", "bracket", None, (A, B), (), (BracketBallot("v", True, ("lower",)),), "n")],
    "ConsistencyViolation": [((2, 3), "a", "b", 1, -1), ((1, 1), "b", "a", 0, 0)],
    "PartitionCheckReport": [(4,), (4, 7, 2, [ConsistencyViolation((1, 1), "b", "a", 0, 0)])],
    "NoShowCounterexample": [("addition", {"a": "positive"}, None, WIN_A, WIN_B),
                             ("removal", {}, "v1", WIN_A, WIN_A)],
    "NoShowSweepReport": [(3, 9), (3, 9, [NoShowCounterexample("removal", {}, "v", WIN_A, WIN_B)])],
    "CrossMethodReport": [(5,), (5, ["x"])],
    "PolarizationShift": [(1, ApprovalTally(1, 2, 1), ApprovalTally(2, 0, 2)),
                          (0, ApprovalTally(1, 1, 1), ApprovalTally(1, 1, 1))],
    "Deviation": [({"a": "positive"}, "a"), ({}, "b")],
    "ManipulationReport": [("v1", "a", 8), ("v1", None, 8, [Deviation({}, "b")])],
}


def _twin(cls):
    """The stdlib data class with ``cls``'s fields, defaults, frozen flag and
    ``__post_init__``."""
    specs = []
    for name, annotation in cls.__annotations__.items():
        if name not in vars(cls):
            specs.append((name, annotation))
            continue
        default = vars(cls)[name]
        specs.append((name, annotation, dataclasses.field(default_factory=default.make)
                      if isinstance(default, factory) else dataclasses.field(default=default)))
    namespace = {"__post_init__": cls.__post_init__} if hasattr(cls, "__post_init__") else {}
    return dataclasses.make_dataclass(cls.__name__, specs, namespace=namespace,
                                      frozen=cls.__name__ not in MUTABLE)


def _hash(value):
    try:
        return hash(value)
    except TypeError as exc:  # a mutable record, or a frozen one holding a dict
        return str(exc)


def test_every_record_has_samples():
    assert set(SAMPLES) == set(RECORDS)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_record_matches_its_stdlib_twin(name):
    cls, twin = RECORDS[name], _twin(RECORDS[name])
    fields = list(cls.__annotations__)
    ours = [cls(*args) for args in SAMPLES[name]]
    again = [cls(**dict(zip(fields, args))) for args in SAMPLES[name]]
    theirs = [twin(*args) for args in SAMPLES[name]]
    for a, ta in zip(ours, theirs):
        assert vars(a) == vars(ta)
        assert repr(a) == repr(ta)
        assert _hash(a) == _hash(ta)
        # a class with the same field values is never equal
        assert a != ta and ta != a and not a == ta
        for b, tb in zip(again, theirs):
            assert (a == b) is (ta == tb)
            assert (a != b) is (ta != tb)
    assert [a == b for a, b in zip(ours, again)] == [True] * len(ours)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_record_defaults_match_its_stdlib_twin(name):
    cls, twin = RECORDS[name], _twin(RECORDS[name])
    required = [n for n in cls.__annotations__ if n not in vars(cls)]
    args = SAMPLES[name][0][:len(required)]
    assert vars(cls(*args)) == vars(twin(*args))
    for field, default in vars(cls).items():
        if isinstance(default, factory):  # each instance gets its own list
            assert getattr(cls(*args), field) is not getattr(cls(*args), field)
            assert getattr(twin(*args), field) is not getattr(twin(*args), field)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_frozen_records_refuse_to_set_or_delete_a_field(name):
    cls, twin = RECORDS[name], _twin(RECORDS[name])
    field = next(iter(cls.__annotations__))
    args = SAMPLES[name][-1]
    for value in cls(*args), twin(*args):
        frozen = name not in MUTABLE
        if frozen:
            with pytest.raises(AttributeError) as refused:
                setattr(value, field, None)
            with pytest.raises(AttributeError):
                delattr(value, field)
            assert value == type(value)(*args)
            if value.__class__ is cls:
                assert refused.type is FrozenRecordError
        else:
            setattr(value, field, None)
            assert getattr(value, field) is None
            delattr(value, field)
            assert field not in vars(value)


@pytest.mark.parametrize("name, args", [
    ("Candidate", ("",)),
    ("GradeScale", (("a",),)),
    ("GradeScale", (("a", "b", "a"),)),
    ("GradeScale", (("a", ""),)),
    ("GradeProfile", ("a", (1, -1))),
    ("ElectionProfile", (S3, (A, A), (PA, PA), 1)),
    ("ElectionProfile", (S3, (A, B), (PB, PA), 1)),
    ("ApprovalTally", (0, -1, 0)),
    ("Tally3", (0, 0, -2)),
    ("BracketBallot", ("v", True, ("sideways",))),
    ("ElectionConfig", ("nope", None)),
    ("ElectionConfig", ("mj3", None, (), 1)),
    ("ElectionConfig", ("approval3", S3)),
])
def test_post_init_checks_raise_as_in_the_stdlib_twin(name, args):
    cls, twin = RECORDS[name], _twin(RECORDS[name])
    with pytest.raises(Exception) as ours:
        cls(*args)
    with pytest.raises(Exception) as theirs:
        twin(*args)
    assert (ours.type, str(ours.value)) == (theirs.type, str(theirs.value))
