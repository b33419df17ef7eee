"""The value-class contract of ``intmat.frozen``, on every class it makes.

A frozen dataclass with the same fields is the oracle for ``repr``,
``==`` and ``hash``: the package's value classes keep its behaviour
without importing ``dataclasses``.
"""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import heckesat
from heckesat.corresp import (
    Correspondence,
    CorrespError,
    CycleZero,
    FinitePointSet,
)
from heckesat.elliptic import CurveError, EllipticCurve, FrobeniusData
from heckesat.intmat import frozen
from heckesat.padic import CosetError, PCoset
from heckesat.rootdata import RootDatum, WeylGroup, build_group
from heckesat.satake import SatakeParameterSymmetric

POINTS = FinitePointSet(2, (1, 0), 5, 2)
GL2 = build_group("GL(2)")

# (class, field values in declared order)
CASES = [
    (FinitePointSet, (2, (1, 0), 5, 2)),
    (Correspondence, (POINTS, POINTS, ((1, 2), (0, -1)))),
    (CycleZero, (POINTS, (3, -1))),
    (EllipticCurve, (5, 1, 1)),
    (FrobeniusData, (-2, (8, 32), True)),
    (PCoset, (2, 3, ((3, 1), (0, 1)))),
    (RootDatum, (GL2.name, GL2.rank, GL2.roots, GL2.coroots,
                 GL2.simple_indices)),
    (WeylGroup, ((((0, 1), (1, 0)), ((1, 0), (0, 1))),)),
    (SatakeParameterSymmetric, ({(1, 0): 3, (1, 1): 1}, 5)),
]
IDS = [cls.__name__ for cls, _ in CASES]


def _names(cls):
    return tuple(cls.__annotations__)


def _oracle(cls, values):
    ref = dataclasses.make_dataclass(cls.__name__, _names(cls), frozen=True)
    return ref(*values)


@pytest.mark.parametrize("cls,values", CASES, ids=IDS)
def test_equal_fields_give_equal_objects_and_hashes(cls, values):
    a, b = cls(*values), cls(*values)
    assert a == b and not a != b
    if cls is SatakeParameterSymmetric:  # a dict field: unhashable, as before
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(_oracle(cls, values))


@pytest.mark.parametrize("cls,values", CASES, ids=IDS)
def test_another_class_with_the_same_fields_is_never_equal(cls, values):
    other = frozen(type(cls.__name__, (), {
        "__annotations__": dict(cls.__annotations__)}))
    a = cls(*values)
    assert a != other(*values) and a != _oracle(cls, values)
    assert a.__eq__(other(*values)) is NotImplemented
    assert a != values


@pytest.mark.parametrize("cls,values", CASES, ids=IDS)
def test_repr_is_the_dataclass_repr(cls, values):
    assert repr(cls(*values)) == repr(_oracle(cls, values))


@pytest.mark.parametrize("cls,values", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, values):
    a = cls(*values)
    for name in (*_names(cls), "unknown"):
        with pytest.raises(AttributeError):
            setattr(a, name, values[0])
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == cls(*values)


@pytest.mark.parametrize("cls,values", CASES, ids=IDS)
def test_keyword_construction(cls, values):
    fields = dict(zip(_names(cls), values))
    assert cls(**fields) == cls(*values)
    rest = _names(cls)[1:]
    assert cls(values[0], **{n: fields[n] for n in rest}) == cls(*values)
    assert tuple(getattr(cls(**fields), n) for n in fields) == values


@pytest.mark.parametrize("cls,values", CASES, ids=IDS)
def test_missing_extra_or_repeated_field_is_a_type_error(cls, values):
    first = _names(cls)[0]
    for args, kw in [(values[:-1], {}), ((*values, 0), {}),
                     (values, {first: values[0]}),
                     (values[:-1], {"unknown": 0}), ((), {})]:
        with pytest.raises(TypeError):
            cls(*args, **kw)


@pytest.mark.parametrize("make,error", [
    (lambda: FinitePointSet(2, (1, 0), 1, 2), CorrespError),
    (lambda: FinitePointSet(2, (0, 0), 5, 1), CorrespError),
    (lambda: FinitePointSet(2, (1, 0), 5, 1), CorrespError),
    (lambda: Correspondence(POINTS, POINTS, ((1,), (0,))), CorrespError),
    (lambda: CycleZero(POINTS, (1,)), CorrespError),
    (lambda: EllipticCurve(5, 0, 0), CurveError),
    (lambda: EllipticCurve(9, 1, 1), CurveError),
    (lambda: EllipticCurve(p=5, a=1.0, b=1), CurveError),
    (lambda: PCoset(2, 3, ((2, 0), (0, 1))), CosetError),
    (lambda: PCoset(2, 3, ((3, 3), (0, 1))), CosetError),
    (lambda: PCoset(2, 4, ((1, 0), (0, 1))), CosetError),
], ids=["q", "permutation", "order", "shape", "length", "singular",
        "prime", "int", "diagonal", "range", "p"])
def test_post_init_refusals_keep_their_errors(make, error):
    with pytest.raises(error):
        make()


def test_cached_property_is_not_a_field():
    rd = build_group("GSp(4)")
    fresh = RootDatum(rd.name, rd.rank, rd.roots, rd.coroots,
                      rd.simple_indices)
    assert "_positive" not in fresh.__dict__
    assert fresh.positive_root_indices() == rd.positive_root_indices()
    assert "_positive" in fresh.__dict__
    assert fresh == rd and hash(fresh) == hash(rd)
    assert repr(fresh) == repr(_oracle(RootDatum, (
        rd.name, rd.rank, rd.roots, rd.coroots, rd.simple_indices)))


def test_import_loads_neither_dataclasses_nor_inspect():
    path = [str(Path(heckesat.__file__).parents[1]),
            os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = ("import sys, heckesat; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
