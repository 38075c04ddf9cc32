"""Record classes: constructor, ==, hash, repr, immutability, copying.

These classes were dataclasses; the reprs pinned here are the ones the
dataclasses printed, and each class keeps their ==, hash and frozen
behaviour."""

import copy
import pickle

import pytest

from polyfam.charsum import CharSumResult
from polyfam.directions import DirectionSet
from polyfam.families import ExtensionResult, Family, StabilityThreshold
from polyfam.gf import FieldError, FieldSpec
from polyfam.polyfun import PointAG, PolyK
from polyfam.report import Report
from polyfam.search import CliqueResult, IntersectionGraph

# (class, positional arguments, field names, frozen, repr)
RECORDS = [
    (FieldSpec, (2, 2, (1, 1, 1)), ("p", "n", "modulus"), True,
     "FieldSpec(p=2, n=2, modulus=(1, 1, 1))"),
    (PolyK, (2, (0, 1, 2)), ("k", "coeffs"), True,
     "PolyK(k=2, coeffs=(0, 1, 2))"),
    (CharSumResult, (3, 2, 2.23606797749979, True, False),
     ("sum_value", "distinct_roots", "bound", "within_bound", "is_square_shape"), True,
     "CharSumResult(sum_value=3, distinct_roots=2, bound=2.23606797749979, within_bound=True,"
     " is_square_shape=False)"),
    (DirectionSet, (frozenset({1, 2}), 1), ("members", "span_dim"), True,
     "DirectionSet(members=frozenset({1, 2}), span_dim=1)"),
    (Family, (1, (PolyK(1, (0, 1)), PolyK(1, (1, 1)))), ("k", "members"), True,
     "Family(k=1, members=(PolyK(k=1, coeffs=(0, 1)), PolyK(k=1, coeffs=(1, 1))))"),
    (ExtensionResult, (True, (PointAG(0, 1),)), ("unique", "points"), True,
     "ExtensionResult(unique=True, points=(PointAG(x=0, y=1),))"),
    (StabilityThreshold, (5, 3, 215, -9), ("q", "c", "M", "K"), True,
     "StabilityThreshold(q=5, c=3, M=215, K=-9)"),
    (Report, ("pencil-size", "5^1", "fail", {"k": 2}, [1], {"cases": 3}, 4, 7, "0.1.0", "cases"),
     ("claim_id", "field_spec", "verdict", "parameters", "witnesses", "counters",
      "wall_time_ms", "seed", "tool_version", "primary_counter"), False,
     "Report(claim_id='pencil-size', field_spec='5^1', verdict='fail', parameters={'k': 2},"
     " witnesses=[1], counters={'cases': 3}, wall_time_ms=4, seed=7, tool_version='0.1.0',"
     " primary_counter='cases')"),
    (IntersectionGraph, (2, 1, 1, "min_shared", 4, [12, 12, 3, 3], 4),
     ("q", "k", "t", "predicate", "n_vertices", "adj", "edge_count"), False,
     "IntersectionGraph(q=2, k=1, t=1, predicate='min_shared', n_vertices=4,"
     " adj=[12, 12, 3, 3], edge_count=4)"),
    (CliqueResult, (4, (0, 5, 10, 15), 1, True), ("size", "witness", "nodes_explored", "proven"),
     True, "CliqueResult(size=4, witness=(0, 5, 10, 15), nodes_explored=1, proven=True)"),
]

# a second value for the first field of each record, still valid
OTHER_FIRST = {FieldSpec: 3, PolyK: 0, CharSumResult: -1, DirectionSet: frozenset(),
               Family: 0, ExtensionResult: False, StabilityThreshold: 4, Report: "hm-size",
               IntersectionGraph: 3, CliqueResult: 3}


def other_args(cls, args):
    if cls is FieldSpec:
        return 3, 1, (0, 1)
    if cls is PolyK:
        return 0, (5,)
    return (OTHER_FIRST[cls], *args[1:])


@pytest.fixture(params=RECORDS, ids=[r[0].__name__ for r in RECORDS])
def record(request):
    return request.param


def test_positional_and_keyword_construction_agree(record):
    cls, args, names, _, _ = record
    a = cls(*args)
    b = cls(**dict(zip(names, args)))
    assert a == b
    assert tuple(getattr(a, f) for f in names) == args


def test_eq_is_field_wise(record):
    cls, args, _, _, _ = record
    a = cls(*args)
    assert a == cls(*copy.deepcopy(args)) and not a != cls(*args)
    assert a != cls(*other_args(cls, args))
    assert a != args and a != None  # noqa: E711


def test_hash_is_the_field_tuple_or_refused(record):
    cls, args, _, frozen, _ = record
    a = cls(*args)
    if frozen:
        assert hash(a) == hash(args) == hash(cls(*args))
        assert len({a, cls(*args), cls(*other_args(cls, args))}) == 2
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)


def test_repr_is_the_dataclass_repr(record):
    cls, args, _, _, text = record
    assert repr(cls(*args)) == text


def test_frozen_records_refuse_assignment(record):
    cls, args, names, frozen, _ = record
    a = cls(*args)
    for name in names:
        if frozen:
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(a, name, None)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(a, name)
        else:
            setattr(a, name, getattr(a, name))
    assert tuple(getattr(a, f) for f in names) == args


def test_copy_and_pickle_keep_the_fields(record):
    cls, args, _, _, _ = record
    a = cls(*args)
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(b) is cls and b == a and repr(b) == repr(a)


def test_report_defaults():
    """Each default Report has its own empty parameters, witnesses and
    counters, as the dataclass's default factories gave."""
    a, b = Report("pencil-size", "5^1"), Report("pencil-size", "5^1")
    assert repr(a) == (
        "Report(claim_id='pencil-size', field_spec='5^1', verdict='pass', parameters={},"
        " witnesses=[], counters={}, wall_time_ms=0, seed=None, tool_version='0.1.0',"
        " primary_counter=None)"
    )
    a.parameters["k"] = 1
    a.witnesses.append(1)
    a.counters["cases"] = 1
    assert b.parameters == {} and b.witnesses == [] and b.counters == {}
    assert Report("a", "b", witnesses=[1]).verdict == "fail"


def test_polyk_is_slotted():
    """intersection_count reads .k and .coeffs on every pair: slots, no
    instance dict."""
    f = PolyK(1, (0, 1))
    assert PolyK.__slots__ == ("k", "coeffs")
    assert not hasattr(f, "__dict__")


def test_point_is_a_named_pair():
    pt = PointAG(2, 3)
    assert pt == (2, 3) and pt.x == 2 and pt.y == 3
    assert repr(pt) == "PointAG(x=2, y=3)"
    assert PointAG(y=3, x=2) == pt


@pytest.mark.parametrize(
    "args, message",
    [
        ((-1, ()), "degree bound must be >= 0, got -1"),
        ((2, (0, 1)), "need 3 coefficients for k=2, got 2"),
        ((0, ()), "need 1 coefficients for k=0, got 0"),
    ],
)
def test_polyk_validation_messages(args, message):
    with pytest.raises(ValueError) as ei:
        PolyK(*args)
    assert str(ei.value) == message


@pytest.mark.parametrize(
    "args, message",
    [
        ((2, 2, (1, 1)), "modulus must be monic of degree n, low degree first"),
        ((2, 2, (1, 0, 1)), "modulus (1, 0, 1) is reducible over F_2"),
        ((2, 2, (1, 2, 1)), "modulus coefficients must be reduced mod p"),
        ((4, 1, (0, 1)), "p must be prime, got 4"),
        ((2, 0, (1,)), "n must be positive, got 0"),
        ((2, 17, (1,) * 18), "field order 2^17 exceeds the table cap 65536"),
    ],
)
def test_field_spec_validation_messages(args, message):
    with pytest.raises(FieldError) as ei:
        FieldSpec(*args)
    assert str(ei.value) == message
