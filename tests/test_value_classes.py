"""Behaviour of the library's immutable value classes.

Pins what callers see of each class: positional and keyword construction
with their defaults, field-wise equality within one class only, hashes
that agree with equality, the exact ``repr`` text, and that fields cannot
be assigned or deleted.  ``FactorizationOutcome`` compares by identity.
"""

from fractions import Fraction as F

import pytest

from orthocheck.cli import RunConfig
from orthocheck.dependence import (
    Chain,
    Counterexample,
    FactorizationOutcome,
    ProjectionKey,
    Relation,
    RelationPoint,
)
from orthocheck.errors import (
    ChainOrderError,
    DependentFrameError,
    DuplicatePointError,
    SpanMembershipError,
    SymmetryError,
    UsageError,
)
from orthocheck.inner_product import GramInnerProduct
from orthocheck.linalg import Frame
from orthocheck.maximality import MaximalityReport

E1, E2 = (F(1), F(0)), (F(0), F(1))
VECTORS = (E1, E2)
FRAME = Frame(VECTORS)
SHEAR = Frame(((F(1), F(0)), (F(1), F(1))))
POINT = (F(3), F(5))
P = RelationPoint(FRAME, POINT, POINT)
Q = RelationPoint(SHEAR, POINT, (F(-2), F(5)))
REL = Relation((P,))
CONFIG = RunConfig(dim=3, m=2, seed=7)

# (class, positional args, keyword args, expected repr, a different value)
CASES = {
    "Frame": (
        Frame, (VECTORS,), {"vectors": VECTORS},
        f"Frame(vectors={VECTORS!r})",
        SHEAR,
    ),
    "GramInnerProduct": (
        GramInnerProduct, (VECTORS,), {"matrix": VECTORS},
        f"GramInnerProduct(matrix={VECTORS!r})",
        GramInnerProduct(((F(2), F(1)), (F(1), F(1)))),
    ),
    "RelationPoint": (
        RelationPoint, (FRAME, POINT, POINT),
        {"frame": FRAME, "point": POINT, "values": POINT},
        f"RelationPoint(frame={FRAME!r}, point={POINT!r}, values={POINT!r})",
        RelationPoint(FRAME, POINT, (F(3), F(6))),
    ),
    "Relation": (
        Relation, (), {"points": ()},
        "Relation(points=())",
        REL,
    ),
    "ProjectionKey": (
        ProjectionKey, (1, E1, POINT),
        {"index": 1, "vector": E1, "point": POINT},
        f"ProjectionKey(index=1, vector={E1!r}, point={POINT!r})",
        ProjectionKey(2, E1, POINT),
    ),
    "Counterexample": (
        Counterexample, (1, P, Q), {"index": 1, "first": P, "second": Q},
        f"Counterexample(index=1, first={P!r}, second={Q!r})",
        Counterexample(1, Q, P),
    ),
    "FactorizationOutcome": (
        FactorizationOutcome, ((), None),
        {"tables": (), "counterexample": None},
        "FactorizationOutcome(tables=(), counterexample=None)",
        FactorizationOutcome(None, Counterexample(1, P, Q)),
    ),
    "Chain": (
        Chain, ((Relation(), REL),), {"relations": (Relation(), REL)},
        f"Chain(relations=({Relation()!r}, {REL!r}))",
        Chain((REL,)),
    ),
    "MaximalityReport": (
        MaximalityReport, (FRAME,), {"candidate": FRAME},
        f"MaximalityReport(candidate={FRAME!r}, orthogonal_witness=None, "
        "collision_point=None, values=None, index=None)",
        MaximalityReport(SHEAR),
    ),
    "RunConfig": (
        RunConfig, (), {},
        "RunConfig(dim=2, m=2, frames=8, points=4, bound=5, seed=0, gram=None)",
        CONFIG,
    ),
}


@pytest.fixture(params=list(CASES))
def case(request):
    return CASES[request.param]


def test_positional_and_keyword_construction_agree(case):
    cls, args, kwargs, expected_repr, other = case
    a, b = cls(*args), cls(**kwargs)
    assert type(a) is cls and type(b) is cls
    assert repr(a) == repr(b) == expected_repr
    if cls is FactorizationOutcome:
        # Identity equality: equal fields do not make two outcomes equal.
        assert a == a and a != b and hash(a) != hash(b)
        assert len({a, b, a}) == 2
    else:
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    assert a != other and not a == other


def test_equality_is_within_one_class(case):
    cls, args, _, _, other = case
    value = cls(*args)
    others = [c[4] for c in CASES.values() if c[0] is not cls]
    assert all(value != o and not value == o for o in others)
    assert value != args and value != tuple(vars(value).values())
    assert value != None  # noqa: E711  the operator itself is under test


def test_fields_cannot_be_assigned_or_deleted(case):
    cls, args, kwargs, expected_repr, _ = case
    value = cls(*args)
    field = next(iter(kwargs), None) or "dim"
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert repr(value) == expected_repr


def test_run_config_defaults_are_class_attributes():
    assert (RunConfig.dim, RunConfig.m, RunConfig.frames, RunConfig.points,
            RunConfig.bound, RunConfig.seed, RunConfig.gram) == (
        2, 2, 8, 4, 5, 0, None)
    assert RunConfig(5, 3, 2, 1, 9, 4, "g.json") == RunConfig(
        dim=5, m=3, frames=2, points=1, bound=9, seed=4, gram="g.json")


def test_run_config_to_json():
    out = CONFIG.to_json()
    assert out == {"dim": 3, "m": 2, "frames": 8, "points": 4, "bound": 5,
                   "seed": 7, "gram": None}
    assert list(out) == ["dim", "m", "frames", "points", "bound", "seed", "gram"]
    out["dim"] = 9  # a fresh dict: the config is untouched
    assert CONFIG.dim == 3


def test_validation_runs_on_construction():
    with pytest.raises(DependentFrameError):
        Frame(((1, 2), (2, 4)))
    with pytest.raises(SymmetryError):
        GramInnerProduct(((1, 2), (0, 1)))
    with pytest.raises(SpanMembershipError):
        RelationPoint(Frame(((1, 0, 0), (0, 1, 0))), (0, 0, 1), (0, 0))
    with pytest.raises(DuplicatePointError):
        Relation((P, P))
    with pytest.raises(ChainOrderError):
        Chain((REL, Relation()))
    with pytest.raises(UsageError):
        RunConfig(bound=0)
    # Construction normalizes entries to Fractions, as before.
    assert Frame(((1, 0), (0, 1))).vectors == VECTORS
    assert type(RelationPoint(FRAME, (3, 5), ("3", 5)).values[0]) is F
