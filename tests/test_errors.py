"""Error messages name their values, and a value too long to print does not
turn the error into another one.

``str()`` refuses an integer with more digits than the interpreter's
int/str limit by raising ValueError.  A message that names such a value
prints a placeholder naming the limit instead, so the error keeps its own
type: the CLI exits 2 for it, not 3 as for a bug.  A message over values
inside the limit prints them as ``str()`` does.
"""

import sys

import pytest

from orthocheck import (
    DefinitenessError,
    DependentFrameError,
    DuplicatePointError,
    GramInnerProduct,
    RationalError,
    Relation,
    RelationPoint,
    SpanMembershipError,
    SymmetryError,
    frame_of,
    solve_coordinates,
)
from orthocheck.linalg import vec

OVER = f"<a value over the {sys.get_int_max_str_digits()}-digit integer limit>"
HUGE = 10 ** 5000
SEVENS = int("7" * 4000)  # inside the limit; its square is not
E12 = frame_of((1, 0), (0, 1))
E3 = frame_of((1, 0, 0), (0, 1, 0))


def _duplicated(x):
    p = RelationPoint(E12, (x, 0), (x, 0))
    return Relation((p, p))


# (error, a call over small values and its message, the same call over a
# value past the limit and its message)
CASES = {
    "dependent-frame": (
        DependentFrameError,
        lambda: frame_of((3, 0), (6, 0)),
        "frame vectors are linearly dependent: ((Fraction(3, 1), "
        "Fraction(0, 1)), (Fraction(6, 1), Fraction(0, 1)))",
        lambda: frame_of((HUGE, 0), (HUGE, 0)),
        f"frame vectors are linearly dependent: {OVER}",
    ),
    "symmetry": (
        SymmetryError,
        lambda: GramInnerProduct(((1, "1/2"), (0, 1))),
        "matrix is not symmetric at (0, 1): 1/2 vs 0",
        lambda: GramInnerProduct(((1, HUGE), (0, 1))),
        f"matrix is not symmetric at (0, 1): {OVER} vs 0",
    ),
    "definiteness": (
        DefinitenessError,
        lambda: GramInnerProduct(((1, 2), (2, 1))),
        "leading principal minor 2 is -3, not positive",
        lambda: GramInnerProduct(((SEVENS, 0), (0, -SEVENS))),
        f"leading principal minor 2 is {OVER}, not positive",
    ),
    "solve-outside-span": (
        SpanMembershipError,
        lambda: solve_coordinates(E3, (0, 0, "5/3")),
        "(Fraction(0, 1), Fraction(0, 1), Fraction(5, 3)) is not in the "
        "span of the frame",
        lambda: solve_coordinates(E3, (0, 0, HUGE)),
        f"{OVER} is not in the span of the frame",
    ),
    "relation-point-outside-span": (
        SpanMembershipError,
        lambda: RelationPoint(E3, (0, 0, 7), (0, 0)),
        "point (Fraction(0, 1), Fraction(0, 1), Fraction(7, 1)) is outside "
        "the frame's span",
        lambda: RelationPoint(E3, (0, 0, HUGE), (0, 0)),
        f"point {OVER} is outside the frame's span",
    ),
    "duplicate-point": (
        DuplicatePointError,
        lambda: _duplicated(2),
        "duplicate (frame, point) pair: (Frame(vectors=((Fraction(1, 1), "
        "Fraction(0, 1)), (Fraction(0, 1), Fraction(1, 1)))), "
        "(Fraction(2, 1), Fraction(0, 1)))",
        lambda: _duplicated(HUGE),
        f"duplicate (frame, point) pair: {OVER}",
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_message_inside_the_limit_prints_the_value(name):
    error, call, message, _, _ = CASES[name]
    with pytest.raises(error) as raised:
        call()
    assert str(raised.value) == message


@pytest.mark.parametrize("name", CASES)
def test_message_past_the_limit_keeps_its_error(name):
    error, _, _, call, message = CASES[name]
    with pytest.raises(error) as raised:
        call()
    assert str(raised.value) == message


def test_echoed_input_past_the_limit_keeps_its_error():
    """Rejected input is echoed by ``repr()``, which refuses an integer past
    the limit too: the placeholder is printed, and the error stays a
    RationalError."""
    with pytest.raises(RationalError) as raised:
        vec(1, [HUGE])
    assert str(raised.value) == f"not a rational literal: {OVER}"
