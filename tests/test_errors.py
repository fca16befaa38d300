"""Error messages name their values in one form, a value too long to
print is cut short, and one past the int/str limit does not turn the error
into another one.

Every message shows a value through ``errors._shown``: a str by its repr,
an int or Fraction as its ``p/q`` text, a tuple or list as its entries'
texts in parentheses.  Past 80 characters it prints the first 60 and the
length, so one long value cannot flood stderr.  ``str()`` refuses an
integer with more digits than the interpreter's int/str limit by raising
ValueError.  A message that names such a value prints a placeholder naming
the limit instead, so the error keeps its own type: the CLI exits 2 for
it, not 3 as for a bug.
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
from orthocheck.linalg import as_vector

OVER = f"<a value over the {sys.get_int_max_str_digits()}-digit integer limit>"
HUGE = 10 ** 5000
SEVENS = int("7" * 4000)  # inside the limit; its square is not
E12 = frame_of((1, 0), (0, 1))
E3 = frame_of((1, 0, 0), (0, 1, 0))


def _duplicated(x):
    p = RelationPoint(E12, (x, 0), (x, 0))
    return Relation((p, p))


# (error, a call over small values and its message, the same call over a
# value past the limit and its message, and over a 4,000-digit value inside
# the limit and its message, cut short)
CASES = {
    "dependent-frame": (
        DependentFrameError,
        lambda: frame_of((3, 0), (6, 0)),
        "frame vectors are linearly dependent: ((3, 0), (6, 0))",
        lambda: frame_of((HUGE, 0), (HUGE, 0)),
        f"frame vectors are linearly dependent: {OVER}",
        lambda: frame_of((SEVENS, 0), (SEVENS, 0)),
        f"frame vectors are linearly dependent: (({'7' * 58}... (8014 characters)",
    ),
    "symmetry": (
        SymmetryError,
        lambda: GramInnerProduct(((1, "1/2"), (0, 1))),
        "matrix is not symmetric at (0, 1): 1/2 vs 0",
        lambda: GramInnerProduct(((1, HUGE), (0, 1))),
        f"matrix is not symmetric at (0, 1): {OVER} vs 0",
        lambda: GramInnerProduct(((1, SEVENS), (0, 1))),
        f"matrix is not symmetric at (0, 1): {'7' * 60}... (4000 characters) vs 0",
    ),
    "definiteness": (
        DefinitenessError,
        lambda: GramInnerProduct(((1, 2), (2, 1))),
        "leading principal minor 2 is -3, not positive",
        lambda: GramInnerProduct(((SEVENS, 0), (0, -SEVENS))),
        f"leading principal minor 2 is {OVER}, not positive",
        lambda: GramInnerProduct(((-SEVENS, 0), (0, 1))),
        f"leading principal minor 1 is -{'7' * 59}... (4001 characters), "
        "not positive",
    ),
    "solve-outside-span": (
        SpanMembershipError,
        lambda: solve_coordinates(E3, (0, 0, "5/3")),
        "point (0, 0, 5/3) is outside the frame's span",
        lambda: solve_coordinates(E3, (0, 0, HUGE)),
        f"point {OVER} is outside the frame's span",
        lambda: solve_coordinates(E3, (0, 0, SEVENS)),
        f"point (0, 0, {'7' * 53}... (4008 characters) is outside the frame's span",
    ),
    "relation-point-outside-span": (
        SpanMembershipError,
        lambda: RelationPoint(E3, (0, 0, 7), (0, 0)),
        "point (0, 0, 7) is outside the frame's span",
        lambda: RelationPoint(E3, (0, 0, HUGE), (0, 0)),
        f"point {OVER} is outside the frame's span",
        lambda: RelationPoint(E3, (0, 0, SEVENS), (0, 0)),
        f"point (0, 0, {'7' * 53}... (4008 characters) is outside the frame's span",
    ),
    "duplicate-point": (
        DuplicatePointError,
        lambda: _duplicated(2),
        "points[1] repeats the (frame, point) pair of points[0]: "
        "(((1, 0), (0, 1)), (2, 0))",
        lambda: _duplicated(HUGE),
        f"points[1] repeats the (frame, point) pair of points[0]: {OVER}",
        lambda: _duplicated(SEVENS),
        "points[1] repeats the (frame, point) pair of points[0]: "
        f"(((1, 0), (0, 1)), ({'7' * 40}... (4025 characters)",
    ),
    "rational-literal": (
        RationalError,
        lambda: as_vector((1, "x")),
        "not a rational literal: 'x'",
        lambda: as_vector((1, [HUGE])),
        f"not a rational literal: {OVER}",
        lambda: as_vector((1, "7" * 4000 + "x")),
        f"not a rational literal: '{'7' * 59}... (4001 characters)",
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_message_inside_the_limit_prints_the_value(name):
    error, call, message, *_ = CASES[name]
    with pytest.raises(error) as raised:
        call()
    assert str(raised.value) == message


@pytest.mark.parametrize("name", CASES)
def test_message_past_the_limit_keeps_its_error(name):
    error, _, _, call, message, *_ = CASES[name]
    with pytest.raises(error) as raised:
        call()
    assert str(raised.value) == message


def test_echoed_input_past_the_limit_keeps_its_error():
    """Rejected input is shown as its entries' texts, and ``str()`` refuses
    an integer past the limit: the placeholder is printed, and the error
    stays a RationalError."""
    with pytest.raises(RationalError) as raised:
        as_vector((1, [HUGE]))
    assert str(raised.value) == f"not a rational literal: {OVER}"


@pytest.mark.parametrize("name", CASES)
def test_message_over_a_long_value_is_cut_short(name):
    """A 4,000-digit value inside the limit is shown as its first 60
    characters and its length, with no ``Fraction(`` or ``Frame(`` repr."""
    error, *_, call, message = CASES[name]
    with pytest.raises(error) as raised:
        call()
    assert str(raised.value) == message
    assert len(message) < 200
