import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction as F
from functools import partial
from math import lcm
from random import Random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from orthocheck import (
    DependentFrameError,
    Frame,
    GenerationError,
    GramInnerProduct,
    OrthoError,
    PreconditionError,
    RationalError,
    Relation,
    ShapeError,
    SpanMembershipError,
    build_orthogonal_relation,
    derive_seed,
    evaluate,
    frame_of,
    identity_inner_product,
    linear_combination,
    sample_chain,
    sample_coefficients,
    sample_frame,
    sample_inner_product,
    sample_span_point,
    solve_coordinates,
)
from orthocheck.errors import _shown
from orthocheck.linalg import (
    _cleared,
    _solve_many,
    _vector_hash,
    as_vector,
    determinant,
    invert_matrix,
    is_independent,
    matrix_rank,
    span_contains,
)

from oracles import (
    det_cofactor,
    linear_combination_fractions,
    mat_mul,
    rank_by_minors,
    sample_frame_fraction_draws,
    solve_2x2_cramer,
)
from strategies import spelled

rationals = st.fractions(
    min_value=-6, max_value=6, max_denominator=4
)


def square(n):
    return st.lists(
        st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n
    )


# --- vectors ---

def test_vec_builds_fraction_tuple():
    v = as_vector((1, "1/2", F(3, 4)))
    assert v == (F(1), F(1, 2), F(3, 4))
    assert all(isinstance(c, F) for c in v)


def test_linear_combination():
    fr = frame_of((1, 0), (1, 1))
    assert linear_combination(fr.vectors, (F(-2), F(5))) == (F(3), F(5))


@pytest.mark.parametrize("vectors, coeffs", [
    ([(F(1), F(0)), (F(0), F(1))], (F(1),)),
    ([(F(1), F(0))], (F(1), F(2))),
    ([], ()),
    ([(F(1), F(2)), (F(3),)], (F(1), F(1))),
    ([(F(1),), (F(2), F(3))], (F(1), F(1))),
    ([(F(1), F(2)), (F(3), F(4)), (F(5),)], (F(1), F(1), F(1))),
], ids=["fewer-coeffs", "more-coeffs", "empty", "shorter-last",
        "shorter-first", "shorter-third"])
def test_linear_combination_shape_errors(vectors, coeffs):
    with pytest.raises(ShapeError):
        linear_combination(vectors, coeffs)


def test_linear_combination_reads_int_entries_and_string_coefficients():
    out = linear_combination([(1, F(1, 2)), (F(1, 3), 0)], (2, "3/4"))
    assert out == (F(9, 4), F(1))
    assert all(type(e) is F for e in out)
    assert linear_combination([()], (F(1),)) == ()


non_integer_rationals = st.fractions(
    min_value=-9, max_value=9, max_denominator=12
)


@st.composite
def combinations_to_compare(draw):
    dim = draw(st.integers(1, 6))
    count = draw(st.integers(1, 6))
    vector = st.lists(non_integer_rationals, min_size=dim, max_size=dim)
    vectors = draw(st.lists(vector, min_size=count, max_size=count))
    coeffs = draw(st.lists(non_integer_rationals, min_size=count,
                           max_size=count))
    return [tuple(v) for v in vectors], tuple(coeffs)


@settings(max_examples=200, deadline=None)
@given(combinations_to_compare())
def test_linear_combination_matches_fraction_reference(case):
    vectors, coeffs = case
    out = linear_combination(vectors, coeffs)
    assert out == linear_combination_fractions(vectors, coeffs)
    assert all(type(e) is F for e in out)


# --- one coercion: every entry is a rational or a RationalError ---

PROBES = ["1.5", "1e3", " 1/2 ", "\u0661/2", "1_000", 0.1, True, Decimal("1.5"),
          "abc", float("inf"), float("nan"), None, "1/0", "9" * 5000]


@pytest.mark.parametrize("entry", PROBES, ids=[repr(p)[:12] for p in PROBES])
def test_vec_reads_only_the_literal_grammar(entry):
    with pytest.raises(RationalError):
        as_vector((1, entry))


def _exact(e):
    """Whether ``e`` is an exact rational by the README's rule, decided
    without the library: a Fraction, an int that is not a bool, or ASCII
    ``p`` or ``p/q`` with q nonzero and no part over the int/str limit."""
    if isinstance(e, (int, F)):
        return not isinstance(e, bool)
    parts = e.split("/") if isinstance(e, str) else []
    if not 1 <= len(parts) <= 2 or any(
            len(p.lstrip("+-")) > sys.get_int_max_str_digits() for p in parts):
        return False
    return bool(re.fullmatch(r"[+-]?[0-9]+", parts[0], re.ASCII)) and (
        len(parts) == 1 or bool(re.fullmatch(r"[0-9]+", parts[1], re.ASCII))
        and int(parts[1]) != 0)


any_entry = st.one_of(
    st.integers(-10**6, 10**6),
    rationals,
    rationals.map(str),
    st.text(max_size=6),
    st.sampled_from(PROBES + ["-0/3", "+7", "1/" + "9" * 5000]),
    st.floats(),
    st.booleans(),
    st.none(),
    st.decimals(),
)

# Each call, and how many of its four entries it reads.
I2 = identity_inner_product(2)
TAXONOMY = {
    "vec": (2, lambda a, b, c, d: as_vector((a, b))),
    "frame_of": (4, lambda a, b, c, d: frame_of((a, b), (c, d))),
    "Frame": (4, lambda a, b, c, d: Frame(((a, b), (c, d)))),
    "GramInnerProduct": (4, lambda a, b, c, d: GramInnerProduct(((a, b), (c, d)))),
    "linear_combination": (4, lambda a, b, c, d: linear_combination(
        [(a, b), (1, 2)], (c, d))),
    "solve_coordinates": (2, lambda a, b, c, d: solve_coordinates(
        frame_of((1, 1), (0, 1)), (a, b))),
    "evaluate": (4, lambda a, b, c, d: evaluate(I2, (a, b), (c, d))),
}


@pytest.mark.parametrize("name", TAXONOMY)
@settings(max_examples=80, deadline=None)
@given(st.lists(any_entry, min_size=4, max_size=4))
@example(["abc", 1, 1, 1])
@example([float("inf"), 1, 1, 1])
@example([None, 1, 1, 1])
@example(["1/0", 1, 1, 1])
def test_every_call_returns_or_raises_an_ortho_error(name, entries):
    reads, call = TAXONOMY[name]
    exact = all(map(_exact, entries[:reads]))
    try:
        call(*entries)
    except RationalError:
        assert not exact
    except OrthoError:
        assert exact
    else:
        assert exact


# --- clearing denominators ---

clearable_entries = st.one_of(
    st.integers(-10**6, 10**6),
    st.fractions(min_value=-50, max_value=50, max_denominator=60),
    st.fractions(min_value=-50, max_value=50, max_denominator=60).map(str),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(clearable_entries, max_size=6), st.booleans())
@example([], False)
@example([], True)
def test_cleared_matches_fraction_reference(entries, as_generator):
    numerators, d = _cleared((e for e in entries) if as_generator else entries)
    values = [F(e) for e in entries]
    assert len(numerators) == len(values)
    assert all(F(n, d) == v for n, v in zip(numerators, values))
    assert d == lcm(*[v.denominator for v in values])
    assert all(type(n) is int for n in numerators) and type(d) is int


@pytest.mark.parametrize("entry", [True, False])
def test_cleared_rejects_a_bool(entry):
    with pytest.raises(RationalError, match=f"^not a rational literal: {entry}$"):
        _cleared([1, entry])


# --- determinant and rank against naive oracles ---

@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(square))
def test_determinant_matches_cofactor_expansion(rows):
    assert determinant(rows) == det_cofactor(rows)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-3, 3), min_size=3, max_size=3),
        min_size=1,
        max_size=4,
    )
)
def test_rank_matches_minor_enumeration(rows):
    frac_rows = [[F(c) for c in row] for row in rows]
    assert matrix_rank(rows) == rank_by_minors(frac_rows)


@st.composite
def rational_rows(draw, max_rows=4, max_cols=3):
    """Rational rows with mixed denominators; some rows are rational
    combinations of earlier ones, so rank deficiency shows up often."""
    width = draw(st.integers(1, max_cols))
    row = st.lists(rationals, min_size=width, max_size=width)
    rows = draw(st.lists(row, min_size=1, max_size=max_rows))
    if len(rows) < max_rows and draw(st.booleans()):
        coeffs = draw(st.lists(rationals, min_size=len(rows), max_size=len(rows)))
        rows.append([sum((c * r[j] for c, r in zip(coeffs, rows)), F(0))
                     for j in range(width)])
    return rows


@st.composite
def rational_frames(draw, max_dim=4, full=None):
    """An independent rational frame, its dimension and size drawn too.
    ``full=True`` draws m == dim, ``full=False`` draws m < dim."""
    dim = draw(st.integers(3 if full is False else 2, max_dim))
    if full:
        m = dim
    else:
        m = draw(st.integers(2, dim - 1 if full is False else dim))
    vector = st.lists(rationals, min_size=dim, max_size=dim)
    vectors = draw(st.lists(vector, min_size=m, max_size=m))
    assume(rank_by_minors(vectors) == m)
    return Frame(tuple(map(tuple, vectors)))


@settings(max_examples=150, deadline=None)
@given(rational_rows())
def test_rank_matches_minor_enumeration_on_rationals(rows):
    assert matrix_rank(rows) == rank_by_minors(rows)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_span_contains_matches_minor_enumeration(data):
    # Every example checks a full frame (m == dim, no elimination) and a
    # thin one (m < dim, the rank test).
    for full in (True, False):
        frame = data.draw(rational_frames(full=full))
        if data.draw(st.booleans()):
            coeffs = data.draw(st.lists(rationals, min_size=frame.size,
                                        max_size=frame.size))
            x = linear_combination(frame.vectors, coeffs)
        else:
            x = tuple(data.draw(st.lists(rationals, min_size=frame.dim,
                                         max_size=frame.dim)))
        rows = [list(v) for v in frame.vectors] + [list(x)]
        assert span_contains(frame, x) == (rank_by_minors(rows) == frame.size)


@settings(max_examples=100, deadline=None)
@given(rational_frames(), st.data())
def test_solve_round_trip_on_rational_frames(frame, data):
    coeffs = tuple(data.draw(st.lists(rationals, min_size=frame.size,
                                      max_size=frame.size)))
    x = linear_combination(frame.vectors, coeffs)
    assert solve_coordinates(frame, x) == coeffs


def _fractions(solved):
    """Each ``(N, D)`` solution of ``_solve_many`` as its Fraction tuple."""
    return [tuple(F(n, D) for n in N) for N, D in solved]


@settings(max_examples=100, deadline=None)
@given(rational_frames(max_dim=5), st.data())
def test_batched_solve_matches_solve_coordinates(frame, data):
    coeffs = data.draw(st.lists(
        st.lists(rationals, min_size=frame.size, max_size=frame.size),
        max_size=4))
    points = [linear_combination(frame.vectors, c) for c in coeffs]
    solved = _fractions(_solve_many(list(map(_cleared, frame.vectors)),
                                    list(map(_cleared, points))))
    assert solved == [solve_coordinates(frame, x) for x in points]
    assert solved == [tuple(c) for c in coeffs]


@settings(max_examples=100, deadline=None)
@given(rational_frames(max_dim=6), st.data())
def test_batched_solve_gives_integers_over_one_nonzero_denominator(frame, data):
    """Each point's solution is ``(N, D)``: m integers over one nonzero int,
    and ``N[k] / D`` is coordinate k as :func:`solve_coordinates` gives it."""
    points = data.draw(st.lists(st.builds(
        partial(linear_combination, frame.vectors),
        st.lists(rationals, min_size=frame.size, max_size=frame.size)),
        min_size=1, max_size=3))
    for x, (N, D) in zip(points, _solve_many(list(map(_cleared, frame.vectors)),
                                             list(map(_cleared, points)))):
        assert type(D) is int and D != 0
        assert len(N) == frame.size and all(type(n) is int for n in N)
        assert tuple(F(n, D) for n in N) == solve_coordinates(frame, x)


def test_batched_solve_names_the_first_point_outside_the_span():
    fr = frame_of((1, 0, 0), (0, 2, 0))
    points = [(3, -2, 0), (F(1, 2), 5, 0), (1, 1, 7), (0, 0, 1)]
    cleared = list(map(_cleared, points))
    with pytest.raises(SpanMembershipError,
                       match=r"^point \(1, 1, 7\) is outside the frame's span$"):
        _solve_many(list(map(_cleared, fr.vectors)), cleared)
    assert _fractions(_solve_many(list(map(_cleared, fr.vectors)), cleared[:2])) == [
        (F(3), F(-1)), (F(1, 2), F(5, 2))]


@pytest.mark.parametrize("dim, m", [(12, 12), (14, 11), (16, 16), (16, 13)])
def test_batched_solve_round_trips_big_entries(dim, m):
    """At dim 12-16, with frame entries and coefficient terms up to 10**30,
    one elimination gives back every point's coefficients.  Below full
    size, a point moved off the span among them is named, not a later one
    or one inside."""
    rng = Random(dim * 100 + m)
    big = 10 ** 30
    frame = Frame(tuple(
        tuple(F(rng.randint(-big, big), rng.randint(1, big)) for _ in range(dim))
        for _ in range(m)))
    coeffs = [tuple(F(rng.randint(-big, big), rng.randint(1, big)) for _ in range(m))
              for _ in range(5)]
    points = [linear_combination(frame.vectors, c) for c in coeffs]
    rows = list(map(_cleared, frame.vectors))
    assert _fractions(_solve_many(rows, list(map(_cleared, points)))) == coeffs
    if m == dim:
        return
    off = [tuple(e + F(rng.randint(1, big), 7) * (k == t) for k, e in enumerate(x))
           for t, x in enumerate(points)]
    assert not any(span_contains(frame, x) for x in off)
    tried = [points[0], off[1], points[2], off[3]]
    with pytest.raises(SpanMembershipError,
                       match=f"^point {re.escape(_shown(off[1]))} is outside"):
        _solve_many(rows, list(map(_cleared, tried)))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(rationals, min_size=2, max_size=2),
    st.lists(rationals, min_size=2, max_size=2),
    st.lists(rationals, min_size=2, max_size=2),
)
def test_solve_matches_cramer_on_rational_pairs(v, w, x):
    assume(v[0] * w[1] - v[1] * w[0] != 0)
    assert solve_coordinates(frame_of(v, w), x) == solve_2x2_cramer(v, w, x)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(square))
def test_invert_matrix_is_a_left_inverse(rows):
    if det_cofactor(rows) == 0:
        with pytest.raises(ShapeError):
            invert_matrix(rows)
        return
    assert mat_mul(invert_matrix(rows), rows) == identity_inner_product(
        len(rows)).matrix


def test_determinant_basics():
    assert determinant([]) == 1
    assert determinant([[F(5)]]) == 5
    assert determinant([[1, 2], [2, 4]]) == 0
    assert determinant(identity_inner_product(4).matrix) == 1
    with pytest.raises(ShapeError):
        determinant([[1, 2, 3], [4, 5, 6]])


def test_determinant_row_swap_flips_sign():
    rows = [[F(2), F(7), F(1)], [F(0), F(3), F(5)], [F(4), F(1), F(9)]]
    swapped = [rows[1], rows[0], rows[2]]
    assert determinant(swapped) == -determinant(rows)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 3).flatmap(square), st.integers(2, 3).flatmap(square))
def test_determinant_multiplicative(a, b):
    if len(a) != len(b):
        return
    assert determinant(mat_mul(a, b)) == determinant(a) * determinant(b)


def test_invert_matrix_round_trip():
    rows = [[F(1), F(1)], [F(0), F(1)]]
    inv = invert_matrix(rows)
    assert mat_mul(rows, inv) == identity_inner_product(2).matrix
    assert invert_matrix([]) == ()
    with pytest.raises(ShapeError):
        invert_matrix([[1, 2], [2, 4]])
    with pytest.raises(ShapeError, match="^inverse needs a square matrix$"):
        invert_matrix(((1, 2),))


def test_rank_of_no_rows_is_zero():
    assert matrix_rank([]) == 0


# --- frames ---

def test_frame_rejects_bad_shapes():
    with pytest.raises(ShapeError):
        Frame(((F(1),),))  # single vector
    with pytest.raises(ShapeError):
        frame_of((1, 0), (1, 0, 0))  # mixed dimensions
    with pytest.raises(ShapeError):
        frame_of((1, 0), (0, 1), (1, 1))  # m > n
    with pytest.raises(ValueError):
        frame_of((1, 2), (2, 4))  # dependent


def test_frame_dependence_has_its_own_error_type():
    with pytest.raises(DependentFrameError) as err:
        frame_of((1, 2), (2, 4))
    assert isinstance(err.value, OrthoError)
    assert isinstance(err.value, ValueError)


def test_frame_accessors():
    fr = frame_of((1, 0, 0), (0, 2, 0))
    assert fr.dim == 3 and fr.size == 2
    assert len(fr) == 2
    assert fr[1] == (F(0), F(2), F(0))
    assert list(fr) == [fr[0], fr[1]]


def test_equal_frames_from_ints_fractions_and_strings_hash_equal():
    from_ints = frame_of((1, 2, 0), (0, -3, 4))
    from_fractions = Frame(((F(1), F(2), F(0)), (F(0), F(-3), F(4))))
    from_strings = frame_of(("2/2", "+4/2", "-0"), ("0/5", "-6/2", "+4/1"))
    ratios = ((1, 2, 0), (0, -3, 4))  # int entries: ratios (n, 1)
    for other in (from_fractions, from_strings):
        assert other == from_ints and other is not from_ints
        assert hash(other) == hash(from_ints)
        assert other.slot_hashes == tuple(map(_vector_hash, ratios))
    assert frame_of((1, 2, 0), (0, -3, 5)) != from_ints


@given(st.lists(rationals, min_size=1, max_size=5).flatmap(
    lambda values: st.tuples(st.just(tuple(values)), spelled(values), spelled(values))))
@example(((F(1, 2), F(0), F(3), F(-3, 2)), ("2/4", "-0", "+3/1", "-6/4"),
          (F(1, 2), 0, 3, "-3/2")))
def test_vector_hash_agrees_across_spellings(drawn):
    values, a, b = drawn
    assert as_vector(a) == as_vector(b) == values
    hashes = {_vector_hash(as_vector(a)), _vector_hash(as_vector(b))}
    assert hashes == {_vector_hash(values)}
    if all(v.denominator == 1 for v in values):
        assert _vector_hash(tuple(map(int, values))) == _vector_hash(values)


def test_hash_cache_stays_out_of_eq_and_repr():
    hashed, fresh = frame_of((1, "1/2"), (0, 1)), frame_of((1, "1/2"), (0, 1))
    hash(hashed)
    assert list(vars(fresh)) == ["vectors"]  # never hashed: nothing extra
    assert hashed == fresh and hash(hashed) == hash(fresh)
    assert repr(hashed) == repr(fresh) == f"Frame(vectors={fresh.vectors!r})"


def test_is_independent_exhaustive_pairs_2d():
    # every ordered pair with entries in [-3, 3] against the minor oracle
    span = range(-3, 4)
    vectors = [(F(a), F(b)) for a in span for b in span]
    for v in vectors:
        for w in vectors:
            expected = rank_by_minors([list(v), list(w)]) == 2
            assert is_independent([v, w]) == expected


@pytest.mark.parametrize("dim,m,count", [(3, 2, 150), (3, 3, 150), (4, 3, 100), (4, 4, 100)])
def test_is_independent_seeded_sweep_matches_oracle(dim, m, count):
    rng = Random(dim * 100 + m)
    for _ in range(count):
        vectors = [
            tuple(F(rng.randint(-3, 3)) for _ in range(dim)) for _ in range(m)
        ]
        expected = rank_by_minors([list(v) for v in vectors]) == m
        assert is_independent(vectors) == expected


@pytest.mark.parametrize("call", [
    lambda vectors: linear_combination(vectors, (1, 1)),
    matrix_rank,
    is_independent,
    Frame,
], ids=["linear_combination", "matrix_rank", "is_independent", "Frame"])
@pytest.mark.parametrize("vectors", [
    [(F(1), F(2)), (F(3),)],
    [(1,), (2, 3)],
], ids=["shorter-last", "shorter-first"])
def test_mixed_lengths_are_one_shape_error(call, vectors):
    with pytest.raises(ShapeError, match=r"^mixed vector dimensions: \[1, 2\]$"):
        call(vectors)


def test_is_independent_edge_cases():
    assert is_independent([(F(1), F(0)), (F(0), F(1))])
    assert not is_independent([(F(1), F(2)), (F(2), F(4))])
    assert not is_independent([(F(1), F(0)), (F(0), F(1)), (F(1), F(1))])
    with pytest.raises(ShapeError):
        is_independent([])
    with pytest.raises(ShapeError):
        is_independent([(F(1), F(0)), (F(1),)])


# --- coordinates ---

def test_solve_coordinates_fixture():
    fr = frame_of((1, 0), (1, 1))
    assert solve_coordinates(fr, (3, 5)) == (F(-2), F(5))


def test_solve_coordinates_matches_cramer():
    rng = Random(4)
    for _ in range(200):
        v = (F(rng.randint(-5, 5)), F(rng.randint(-5, 5)))
        w = (F(rng.randint(-5, 5)), F(rng.randint(-5, 5)))
        if v[0] * w[1] - v[1] * w[0] == 0:
            continue
        x = (F(rng.randint(-9, 9)), F(rng.randint(-9, 9)))
        assert solve_coordinates(frame_of(v, w), x) == solve_2x2_cramer(v, w, x)


@settings(max_examples=120, deadline=None)
@given(
    st.lists(rationals, min_size=2, max_size=2),
    st.integers(-3, 3),
)
def test_solve_round_trip_in_3d(coeffs, shear):
    fr = frame_of((1, 0, shear), (0, 1, 0))
    x = linear_combination(fr.vectors, tuple(map(F, coeffs)))
    assert solve_coordinates(fr, x) == tuple(map(F, coeffs))


def test_solve_outside_span_raises():
    fr = frame_of((1, 0, 0), (0, 1, 0))
    with pytest.raises(SpanMembershipError):
        solve_coordinates(fr, (0, 0, 1))
    assert not span_contains(fr, (0, 0, 1))
    assert span_contains(fr, (3, -2, 0))


def test_span_contains_runs_no_elimination_for_a_full_frame(monkeypatch):
    import orthocheck.linalg as linalg

    bareiss = linalg._bareiss
    calls = []

    def counted(rows, *args, **kwargs):
        calls.append(len(rows))
        return bareiss(rows, *args, **kwargs)

    fr = frame_of((1, 2, 0), (0, 1, 3), (5, 0, 1))
    monkeypatch.setattr(linalg, "_bareiss", counted)
    assert span_contains(fr, (F(7, 3), -1, 0))
    assert calls == []
    # a thin frame keeps its rank test
    assert not span_contains(Frame(fr.vectors[:2]), (0, 0, 1))
    assert len(calls) == 2  # the frame's independence check, then the test


def test_span_contains_rejects_wrong_dimension_for_full_frames():
    fr = frame_of((1, 0), (0, 1))
    with pytest.raises(ShapeError):
        span_contains(fr, (1, 0, 0))
    with pytest.raises(ShapeError):
        span_contains(fr, (1,))


def test_solve_rejects_wrong_dimension():
    fr = frame_of((1, 0), (0, 1))
    with pytest.raises(ShapeError):
        solve_coordinates(fr, (1, 0, 0))


def test_solve_rejects_a_dependent_trusted_frame():
    fr = Frame._trusted(vectors=((F(1), F(2)), (F(2), F(4))))
    with pytest.raises(DependentFrameError):
        solve_coordinates(fr, (1, 2))


def test_solve_rejects_a_dependent_trusted_frame_with_asserts_off():
    code = (
        "from fractions import Fraction as F\n"
        "from orthocheck import DependentFrameError, Frame, solve_coordinates\n"
        "fr = Frame._trusted(vectors=((F(1), F(2)), (F(2), F(4))))\n"
        "try:\n"
        "    solve_coordinates(fr, (1, 2))\n"
        "except DependentFrameError:\n"
        "    print('raised')\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "raised\n"


# --- seeding and sampling ---

def test_derive_seed_frozen_values():
    # splitmix64 outputs; fixed so cross-platform payloads stay identical
    assert derive_seed(0, 0) == 16294208416658607535
    assert derive_seed(0, 1) == 7960286522194355700
    assert derive_seed(42, 3, 7) == 8984740033306438383
    assert derive_seed(0) == 0


SEEDED = {
    "derive_seed": lambda seed: derive_seed(seed),
    "derive_seed-indices": lambda seed: derive_seed(seed, 3, 1),
    "sample_frame": lambda seed: sample_frame(2, 2, 3, seed),
    "sample_coefficients": lambda seed: sample_coefficients(2, 3, seed),
    "sample_span_point": lambda seed: sample_span_point(
        frame_of((1, 0), (0, 1)), 3, seed),
    "sample_inner_product": lambda seed: sample_inner_product(2, 3, seed),
    "build_orthogonal_relation": lambda seed: build_orthogonal_relation(
        I2, 2, 2, 3, seed),
    "build_orthogonal_relation-empty": lambda seed: build_orthogonal_relation(
        I2, 0, 3, 3, seed),
    "sample_chain": lambda seed: sample_chain(
        build_orthogonal_relation(I2, 2, 2, 3, 0), 3, seed),
    "sample_chain-empty": lambda seed: sample_chain(Relation(()), 0, seed),
    "sample_coefficients-empty": lambda seed: sample_coefficients(0, 3, seed),
}


@pytest.mark.parametrize("name", SEEDED)
@pytest.mark.parametrize("seed", [-1, -7, 2**64, 2**64 + 5])
def test_seed_outside_64_bits_raises(name, seed):
    # Each would alias a seed inside: derive_seed works modulo 2^64, and
    # random.Random reads a seed by its absolute value.
    with pytest.raises(PreconditionError,
                       match=rf"^seed {seed} is outside \[0, 2\^64\)$"):
        SEEDED[name](seed)


@pytest.mark.parametrize("name", SEEDED)
def test_largest_seed_is_accepted(name):
    assert SEEDED[name](2**64 - 1) == SEEDED[name](2**64 - 1)


def test_derive_seed_decorrelates_indices():
    seen = {derive_seed(7, k) for k in range(100)}
    assert len(seen) == 100


def test_sample_frame_deterministic_and_bounded():
    a = sample_frame(3, 2, 4, seed=11)
    b = sample_frame(3, 2, 4, seed=11)
    assert a == b
    assert all(abs(c) <= 4 for v in a for c in v)
    assert is_independent(a.vectors)
    assert sample_frame(3, 2, 4, seed=12) != a


@pytest.mark.parametrize("dim", range(2, 17))
def test_sample_frame_matches_the_fraction_drawing_reference(dim):
    for m in range(2, dim + 1):
        for bound in range(1, 6):
            for t in range(8):
                seed = derive_seed(dim, m, bound, t)
                expected, _ = sample_frame_fraction_draws(dim, m, bound, seed)
                frame = sample_frame(dim, m, bound, seed)
                assert frame == expected
                assert all(type(e) is F for v in frame for e in v)


def test_sample_frame_redraws_dependent_pairs_as_the_reference_does():
    # At dim 2 and bound 1 about two draws in five are dependent.
    redraws = 0
    for seed in range(300):
        expected, draws = sample_frame_fraction_draws(2, 2, 1, seed)
        assert sample_frame(2, 2, 1, seed) == expected
        redraws += draws - 1
    assert redraws > 50


def test_sample_frame_validates_arguments():
    with pytest.raises(ShapeError):
        sample_frame(2, 1, 5, seed=0)
    with pytest.raises(ShapeError):
        sample_frame(2, 3, 5, seed=0)
    with pytest.raises(ShapeError):
        sample_frame(2, 2, -1, seed=0)


def test_sample_frame_bound_zero_fails_loudly():
    with pytest.raises(GenerationError):
        sample_frame(2, 2, 0, seed=0)


def test_sample_span_point_stays_in_span():
    fr = sample_frame(4, 2, 3, seed=5)
    for t in range(20):
        x = sample_span_point(fr, 3, seed=derive_seed(5, t))
        assert span_contains(fr, x)


def test_sample_coefficients_deterministic():
    assert sample_coefficients(3, 5, seed=9) == sample_coefficients(3, 5, seed=9)
