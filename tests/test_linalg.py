import subprocess
import sys
from fractions import Fraction as F
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orthocheck import (
    DependentFrameError,
    Frame,
    GenerationError,
    OrthoError,
    ShapeError,
    SpanMembershipError,
    derive_seed,
    frame_of,
    linear_combination,
    sample_coefficients,
    sample_frame,
    sample_span_point,
    solve_coordinates,
)
from orthocheck.linalg import (
    determinant,
    identity_matrix,
    invert_matrix,
    is_independent,
    mat_mul,
    matrix_rank,
    span_contains,
    transpose,
    vec,
)

from oracles import (
    det_cofactor,
    linear_combination_fractions,
    rank_by_minors,
    solve_2x2_cramer,
)

rationals = st.fractions(
    min_value=-6, max_value=6, max_denominator=4
)


def square(n):
    return st.lists(
        st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n
    )


# --- vectors ---

def test_vec_builds_fraction_tuple():
    v = vec(1, "1/2", F(3, 4))
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
    assert mat_mul(invert_matrix(rows), rows) == identity_matrix(len(rows))


def test_determinant_basics():
    assert determinant([]) == 1
    assert determinant([[F(5)]]) == 5
    assert determinant([[1, 2], [2, 4]]) == 0
    assert determinant(identity_matrix(4)) == 1
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
    assert mat_mul(rows, inv) == tuple(map(tuple, identity_matrix(2)))
    with pytest.raises(ShapeError):
        invert_matrix([[1, 2], [2, 4]])


def test_transpose_involution():
    rows = [[F(1), F(2), F(3)], [F(4), F(5), F(6)]]
    assert transpose(transpose(rows)) == tuple(map(tuple, rows))


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
    from_strings = frame_of(("2/2", "4/2", "0"), ("0", "-6/2", "4"))
    for other in (from_fractions, from_strings):
        assert other == from_ints and other is not from_ints
        assert hash(other) == hash(from_ints)
        assert other.slot_hashes == tuple(hash(v) for v in from_ints)
    assert frame_of((1, 2, 0), (0, -3, 5)) != from_ints


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
    fr = Frame._trusted(((F(1), F(2)), (F(2), F(4))))
    with pytest.raises(DependentFrameError):
        solve_coordinates(fr, (1, 2))


def test_solve_rejects_a_dependent_trusted_frame_with_asserts_off():
    code = (
        "from fractions import Fraction as F\n"
        "from orthocheck import DependentFrameError, Frame, solve_coordinates\n"
        "fr = Frame._trusted(((F(1), F(2)), (F(2), F(4))))\n"
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
    assert derive_seed(2**64 + 5) == derive_seed(5)


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
