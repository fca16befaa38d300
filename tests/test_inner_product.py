from fractions import Fraction as F
from random import Random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from orthocheck import (
    DefinitenessError,
    DependentFrameError,
    Frame,
    GramInnerProduct,
    PreconditionError,
    ShapeError,
    SpanMembershipError,
    SymmetryError,
    ZeroVectorError,
    evaluate,
    frame_adapted_inner_product,
    frame_of,
    gram_schmidt,
    identity_inner_product,
    is_orthogonal_tuple,
    sample_frame,
    sample_inner_product,
    solve_coordinates,
    verify_projection_equivalence,
)
from orthocheck.dependence import Relation, factor_check, relation_point
from orthocheck.inner_product import (
    _orthogonal_samples,
    _projection_checks,
    coefficient_formula,
    first_nonorthogonal_pair,
)
from orthocheck.maximality import orthogonality_witness

from oracles import (
    det_cofactor,
    gram_schmidt_fractions,
    mat_mul,
    naive_bilinear,
    nonorthogonal_pairs,
)
from strategies import rational_forms_and_frames, rationals

I2 = identity_inner_product(2)
I3 = identity_inner_product(3)


# --- validation ---

def test_identity_is_valid():
    G = identity_inner_product(3)
    assert G.dim == 3
    assert G.matrix[0] == (F(1), F(0), F(0))


def test_identity_needs_a_positive_dimension():
    with pytest.raises(ShapeError, match="^dimension must be positive, got 0$"):
        identity_inner_product(0)


def test_rejects_asymmetric():
    with pytest.raises(SymmetryError):
        GramInnerProduct([[1, 2], [3, 1]])


def test_rejects_indefinite_with_minor_index():
    with pytest.raises(DefinitenessError) as err:
        GramInnerProduct([[1, 2], [2, 1]])
    assert err.value.minor_index == 2
    with pytest.raises(DefinitenessError) as err:
        GramInnerProduct([[-1, 0], [0, 1]])
    assert err.value.minor_index == 1


@st.composite
def symmetric_rational(draw):
    """Symmetric rational matrices: M^T M shifted by a multiple of I (so
    the first failing minor can sit at any index), or arbitrary ones."""
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        M = draw(st.lists(st.lists(rationals, min_size=n, max_size=n),
                          min_size=n, max_size=n))
        shift = draw(st.fractions(min_value=0, max_value=8, max_denominator=3))
        G = mat_mul(tuple(zip(*M)), M)
        return [[G[i][j] - (shift if i == j else 0) for j in range(n)]
                for i in range(n)]
    upper = draw(st.lists(rationals, min_size=n * (n + 1) // 2,
                          max_size=n * (n + 1) // 2))
    cells = iter(upper)
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = next(cells)
    return rows


@settings(max_examples=200, deadline=None)
@given(symmetric_rational())
@example([[F(1), F(1)], [F(1), F(1)]])
# a zero leading minor with a nonzero entry below it: a pass with row
# swaps would step past the failure
@example([[F(0), F(1)], [F(1), F(3)]])
@example([[F(1), F(1), F(1)], [F(1), F(1), F(2)], [F(1), F(2), F(5)]])
@example([[F(1, 2), F(1, 3), F(0)], [F(1, 3), F(1, 2), F(1)], [F(0), F(1), F(1, 4)]])
def test_definiteness_matches_leading_minor_oracle(rows):
    n = len(rows)
    minors = [det_cofactor([row[:k] for row in rows[:k]]) for k in range(1, n + 1)]
    failing = next((k for k, d in enumerate(minors, 1) if d <= 0), None)
    if failing is None:
        assert GramInnerProduct(rows).dim == n
        return
    with pytest.raises(DefinitenessError) as err:
        GramInnerProduct(rows)
    assert err.value.minor_index == failing
    assert f"minor {failing} is {minors[failing - 1]}, not positive" in str(err.value)


def test_integer_cache_stays_out_of_eq_hash_and_repr():
    G = GramInnerProduct([["1/2", "1/3"], ["1/3", "1"]])
    H = GramInnerProduct(((F(1, 2), F(1, 3)), (F(1, 3), F(1))))
    assert G == H and hash(G) == hash(H)
    assert repr(G) == f"GramInnerProduct(matrix={G.matrix!r})"


def test_rejects_non_square():
    with pytest.raises(ShapeError):
        GramInnerProduct([[1, 0, 0], [0, 1, 0]])


def test_sampled_products_validate():
    for seed in range(30):
        G = sample_inner_product(3, 4, seed)
        GramInnerProduct(G.matrix)


# --- evaluation ---

def test_evaluate_is_dot_product_under_identity():
    assert evaluate(I2, (3, 4), (5, -2)) == 7


def test_evaluate_matches_naive_bilinear_form():
    rng = Random(2)
    for _ in range(50):
        G = sample_inner_product(3, 3, rng.randrange(2**32))
        x = tuple(F(rng.randint(-4, 4)) for _ in range(3))
        y = tuple(F(rng.randint(-4, 4)) for _ in range(3))
        assert evaluate(G, x, y) == naive_bilinear(G, x, y)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n),
    st.lists(rationals, min_size=n, max_size=n),
    st.lists(rationals, min_size=n, max_size=n),
)))
def test_evaluate_matches_naive_bilinear_on_rational_gram(case):
    M, x, y = case
    assume(det_cofactor(M) != 0)
    G = GramInnerProduct(mat_mul(tuple(zip(*M)), M))
    assume(any(e.denominator != 1 for row in G.matrix for e in row))
    assert evaluate(G, x, y) == naive_bilinear(G, x, y)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32),
    st.lists(st.integers(-5, 5), min_size=3, max_size=3),
    st.lists(st.integers(-5, 5), min_size=3, max_size=3),
    st.lists(st.integers(-5, 5), min_size=3, max_size=3),
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
)
def test_evaluate_axioms(seed, xs, ys, zs, c):
    """Symmetry, additivity, homogeneity, positivity on nonzero vectors."""
    G = sample_inner_product(3, 3, seed)
    x, y, z = tuple(map(F, xs)), tuple(map(F, ys)), tuple(map(F, zs))
    assert evaluate(G, x, y) == evaluate(G, y, x)
    xz = tuple(a + b for a, b in zip(x, z))
    assert evaluate(G, xz, y) == evaluate(G, x, y) + evaluate(G, z, y)
    cx = tuple(c * a for a in x)
    assert evaluate(G, cx, y) == c * evaluate(G, x, y)
    if any(a != 0 for a in x):
        assert evaluate(G, x, x) > 0


def test_evaluate_dimension_guard():
    with pytest.raises(ShapeError):
        evaluate(I2, (1, 0, 0), (0, 1, 0))


def test_definiteness_on_exhaustive_grid():
    """evaluate(G, x, x) > 0 for every nonzero x with entries in [-3, 3]."""
    from itertools import product

    span = [F(k) for k in range(-3, 4)]
    for dim, seeds in ((2, range(5)), (3, range(3))):
        forms = [identity_inner_product(dim)]
        forms += [sample_inner_product(dim, 3, s) for s in seeds]
        for G in forms:
            for x in product(span, repeat=dim):
                if any(c != 0 for c in x):
                    assert evaluate(G, x, x) > 0


# --- orthogonality and the coefficient formula ---

def test_is_orthogonal_tuple():
    assert is_orthogonal_tuple(I2, frame_of((1, 0), (0, 1)))
    assert is_orthogonal_tuple(I2, frame_of((2, 0), (0, 3)))
    assert not is_orthogonal_tuple(I2, frame_of((1, 0), (1, 1)))


def test_coefficient_formula_identity_fixture():
    # a = (0,2), x = (3,5): <a,x>/<a,a> = 10/4
    assert coefficient_formula(I2, (0, 2), (3, 5)) == F(5, 2)


def test_coefficient_formula_rejects_zero_vector():
    with pytest.raises(ZeroVectorError):
        coefficient_formula(I2, (0, 0), (1, 1))
    with pytest.raises(ZeroVectorError):
        coefficient_formula(sample_inner_product(3, 3, 4), (F(0), F(0, 5), 0),
                            (1, 2, 3))


def test_projection_equivalence_on_orthogonal_frames():
    fr = frame_of((2, 0), (0, 3))
    assert verify_projection_equivalence(I2, fr, (4, 9))
    assert solve_coordinates(fr, (4, 9)) == (F(2), F(3))


def test_projection_equivalence_requires_orthogonality():
    with pytest.raises(PreconditionError):
        verify_projection_equivalence(I2, frame_of((1, 0), (1, 1)), (3, 5))


def test_projection_equivalence_proves_orthogonality_before_the_span():
    """A thin frame that is not orthogonal and a point outside its span:
    the orthogonality precondition is what fails, not span membership."""
    with pytest.raises(PreconditionError):
        verify_projection_equivalence(I3, frame_of((1, 0, 0), (1, 1, 0)),
                                      (1, 2, 3))


def test_projection_equivalence_solves_nothing_for_a_nonorthogonal_frame(
        monkeypatch):
    import orthocheck.inner_product as inner_product

    def refused(*args):
        raise AssertionError("solve_coordinates called")

    monkeypatch.setattr(inner_product, "solve_coordinates", refused)
    for fr, x in [(frame_of((1, 0), (1, 1)), (3, 5)),
                  (frame_of((1, 0, 0), (1, 1, 0)), (1, 2, 0))]:
        with pytest.raises(PreconditionError):
            verify_projection_equivalence(identity_inner_product(fr.dim), fr, x)


def test_per_frame_check_proves_orthogonality_without_points():
    assert _projection_checks(I2, [([2, 0], 1), ([0, 3], 1)], []) == []
    with pytest.raises(PreconditionError):
        _projection_checks(I2, [([1, 0], 1), ([1, 1], 1)], [])


def test_projection_equivalence_off_the_span_keeps_its_message():
    """A thin frame and a point outside its span: the solve refuses it,
    naming the point, after the frame is proved orthogonal."""
    with pytest.raises(SpanMembershipError,
                       match=r"^point \(1, 2, 1/2\) is outside the frame's span$"):
        verify_projection_equivalence(I3, frame_of((1, 0, 0), (0, 3, 0)),
                                      (1, 2, "1/2"))


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(2, 6), data=st.data(), sampled=st.booleans(),
       seed=st.integers(0, 2**64 - 1))
def test_sweep_verdicts_are_the_solver_verdicts(dim, data, sampled, seed):
    """Every verdict of the sweep's per-frame check, which compares the
    formula with the drawn coordinates, is the public check's verdict
    ``verify_projection_equivalence(G, frame, x)``, solver against formula
    in Fractions, and is True."""
    m = data.draw(st.integers(2, dim))
    G = (sample_inner_product(dim, 2, seed) if sampled
         else identity_inner_product(dim))
    for cleared, points in _orthogonal_samples(G, m, 2, 3, 3, seed):
        fr = Frame._trusted(tuple(tuple(F(a, s) for a in U) for U, s in cleared))
        verdicts = _projection_checks(G, cleared, points)
        assert len(verdicts) == 3
        for verdict, (_, (xn, xd)) in zip(verdicts, points):
            x = tuple(F(a, xd) for a in xn)
            assert verdict is verify_projection_equivalence(G, fr, x) is True


def test_projection_equivalence_random_sweep():
    failures = 0
    for seed in range(40):
        raw = sample_frame(3, 2, 4, seed=seed)
        G = sample_inner_product(3, 3, seed + 1000)
        fr = gram_schmidt(G, raw)
        x = tuple(
            a + b for a, b in zip(fr[0], fr[1])
        )
        if not verify_projection_equivalence(G, fr, x):
            failures += 1
    assert failures == 0


# --- the shape contract of the orthogonality predicate and the formula ---
#
# Inner products run as integer dot products, which would silently
# truncate a vector of the wrong length; every entry point must raise
# ShapeError instead.  Frames of both a smaller and a larger dimension
# than the form are tried.  Each is orthogonal under the truncated form
# (the last one is not under the full dot product), so a missing check
# would return a verdict silently.

MISSIZED_FRAMES = [
    pytest.param(I3, frame_of((1, 0), (0, 1)), id="dim2-frame-under-I3"),
    pytest.param(I3, frame_of((1, 0), (0, 2)), id="dim2-scaled-under-I3"),
    pytest.param(I2, frame_of((1, 0, 0), (0, 1, 0), (0, 0, 1)),
                 id="dim3-frame-under-I2"),
    pytest.param(I2, frame_of((1, 0, 1), (0, 1, 1), (0, 0, 1)),
                 id="dim3-nonorthogonal-under-I2"),
]


@pytest.mark.parametrize("G, fr", MISSIZED_FRAMES)
def test_orthogonality_predicate_rejects_missized_frame(G, fr):
    with pytest.raises(ShapeError):
        first_nonorthogonal_pair(G, fr)
    with pytest.raises(ShapeError):
        is_orthogonal_tuple(G, fr)


@pytest.mark.parametrize("G, fr", MISSIZED_FRAMES)
def test_projection_equivalence_rejects_missized_frame(G, fr):
    x = tuple(a + b for a, b in zip(fr[0], fr[1]))
    with pytest.raises(ShapeError):
        verify_projection_equivalence(G, fr, x)


@pytest.mark.parametrize("x", [(3, 9), (3, 9, 0, 0), (3, 9, 0, 1), (3,)])
def test_projection_equivalence_rejects_missized_point(x):
    fr = frame_of((1, 0, 0), (0, 3, 0))
    with pytest.raises(ShapeError):
        verify_projection_equivalence(I3, fr, x)


@pytest.mark.parametrize("a, x", [
    pytest.param((0, 2), (3, 5, 0), id="x-longer"),
    pytest.param((0, 2, 0), (3, 5), id="x-shorter"),
    pytest.param((0, 2), (3, 5), id="a-and-x-shorter"),
    pytest.param((0, 2, 0, 1), (3, 5, 0), id="a-longer"),
    pytest.param((1, 2), (3, 5, 7), id="a-shorter"),
])
def test_coefficient_formula_rejects_missized_vectors(a, x):
    with pytest.raises(ShapeError):
        coefficient_formula(I3, a, x)


# --- Gram-Schmidt ---

def test_gram_schmidt_keeps_first_vector_and_span():
    fr = frame_of((1, 1, 0), (0, 1, 1))
    out = gram_schmidt(I3, fr)
    assert out[0] is fr[0]
    assert is_orthogonal_tuple(I3, out)


def test_gram_schmidt_fixture():
    out = gram_schmidt(I2, frame_of((1, 1), (0, 1)))
    assert out.vectors == ((F(1), F(1)), (F(-1, 2), F(1, 2)))


def test_gram_schmidt_under_sampled_forms():
    for seed in range(25):
        G = sample_inner_product(3, 3, seed)
        fr = sample_frame(3, 3, 3, seed=seed + 500)
        out = gram_schmidt(G, fr)
        assert is_orthogonal_tuple(G, out)
        assert out.size == fr.size and out[0] == fr[0]
        # same flag: orthogonalization preserves the leading spans
        assert solve_coordinates(out, fr[1]) is not None


def test_gram_schmidt_idempotent_on_orthogonal_input():
    fr = frame_of((2, 0), (0, 3))
    assert gram_schmidt(I2, fr).vectors == fr.vectors


@settings(max_examples=100, deadline=None)
@given(rational_forms_and_frames())
def test_gram_schmidt_matches_fraction_reference(case):
    G, vectors = case
    expected = gram_schmidt_fractions(G.matrix, vectors)
    assert gram_schmidt(G, Frame(vectors)).vectors == expected
    assert gram_schmidt(G, vectors).vectors == expected


# --- the integer inner-product path against the Fraction oracle ---

@st.composite
def frames_under_rational_forms(draw):
    """A rational form and a frame as in ``rational_forms_and_frames``,
    full-dimensional half of the time, plus a rational combination x of
    the frame vectors and an arbitrary rational vector y."""
    n = draw(st.integers(2, 6))
    full = draw(st.booleans())
    G, vectors = draw(rational_forms_and_frames(n, n if full else None))
    coeffs = [draw(rationals) for _ in vectors]
    x = tuple(
        sum((c * F(v[r]) for c, v in zip(coeffs, vectors)), F(0))
        for r in range(n)
    )
    y = tuple(draw(rationals) for _ in range(n))
    return G, vectors, x, y


def _frames_to_check(G, vectors):
    """The raw frame; its Gram-Schmidt output, whose vectors carry
    non-trivial scales; and that output with the raw last vector put back,
    so that only pairs ending in the last slot can fail."""
    raw = Frame(vectors)
    orthogonal = gram_schmidt(G, raw)
    mixed = Frame(orthogonal.vectors[:-1] + raw.vectors[-1:])
    return raw, orthogonal, mixed


@settings(max_examples=40, deadline=None)
@given(frames_under_rational_forms())
def test_integer_inner_products_match_naive_oracle(case):
    G, vectors, x, y = case
    for fr in _frames_to_check(G, vectors):
        pairs = nonorthogonal_pairs(G, fr.vectors)
        assert first_nonorthogonal_pair(G, fr) == (pairs[0] if pairs else None)
        assert is_orthogonal_tuple(G, fr) == (not pairs)
        for a in fr:
            for z in (x, y):
                expected = naive_bilinear(G, a, z) / naive_bilinear(G, a, a)
                assert coefficient_formula(G, a, z) == expected
        if pairs:
            with pytest.raises(PreconditionError):
                verify_projection_equivalence(G, fr, x)
        else:
            formula = tuple(
                naive_bilinear(G, a, x) / naive_bilinear(G, a, a) for a in fr
            )
            assert solve_coordinates(fr, x) == formula
            assert verify_projection_equivalence(G, fr, x) is True
        if fr.size == fr.dim:
            expected_points = []
            for i, j in pairs:
                witness, point = orthogonality_witness(fr, i, j, G)
                expected_points.append(relation_point(fr, point))
                expected_points.append(relation_point(witness, point))
            # Slots before the first pair's i hold orthogonal vectors, so
            # every entry there is <a,x>/<a,a>: the scan first fails at i.
            out = factor_check(Relation.from_points(expected_points))
            assert out.passed == (not pairs)
            if pairs:
                assert out.counterexample.index == pairs[0][0]


def test_gram_schmidt_rejects_dependent_and_mismatched_input():
    with pytest.raises(DependentFrameError):
        gram_schmidt(I3, [(1, 2, 3), (2, 4, 6)])
    with pytest.raises(ShapeError, match="vector of dimension 2 against a 3x3 form"):
        gram_schmidt(I3, frame_of((1, 0), (0, 1)))


# --- adapted inner product ---

def test_adapted_form_fixture():
    fr = frame_of((1, 0), (1, 1))
    G = frame_adapted_inner_product(fr)
    assert G.matrix == ((F(1), F(-1)), (F(-1), F(2)))
    assert evaluate(G, fr[0], fr[1]) == 0
    assert evaluate(G, fr[0], fr[0]) == 1
    assert evaluate(G, fr[1], fr[1]) == 1


def test_adapted_form_identity_on_standard_basis():
    fr = frame_of((1, 0), (0, 1))
    assert frame_adapted_inner_product(fr).matrix == I2.matrix


def test_adapted_form_makes_frame_orthonormal():
    rng = Random(9)
    for _ in range(40):
        n = rng.choice((2, 3))
        fr = sample_frame(n, n, 4, seed=rng.randrange(2**32))
        G = frame_adapted_inner_product(fr)
        GramInnerProduct(G.matrix)
        for i in range(n):
            for j in range(n):
                expected = F(1) if i == j else F(0)
                assert evaluate(G, fr[i], fr[j]) == expected


def test_adapted_form_needs_full_dimension():
    with pytest.raises(ShapeError):
        frame_adapted_inner_product(sample_frame(3, 2, 3, seed=1))
