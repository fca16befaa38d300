from fractions import Fraction as F
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orthocheck.inner_product
import orthocheck.linalg
import orthocheck.maximality
from orthocheck import (
    ChainOrderError,
    DependentFrameError,
    Frame,
    NoViolationError,
    OrthoError,
    PreconditionError,
    Relation,
    RelationParseError,
    ShapeError,
    build_orthogonal_relation,
    chain_union_check,
    evaluate,
    exhaustive_candidates_2d,
    factor_check,
    frame_adapted_inner_product,
    frame_of,
    gram_schmidt,
    identity_inner_product,
    is_orthogonal_tuple,
    relation_point,
    sample_chain,
    sample_frame,
    sample_inner_product,
    solve_coordinates,
    verify_orthogonal_maximality,
)
from orthocheck.dependence import Chain
from orthocheck.inner_product import first_nonorthogonal_pair
from orthocheck.maximality import orthogonality_witness
from orthocheck.serialize import frame_from_json, load_gram

from oracles import nonorthogonal_pairs, witness_by_solving
from strategies import rational_forms_and_frames

FIXTURES = Path(__file__).resolve().parent / "fixtures"

I2 = identity_inner_product(2)
E2 = frame_of((1, 0), (0, 1))
SHEAR = frame_of((1, 0), (1, 1))


# --- chains ---

def test_chain_must_ascend():
    a = Relation((relation_point(E2, (1, 0)),))
    b = Relation.from_points(a.points + (relation_point(E2, (0, 1)),))
    Chain((a, b))  # fine
    with pytest.raises(ValueError):
        Chain((b, a))


def test_chain_order_has_its_own_error_type():
    a = Relation((relation_point(E2, (1, 0)),))
    b = Relation.from_points(a.points + (relation_point(E2, (0, 1)),))
    with pytest.raises(ChainOrderError) as err:
        Chain((b, a))
    assert isinstance(err.value, OrthoError)
    assert isinstance(err.value, ValueError)


def test_chain_union_is_last_member_for_nested_chains():
    """The set union of an ascending chain's members is its last member,
    which is what lets ``chain_union_check`` scan that member alone; with
    no member there is nothing to scan and the check passes."""
    for seed in range(6):
        rel = build_orthogonal_relation(I2, 4, 3, 4, seed=seed)
        for depth in (0, 1, 2, 5):
            chain = sample_chain(rel, depth, seed=seed + 100)
            assert len(chain) == depth
            if depth == 0:
                assert chain_union_check(chain) is True
                continue
            union = set().union(*(member.points for member in chain))
            assert union == set(chain.relations[-1].points)


def test_chain_union_check_passes_on_built_chains():
    for seed in range(15):
        rel = build_orthogonal_relation(I2, 4, 3, 4, seed=seed)
        chain = sample_chain(rel, 4, seed=seed + 1)
        assert chain_union_check(chain)


def test_chain_union_check_rejects_bad_member():
    bad = Relation((relation_point(E2, (3, 5)), relation_point(SHEAR, (3, 5))))
    with pytest.raises(PreconditionError):
        chain_union_check(Chain((bad,)))


def test_chain_union_check_names_the_first_member_that_does_not_factor():
    """Member 0 factors and member 1 does not: member 1 is named.  When
    both fail, member 0 is."""
    good = Relation((relation_point(E2, (3, 5)),))
    bad = Relation.from_points(good.points + (relation_point(SHEAR, (3, 5)),))
    with pytest.raises(PreconditionError,
                       match=r"^chain member 1 does not factor$"):
        chain_union_check(Chain((good, bad)))
    worse = Relation.from_points(bad.points + (relation_point(E2, (1, 0)),))
    with pytest.raises(PreconditionError,
                       match=r"^chain member 0 does not factor$"):
        chain_union_check(Chain((bad, worse)))


def test_empty_and_singleton_chains():
    assert chain_union_check(Chain(()))
    rel = build_orthogonal_relation(I2, 2, 2, 3, seed=0)
    assert chain_union_check(Chain((rel,)))
    assert (len(Chain(())), len(Chain((rel,))), len(Chain((rel, rel)))) == (0, 1, 2)


def test_sample_chain_deterministic_and_nested():
    rel = build_orthogonal_relation(I2, 5, 3, 4, seed=9)
    c1 = sample_chain(rel, 4, seed=3)
    c2 = sample_chain(rel, 4, seed=3)
    assert c1 == c2
    sizes = [len(r) for r in c1]
    assert sizes == sorted(sizes)
    for earlier, later in zip(c1.relations, c1.relations[1:]):
        assert set(earlier.points) <= set(later.points)


# --- witnesses ---

def test_witness_fixture():
    witness, x = orthogonality_witness(SHEAR, 1, 2, I2)
    assert witness.vectors == ((F(1), F(0)), (F(0), F(1)))
    assert x == (F(2), F(1))
    assert solve_coordinates(SHEAR, x)[0] == F(1)
    assert solve_coordinates(witness, x)[0] == F(2)


def test_witness_lambda_disagreement_formula():
    rng = Random(17)
    for _ in range(60):
        a = (F(rng.randint(-4, 4)), F(rng.randint(-4, 4)))
        b = (F(rng.randint(-4, 4)), F(rng.randint(-4, 4)))
        if a[0] * b[1] - a[1] * b[0] == 0 or evaluate(I2, a, b) == 0:
            continue
        fr = frame_of(a, b)
        witness, x = orthogonality_witness(fr, 1, 2, I2)
        lam_candidate = solve_coordinates(fr, x)[0]
        lam_witness = solve_coordinates(witness, x)[0]
        assert lam_candidate == 1
        assert lam_witness == 1 + evaluate(I2, a, b) / evaluate(I2, a, a)
        assert lam_candidate != lam_witness


def test_witness_shares_slot_and_is_orthogonal():
    G = sample_inner_product(3, 3, 12)
    fr = frame_of((1, 0, 0), (1, 1, 0), (0, 1, 1))
    pair = first_nonorthogonal_pair(G, fr)
    assert pair is not None
    i, j = pair
    witness, x = orthogonality_witness(fr, i, j, G)
    assert witness[i - 1] is fr[i - 1]
    assert is_orthogonal_tuple(G, witness)
    # the collision point lies in both spans by construction
    assert solve_coordinates(fr, x)[i - 1] != solve_coordinates(witness, x)[i - 1]


def test_witness_requires_violation():
    with pytest.raises(NoViolationError):
        orthogonality_witness(E2, 1, 2, I2)


def test_witness_guards():
    tall = frame_of((1, 0, 0), (0, 1, 0))
    with pytest.raises(ShapeError):
        orthogonality_witness(tall, 1, 2, I2)
    with pytest.raises(IndexError):
        orthogonality_witness(SHEAR, 1, 1, I2)
    with pytest.raises(IndexError):
        orthogonality_witness(SHEAR, 0, 2, I2)


def test_first_nonorthogonal_pair_ordering():
    fr = frame_of((1, 0, 0), (0, 1, 0), (0, 1, 1))
    assert first_nonorthogonal_pair(identity_inner_product(3), fr) == (2, 3)
    assert first_nonorthogonal_pair(I2, E2) is None
    assert first_nonorthogonal_pair(I2, SHEAR) == (1, 2)


# --- the maximality sweep ---

def test_sweep_fixture_reports():
    reports = verify_orthogonal_maximality(I2, [SHEAR, E2])
    assert [r.accepted for r in reports] == [False, True]
    rejected = reports[0]
    assert rejected.collision_point == (F(2), F(1))
    assert rejected.values == (F(1), F(2))
    assert rejected.index == 1 and rejected.orthogonal_witness == E2


def _sampled_sweep(G):
    """Frames drawn in G's dimension, each raw and made G-orthogonal."""
    raw = [sample_frame(G.dim, G.dim, 2, seed) for seed in range(8)]
    return G, raw + [gram_schmidt(G, fr) for fr in raw]


SWEEPS = {
    "shear": lambda: (I2, [SHEAR]),
    "grid-I2": lambda: (I2, exhaustive_candidates_2d(1)),
    "grid-adapted": lambda: (frame_adapted_inner_product(SHEAR),
                             exhaustive_candidates_2d(1)),
    "gram4": lambda: _sampled_sweep(load_gram(str(FIXTURES / "gram4.json"))),
    "gram6": lambda: _sampled_sweep(load_gram(str(FIXTURES / "gram6.json"))),
    "sampled-dim3": lambda: _sampled_sweep(sample_inner_product(3, 3, 12)),
    "sampled-dim4": lambda: _sampled_sweep(sample_inner_product(4, 3, 5)),
}


@pytest.mark.parametrize("sweep", SWEEPS)
def test_rejection_reproduces_factor_conflict(sweep):
    """The paper's link, through public functions: a rejected frame and its
    witness, each with its solved coordinates at the collision point, fail
    to factor at the report's slot with the report's values."""
    G, candidates = SWEEPS[sweep]()
    rejected = [r for r in verify_orthogonal_maximality(G, candidates)
                if not r.accepted]
    assert rejected
    for r in rejected:
        x = r.collision_point
        rel = Relation((relation_point(r.candidate, x),
                        relation_point(r.orthogonal_witness, x)))
        out = factor_check(rel)
        assert not out.passed
        assert out.counterexample.index == r.index
        assert out.counterexample.values == r.values


def test_accepted_report_has_no_collision():
    report = verify_orthogonal_maximality(I2, [E2])[0]
    assert report.accepted
    assert report.orthogonal_witness is None
    assert report.collision_point is None


def test_sweep_agrees_with_gram_check_on_grid():
    candidates = exhaustive_candidates_2d(1)
    reports = verify_orthogonal_maximality(I2, candidates)
    for rep in reports:
        assert rep.accepted == is_orthogonal_tuple(I2, rep.candidate)
        if not rep.accepted:
            i = rep.index
            a = solve_coordinates(rep.candidate, rep.collision_point)[i - 1]
            b = solve_coordinates(rep.orthogonal_witness, rep.collision_point)[i - 1]
            assert (a, b) == rep.values and a != b


def test_sweep_under_adapted_form():
    # under the Gram matrix adapted to SHEAR, the shear frame is the
    # orthogonal one and the standard basis is rejected
    G = frame_adapted_inner_product(SHEAR)
    reports = verify_orthogonal_maximality(G, [SHEAR, E2])
    assert [r.accepted for r in reports] == [True, False]


def test_sweep_shape_guards():
    with pytest.raises(ShapeError):
        verify_orthogonal_maximality(identity_inner_product(3), [E2])
    tall = frame_of((1, 0, 0), (0, 1, 0))
    with pytest.raises(ShapeError):
        verify_orthogonal_maximality(identity_inner_product(3), [tall])


@st.composite
def candidates_under_rational_forms(draw):
    """A rational form in dims 2-5 and candidates with non-integer entries:
    a raw frame, its Gram-Schmidt output and that output with the raw last
    vector put back, so both verdicts occur and a rejection's slot i need
    not be the first."""
    n = draw(st.integers(2, 5))
    G, vectors = draw(rational_forms_and_frames(n, n))
    raw = Frame(vectors)
    orthogonal = gram_schmidt(G, raw)
    mixed = Frame(orthogonal.vectors[:-1] + raw.vectors[-1:])
    return G, (raw, orthogonal, mixed)


@settings(max_examples=40, deadline=None)
@given(candidates_under_rational_forms())
def test_sweep_matches_the_solving_route(case):
    G, candidates = case
    reports = verify_orthogonal_maximality(G, candidates)
    for candidate, report in zip(candidates, reports):
        pairs = nonorthogonal_pairs(G, candidate.vectors)
        assert report.candidate == candidate
        assert report.accepted == (not pairs)
        if not pairs:
            continue
        i, j = pairs[0]
        witness, x, values = witness_by_solving(G, candidate, i, j)
        assert report.index == i
        assert report.orthogonal_witness == witness
        assert report.collision_point == x
        assert report.values == values
        # An int would compare equal to its Fraction: check types too.
        solved = [solve_coordinates(frame, x)
                  for frame in (candidate, report.orthogonal_witness)]
        assert all(type(e) is F for e in (
            *report.collision_point, *report.values,
            *(e for v in report.orthogonal_witness for e in v),
            *(e for coords in solved for e in coords),
        ))
        expected_points = []
        for i, j in pairs:
            witness, x, _ = witness_by_solving(G, candidate, i, j)
            expected_points.append(relation_point(candidate, x))
            expected_points.append(relation_point(witness, x))
        # Slots before report.index hold vectors orthogonal to the rest,
        # so every entry there is <a,x>/<a,a>: the scan first fails there.
        out = factor_check(Relation.from_points(expected_points))
        assert out.counterexample.index == report.index


def test_sweep_solves_and_evaluates_nothing(monkeypatch):
    """The sweep reads every value from the candidates' integer images: no
    solve, no Fraction inner product, no second Gram-Schmidt clearing."""
    G = sample_inner_product(3, 3, 12)
    candidates = [sample_frame(3, 3, 3, seed=s) for s in range(6)]
    grid = exhaustive_candidates_2d(1)
    calls = []
    for module in (orthocheck.linalg, orthocheck.inner_product,
                   orthocheck.maximality):
        for name in ("solve_coordinates", "evaluate", "gram_schmidt"):
            if hasattr(module, name):
                def counted(*args, _name=name, _fn=getattr(module, name)):
                    calls.append(_name)
                    return _fn(*args)
                monkeypatch.setattr(module, name, counted)
    reports = verify_orthogonal_maximality(G, candidates)
    reports += verify_orthogonal_maximality(I2, grid)
    assert sum(1 for r in reports if not r.accepted) > 6
    assert calls == []


def test_sweep_clears_each_distinct_vector_once(monkeypatch):
    """The grid's 2,112 candidates at bound 3 are built from 48 vector
    objects; each is cleared once per sweep, not once per use."""
    grid = exhaustive_candidates_2d(3)
    distinct = {id(v) for fr in grid for v in fr}
    assert (len(grid), len(distinct)) == (2112, 48)
    cleared = []
    real = orthocheck.inner_product._cleared

    def counted(entries):
        cleared.append(entries)
        return real(entries)

    monkeypatch.setattr(orthocheck.inner_product, "_cleared", counted)
    reports = verify_orthogonal_maximality(I2, grid)
    monkeypatch.undo()
    assert len(cleared) == 48
    assert {id(v) for v in cleared} == distinct
    assert reports == verify_orthogonal_maximality(I2, grid)


@pytest.mark.parametrize("G, dim", [(I2, 2), (sample_inner_product(3, 3, 4), 3)])
def test_sweep_over_a_one_shot_generator_matches_a_tuple(G, dim):
    """Frames built fresh, one at a time, and dropped by the caller give the
    reports a sweep over the same frames held in a tuple gives."""
    def fresh():
        for seed in range(40):
            fr = sample_frame(dim, dim, 2, seed)
            if seed % 3 == 0:
                fr = gram_schmidt(G, fr)
            yield Frame._trusted(vectors=tuple(tuple(v) for v in fr.vectors))

    streamed = verify_orthogonal_maximality(G, fresh())
    held = verify_orthogonal_maximality(G, tuple(fresh()))
    assert streamed == held
    assert {r.accepted for r in held} == {True, False}


# --- candidate grids ---

def test_exhaustive_candidates_bound_one():
    grid = exhaustive_candidates_2d(1)
    assert len(grid) == 48
    assert grid[0].vectors == ((F(-1), F(-1)), (F(-1), F(0)))
    assert all(abs(c) <= 1 for fr in grid for v in fr for c in v)


@pytest.mark.parametrize("bound", range(4))
def test_exhaustive_candidates_match_the_definition(bound):
    span = range(-bound, bound + 1)
    vectors = [(F(a), F(b)) for a in span for b in span]
    pairs = [(v, w) for v in vectors for w in vectors]
    independent = sorted(
        (v, w) for v, w in pairs if v[0] * w[1] - v[1] * w[0] != 0
    )
    dependent = sum(1 for v, w in pairs if v[0] * w[1] == v[1] * w[0])
    grid = exhaustive_candidates_2d(bound)
    assert [fr.vectors for fr in grid] == independent
    assert len(grid) == (2 * bound + 1) ** 4 - dependent
    assert all(type(e) is F for fr in grid for v in fr for e in v)


def test_exhaustive_candidates_reject_a_negative_bound():
    with pytest.raises(ShapeError, match=r"^bound must be nonnegative, got -1$"):
        exhaustive_candidates_2d(-1)
    assert exhaustive_candidates_2d(0) == ()


def test_exhaustive_candidates_all_independent():
    for fr in exhaustive_candidates_2d(1):
        det = fr[0][0] * fr[1][1] - fr[0][1] * fr[1][0]
        assert det != 0


# --- frame validation counts ---

@pytest.fixture
def frame_validations(monkeypatch):
    """Every run of Frame's validating constructor, in call order."""
    calls = []
    validate = Frame.__post_init__

    def counted(self):
        calls.append(self.vectors)
        validate(self)

    monkeypatch.setattr(Frame, "__post_init__", counted)
    return calls


def test_internal_frame_producers_validate_nothing(frame_validations):
    G = sample_inner_product(4, 3, 17)
    candidates = exhaustive_candidates_2d(2)
    sampled = sample_frame(4, 4, 3, seed=8)
    orthogonal = gram_schmidt(G, sampled)
    witness, _ = orthogonality_witness(SHEAR, 1, 2, I2)
    reports = verify_orthogonal_maximality(
        G, [sample_frame(4, 4, 3, seed=s) for s in range(6)]
    )
    assert frame_validations == []
    assert len(candidates) == 496
    assert is_orthogonal_tuple(G, orthogonal) and orthogonal[0] == sampled[0]
    assert is_orthogonal_tuple(I2, witness) and witness[0] == SHEAR[0]
    assert sum(1 for r in reports if not r.accepted) == 6


def test_public_frame_constructors_still_validate(frame_validations):
    with pytest.raises(DependentFrameError):
        Frame(((1, 2), (2, 4)))
    with pytest.raises(DependentFrameError):
        frame_of((1, 2), (2, 4))
    with pytest.raises(DependentFrameError):
        gram_schmidt(I2, [(0, 0), (1, 0)])
    with pytest.raises(RelationParseError):
        frame_from_json([["1", "2"], ["2", "4"]])
    assert len(frame_validations) == 4
