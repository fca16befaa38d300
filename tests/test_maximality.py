from fractions import Fraction as F
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
    RelationPoint,
    ShapeError,
    build_orthogonal_relation,
    chain_union_check,
    evaluate,
    exhaustive_candidates_2d,
    factor_check,
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
from orthocheck.dependence import factor_check_points
from orthocheck.inner_product import first_nonorthogonal_pair
from orthocheck.maximality import (
    Chain,
    canonical_witness_pool,
    chain_union,
    greedy_maximal_extension,
    orthogonality_witness,
)
from orthocheck.serialize import frame_from_json

from oracles import nonorthogonal_pairs, witness_by_solving
from strategies import rational_forms_and_frames

I2 = identity_inner_product(2)
E2 = frame_of((1, 0), (0, 1))
SHEAR = frame_of((1, 0), (1, 1))


# --- chains ---

def test_chain_must_ascend():
    a = Relation((relation_point(E2, (1, 0)),))
    b = a.union(Relation((relation_point(E2, (0, 1)),)))
    Chain((a, b))  # fine
    with pytest.raises(ValueError):
        Chain((b, a))


def test_chain_order_has_its_own_error_type():
    a = Relation((relation_point(E2, (1, 0)),))
    b = a.union(Relation((relation_point(E2, (0, 1)),)))
    with pytest.raises(ChainOrderError) as err:
        Chain((b, a))
    assert isinstance(err.value, OrthoError)
    assert isinstance(err.value, ValueError)


def test_chain_union_is_last_member_for_nested_chains():
    rel = build_orthogonal_relation(I2, 4, 3, 4, seed=1)
    chain = sample_chain(rel, 5, seed=2)
    union = chain_union(chain)
    assert set(union.points) == set(chain.relations[-1].points)


def test_chain_union_check_passes_on_built_chains():
    for seed in range(15):
        rel = build_orthogonal_relation(I2, 4, 3, 4, seed=seed)
        chain = sample_chain(rel, 4, seed=seed + 1)
        assert chain_union_check(chain)


def test_chain_union_check_rejects_bad_member():
    bad = Relation((relation_point(E2, (3, 5)), relation_point(SHEAR, (3, 5))))
    with pytest.raises(PreconditionError):
        chain_union_check(Chain((bad,)))


def test_empty_and_singleton_chains():
    assert chain_union_check(Chain(()))
    rel = build_orthogonal_relation(I2, 2, 2, 3, seed=0)
    assert chain_union_check(Chain((rel,)))


def test_sample_chain_deterministic_and_nested():
    rel = build_orthogonal_relation(I2, 5, 3, 4, seed=9)
    c1 = sample_chain(rel, 4, seed=3)
    c2 = sample_chain(rel, 4, seed=3)
    assert c1 == c2
    sizes = [len(r) for r in c1]
    assert sizes == sorted(sizes)
    for earlier, later in zip(c1.relations, c1.relations[1:]):
        assert set(earlier.points) <= set(later.points)


# --- greedy extension ---

def test_greedy_extension_contains_base_and_factors():
    base = build_orthogonal_relation(I2, 3, 2, 4, seed=4)
    pool = build_orthogonal_relation(I2, 4, 3, 4, seed=5)
    ext = greedy_maximal_extension(base, pool)
    assert set(base.points) <= set(ext.points)
    assert factor_check(ext).passed


def test_greedy_extension_is_maximal_in_pool():
    rng = Random(11)
    for trial in range(25):
        base = build_orthogonal_relation(I2, 2, 2, 3, seed=trial)
        pool_pts = []
        for _ in range(rng.randint(0, 6)):
            fr = rng.choice((E2, SHEAR, frame_of((1, 1), (0, 1))))
            x = (F(rng.randint(-2, 2)), F(rng.randint(-2, 2)))
            pool_pts.append(relation_point(fr, x))
        pool = Relation.from_points(pool_pts)
        ext = greedy_maximal_extension(base, pool)
        assert factor_check(ext).passed
        leftovers = [p for p in pool.points if p not in set(ext.points)]
        for p in leftovers:
            grown = Relation(tuple(ext.points) + (p,))
            assert not factor_check(grown).passed


def test_greedy_extension_rejects_bad_base():
    bad = Relation((relation_point(E2, (3, 5)), relation_point(SHEAR, (3, 5))))
    with pytest.raises(PreconditionError):
        greedy_maximal_extension(bad, Relation(()))


def test_greedy_extension_shape_guard():
    base = Relation((relation_point(E2, (1, 1)),))
    e3 = frame_of((1, 0, 0), (0, 1, 0), (0, 0, 1))
    pool = Relation((relation_point(e3, (1, 0, 0)),))
    with pytest.raises(ShapeError):
        greedy_maximal_extension(base, pool)


def test_greedy_extension_skips_colliding_witness_points():
    base = Relation((relation_point(E2, (3, 5)),))
    pool = Relation((
        relation_point(SHEAR, (3, 5)),   # collides with base at slot 1
        relation_point(E2, (2, 1)),      # compatible
    ))
    ext = greedy_maximal_extension(base, pool)
    assert len(ext) == 2
    assert relation_point(SHEAR, (3, 5)) not in set(ext.points)


def greedy_oracle(base, pool):
    """The definitional greedy pass: re-run the whole scan per pool point."""
    accepted = list(base.points)
    for p in pool.points:
        if p not in accepted and factor_check_points(accepted + [p]).passed:
            accepted.append(p)
    return tuple(accepted)


def test_greedy_extension_matches_definitional_oracle():
    rng = Random(29)
    # E2 and DIAG are orthogonal, so canonical points over them always
    # factor; the pool mixes in frames sharing a slot vector with them.
    diag = frame_of((2, 0), (0, 1))
    frames = (E2, SHEAR, frame_of((1, 1), (0, 1)), diag)

    def draw():
        return (F(rng.randint(-1, 1)), F(rng.randint(-1, 1)))

    for _ in range(80):
        base = Relation.from_points(
            relation_point(rng.choice((E2, diag)), draw())
            for _ in range(rng.randint(0, 3))
        )
        pool_pts = list(rng.sample(base.points, rng.randint(0, len(base))))
        for _ in range(rng.randint(0, 10)):
            fr = rng.choice(frames)
            if rng.random() < 0.5:
                pool_pts.append(RelationPoint(fr, draw(), draw()))
            else:
                pool_pts.append(relation_point(fr, draw()))
        rng.shuffle(pool_pts)
        pool = Relation.from_points(pool_pts)
        ext = greedy_maximal_extension(base, pool)
        assert ext.points == greedy_oracle(base, pool)


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
    assert witness[i - 1] == fr[i - 1]
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
    assert [r.verdict for r in reports] == ["rejected", "accepted"]
    rejected = reports[0]
    assert rejected.collision_point == (F(2), F(1))
    assert rejected.values == (F(1), F(2))
    assert rejected.index == 1 and rejected.other_index == 2


def test_rejection_reproduces_factor_conflict():
    reports = verify_orthogonal_maximality(I2, [SHEAR])
    p, q = reports[0].collision_points()
    out = factor_check(Relation((p, q)))
    assert not out.passed
    assert out.counterexample.index == reports[0].index


def test_accepted_report_has_no_collision():
    report = verify_orthogonal_maximality(I2, [E2])[0]
    assert report.accepted
    assert report.orthogonal_witness is None
    with pytest.raises(ValueError):
        report.collision_points()


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
    from orthocheck import frame_adapted_inner_product

    G = frame_adapted_inner_product(SHEAR)
    reports = verify_orthogonal_maximality(G, [SHEAR, E2])
    assert [r.verdict for r in reports] == ["accepted", "rejected"]


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
        assert (report.index, report.other_index) == (i, j)
        assert report.orthogonal_witness == witness
        assert report.collision_point == x
        assert report.values == values
        expected_points = []
        for i, j in pairs:
            witness, x, _ = witness_by_solving(G, candidate, i, j)
            expected_points.append(relation_point(candidate, x))
            expected_points.append(relation_point(witness, x))
        pool = canonical_witness_pool(candidate, G)
        assert pool.points == Relation.from_points(expected_points).points


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


# --- candidate grids and witness pools ---

def test_exhaustive_candidates_bound_one():
    grid = exhaustive_candidates_2d(1)
    assert len(grid) == 48
    assert grid[0].vectors == ((F(-1), F(-1)), (F(-1), F(0)))
    assert all(abs(c) <= 1 for fr in grid for v in fr for c in v)


def test_exhaustive_candidates_all_independent():
    for fr in exhaustive_candidates_2d(1):
        det = fr[0][0] * fr[1][1] - fr[0][1] * fr[1][0]
        assert det != 0


def test_witness_pool_empty_for_orthogonal_frame():
    assert len(canonical_witness_pool(E2, I2)) == 0


def test_witness_pool_carries_the_collision():
    pool = canonical_witness_pool(SHEAR, I2)
    assert len(pool) == 2
    assert not factor_check(pool).passed


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
