from collections import Counter
from fractions import Fraction as F
from pathlib import Path
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import orthocheck.dependence
import orthocheck.linalg
from orthocheck import (
    DuplicatePointError,
    Frame,
    OrthoError,
    Relation,
    RelationPoint,
    ShapeError,
    SpanMembershipError,
    build_orthogonal_relation,
    factor_check,
    frame_of,
    identity_inner_product,
    is_orthogonal_tuple,
    relation_point,
    relation_to_json,
    sample_chain,
    sample_inner_product,
    solve_coordinates,
)

from orthocheck.dependence import (
    ProjectionKey,
    project,
)
from orthocheck.inner_product import gram_schmidt
from orthocheck.linalg import (
    _vector_hash,
    derive_seed,
    matrix_rank,
    sample_coefficients,
    sample_frame,
    sample_span_point,
    span_contains,
)
from orthocheck.serialize import load_gram, relation_from_json

from oracles import first_conflict_pairwise, grouping_verdict
from strategies import rationals, spelled
from test_golden import GOLDEN, ROOT

FIXTURES = Path(__file__).resolve().parent / "fixtures"

I2 = identity_inner_product(2)

E2 = frame_of((1, 0), (0, 1))
SHEAR = frame_of((1, 0), (1, 1))
STRETCH = frame_of((1, 0), (0, 2))


def raw(rel):
    return [(p.frame.vectors, p.point, p.values) for p in rel.points]


# --- projection keys ---

def test_project_fixture():
    p = relation_point(E2, (3, 5))
    key = project(p, 1)
    assert key.index == 1
    assert key.vector == (F(1), F(0))
    assert key.point == (F(3), F(5))


def test_projection_key_shared_across_frames():
    p = relation_point(E2, (3, 5))
    q = relation_point(STRETCH, (3, 5))
    assert project(p, 1) == project(q, 1)
    assert project(p, 2) != project(q, 2)


def test_project_range_check():
    p = relation_point(E2, (3, 5))
    with pytest.raises(IndexError):
        project(p, 0)
    with pytest.raises(IndexError):
        project(p, 3)


# --- cached hashes: equal values hash equal, whatever the route ---

def test_equal_points_and_keys_by_different_routes_hash_equal():
    canonical = relation_point(frame_of((1, 0), (1, 2)), (3, 4))
    built = [
        RelationPoint(
            Frame(((F(1), F(0)), (F(1), F(2)))), (F(3), F(4)), (F(1), F(2))
        ),
        RelationPoint(frame_of(("1", "0/5"), ("2/2", "2")), ("6/2", "4"), (1, "4/2")),
        relation_from_json(relation_to_json(Relation((canonical,)))).points[0],
    ]
    for p in built:
        assert p == canonical and p.frame is not canonical.frame
        assert hash(p) == hash(canonical)
        assert p.point_hash == _vector_hash((3, 4))
        assert p.frame.slot_hashes == (_vector_hash((1, 0)), _vector_hash((1, 2)))
        for i in (1, 2):
            key = project(p, i)
            direct = ProjectionKey(i, canonical.frame[i - 1], canonical.point)
            assert key == project(canonical, i) == direct
            assert hash(key) == hash(project(canonical, i)) == hash(direct)
    other_values = RelationPoint(canonical.frame, canonical.point, (F(0), F(2)))
    assert other_values != canonical


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_equal_points_and_keys_by_any_spelling_hash_equal(data):
    vectors = data.draw(st.lists(st.tuples(rationals, rationals), min_size=2,
                                 max_size=2))
    assume(matrix_rank(vectors) == 2)
    point = data.draw(st.tuples(rationals, rationals))
    p = relation_point(frame_of(*map(data.draw, map(spelled, vectors))),
                       data.draw(spelled(point)))
    q = RelationPoint(frame_of(*map(data.draw, map(spelled, vectors))),
                      data.draw(spelled(point)), data.draw(spelled(p.values)))
    loaded = relation_from_json(relation_to_json(Relation((p,)))).points[0]
    for other in (q, loaded):
        assert other == p and hash(other) == hash(p)
        assert other.point_hash == p.point_hash == _vector_hash(point)
        assert other.frame.slot_hashes == tuple(map(_vector_hash, vectors))
        for i in (1, 2):
            direct = ProjectionKey(i, vectors[i - 1], point)
            assert hash(project(other, i)) == hash(project(p, i)) == hash(direct)


def test_hash_caches_stay_out_of_eq_and_repr():
    p = relation_point(E2, (3, 5))
    q = relation_point(frame_of((1, 0), (0, 1)), (3, 5))
    hash(p)
    assert list(vars(q)) == ["frame", "point", "values"]
    assert p == q and hash(p) == hash(q)
    assert repr(p) == repr(q) == (
        f"RelationPoint(frame={E2!r}, point={p.point!r}, values={p.values!r})"
    )
    key, direct = project(p, 2), ProjectionKey(2, (F(0), F(1)), (F(3), F(5)))
    assert key == direct and hash(key) == hash(direct)
    assert repr(key) == repr(direct) == (
        f"ProjectionKey(index=2, vector={direct.vector!r}, point={direct.point!r})"
    )


def test_factor_check_hashes_each_entry_once(monkeypatch):
    """Building and scanning a relation hashes each distinct frame vector
    and each point at most once, from integer ratios: no Fraction is
    hashed."""
    fraction_calls, vector_calls = [0], [0]
    fraction_hash, vector_hash = F.__hash__, orthocheck.linalg._vector_hash

    def counting_fraction_hash(self):
        fraction_calls[0] += 1
        return fraction_hash(self)

    def counting_vector_hash(v):
        vector_calls[0] += 1
        return vector_hash(v)

    monkeypatch.setattr(F, "__hash__", counting_fraction_hash)
    for module in (orthocheck.linalg, orthocheck.dependence):
        monkeypatch.setattr(module, "_vector_hash", counting_vector_hash)
    G = sample_inner_product(4, 3, seed=8)
    rel = build_orthogonal_relation(
        G, frame_count=3, points_per_frame=5, bound=4, seed=8
    )
    outcome = factor_check(rel)
    assert outcome.passed and len(rel) == 15
    frames = {id(p.frame): p.frame for p in rel}.values()
    assert fraction_calls[0] == 0
    assert 0 < vector_calls[0] <= sum(fr.size for fr in frames) + len(rel)


# --- relation points ---

def test_canonical_values_are_exact_coordinates():
    p = relation_point(SHEAR, (3, 5))
    assert p.values == (F(-2), F(5))


def test_relation_point_validation():
    with pytest.raises(ShapeError):
        RelationPoint(E2, (1, 1), (F(1),))
    with pytest.raises(SpanMembershipError):
        relation_point(frame_of((1, 0, 0), (0, 1, 0)), (0, 0, 1))
    # arbitrary values are allowed as long as the point is in span
    hand = RelationPoint(E2, (1, 1), (F(7), F(9)))
    assert hand.values == (F(7), F(9))


def test_span_is_tested_once_per_canonical_point(monkeypatch):
    import orthocheck.dependence as dependence

    calls = []

    def counted(frame, x):
        calls.append(x)
        return span_contains(frame, x)

    monkeypatch.setattr(dependence, "span_contains", counted)
    p = relation_point(SHEAR, (3, 5))
    assert calls == []  # the solve is the span test
    assert p == RelationPoint(SHEAR, (3, 5), (F(-2), F(5)))
    assert len(calls) == 1  # the public constructor keeps its own
    with pytest.raises(SpanMembershipError):
        RelationPoint(frame_of((1, 0, 0), (0, 1, 0)), (0, 0, 1), (F(0), F(0)))


# --- relations ---

def test_relation_rejects_duplicates_and_mixed_shapes():
    p = relation_point(E2, (3, 5))
    with pytest.raises(ValueError):
        Relation((p, relation_point(E2, (3, 5))))
    q3 = relation_point(frame_of((1, 0, 0), (0, 1, 0)), (1, 1, 0))
    with pytest.raises(ShapeError):
        Relation((p, q3))


def test_relation_shape_is_dim_and_frame_size():
    assert Relation(()).shape is None
    q3 = relation_point(frame_of((1, 0, 0), (0, 1, 0)), (1, 1, 0))
    assert Relation((q3,)).shape == (3, 2)


def test_relation_duplicate_has_its_own_error_type():
    p = relation_point(E2, (3, 5))
    with pytest.raises(DuplicatePointError) as err:
        Relation((p, relation_point(E2, (3, 5))))
    assert isinstance(err.value, OrthoError)
    assert isinstance(err.value, ValueError)


def test_from_points_dedupes_keeping_first():
    p = relation_point(E2, (3, 5))
    dup = RelationPoint(E2, (3, 5), (F(9), F(9)))
    rel = Relation.from_points([p, dup, relation_point(E2, (1, 2))])
    assert len(rel) == 2
    assert rel.points[0].values == (F(3), F(5))


def test_take_and_union():
    points = [relation_point(E2, (k, 1)) for k in range(4)]
    rel = Relation(tuple(points))
    sub = rel.take([2, 0])
    assert sub.points == (points[0], points[2])
    merged = Relation.from_points(sub.points + rel.take([3]).points)
    assert len(merged) == 3


@pytest.mark.parametrize("indices", [[-1, 2], [0, 3], [-4], [5]])
def test_take_rejects_indices_outside_the_relation(indices):
    # A wrapped -1 would pick index 2 a second time: one (frame, point)
    # pair twice, which Relation itself refuses.
    rel = Relation(tuple(relation_point(E2, (k, 1)) for k in range(3)))
    with pytest.raises(IndexError, match="reach outside"):
        rel.take(indices)
    assert len(Relation().take([])) == 0


# --- factor_check on the pinned examples ---

def test_agreeing_frames_share_a_table_entry():
    rel = Relation((relation_point(E2, (3, 5)), relation_point(STRETCH, (3, 5))))
    out = factor_check(rel)
    assert out.passed
    key = project(rel.points[0], 1)
    assert out.tables[0][key] == F(3)


def test_planted_counterexample():
    rel = Relation((relation_point(E2, (3, 5)), relation_point(SHEAR, (3, 5))))
    out = factor_check(rel)
    assert not out.passed
    ce = out.counterexample
    assert ce.index == 1
    assert ce.values == (F(3), F(-2))
    # the two entries verifiably collide on the key
    assert project(ce.first, 1) == project(ce.second, 1)


def test_counterexample_names_the_first_point_holding_the_key():
    # E2 and STRETCH agree on slot 1 at (3, 5); SHEAR then disagrees.
    first, agreeing, clash = (
        relation_point(fr, (3, 5)) for fr in (E2, STRETCH, SHEAR)
    )
    ce = factor_check(Relation((first, agreeing, clash))).counterexample
    assert (ce.index, ce.first, ce.second) == (1, first, clash)


def test_trivial_relations_pass():
    assert factor_check(Relation(())).passed
    assert factor_check(Relation((relation_point(SHEAR, (3, 5)),))).passed


def test_counterexample_validity_by_re_solving():
    rel = Relation((relation_point(E2, (3, 5)), relation_point(SHEAR, (3, 5))))
    ce = factor_check(rel).counterexample
    i = ce.index
    a = solve_coordinates(ce.first.frame, ce.first.point)[i - 1]
    b = solve_coordinates(ce.second.frame, ce.second.point)[i - 1]
    assert (a, b) == ce.values and a != b


# --- factor_check against the pairwise oracle ---

def random_relation(rng, hand_valued):
    pool = [E2, SHEAR, STRETCH, frame_of((1, 1), (0, 1)), frame_of((2, 1), (1, 1))]
    points = []
    for _ in range(rng.randint(0, 7)):
        fr = rng.choice(pool)
        x = (F(rng.randint(-2, 2)), F(rng.randint(-2, 2)))
        if hand_valued:
            vals = (F(rng.randint(-1, 1)), F(rng.randint(-1, 1)))
            points.append(RelationPoint(fr, x, vals))
        else:
            points.append(relation_point(fr, x))
    return Relation.from_points(points)


@pytest.mark.parametrize("hand_valued", [False, True])
def test_factor_check_matches_pairwise_oracle(hand_valued):
    rng = Random(13 if hand_valued else 31)
    for _ in range(300):
        rel = random_relation(rng, hand_valued)
        out = factor_check(rel)
        conflict = first_conflict_pairwise(raw(rel))
        assert out.passed == (conflict is None)
        if conflict is not None:
            index, s, t = conflict
            ce = out.counterexample
            assert ce.index == index
            assert ce.first == rel.points[s]
            assert ce.second == rel.points[t]


def test_factor_check_matches_oracle_in_3d():
    rng = Random(47)
    pool3 = [
        frame_of((1, 0, 0), (0, 1, 0)),
        frame_of((1, 0, 0), (0, 1, 1)),
        frame_of((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        frame_of((1, 0, 0), (0, 1, 0), (0, 1, 1)),
    ]
    for _ in range(200):
        m = rng.choice((2, 3))
        frames = [fr for fr in pool3 if fr.size == m]
        points = []
        for _ in range(rng.randint(0, 6)):
            fr = rng.choice(frames)
            coeffs = tuple(F(rng.randint(-2, 2)) for _ in range(m))
            x = tuple(
                sum(c * v[d] for c, v in zip(coeffs, fr.vectors))
                for d in range(3)
            )
            vals = tuple(F(rng.randint(-1, 1)) for _ in range(m))
            points.append(RelationPoint(fr, x, vals))
        rel = Relation.from_points(points)
        assert factor_check(rel).passed == grouping_verdict(raw(rel))


def test_subset_monotonicity_seeded():
    rng = Random(77)
    for trial in range(60):
        rel = build_orthogonal_relation(I2, 4, 3, 4, seed=trial)
        assert factor_check(rel).passed
        indices = rng.sample(range(len(rel)), rng.randint(0, len(rel)))
        assert factor_check(rel.take(indices)).passed


# --- factor_check as the per-slot check at m = 2 ---

def test_factor_check_passes_pair_relation_with_a_table_per_slot():
    rel = build_orthogonal_relation(I2, 3, 2, 4, seed=5)
    out = factor_check(rel)
    assert out.passed
    assert len(out.tables) == 2


def test_factor_check_shear_fixture_names_first_slot():
    shear, e2 = relation_point(SHEAR, (3, 5)), relation_point(E2, (3, 5))
    out = factor_check(Relation((shear, e2)))
    assert not out.passed
    ce = out.counterexample
    assert ce.index == 1
    assert (ce.first, ce.second) == (shear, e2)
    assert ce.values == (F(-2), F(3))


def test_factor_check_empty_relation_passes_with_no_tables():
    out = factor_check(Relation(()))
    assert out.passed
    assert out.tables == ()


def slot_conflicts(rel, index):
    """True iff two entries share slot ``index``'s key but not its value."""
    seen = {}
    for p in rel.points:
        key = (p.frame[index - 1], p.point)
        if seen.setdefault(key, p.values[index - 1]) != p.values[index - 1]:
            return True
    return False


def test_factor_check_index_is_first_failing_slot():
    rng = Random(3)
    for _ in range(120):
        rel = random_relation(rng, hand_valued=True)
        failing = [i for i in (1, 2) if slot_conflicts(rel, i)]
        out = factor_check(rel)
        assert out.passed == (not failing)
        if failing:
            assert out.counterexample.index == failing[0]


def _form(name):
    if name.startswith("identity"):
        return identity_inner_product(int(name[len("identity"):]))
    return load_gram(str(FIXTURES / f"{name}.json"))


# --- built entries carry their exact coordinates (oracle) ---

@pytest.mark.parametrize("name", [f"identity{d}" for d in range(2, 9)]
                         + ["gram4", "gram6"])
def test_built_entries_carry_their_solved_coordinates(name):
    G = _form(name)
    for m in range(2, G.dim + 1):
        rel = build_orthogonal_relation(G, 2, 3, 4, seed=m, m=m)
        assert len(rel) > 0
        for p in rel:
            assert (p.frame.dim, p.frame.size) == (G.dim, m)
            assert p.values == solve_coordinates(p.frame, p.point)
            assert span_contains(p.frame, p.point)
            assert all(type(e) is F for e in p.point + p.values)


@pytest.mark.parametrize("name", [f"identity{d}" for d in range(2, 9)]
                         + ["gram4", "gram6"])
def test_built_points_are_the_sampled_span_points(name):
    """Entry (k, t) sits at ``sample_span_point(frame_k, bound, s)`` and
    carries ``sample_coefficients(m, bound, s)``, with ``s`` the seed
    derived for (k, t + 1); repeated (frame, point) pairs keep the first."""
    G = _form(name)
    frame_count, points_per_frame, bound, seed = 3, 4, 3, 11
    fractional = False
    for m in range(2, G.dim + 1):
        rel = build_orthogonal_relation(G, frame_count, points_per_frame,
                                        bound, seed, m=m)
        expected = {}
        for k in range(frame_count):
            frame = gram_schmidt(G, sample_frame(G.dim, m, bound,
                                                 derive_seed(seed, k, 0)))
            for t in range(points_per_frame):
                s = derive_seed(seed, k, t + 1)
                point = sample_span_point(frame, bound, s)
                expected.setdefault((frame, point),
                                    sample_coefficients(m, bound, s))
        assert [(p.frame, p.point, p.values) for p in rel] == [
            (frame, point, values) for (frame, point), values in expected.items()
        ]
        fractional |= any(e.denominator > 1 for p in rel for e in p.point)
    assert fractional


def test_builder_clears_no_frame_vector(monkeypatch):
    """At dim 8 with 12 frames of 16 points, the builder samples in
    integers: it builds each frame once, 96 vectors shared by the frame's
    16 entries, and clears none of them."""
    cleared = []
    real = orthocheck.linalg._cleared

    def counted(entries):
        cleared.append(entries)
        return real(entries)

    monkeypatch.setattr(orthocheck.linalg, "_cleared", counted)
    rel = build_orthogonal_relation(identity_inner_product(8), 12, 16, 5, 3)
    monkeypatch.undo()
    assert len(rel) == 192
    assert len({id(p.frame) for p in rel}) == 12
    frame_vectors = {id(v) for p in rel for v in p.frame}
    assert len(frame_vectors) == 96
    assert sum(1 for e in cleared if id(e) in frame_vectors) == 0


@pytest.mark.parametrize("call, message", [
    (lambda: build_orthogonal_relation(I2, -1, 3, 2, 0),
     "frame_count must be nonnegative, got -1"),
    (lambda: build_orthogonal_relation(I2, 3, -1, 2, 0),
     "points_per_frame must be nonnegative, got -1"),
    (lambda: build_orthogonal_relation(I2, 0, 3, -4, 0),
     "bound must be nonnegative, got -4"),
    (lambda: sample_chain(Relation(()), -1, 0),
     "depth must be nonnegative, got -1"),
    (lambda: sample_coefficients(-1, 3, 0), "m must be nonnegative, got -1"),
], ids=["frame_count", "points_per_frame", "bound", "chain-depth",
        "coefficients"])
def test_negative_counts_raise(call, message):
    with pytest.raises(ShapeError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("m", [1, 3, 9])
def test_builder_rejects_a_frame_size_before_drawing(m):
    with pytest.raises(ShapeError, match=f"^need 2 <= m <= dim, got m={m}, dim=2$"):
        build_orthogonal_relation(I2, 0, 3, 5, 0, m=m)


def test_zero_counts_stay_allowed():
    assert len(build_orthogonal_relation(I2, 2, 0, 2, 0)) == 0


# --- builders ---

def test_build_orthogonal_relation_passes_under_sampled_forms():
    for seed in range(10):
        G = sample_inner_product(2, 3, seed + 100)
        rel = build_orthogonal_relation(G, 4, 3, 4, seed=seed)
        assert factor_check(rel).passed
        for fr in {p.frame for p in rel}:
            assert is_orthogonal_tuple(G, fr)


def test_build_orthogonal_relation_empty_and_deterministic():
    assert len(build_orthogonal_relation(I2, 0, 3, 5, seed=0)) == 0
    a = build_orthogonal_relation(I2, 5, 2, 5, seed=8)
    b = build_orthogonal_relation(I2, 5, 2, 5, seed=8)
    assert a == b


def test_built_relation_with_planted_conflict_fails():
    rel = build_orthogonal_relation(I2, 3, 2, 3, seed=6)
    planted = Relation.from_points(
        rel.points + (relation_point(E2, (3, 5)), relation_point(SHEAR, (3, 5)))
    )
    assert not factor_check(planted).passed


# Frame specs per dimension, all with m = 2.  Several share a slot vector,
# so their points collide on a projection key whenever the points agree.
FRAME_SPECS = {
    2: [((1, 0), (0, 1)), ((1, 0), (1, 1)), ((1, 0), (0, 2)), ((1, 1), (0, 1))],
    3: [((1, 0, 0), (0, 1, 0)), ((1, 0, 0), (0, 1, 1)), ((1, 0, 0), (1, 1, 0))],
}


@st.composite
def fresh_object_points(draw):
    """Relation points that each get their own Frame, point and value
    objects, so equal frames, slot vectors and points are never the same
    object and every bucket or table hit has to go through ``==``."""
    dim = draw(st.sampled_from(sorted(FRAME_SPECS)))
    specs = FRAME_SPECS[dim]
    points = []
    for _ in range(draw(st.integers(0, 7))):
        spec = draw(st.sampled_from(specs))
        frame = frame_of(*spec)
        coeffs = draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
        x = tuple(
            F(sum(c * v[d] for c, v in zip(coeffs, spec)), 1) for d in range(dim)
        )
        if draw(st.booleans()):
            points.append(relation_point(frame, x))
        else:
            values = draw(st.tuples(st.integers(-1, 1), st.integers(-1, 1)))
            points.append(RelationPoint(frame, x, tuple(map(F, values))))
    return points


@settings(max_examples=300, deadline=None)
@given(fresh_object_points())
def test_factor_check_matches_oracle_on_distinct_equal_objects(points):
    firsts = []
    for p in points:
        if not any(q.frame == p.frame and q.point == p.point for q in firsts):
            firsts.append(p)
    rel = Relation.from_points(points)
    assert len(rel) == len(firsts)
    assert all(p is q for p, q in zip(rel.points, firsts))
    if len(firsts) < len(points):
        with pytest.raises(DuplicatePointError):
            Relation(tuple(points))
    else:
        assert Relation(tuple(points)) == rel

    out = factor_check(rel)
    conflict = first_conflict_pairwise(raw(rel))
    assert out.passed == (conflict is None)
    if conflict is None:
        for i, table in enumerate(out.tables, start=1):
            assert len(table) == len({project(p, i) for p in rel})
    else:
        index, s, t = conflict
        ce = out.counterexample
        assert (ce.index, ce.first, ce.second) == (index, rel.points[s], rel.points[t])
        assert ce.first is rel.points[s] and ce.second is rel.points[t]


BUILT_GOLDEN = [entry["argv"] for entry in GOLDEN
                if entry["argv"][0] in ("factor", "chain")
                and "--input" not in entry["argv"]]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 17: built relations share no projection key, so their "
    "factor verdict cannot fail"))
@pytest.mark.parametrize("argv", BUILT_GOLDEN, ids=" ".join)
def test_built_golden_relations_repeat_a_key_in_every_slot(argv, monkeypatch):
    """Slot i's scan can only fail at a key two entries share: each slot of
    the relation a golden ``factor`` or ``chain`` run builds must have one."""
    from orthocheck.cli import _build_parser, _built_relation, _run_config

    monkeypatch.chdir(ROOT)
    rel = _built_relation(argv[0], _run_config(_build_parser().parse_args(argv)))
    _, m = rel.shape
    repeated = [sum(n > 1 for n in Counter(project(p, i) for p in rel).values())
                for i in range(1, m + 1)]
    assert all(repeated), repeated
