"""Chain unions, greedy maximal extension, and the counterexample oracle.

Two facts make orthogonality-by-factorization tick at finite scale.
First, factorizable relations are closed under unions of chains, so
maximal factorizable supersets exist; here the transfinite step is
replaced by a greedy pass over a finite pool, which makes maximality
decidable and directly testable.  Second, relations built over orthogonal
frames are not just factorizable but maximally so: every non-orthogonal
frame can be rejected by an explicit witness, an orthogonal frame sharing
the offending slot vector plus one collision point where the two frames
disagree on that slot's coordinate.  :func:`orthogonality_witness`
constructs that certificate and :func:`verify_orthogonal_maximality`
sweeps it over candidate frames.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Sequence

from .errors import (
    ChainOrderError,
    NoViolationError,
    PreconditionError,
    ShapeError,
)
from .inner_product import (
    GramInnerProduct,
    _Image,
    _full_dimensional,
    _images,
    _nonorthogonal_pairs,
    _orthogonalize,
    first_nonorthogonal_pair,  # noqa: F401  perfbench's traced run wraps it here
)
from .dependence import (
    Relation,
    RelationPoint,
    factor_check,
    project,
    relation_point,
)
from .linalg import Frame, Vector, _check_seed, _Value, vec

import random


class Chain(_Value):
    """Relations ascending by inclusion: each one a subset of the next."""

    _fields = ("relations",)

    def __init__(self, relations: Sequence[Relation]) -> None:
        self.__dict__.update(relations=relations)
        self.__post_init__()

    def __post_init__(self) -> None:
        self.__dict__.update(relations=tuple(self.relations))
        for earlier, later in zip(self.relations, self.relations[1:]):
            missing = set(earlier.points) - set(later.points)
            if missing:
                raise ChainOrderError(
                    f"chain is not ascending: {len(missing)} points drop out"
                )

    def __len__(self) -> int:
        return len(self.relations)

    def __iter__(self):
        return iter(self.relations)


def chain_union(chain: Chain) -> Relation:
    """The union of a chain's relations, first-appearance order."""
    points = []
    for rel in chain.relations:
        points.extend(rel.points)
    return Relation.from_points(points)


def chain_union_check(chain: Chain) -> bool:
    """Verify that the union of a factorizable chain still factors.

    Every member must pass factor_check (PreconditionError otherwise).
    For such chains the union passes too; this runs the check rather than
    trusting the argument.
    """
    for k, rel in enumerate(chain.relations):
        if not factor_check(rel).passed:
            raise PreconditionError(f"chain member {k} does not factor")
    return factor_check(chain_union(chain)).passed


def greedy_maximal_extension(base: Relation, pool: Relation) -> Relation:
    """Grow ``base`` inside ``pool`` until no point can be added.

    Scans the pool in insertion order, accepting a point eagerly whenever
    it does not break factorization against what is accepted so far.  The
    result contains the base, factors, and is maximal within the pool:
    adding any leftover point makes factor_check fail.  Which maximal set
    is reached depends on the scan order; membership soundness does not.
    """
    outcome = factor_check(base)
    if not outcome.passed:
        raise PreconditionError("base relation does not factor")
    if base.points and pool.points and (
        (base.points[0].frame.dim, base.slot_count)
        != (pool.points[0].frame.dim, pool.slot_count)
    ):
        raise ShapeError("base and pool have different (dim, size) shapes")
    m = base.slot_count or pool.slot_count
    # The base's own factor tables, extended in place as points are taken.
    tables = outcome.tables or tuple({} for _ in range(m))
    accepted = dict.fromkeys(base.points)
    for p in pool.points:
        keys = [project(p, i) for i in range(1, m + 1)]
        if all(
            table.get(key, value) == value
            for table, key, value in zip(tables, keys, p.values)
        ):
            accepted[p] = None
            for table, key, value in zip(tables, keys, p.values):
                table[key] = value
    # A pool point equal to an accepted one is the same key of ``accepted``;
    # one repeating an accepted (frame, point) pair with other values
    # disagrees with some table.  So the accepted pairs are distinct.
    return Relation._trusted(accepted)


def _witness(
    G: GramInnerProduct, candidate: Frame, images: list[_Image], i: int, j: int
) -> tuple[Frame, Vector]:
    """:func:`orthogonality_witness` for a full-dimensional candidate, its
    :func:`_images` under G and a pair (i, j) that is not orthogonal.

    Gram-Schmidt runs on the images with slot i first, so its first output
    is ``b_i`` itself and reuses that image.
    """
    order = [i - 1] + [k for k in range(candidate.size) if k != i - 1]
    outputs = _orthogonalize(G, [images[k] for k in order])
    slots: list[Vector | None] = [None] * candidate.size
    for k, out in zip(order, outputs):
        slots[k] = (candidate[k] if out is None
                    else tuple(Fraction(a, out[1]) for a in out[0]))
    # Gram-Schmidt keeps prefix spans: the witness is independent too.
    witness = Frame._trusted(tuple(slots))  # type: ignore[arg-type]
    b_i, b_j = candidate[i - 1], candidate[j - 1]
    return witness, tuple(a + b for a, b in zip(b_i, b_j))


def orthogonality_witness(
    candidate: Frame, i: int, j: int, G: GramInnerProduct
) -> tuple[Frame, Vector]:
    """A certificate that slot i of a non-orthogonal frame is key-determined
    by nothing: an orthogonal frame sharing slot i, plus a collision point.

    The witness frame comes from Gram-Schmidt under G run with slot i
    first, then reindexed so the candidate's own ``b_i`` stays in slot i.
    The collision point is ``x = b_i + b_j``.  Slot i's coordinate of x is
    1 over the candidate but ``1 + <b_i, b_j> / <b_i, b_i>`` over the
    witness, so the two entries share the projection key (i, b_i, x) and
    disagree in value exactly when ``<b_i, b_j> != 0``.

    Only full-dimensional candidates (m == dim) are supported.
    """
    _full_dimensional(candidate, "witness construction")
    m = candidate.size
    if not 1 <= i <= m or not 1 <= j <= m or i == j:
        raise IndexError(f"need distinct slots in 1..{m}, got i={i}, j={j}")
    images = _images(G, candidate.vectors)
    if not sum(map(mul, images[i - 1][2], images[j - 1][0])):
        raise NoViolationError(
            f"slots {i} and {j} are already orthogonal; no witness exists"
        )
    return _witness(G, candidate, images, i, j)


class MaximalityReport(_Value):
    """Verdict for one candidate frame against the orthogonal relation.

    Orthogonal candidates are accepted.  A rejected candidate carries the
    witness frame, the collision point, and the two disagreeing slot
    values; re-running the factorization scan on those two entries
    reproduces the collision.
    """

    _fields = ("candidate", "verdict", "orthogonal_witness", "collision_point",
               "values", "index", "other_index")

    def __init__(
        self,
        candidate: Frame,
        verdict: str,
        orthogonal_witness: Frame | None = None,
        collision_point: Vector | None = None,
        values: tuple[Fraction, Fraction] | None = None,
        index: int | None = None,
        other_index: int | None = None,
    ) -> None:
        self.__dict__.update(
            candidate=candidate, verdict=verdict,
            orthogonal_witness=orthogonal_witness,
            collision_point=collision_point, values=values, index=index,
            other_index=other_index,
        )

    @property
    def accepted(self) -> bool:
        return self.verdict == "accepted"

    def collision_points(self) -> tuple[RelationPoint, RelationPoint]:
        """The two canonical relation entries that demonstrate the rejection."""
        if self.accepted:
            raise ValueError("accepted candidates carry no collision")
        return (
            relation_point(self.candidate, self.collision_point),
            relation_point(self.orthogonal_witness, self.collision_point),
        )


def verify_orthogonal_maximality(
    G: GramInnerProduct, candidates: Sequence[Frame]
) -> tuple[MaximalityReport, ...]:
    """Sweep candidate frames: accept the orthogonal, refute the rest.

    Every candidate must be full-dimensional for the form (ShapeError
    otherwise).  A rejected report shows that the relation built over
    G-orthogonal frames cannot absorb the candidate: its witness pair
    breaks factorization at the reported slot.
    """
    reports = []
    for candidate in candidates:
        if candidate.dim != G.dim:
            raise ShapeError(
                f"candidate dimension {candidate.dim} against a {G.dim}x{G.dim} form"
            )
        _full_dimensional(candidate, "maximality sweep")
        images = _images(G, candidate.vectors)
        pair = next(_nonorthogonal_pairs(images), None)
        if pair is None:
            reports.append(MaximalityReport(candidate, "accepted"))
            continue
        i, j = pair
        witness, x = _witness(G, candidate, images, i, j)
        # Over the candidate, x = b_i + b_j has coordinates e_i + e_j.  The
        # witness is orthogonal with b_i in slot i, so slot i's coordinate
        # is <b_i, x> / <b_i, b_i> = 1 + ij s_i / (ii s_j), with
        # ii = Gn U_i . U_i and ij = Gn U_i . U_j.
        U_i, s_i, GU_i = images[i - 1]
        U_j, s_j, _ = images[j - 1]
        ii = sum(map(mul, GU_i, U_i))
        ij = sum(map(mul, GU_i, U_j))
        values = (Fraction(1), Fraction(ii * s_j + ij * s_i, ii * s_j))
        reports.append(
            MaximalityReport(
                candidate,
                "rejected",
                orthogonal_witness=witness,
                collision_point=x,
                values=values,
                index=i,
                other_index=j,
            )
        )
    return tuple(reports)


def canonical_witness_pool(frame: Frame, G: GramInnerProduct) -> Relation:
    """Witness entries for every non-orthogonal slot pair of a frame.

    For each pair (i, j) with ``<a_i, a_j> != 0`` the pool holds the
    candidate's own entry at the collision point and the witness frame's
    entry at the same point.  Joining this pool in
    ``is_orthogonal_via_factorization`` makes the predicate complete:
    orthogonal frames still pass, non-orthogonal ones are rejected.
    Empty for frames already orthogonal under G.
    """
    images = _images(G, frame.vectors)
    points = []
    for i, j in _nonorthogonal_pairs(images):
        _full_dimensional(frame, "witness construction")
        witness, x = _witness(G, frame, images, i, j)
        points.append(relation_point(frame, x))
        points.append(relation_point(witness, x))
    return Relation.from_points(points)


def exhaustive_candidates_2d(bound: int) -> tuple[Frame, ...]:
    """Every independent ordered pair of integer vectors in dimension 2.

    Entries range over [-bound, bound]; enumeration order is lexicographic
    in ((a1, a2), (b1, b2)), so the sweep is reproducible.
    """
    span = range(-bound, bound + 1)
    vectors = [vec(a, b) for a in span for b in span]
    frames = []
    for v in vectors:
        for w in vectors:
            if v[0] * w[1] - v[1] * w[0] != 0:  # the independence proof
                frames.append(Frame._trusted((v, w)))
    return tuple(frames)


def sample_chain(rel: Relation, depth: int, seed: int) -> Chain:
    """A random nested chain of sub-relations of ``rel``, deterministic."""
    _check_seed(seed)
    rng = random.Random(seed)
    count = len(rel)
    sizes = sorted(rng.randint(0, count) for _ in range(depth))
    order = rng.sample(range(count), count) if count else []
    return Chain(tuple(rel.take(order[:size]) for size in sizes))
