"""Functional dependence over finite relations of frames and span points.

The central object is a :class:`Relation`: a finite set of (frame, point,
coordinate values) triples.  A coordinate slot "does not depend on" the
other frame vectors exactly when its value factors through the projection
onto (slot vector, point): any two entries of the relation that agree on
that pair must carry the same value.  :func:`factor_check` decides this on
finite data and, when factorization fails, returns the first colliding
pair in a deterministic scan order, so reports and fixtures are stable.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .errors import (
    DuplicatePointError,
    ShapeError,
    SpanMembershipError,
)
from .inner_product import GramInnerProduct, gram_schmidt
from .linalg import (
    Coordinates,
    Frame,
    Vector,
    _Value,
    as_vector,
    derive_seed,
    linear_combination,
    sample_coefficients,
    sample_frame,
    solve_coordinates,
    span_contains,
)


class RelationPoint(_Value):
    """One relation entry: a frame, a point of its span, and slot values.

    The canonical constructor :func:`relation_point` fills ``values`` with
    the exact coordinates of the point over the frame; the relation
    builders make the same entries from the coefficients they draw.
    Building instances with arbitrary values is allowed (oracle tests rely
    on it), but span membership is always enforced.

    The hash covers the (frame, point) pair: it combines the frame's hash
    with ``hash(point)``, which is computed once, on first use, and kept
    on the instance.  Equality stays exact and entrywise over all three
    fields, values included.
    """

    _fields = ("frame", "point", "values")

    def __init__(self, frame: Frame, point: Vector, values: Coordinates) -> None:
        self.__dict__.update(frame=frame, point=point, values=values)
        self.__post_init__()

    def __post_init__(self) -> None:
        self.__dict__.update(
            point=as_vector(self.point), values=as_vector(self.values)
        )
        if len(self.values) != self.frame.size:
            raise ShapeError(
                f"{len(self.values)} values for a frame of {self.frame.size} vectors"
            )
        if not span_contains(self.frame, self.point):
            raise SpanMembershipError(
                f"point {self.point} is outside the frame's span"
            )

    @classmethod
    def _trusted(
        cls, frame: Frame, point: Vector, values: Coordinates
    ) -> "RelationPoint":
        """An entry whose point is known to lie in the span, values fitting."""
        p = object.__new__(cls)
        p.__dict__.update(frame=frame, point=point, values=values)
        return p

    @cached_property
    def point_hash(self) -> int:
        """``hash(self.point)``, computed once per relation point."""
        return hash(self.point)

    def __hash__(self) -> int:
        return hash((hash(self.frame), self.point_hash))


def relation_point(frame: Frame, point: Vector) -> RelationPoint:
    """Canonical entry: values are the exact coordinates of the point; the
    solve is also its span test (SpanMembershipError outside the span)."""
    point = as_vector(point)
    return RelationPoint._trusted(frame, point, solve_coordinates(frame, point))


def _sampled_entry(frame: Frame, bound: int, seed: int) -> RelationPoint:
    """Canonical entry at a sampled span point, built from its coefficients.

    The point is the combination of the frame's vectors with the drawn
    coefficients, so it lies in the span, and coordinates over an
    independent frame are unique: the coefficients are exactly what
    :func:`relation_point` would solve for.  The point is the one
    ``sample_span_point(frame, bound, seed)`` returns.
    """
    coeffs = sample_coefficients(frame.size, bound, seed)
    point = linear_combination(frame.vectors, coeffs)
    return RelationPoint._trusted(frame, point, coeffs)


class Relation(_Value):
    """A finite sequence of relation points, deterministic insertion order.

    All points share one ambient dimension and frame size; duplicate
    (frame, point) pairs are rejected.  Use :meth:`from_points` to build
    from a stream that may repeat entries.
    """

    _fields = ("points",)

    def __init__(self, points: Iterable[RelationPoint] = ()) -> None:
        self.__dict__.update(points=points)
        self.__post_init__()

    def __post_init__(self) -> None:
        self.__dict__.update(points=tuple(self.points))
        _check_one_shape(self.points)
        _, repeat = _first_of_each_pair(self.points)
        if repeat is not None:
            raise DuplicatePointError(
                f"duplicate (frame, point) pair: {(repeat.frame, repeat.point)}"
            )

    @classmethod
    def from_points(cls, points: Iterable[RelationPoint]) -> "Relation":
        """Build a relation, keeping the first of any duplicated pair."""
        kept, _ = _first_of_each_pair(points)
        _check_one_shape(kept)
        return cls._trusted(kept)

    @classmethod
    def _trusted(cls, points: Iterable[RelationPoint]) -> "Relation":
        """A relation over points already known distinct and of one shape."""
        rel = object.__new__(cls)
        rel.__dict__.update(points=tuple(points))
        return rel

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def take(self, indices: Iterable[int]) -> "Relation":
        """The sub-relation at the given indices, in insertion order."""
        picked = sorted(set(indices))
        return Relation._trusted(self.points[i] for i in picked)

    def union(self, other: "Relation") -> "Relation":
        return Relation.from_points(self.points + other.points)

    @property
    def slot_count(self) -> int:
        """Frame size m shared by all points; 0 for the empty relation."""
        return self.points[0].frame.size if self.points else 0


def _check_one_shape(points: Sequence[RelationPoint]) -> None:
    shapes = {(p.frame.dim, p.frame.size) for p in points}
    if len(shapes) > 1:
        raise ShapeError(f"mixed (dim, size) shapes: {sorted(shapes)}")


def _first_of_each_pair(
    points: Iterable[RelationPoint],
) -> tuple[list[RelationPoint], RelationPoint | None]:
    """The first point of each (frame, point) pair in order, and the first
    repeat of an earlier pair (None if there is none).

    Points are bucketed by their cached hashes; whether two points repeat
    a pair is decided by exact equality of frame and point.
    """
    buckets: dict[int, list[RelationPoint]] = {}
    kept: list[RelationPoint] = []
    repeat = None
    for p in points:
        bucket = buckets.setdefault(hash(p), [])
        if any(q.point == p.point and q.frame == p.frame for q in bucket):
            if repeat is None:
                repeat = p
        else:
            bucket.append(p)
            kept.append(p)
    return kept, repeat


class ProjectionKey(_Value):
    """What a slot value is allowed to depend on: (slot index, a_i, x).

    Equality is exact and entrywise.  The hash combines the index with
    ``hash(vector)`` and ``hash(point)``; :func:`project` fills it in from
    the hashes its frame and relation point have cached, and a key built
    directly computes it on first use, so equal keys always hash equal.
    """

    _fields = ("index", "vector", "point")

    def __init__(self, index: int, vector: Vector, point: Vector) -> None:
        self.__dict__.update(index=index, vector=vector, point=point)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.index, hash(self.vector), hash(self.point)))


def project(p: RelationPoint, index: int) -> ProjectionKey:
    """Projection of a relation point onto slot ``index`` (1-based)."""
    if not 1 <= index <= p.frame.size:
        raise IndexError(f"slot index {index} out of range 1..{p.frame.size}")
    key = ProjectionKey(index, p.frame[index - 1], p.point)
    # The value ProjectionKey._hash would compute, from cached ints.
    key.__dict__["_hash"] = hash(
        (index, p.frame.slot_hashes[index - 1], p.point_hash)
    )
    return key


class Counterexample(_Value):
    """Two relation points sharing a projection key but not its value."""

    _fields = ("index", "first", "second")

    def __init__(
        self, index: int, first: RelationPoint, second: RelationPoint
    ) -> None:
        self.__dict__.update(index=index, first=first, second=second)

    @property
    def values(self) -> tuple[Fraction, Fraction]:
        return (self.first.values[self.index - 1], self.second.values[self.index - 1])


class FactorizationOutcome(_Value):
    """Either per-slot factor tables or the first counterexample found.

    Outcomes compare and hash by identity: their tables are dicts.
    """

    _fields = ("tables", "counterexample")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        tables: tuple[dict[ProjectionKey, Fraction], ...] | None,
        counterexample: Counterexample | None,
    ) -> None:
        self.__dict__.update(tables=tables, counterexample=counterexample)

    @property
    def passed(self) -> bool:
        return self.counterexample is None


def _scan_slot(
    points: Sequence[RelationPoint], index: int
) -> tuple[dict[ProjectionKey, Fraction], Counterexample | None]:
    table: dict[ProjectionKey, Fraction] = {}
    for k, q in enumerate(points):
        key = project(q, index)
        value = q.values[index - 1]
        known = table.setdefault(key, value)
        if known != value:
            first = next(p for p in points[:k] if project(p, index) == key)
            return table, Counterexample(index, first, q)
    return table, None


def factor_check_points(points: Sequence[RelationPoint]) -> FactorizationOutcome:
    """Factorization scan over a raw point sequence.

    Same contract as :func:`factor_check` but without the Relation
    no-duplicates invariant, which makes it usable for tentative
    extensions (does adding this point break factorization?).
    """
    if not points:
        return FactorizationOutcome(tables=(), counterexample=None)
    _check_one_shape(points)
    m = points[0].frame.size
    tables = []
    for index in range(1, m + 1):
        table, collision = _scan_slot(points, index)
        if collision is not None:
            return FactorizationOutcome(tables=None, counterexample=collision)
        tables.append(table)
    return FactorizationOutcome(tables=tuple(tables), counterexample=None)


def factor_check(rel: Relation) -> FactorizationOutcome:
    """Decide whether every slot value factors through its projection.

    Passes iff any two points agreeing on (slot vector, point) also agree
    on the slot's value; the tables returned are exactly those quotient
    functions.  Fails with the first collision in deterministic scan
    order: ascending slot index, then insertion order, so the
    counterexample's ``index`` is the first slot that does not factor.
    """
    return factor_check_points(rel.points)


def is_orthogonal_via_factorization(
    frame: Frame,
    witness_pool: Relation,
    points_per_frame: int = 4,
    bound: int = 5,
    seed: int = 0,
) -> bool:
    """Inner-product-free orthogonality of a frame, relative to witnesses.

    Samples span points of the candidate frame, joins them with the
    supplied witness pool, and passes iff factorization holds on the
    union.  A frame alone can never collide with itself, so the pool
    carries the burden of rejection: with the pool built by
    ``maximality.canonical_witness_pool`` the predicate accepts exactly
    the frames orthogonal under the pool's inner product.
    """
    own = tuple(
        _sampled_entry(frame, bound, derive_seed(seed, t))
        for t in range(points_per_frame)
    )
    rel = Relation.from_points(own + witness_pool.points)
    return factor_check(rel).passed


def build_orthogonal_relation(
    G: GramInnerProduct,
    frame_count: int,
    points_per_frame: int,
    bound: int,
    seed: int,
    m: int | None = None,
) -> Relation:
    """Sample a relation over frames orthogonalized under G.

    Frames are drawn with integer entries, made G-orthogonal by exact
    Gram-Schmidt, then paired with sampled span points carrying canonical
    values.  Because every value then equals ``<a_i, x> / <a_i, a_i>``, a
    function of the projection key alone, the result always passes
    :func:`factor_check`.  Deterministic for a fixed seed.
    """
    m = G.dim if m is None else m
    frames = [
        gram_schmidt(G, sample_frame(G.dim, m, bound, derive_seed(seed, k, 0)))
        for k in range(frame_count)
    ]
    return Relation.from_points(
        _sampled_entry(frame, bound, derive_seed(seed, k, t + 1))
        for k, frame in enumerate(frames)
        for t in range(points_per_frame)
    )
