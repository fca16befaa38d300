"""Functional dependence over finite relations of frames and span points.

The central object is a :class:`Relation`: a finite set of (frame, point,
coordinate values) triples.  A coordinate slot "does not depend on" the
other frame vectors exactly when its value factors through the projection
onto (slot vector, point): any two entries of the relation that agree on
that pair must carry the same value.  :func:`factor_check` decides this on
finite data and, when factorization fails, returns the first colliding
pair in a deterministic scan order, so reports and fixtures are stable.

Factorizable relations are closed under unions of chains, so maximal
factorizable supersets exist.  The union of a finite ascending chain is
its last member, so :func:`chain_union_check` decides it with one scan.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import (
    ChainOrderError,
    DuplicatePointError,
    PreconditionError,
    ShapeError,
    _shown,
)
from .inner_product import GramInnerProduct, _orthogonal_samples
from .linalg import (
    Coordinates,
    Frame,
    Vector,
    _check_nonnegative,
    _check_seed,
    _outside_span,
    _Value,
    _vector_hash,
    as_vector,
    solve_coordinates,
    span_contains,
)


class RelationPoint(_Value):
    """One relation entry: a frame, a point of its span, and slot values.

    The canonical constructor :func:`relation_point` fills ``values`` with
    the exact coordinates of the point over the frame; the relation
    builders make the same entries from the coefficients they draw.
    Building instances with arbitrary values is allowed (oracle tests rely
    on it), but span membership is enforced, except by the private
    :meth:`_trusted`, given a point in the span and one value per vector.

    The hash covers the (frame, point) pair: it combines the frame's hash
    with the point's, from integer ratios (:func:`_vector_hash`), which is
    computed once, on first use, and kept on the instance.  Equality stays
    exact and entrywise over all three fields, values included.
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
            raise _outside_span(self.point)

    @cached_property
    def point_hash(self) -> int:
        """``_vector_hash(self.point)``, once per relation point."""
        return _vector_hash(self.point)

    def __hash__(self) -> int:
        return hash((hash(self.frame), self.point_hash))


def relation_point(frame: Frame, point: Vector) -> RelationPoint:
    """Canonical entry: values are the exact coordinates of the point; the
    solve is also its span test (SpanMembershipError outside the span)."""
    point = as_vector(point)
    return RelationPoint._trusted(
        frame=frame, point=point, values=solve_coordinates(frame, point))


class Relation(_Value):
    """A finite sequence of relation points, deterministic insertion order.

    All points share one ambient dimension and frame size; duplicate
    (frame, point) pairs are rejected.  Use :meth:`from_points` to build
    from a stream that may repeat entries, and the private :meth:`_trusted`
    from a tuple of points already known distinct and of one shape.
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
            j, k = repeat
            p = self.points[k]
            raise DuplicatePointError(
                f"points[{k}] repeats the (frame, point) pair of points[{j}]: "
                f"{_shown((p.frame.vectors, p.point))}")

    @classmethod
    def from_points(cls, points: Iterable[RelationPoint]) -> "Relation":
        """Build a relation, keeping the first of any duplicated pair."""
        kept, _ = _first_of_each_pair(points)
        _check_one_shape(kept)
        return cls._trusted(points=tuple(kept))

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def take(self, indices: Iterable[int]) -> "Relation":
        """The sub-relation at the given indices, in insertion order.  An
        index outside ``[0, len(self))`` raises IndexError: one wrapped
        around from the end could repeat a kept point."""
        picked = sorted(set(indices))
        if picked and not 0 <= picked[0] <= picked[-1] < len(self.points):
            raise IndexError(f"indices {picked[0]}..{picked[-1]} reach outside "
                             f"a relation of {len(self.points)} points")
        return Relation._trusted(points=tuple([self.points[i] for i in picked]))

    @property
    def shape(self) -> tuple[int, int] | None:
        """``(dim, m)`` shared by all points; None for the empty relation."""
        if not self.points:
            return None
        frame = self.points[0].frame
        return frame.dim, frame.size


def _check_one_shape(points: Sequence[RelationPoint]) -> None:
    shapes = [(p.frame.dim, p.frame.size) for p in points]
    for k, shape in enumerate(shapes):
        if shape != shapes[0]:
            raise ShapeError(
                f"points[{k}] has (dim, size) {shape}, points[0] {shapes[0]}")


def _first_of_each_pair(
    points: Iterable[RelationPoint],
) -> tuple[list[RelationPoint], tuple[int, int] | None]:
    """The first point of each (frame, point) pair in order, and ``(j, k)``
    where point k first repeats point j's pair (None if no pair repeats).

    Points are bucketed by their cached hashes; whether two points repeat
    a pair is decided by exact equality of frame and point.
    """
    buckets: dict[int, list[tuple[int, RelationPoint]]] = {}
    kept: list[RelationPoint] = []
    repeat = None
    for k, p in enumerate(points):
        bucket = buckets.setdefault(hash(p), [])
        j = next((j for j, q in bucket
                  if q.point == p.point and q.frame == p.frame), None)
        if j is None:
            bucket.append((k, p))
            kept.append(p)
        elif repeat is None:
            repeat = j, k
    return kept, repeat


class ProjectionKey(_Value):
    """What a slot value is allowed to depend on: (slot index, a_i, x).

    Equality is exact and entrywise.  The hash combines the index with the
    hashes of vector and point, from integer ratios (:func:`_vector_hash`);
    :func:`project` fills it in from the hashes its frame and relation
    point have cached, and a key built directly computes it on first use,
    so equal keys always hash equal.
    """

    _fields = ("index", "vector", "point")

    def __init__(self, index: int, vector: Vector, point: Vector) -> None:
        self.__dict__.update(index=index, vector=vector, point=point)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.index, _vector_hash(self.vector), _vector_hash(self.point)))


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
        if known is not value and known != value:
            first = next(p for p in points[:k] if project(p, index) == key)
            return table, Counterexample(index, first, q)
    return table, None


def factor_check_points(points: Sequence[RelationPoint]) -> FactorizationOutcome:
    """:func:`factor_check`'s scan over a raw point sequence: the same
    contract, without the Relation no-duplicates invariant."""
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


class Chain(_Value):
    """Relations ascending by inclusion: each one a subset of the next."""

    _fields = ("relations",)

    def __init__(self, relations: Sequence[Relation]) -> None:
        relations = tuple(relations)
        for earlier, later in zip(relations, relations[1:]):
            missing = set(earlier.points) - set(later.points)
            if missing:
                raise ChainOrderError(
                    f"chain is not ascending: {len(missing)} points drop out"
                )
        self.__dict__.update(relations=relations)

    def __len__(self) -> int:
        return len(self.relations)

    def __iter__(self):
        return iter(self.relations)


def chain_union_check(chain: Chain) -> bool:
    """Verify that the union of a factorizable chain still factors.

    A chain ascends, so its union is its last member: one scan decides.
    When that member factors, so does each member, a subset of it; when
    not, the first member that does not factor raises PreconditionError.
    """
    if not chain.relations or factor_check(chain.relations[-1]).passed:
        return True
    k = next(k for k, rel in enumerate(chain.relations)
             if not factor_check(rel).passed)
    raise PreconditionError(f"chain member {k} does not factor")


def sample_chain(rel: Relation, depth: int, seed: int) -> Chain:
    """A random nested chain of sub-relations of ``rel``, deterministic."""
    _check_nonnegative(depth=depth)
    _check_seed(seed)
    rng = random.Random(seed)
    count = len(rel)
    sizes = sorted(rng.randint(0, count) for _ in range(depth))
    order = rng.sample(range(count), count)
    return Chain(tuple(rel.take(order[:size]) for size in sizes))


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
    values: the drawn coefficients, which are the points' coordinates.
    Because every value then equals ``<a_i, x> / <a_i, a_i>``, a function
    of the projection key alone, the result always passes
    :func:`factor_check`.  Deterministic for a fixed seed.  Sampling runs
    in ints; each frame is built once as a Frame its entries share.
    """
    _check_nonnegative(frame_count=frame_count,
                       points_per_frame=points_per_frame, bound=bound)
    _check_seed(seed)
    m = G.dim if m is None else m
    if not 2 <= m <= G.dim:
        raise ShapeError(f"need 2 <= m <= dim, got m={_shown(m)}, dim={G.dim}")

    def entries() -> Iterator[RelationPoint]:
        for cleared, points in _orthogonal_samples(
                G, m, frame_count, points_per_frame, bound, seed):
            frame = Frame._trusted(vectors=tuple(
                tuple([Fraction(a, s) for a in U]) for U, s in cleared))
            for c, (xn, xd) in points:
                yield RelationPoint._trusted(
                    frame=frame, point=tuple([Fraction(a, xd) for a in xn]),
                    values=tuple(map(Fraction, c)))

    return Relation.from_points(entries())
