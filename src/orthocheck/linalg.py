"""Exact rational vectors, frames, and linear solving.

Values in and out are `fractions.Fraction`: vectors are plain tuples of
Fractions, and a :class:`Frame` is a validated tuple of linearly
independent vectors.  Inside, one elimination kernel (single-step Bareiss,
integer-preserving) does every rank, determinant, span test, solve and
inverse: inputs have their denominators cleared and the kernel runs over
Python ints, dividing only where the division is exact.  There are no
floats and no tolerances, so results are exact and runs are
bit-reproducible.  The kernel always picks the first row with a nonzero
entry as the pivot, so identical inputs give identical eliminations.

Value classes (:class:`Frame` and its kin) derive from :class:`_Value`, not
``dataclasses``, whose import and method generation cost each CLI start
about 12 ms; ``tests/test_import_graph.py`` guards this.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from functools import cached_property
from math import lcm, prod
from operator import mul
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .errors import (
    DependentFrameError,
    GenerationError,
    PreconditionError,
    RationalError,
    ShapeError,
    SpanMembershipError,
    _ends,
    _over_limit,
    _shown,
)

RationalLike = Fraction | int | str
Vector = tuple[Fraction, ...]
Coordinates = tuple[Fraction, ...]
Matrix = tuple[tuple[Fraction, ...], ...]
_T, _R, _V = TypeVar("_T"), TypeVar("_R"), TypeVar("_V", bound="_Value")

#: Rejection-sampling attempts before giving up.  Degenerate parameters
#: (bound=0 can never yield an independent frame) fail loudly instead of
#: spinning forever.
SAMPLING_CAP = 10_000

_MASK64 = (1 << 64) - 1

# Entry types read as exact rationals without conversion.
_EXACT = (int, Fraction)

# The one grammar of rational literals, in the library, the CLI and JSON.
RATIONAL_PATTERN = re.compile(r"[+-]?\d+(?:/\d+)?\Z", re.ASCII)


# ---------------------------------------------------------------------------
# vectors


def _per_object(fn: Callable[[_T], _R]) -> Callable[[_T], _R]:
    """``fn`` behind a call-local table keyed by ``id()``: ``fn`` runs once
    per distinct object, and every later use shares its result.  The table
    keeps each object, so its id is not reused while the table lives."""
    table: dict[int, tuple[_T, _R]] = {}

    def cached(obj: _T) -> _R:
        hit = table.get(id(obj))
        if hit is None:
            hit = table[id(obj)] = (obj, fn(obj))
        return hit[1]

    return cached


def _vector_hash(v: Sequence[Fraction | int]) -> int:
    """Hash of an exact vector from its entries' integer ratios, canonical
    for Fractions and ``(n, 1)`` for ints: equal vectors hash equal."""
    return hash(tuple([e.as_integer_ratio() for e in v]))


def _dimension(vectors: Sequence[Sequence[object]]) -> int:
    """The one length n that every vector has; ShapeError if they differ."""
    dims = {len(v) for v in vectors}
    if len(dims) != 1:
        raise ShapeError(f"mixed vector dimensions: {_ends(str(sorted(dims)))}")
    return dims.pop()


def _rational(e: object) -> Fraction:
    """The one coercion to Fraction: a Fraction, an int that is not a bool,
    or a ``p/q`` string matching RATIONAL_PATTERN.  Anything else, a zero
    denominator or more digits than the int/str limit is a RationalError."""
    if isinstance(e, str) and RATIONAL_PATTERN.match(e):
        num, slash, den = e.partition("/")
        try:
            return Fraction(int(num), int(den)) if slash else Fraction(int(num))
        except ZeroDivisionError:
            raise RationalError(f"zero denominator: {_shown(e)}") from None
        except ValueError:  # int() refuses more digits than the int/str limit
            digits = max(len(num.lstrip("+-")), len(den))
            raise RationalError(_over_limit(f"literal of {digits} digits")) from None
    # Strings first: an isinstance test against Fraction, an ABC, is slow.
    if isinstance(e, (int, Fraction)) and not isinstance(e, bool):
        return Fraction(e)
    raise RationalError(f"not a rational literal: {_shown(e)}")


def as_vector(entries: Iterable[RationalLike]) -> Vector:
    """Coerce an iterable of ints, ``p/q`` strings or Fractions."""
    return tuple(e if type(e) is Fraction else _rational(e) for e in entries)


def linear_combination(
    vectors: Sequence[Vector], coeffs: Sequence[RationalLike]
) -> Vector:
    """Return ``sum(c_k * v_k)``, exactly.

    Runs over ints (:func:`_combine`): each vector is cleared to an integer
    row over its own scale, and the coefficients to numerators over one
    denominator ``e``; one Fraction is built per entry.
    """
    if len(vectors) != len(coeffs):
        raise ShapeError(
            f"{len(coeffs)} coefficients for {len(vectors)} vectors"
        )
    if not vectors:
        raise ShapeError("empty combination has no dimension")
    _dimension(vectors)
    numerators, e = _cleared(coeffs)
    N, L = _combine(list(map(_cleared, vectors)), numerators)
    den = L * e
    return tuple([Fraction(a, den) for a in N])


def _combine(
    cleared: Sequence[tuple[list[int], int]], coeffs: Sequence[int]
) -> tuple[list[int], int]:
    """``sum(c_k * U_k / d_k)`` for integer coefficients ``c_k`` and vectors
    each cleared to ``(U_k, d_k)``, as ints ``(N, L)``: entry j is
    ``N[j] / L``, with L the lcm of the ``d_k``, not reduced.  The one
    combination loop; it checks no shape, so a caller combining one
    frame's vectors many times clears them once."""
    L = lcm(*[d for _, d in cleared])
    weights = [c * (L // d) for c, (_, d) in zip(coeffs, cleared)]
    return [sum(map(mul, weights, column))
            for column in zip(*[U for U, _ in cleared])], L


# ---------------------------------------------------------------------------
# elimination kernel


def _cleared(entries: Iterable[RationalLike]) -> tuple[list[int], int]:
    """Integer numerators over the least common denominator of ``entries``.

    Returns ints ``(numerators, d)`` with ``entries[k] == numerators[k] / d``
    and ``d >= 1``; ``entries`` may be a generator.  Each int or Fraction is
    split once, by ``as_integer_ratio``; anything else goes through
    :func:`_rational` first.  A cleared vector is this pair, and a cleared
    frame the list of its vectors' pairs.  Scaling a row by a positive
    integer keeps its zero pattern, so the kernel picks the same pivots on
    cleared rows as on the rational ones.
    """
    ratios = [(e if type(e) in _EXACT else _rational(e)).as_integer_ratio()
              for e in entries]
    d = lcm(*[q for _, q in ratios])
    return [p * (d // q) for p, q in ratios], d


def _bareiss(rows: list[list[int]], swap: bool = True) -> tuple[list[int], int]:
    """Integer-preserving forward elimination (single-step Bareiss), in place.

    Every entry stays an integer: it is always a minor of the input, so
    each division by the previous pivot is exact.  The pivot found in
    column ``c`` at step ``r`` is the determinant of the rows and columns
    pivoted on so far; without swaps these are the leading principal
    minors.  Pivot selection is nonzero-first: the lowest row index with a
    nonzero entry in the current column wins.  With ``swap=False`` it
    stops at the first zero pivot.  Returns ``(pivot_columns, swap_count)``.
    """
    n_rows, width = len(rows), len(rows[0])
    pivots: list[int] = []
    swaps = 0
    prev = 1
    r = 0
    for c in range(width):
        if r == n_rows:
            break
        if rows[r][c] == 0:
            if not swap:
                break
            pivot_row = next((i for i in range(r + 1, n_rows) if rows[i][c]), None)
            if pivot_row is None:
                continue
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            swaps += 1
        top = rows[r]
        pivot = top[c]
        cols = range(c + 1, width)
        for row in rows[r + 1:]:
            factor = row[c]
            for k in cols:
                row[k] = (pivot * row[k] - factor * top[k]) // prev
            row[c] = 0
        prev = pivot
        pivots.append(c)
        r += 1
    return pivots, swaps


def matrix_rank(vectors: Sequence[Sequence[RationalLike]]) -> int:
    """Exact rank of the matrix whose rows are ``vectors``."""
    rows = [U for U, _ in map(_cleared, vectors)]
    if not rows:
        return 0
    _dimension(rows)
    pivots, _ = _bareiss(rows)
    return len(pivots)


def determinant(rows: Sequence[Sequence[RationalLike]]) -> Fraction:
    """Exact determinant via integer-preserving elimination."""
    cleared = list(map(_cleared, rows))
    work = [U for U, _ in cleared]
    n = len(work)
    if any(len(r) != n for r in work):
        raise ShapeError("determinant needs a square matrix")
    if n == 0:
        return Fraction(1)
    pivots, swaps = _bareiss(work)
    if len(pivots) < n:
        return Fraction(0)
    # Bareiss: after full elimination the last pivot is the determinant of
    # the scaled rows, up to the sign of the row swaps.
    det = work[n - 1][n - 1]
    return Fraction(-det if swaps % 2 else det, prod([d for _, d in cleared]))


def _gram_of(vectors: Sequence[Vector]) -> Matrix:
    """``sum(v v^T)`` over the vectors: ``A^T A`` for A with them as rows."""
    n = range(len(vectors[0]))
    return tuple(tuple(sum(v[i] * v[j] for v in vectors) for j in n) for i in n)


def invert_matrix(rows: Matrix) -> Matrix:
    """Exact inverse; raises ShapeError on singular input.

    Column j of ``A^-1`` is the solution of ``A y = e_j``: one batched
    solve (:func:`_solve_many`) over the columns of A for every identity
    column at once.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ShapeError("inverse needs a square matrix")
    try:
        columns = _solve_many(list(map(_cleared, zip(*rows))), [
            ([int(i == j) for j in range(n)], 1) for i in range(n)])
        return tuple(zip(*[[Fraction(a, D) for a in N] for N, D in columns]))
    except DependentFrameError:
        raise ShapeError("matrix is singular") from None


# ---------------------------------------------------------------------------
# value classes


class _Value:
    """Base of the immutable value classes, with a frozen dataclass's
    behaviour.

    A subclass names its fields in ``_fields`` and its ``__init__`` writes
    them with ``__dict__.update``; assigning or deleting an attribute then
    raises AttributeError.  Equality is field-wise and only between
    instances of one class, the hash is that of the field tuple, and the
    repr names every field.  Anything else kept in ``__dict__`` (a cached
    property, a derived table) is not a field and takes no part in these.

    Fields are written with ``update``, not ``__dict__[name] = value``: on
    CPython 3.11 and 3.12 an instance dict whose first key is set that way
    stays a split dict, and attribute reads on it ran about 2x slower.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    @classmethod
    def _trusted(cls: type[_V], **fields: object) -> _V:
        """An instance from ``fields``, one per name in ``_fields``, without
        ``__init__``'s checks: its class docstring says what callers prove."""
        obj = object.__new__(cls)
        obj.__dict__.update(fields)
        return obj

    def _values(self) -> tuple:
        return tuple([self.__dict__[name] for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(self._fields, self._values())
        )
        return f"{type(self).__qualname__}({fields})"


# ---------------------------------------------------------------------------
# frames


class Frame(_Value):
    """An ordered tuple of linearly independent vectors of one dimension.

    Independence is checked exactly at construction, so holding a Frame is
    proof of it.  Library code that has just proved independence another
    way (a nonzero determinant, a rank test, Gram-Schmidt) passes the
    Fraction vectors to the private :meth:`_trusted` instead.  Instances
    are immutable and hashable; equality is entrywise and exact.  The hash
    of each vector, from integer ratios (:func:`_vector_hash`), is computed
    once, on first use of :attr:`slot_hashes` or ``hash()``, and kept on
    the instance (a frame that is never hashed carries nothing extra); the
    frame's hash combines those ints.  A cached hash only picks a bucket:
    ``==`` still compares every entry.
    """

    _fields = ("vectors",)

    def __init__(self, vectors: tuple[Vector, ...]) -> None:
        self.__dict__.update(vectors=vectors)
        self.__post_init__()

    def __post_init__(self) -> None:
        vectors = tuple(as_vector(v) for v in self.vectors)
        self.__dict__.update(vectors=vectors)
        if len(vectors) < 2:
            raise ShapeError("a frame needs at least two vectors")
        n = _dimension(vectors)
        if len(vectors) > n:
            raise ShapeError(
                f"{len(vectors)} vectors cannot be independent in dimension {n}"
            )
        if matrix_rank(vectors) < len(vectors):
            raise DependentFrameError(
                f"frame vectors are linearly dependent: {_shown(vectors)}"
            )

    @property
    def dim(self) -> int:
        """Ambient dimension n."""
        return len(self.vectors[0])

    @property
    def size(self) -> int:
        """Number of vectors m."""
        return len(self.vectors)

    def __len__(self) -> int:
        return len(self.vectors)

    def __iter__(self) -> Iterator[Vector]:
        return iter(self.vectors)

    def __getitem__(self, index: int) -> Vector:
        return self.vectors[index]

    @cached_property
    def slot_hashes(self) -> tuple[int, ...]:
        """``_vector_hash(v)`` for each vector ``v``, once per frame."""
        return tuple(map(_vector_hash, self.vectors))

    def __hash__(self) -> int:
        return hash(self.slot_hashes)


def frame_of(*vectors: Iterable[RationalLike]) -> Frame:
    """Shorthand: ``frame_of((1, 0), (1, 1))``."""
    return Frame(vectors)


def is_independent(vectors: Sequence[Sequence[RationalLike]]) -> bool:
    """True iff the vectors are linearly independent over the rationals.

    More vectors than the ambient dimension always returns False.  Raises
    ShapeError when the vectors disagree on dimension or the sequence is
    empty.
    """
    vs = [as_vector(v) for v in vectors]
    if not vs:
        raise ShapeError("independence of an empty sequence is undefined here")
    return len(vs) <= _dimension(vs) and matrix_rank(vs) == len(vs)


def _outside_span(point: Sequence[Fraction]) -> SpanMembershipError:
    """The one error for a point outside a frame's span."""
    return SpanMembershipError(f"point {_shown(point)} is outside the frame's span")


def span_contains(frame: Frame, x: Vector) -> bool:
    """True iff ``x`` lies in the span of the frame (exact rank test).

    A full frame (as many vectors as the dimension) is independent, so it
    spans all of Q^n and any point of the right length lies in it: no
    elimination runs.
    """
    x = as_vector(x)
    if len(x) != frame.dim:
        raise ShapeError(f"point has dimension {len(x)}, frame has {frame.dim}")
    if frame.size == frame.dim:
        return True
    return matrix_rank(list(frame.vectors) + [x]) == frame.size


def solve_coordinates(frame: Frame, x: Vector) -> Coordinates:
    """The unique coefficients expanding ``x`` over the frame.

    Returns ``(c_1, ..., c_m)`` with ``x == sum(c_k * a_k)``, exactly.
    Raises SpanMembershipError when ``x`` is outside the span.
    """
    N, D = _solve_many(list(map(_cleared, frame.vectors)), [_cleared(x)])[0]
    return tuple([Fraction(n, D) for n in N])


def _solve_many(
    cleared: Sequence[tuple[list[int], int]],
    points: Sequence[tuple[list[int], int]],
) -> list[tuple[list[int], int]]:
    """:func:`solve_coordinates` of each point over a frame, from one
    elimination, as ints ``(N, D)``: ``c_k == N[k] / D``, ``D != 0``, not
    reduced.  The frame's vectors and the points all come in one form,
    each cleared by :func:`_cleared` to ``(U, d)``, so a caller that also
    reads a vector's or a point's integer row clears it once.  The columns
    are the vectors' rows ``U_k``, augmented with every point's, and solve
    to ``c_k * d_x / d_k``.  The frame is independent iff its m columns
    are the first m pivots; the first point outside the span raises
    SpanMembershipError.  With no points nothing is eliminated.
    """
    if not points:
        return []
    m, n = len(cleared), len(cleared[0][0])
    for xn, _ in points:
        if len(xn) != n:
            raise ShapeError(f"point has dimension {len(xn)}, frame has {n}")
    rows = [list(row) for row in zip(*[U for U, _ in (*cleared, *points)])]
    pivots, _ = _bareiss(rows)
    if len(pivots) < m or pivots[m - 1] != m - 1:
        # Only a frame built with Frame._trusted, or a singular matrix that
        # invert_matrix was given, can get here.
        raise DependentFrameError("frame vectors are linearly dependent")
    det = rows[m - 1][m - 1]
    below = rows[m:]  # zero in the frame's columns: a point must be too
    solved = []
    for j, (xn, xd) in enumerate(points, m):
        if below and any(row[j] for row in below):
            raise _outside_span([Fraction(a, xd) for a in xn])
        # Back substitution: out / det solves column j's scaled system.
        out = [0] * m
        for r in range(m - 1, -1, -1):
            row = rows[r]
            s = det * row[j]
            for c in range(r + 1, m):
                s -= row[c] * out[c]
            out[r] = s // row[r]
        solved.append(([a * d for a, (_, d) in zip(out, cleared)], det * xd))
    return solved


# ---------------------------------------------------------------------------
# seeded sampling


def _check_seed(seed: int) -> None:
    """Seeds live in [0, 2^64).  One outside would alias one inside:
    ``derive_seed`` works modulo 2^64, and ``random.Random`` reads a seed
    by its absolute value."""
    if not 0 <= seed <= _MASK64:
        raise PreconditionError(f"seed {_shown(seed)} is outside [0, 2^64)")


def _check_nonnegative(**counts: int) -> None:
    """A negative count or bound would give a vacuous result: ShapeError."""
    for name, count in counts.items():
        if count < 0:
            raise ShapeError(f"{name} must be nonnegative, got {_shown(count)}")


def _mix64(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, *indices: int) -> int:
    """Mix trial indices into a master seed (splitmix64 steps).

    Gives decorrelated per-trial streams, so work split across workers by
    index reproduces the single-threaded output byte for byte.
    """
    _check_seed(seed)
    z = seed
    for idx in indices:
        z = (z + (idx + 1) * 0x9E3779B97F4A7C15) & _MASK64
        z = _mix64(z)
    return z


def sample_frame(dim: int, m: int, bound: int, seed: int) -> Frame:
    """Draw a random frame with integer entries in [-bound, bound].

    Deterministic for a fixed seed.  Resamples until the vectors are
    independent; after SAMPLING_CAP failed draws raises GenerationError.
    Each draw is ranked as ints (:func:`_draw_frame`); Fractions are built
    for the accepted one.
    """
    return Frame._trusted(vectors=tuple(
        tuple(map(Fraction, row)) for row in _draw_frame(dim, m, bound, seed)))


def _draw_frame(dim: int, m: int, bound: int, seed: int) -> list[list[int]]:
    """:func:`sample_frame`'s frame as integer rows: the one draw loop."""
    if not 2 <= m <= dim:
        raise ShapeError(f"need 2 <= m <= dim, got m={_shown(m)}, dim={_shown(dim)}")
    _check_nonnegative(bound=bound)
    _check_seed(seed)
    rng = random.Random(seed)
    for _ in range(SAMPLING_CAP):
        draw = [[rng.randint(-bound, bound) for _ in range(dim)] for _ in range(m)]
        if matrix_rank(draw) == m:
            return draw
    raise GenerationError(
        f"no independent frame after {SAMPLING_CAP} draws "
        f"(dim={dim}, m={m}, bound={bound})"
    )


def sample_coefficients(m: int, bound: int, seed: int) -> Coordinates:
    """Draw m integer coefficients in [-bound, bound], deterministically."""
    return tuple(map(Fraction, _draw_coefficients(m, bound, seed)))


def _draw_coefficients(m: int, bound: int, seed: int) -> list[int]:
    """:func:`sample_coefficients`'s coefficients as ints."""
    _check_nonnegative(m=m, bound=bound)
    _check_seed(seed)
    rng = random.Random(seed)
    return [rng.randint(-bound, bound) for _ in range(m)]


def sample_span_point(frame: Frame, bound: int, seed: int) -> Vector:
    """Draw a point of the frame's span: the combination of its vectors with
    the coefficients :func:`sample_coefficients` draws for ``seed``.

    Deterministic for a fixed seed; ``span_contains(frame, result)`` holds
    by construction.  The coefficients are the point's coordinates over
    the frame, unique as the frame is independent.
    """
    return linear_combination(frame.vectors,
                              _draw_coefficients(frame.size, bound, seed))
