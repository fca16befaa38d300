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
from fractions import Fraction
from functools import cached_property
from math import lcm, prod
from operator import mul
from typing import Iterable, Iterator, Sequence

from .errors import (
    DependentFrameError,
    GenerationError,
    ShapeError,
    SpanMembershipError,
)

RationalLike = Fraction | int | str
Vector = tuple[Fraction, ...]
Coordinates = tuple[Fraction, ...]
Matrix = tuple[tuple[Fraction, ...], ...]

#: Rejection-sampling attempts before giving up.  Degenerate parameters
#: (bound=0 can never yield an independent frame) fail loudly instead of
#: spinning forever.
SAMPLING_CAP = 10_000

_MASK64 = (1 << 64) - 1

# Entry types read as exact rationals without conversion.
_EXACT = (int, Fraction)


# ---------------------------------------------------------------------------
# vectors


def as_vector(entries: Iterable[RationalLike]) -> Vector:
    """Coerce an iterable of ints, fraction strings, or Fractions."""
    return tuple(e if type(e) is Fraction else Fraction(e) for e in entries)


def vec(*entries: RationalLike) -> Vector:
    """Shorthand: ``vec(3, "1/2")`` builds an exact vector."""
    return as_vector(entries)


def linear_combination(
    vectors: Sequence[Vector], coeffs: Sequence[RationalLike]
) -> Vector:
    """Return ``sum(c_k * v_k)``, exactly.

    Runs over ints: each vector is cleared to an integer row over its own
    scale ``d_k``, and the coefficients to numerators over one denominator
    ``e``.  With ``L`` the lcm of the ``d_k``, entry j of the result is
    ``sum(c_k * (L / d_k) * row_k[j]) / (L * e)``, one Fraction per entry.
    """
    if len(vectors) != len(coeffs):
        raise ShapeError(
            f"{len(coeffs)} coefficients for {len(vectors)} vectors"
        )
    if not vectors:
        raise ShapeError("empty combination has no dimension")
    dims = {len(v) for v in vectors}
    if len(dims) != 1:
        raise ShapeError(f"mixed vector dimensions: {sorted(dims)}")
    rows, scales = _integer_rows(vectors)
    numerators, e = _cleared(coeffs)
    L = lcm(*scales)
    weights = [c * (L // d) for c, d in zip(numerators, scales)]
    den = L * e
    return tuple(
        Fraction(sum(map(mul, weights, column)), den) for column in zip(*rows)
    )


# ---------------------------------------------------------------------------
# elimination kernel


def _cleared(entries: Iterable[RationalLike]) -> tuple[list[int], int]:
    """Integer numerators over the least common denominator of ``entries``.

    Returns ``(numerators, d)`` with ``entries[k] == numerators[k] / d`` and
    ``d >= 1``.  Ints and Fractions are read directly; anything else goes
    through ``Fraction`` first, so fraction strings are accepted too.
    """
    values = [e if type(e) in _EXACT else Fraction(e) for e in entries]
    d = lcm(*[e.denominator for e in values])
    if d == 1:
        return [e.numerator for e in values], 1
    return [e.numerator * (d // e.denominator) for e in values], d


def _bareiss(
    rows: list[list[int]], pivot_limit: int | None = None, swap: bool = True
) -> tuple[list[int], int]:
    """Integer-preserving forward elimination (single-step Bareiss), in place.

    Every entry stays an integer: it is always a minor of the input, so
    each division by the previous pivot is exact.  The pivot found in
    column ``c`` at step ``r`` is the determinant of the rows and columns
    pivoted on so far; without swaps these are the leading principal
    minors.  Pivot selection is nonzero-first: the lowest row index with a
    nonzero entry in the current column wins.  With ``swap=False``
    elimination stops at the first zero pivot instead.  Columns at
    ``pivot_limit`` and beyond are updated but never become pivots (used
    for augmented solves).  Returns ``(pivot_columns, swap_count)``.
    """
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    limit = n_cols if pivot_limit is None else pivot_limit
    pivots: list[int] = []
    swaps = 0
    prev = 1
    r = 0
    for c in range(limit):
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
        for i in range(r + 1, n_rows):
            row = rows[i]
            factor = row[c]
            if factor:
                row[c + 1:] = [
                    (pivot * a - factor * b) // prev
                    for a, b in zip(row[c + 1:], top[c + 1:])
                ]
            elif pivot != prev:
                row[c + 1:] = [pivot * a // prev for a in row[c + 1:]]
            row[c] = 0
        prev = pivot
        pivots.append(c)
        r += 1
    return pivots, swaps


def _back_substitute(rows: list[list[int]], m: int, col: int) -> list[int]:
    """Cramer numerators of the solved column ``col`` after :func:`_bareiss`.

    Needs pivots on the diagonal of the leading m x m block.  Returns
    integers ``N`` such that the solution is ``N[k] / rows[m-1][m-1]``.
    """
    det = rows[m - 1][m - 1]
    out = [0] * m
    for r in range(m - 1, -1, -1):
        row = rows[r]
        s = det * row[col] - sum(row[j] * out[j] for j in range(r + 1, m))
        out[r] = s // row[r]
    return out


def _integer_rows(
    vectors: Sequence[Sequence[RationalLike]],
) -> tuple[list[list[int]], list[int]]:
    """Clear denominators row by row: integer rows plus each row's scale.

    Scaling a row by a positive integer keeps its zero pattern, so the
    kernel picks the same pivots as it would on the rational rows.
    """
    cleared = [_cleared(v) for v in vectors]
    return [row for row, _ in cleared], [d for _, d in cleared]


def matrix_rank(vectors: Sequence[Sequence[RationalLike]]) -> int:
    """Exact rank of the matrix whose rows are ``vectors``."""
    rows, _ = _integer_rows(vectors)
    if not rows:
        return 0
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ShapeError("rows of unequal length")
    pivots, _ = _bareiss(rows)
    return len(pivots)


def determinant(rows: Sequence[Sequence[RationalLike]]) -> Fraction:
    """Exact determinant via integer-preserving elimination."""
    work, scales = _integer_rows(rows)
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
    return Fraction(-det if swaps % 2 else det, prod(scales))


def transpose(rows: Matrix) -> Matrix:
    return tuple(tuple(r[c] for r in rows) for c in range(len(rows[0])))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if len(a[0]) != len(b):
        raise ShapeError(f"cannot multiply {len(a)}x{len(a[0])} by {len(b)}x{len(b[0])}")
    cols = range(len(b[0]))
    return tuple(
        tuple(sum((row[k] * b[k][c] for k in range(len(b))), Fraction(0)) for c in cols)
        for row in a
    )


def identity_matrix(n: int) -> Matrix:
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n))
        for i in range(n)
    )


def invert_matrix(rows: Matrix) -> Matrix:
    """Exact inverse; raises ShapeError on singular input.

    Rows are cleared to integers (``S A`` for a diagonal scale S), the
    kernel eliminates ``[S A | I]``, and each identity column is solved by
    back substitution, so ``A^-1 = (S A)^-1 S``.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ShapeError("inverse needs a square matrix")
    if n == 0:
        return ()
    work, scales = _integer_rows(rows)
    for i, row in enumerate(work):
        row.extend(1 if i == j else 0 for j in range(n))
    pivots, _ = _bareiss(work, pivot_limit=n)
    if len(pivots) < n:
        raise ShapeError("matrix is singular")
    det = work[n - 1][n - 1]
    columns = [_back_substitute(work, n, n + j) for j in range(n)]
    return tuple(
        tuple(Fraction(columns[j][i] * scales[j], det) for j in range(n))
        for i in range(n)
    )


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
    way (a nonzero determinant, a rank test, Gram-Schmidt) builds through
    the private :meth:`_trusted` instead of proving it again.  Instances
    are immutable and hashable; equality is entrywise and exact.  The hash
    of each vector is computed once, on first use of :attr:`slot_hashes`
    or ``hash()``, and kept on the instance (a frame that is never hashed
    carries nothing extra); the frame's hash combines those ints.  A
    cached hash only picks a bucket: ``==`` still compares every entry.
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
        dims = {len(v) for v in vectors}
        if len(dims) != 1:
            raise ShapeError(f"mixed vector dimensions in frame: {sorted(dims)}")
        n = dims.pop()
        if len(vectors) > n:
            raise ShapeError(
                f"{len(vectors)} vectors cannot be independent in dimension {n}"
            )
        if not is_independent(vectors):
            raise DependentFrameError(
                f"frame vectors are linearly dependent: {vectors}"
            )

    @classmethod
    def _trusted(cls, vectors: tuple[Vector, ...]) -> "Frame":
        """A frame over Fraction vectors already known to be independent."""
        frame = object.__new__(cls)
        frame.__dict__.update(vectors=vectors)
        return frame

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
        """``hash(v)`` for each vector ``v``, computed once per frame."""
        return tuple(map(hash, self.vectors))

    def __hash__(self) -> int:
        return hash(self.slot_hashes)


def frame_of(*vectors: Iterable[RationalLike]) -> Frame:
    """Shorthand: ``frame_of((1, 0), (1, 1))``."""
    return Frame(tuple(as_vector(v) for v in vectors))


def is_independent(vectors: Sequence[Sequence[RationalLike]]) -> bool:
    """True iff the vectors are linearly independent over the rationals.

    More vectors than the ambient dimension always returns False.  Raises
    ShapeError when the vectors disagree on dimension or the sequence is
    empty.
    """
    vs = [as_vector(v) for v in vectors]
    if not vs:
        raise ShapeError("independence of an empty sequence is undefined here")
    dims = {len(v) for v in vs}
    if len(dims) != 1:
        raise ShapeError(f"mixed vector dimensions: {sorted(dims)}")
    n = dims.pop()
    m = len(vs)
    if m > n:
        return False
    return matrix_rank(vs) == m


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
    x = as_vector(x)
    n, m = frame.dim, frame.size
    if len(x) != n:
        raise ShapeError(f"point has dimension {len(x)}, frame has {n}")
    # Columns are the frame vectors, each cleared to integers by its own
    # scale d_k, augmented with x cleared by d_x.  The scaled system solves
    # to c_k * d_x / d_k.
    columns, scales = _integer_rows(frame.vectors)
    xn, xd = _cleared(x)
    rows = [[col[r] for col in columns] + [xn[r]] for r in range(n)]
    pivots, _ = _bareiss(rows, pivot_limit=m)
    if len(pivots) < m:
        # Only a frame built with Frame._trusted can get here.
        raise DependentFrameError("frame vectors are linearly dependent")
    for i in range(m, n):
        if rows[i][m] != 0:
            raise SpanMembershipError(f"{x} is not in the span of the frame")
    det = rows[m - 1][m - 1]
    numerators = _back_substitute(rows, m, m)
    return tuple(
        Fraction(num * d, det * xd) for num, d in zip(numerators, scales)
    )


# ---------------------------------------------------------------------------
# seeded sampling


def _mix64(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, *indices: int) -> int:
    """Mix trial indices into a master seed (splitmix64 steps).

    Gives decorrelated per-trial streams, so work split across workers by
    index reproduces the single-threaded output byte for byte.
    """
    z = seed & _MASK64
    for idx in indices:
        z = (z + (idx + 1) * 0x9E3779B97F4A7C15) & _MASK64
        z = _mix64(z)
    return z


def sample_frame(dim: int, m: int, bound: int, seed: int) -> Frame:
    """Draw a random frame with integer entries in [-bound, bound].

    Deterministic for a fixed seed.  Resamples until the vectors are
    independent; after SAMPLING_CAP failed draws raises GenerationError.
    """
    if not 2 <= m <= dim:
        raise ShapeError(f"need 2 <= m <= dim, got m={m}, dim={dim}")
    if bound < 0:
        raise ShapeError(f"bound must be nonnegative, got {bound}")
    rng = random.Random(seed)
    for _ in range(SAMPLING_CAP):
        candidate = [
            tuple(Fraction(rng.randint(-bound, bound)) for _ in range(dim))
            for _ in range(m)
        ]
        if is_independent(candidate):
            return Frame._trusted(tuple(candidate))
    raise GenerationError(
        f"no independent frame after {SAMPLING_CAP} draws "
        f"(dim={dim}, m={m}, bound={bound})"
    )


def sample_coefficients(m: int, bound: int, seed: int) -> Coordinates:
    """Draw m integer coefficients in [-bound, bound], deterministically."""
    if bound < 0:
        raise ShapeError(f"bound must be nonnegative, got {bound}")
    rng = random.Random(seed)
    return tuple(Fraction(rng.randint(-bound, bound)) for _ in range(m))


def sample_span_point(frame: Frame, bound: int, seed: int) -> Vector:
    """Draw a point of the frame's span: an integer-coefficient combination.

    Deterministic for a fixed seed; ``span_contains(frame, result)`` holds
    by construction.
    """
    coeffs = sample_coefficients(frame.size, bound, seed)
    return linear_combination(frame.vectors, coeffs)
