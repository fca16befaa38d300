"""Gram-matrix inner products, orthogonality, and adapted constructions.

An inner product is represented by its Gram matrix G: the form is
``<x, y> = x^T G y``.  Validation is exact: symmetry entrywise, positive
definiteness by Sylvester's criterion (all leading principal minors
strictly positive, read off one integer elimination pass), no eigenvalue
machinery and no tolerances anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul
from typing import Iterator, Sequence

from .errors import (
    DefinitenessError,
    PreconditionError,
    ShapeError,
    SymmetryError,
    ZeroVectorError,
    _shown,
)
from .linalg import (
    Frame,
    Matrix,
    Vector,
    _Value,
    _bareiss,
    _cleared,
    _combine,
    _draw_coefficients,
    _draw_frame,
    _gram_of,
    as_vector,
    derive_seed,
    invert_matrix,
    sample_frame,
    solve_coordinates,
)


class GramInnerProduct(_Value):
    """A symmetric positive definite matrix defining ``<x, y> = x^T G y``.

    Entries may be ints, ``p/q`` strings or Fractions, coerced row by row
    with ``as_vector``.  Construction validates exactly (SymmetryError, or
    DefinitenessError carrying the index of the first failing minor), so
    holding an instance is proof the form is an inner product.  It also
    keeps G as an integer numerator matrix over one common denominator,
    which every inner product of this module uses; that cache takes no
    part in equality, hashing or repr.
    """

    _fields = ("matrix",)
    _numerators: tuple[tuple[int, ...], ...]
    _denominator: int

    def __init__(self, matrix: Matrix) -> None:
        self.__dict__.update(matrix=matrix)
        self.__post_init__()

    def __post_init__(self) -> None:
        rows = tuple(as_vector(row) for row in self.matrix)
        self.__dict__.update(matrix=rows)
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise ShapeError("Gram matrix must be square and nonempty")
        for i in range(n):
            for j in range(i + 1, n):
                if rows[i][j] != rows[j][i]:
                    raise SymmetryError(
                        f"matrix is not symmetric at ({i}, {j}): "
                        f"{_shown(rows[i][j])} vs {_shown(rows[j][i])}"
                    )
        flat, d = _cleared(e for row in rows for e in row)
        numerators = tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(n))
        self.__dict__.update(_numerators=numerators, _denominator=d)
        # Sylvester's criterion in one swap-free elimination: every row was
        # scaled by d, so the k-th pivot is d**k times the k-th leading
        # principal minor and has its sign.  A zero pivot ends the pass.
        work = [list(row) for row in numerators]
        pivots, _ = _bareiss(work, swap=False)
        for k in range(n):
            pivot = work[k][k] if k < len(pivots) else 0
            if pivot <= 0:
                minor = Fraction(pivot, d ** (k + 1))
                raise DefinitenessError(
                    f"leading principal minor {k + 1} is {_shown(minor)}, not positive",
                    minor_index=k + 1,
                )

    @property
    def dim(self) -> int:
        return len(self.matrix)


def identity_inner_product(dim: int) -> GramInnerProduct:
    """The standard dot product in the given dimension."""
    if dim < 1:
        raise ShapeError(f"dimension must be positive, got {_shown(dim)}")
    return GramInnerProduct([[int(i == j) for j in range(dim)] for i in range(dim)])


_Cleared = tuple[list[int], int]  # (U, s): a vector U / s, as _cleared gives
_Image = tuple[list[int], int, list[int]]


def _row(G: GramInnerProduct, v: Vector) -> _Cleared:
    """``v`` cleared to an integer row over a scale, as :func:`_cleared`
    does, after checking its dimension against the form's: the integer dot
    products would silently truncate a vector of another length."""
    U, s = _cleared(v)
    if len(U) != G.dim:
        raise ShapeError(
            f"vector of dimension {len(U)} against a {G.dim}x{G.dim} form"
        )
    return U, s


def _image(G: GramInnerProduct, v: Vector) -> _Image:
    """``v`` cleared once to ``(U, s, Gn U)``: an integer row U over a
    scale s (checked by :func:`_row`), and its image under G's numerator
    matrix Gn.

    With ``G = Gn / gd``, ``<v, w> = (Gn U_v) . U_w / (gd s_v s_w)``.  So
    every inner product of a cleared vector is one integer dot product,
    a zero test needs no Fraction at all, and in a ratio of two inner
    products gd cancels.
    """
    U, s = _row(G, v)
    return U, s, _gn(G, U)


def _gn(G: GramInnerProduct, U: list[int]) -> list[int]:
    """``Gn U``: an integer row of G's dimension under G's numerator matrix."""
    return [sum(map(mul, row, U)) for row in G._numerators]


def _first_nonorthogonal(images: list[_Image]) -> tuple[int, int] | None:
    """The lexicographically first (i, j), 1-based with i < j, such that
    ``<a_i, a_j> != 0``, read from the :func:`_image` of each vector; None
    when the vectors are pairwise orthogonal.  The one orthogonality scan."""
    for i, (_, _, GU) in enumerate(images):
        for j in range(i + 1, len(images)):
            if sum(map(mul, GU, images[j][0])):
                return (i + 1, j + 1)
    return None


def evaluate(G: GramInnerProduct, x: Vector, y: Vector) -> Fraction:
    """Exact value of ``x^T G y``.

    Computed over integers: with ``x = xn / xd``, ``y = yn / yd`` and
    ``G = Gn / gd``, the value is ``(Gn xn) . yn / (gd xd yd)``.
    """
    _, xd, GX = _image(G, x)
    yn, yd = _row(G, y)
    return Fraction(sum(map(mul, GX, yn)), G._denominator * xd * yd)


def first_nonorthogonal_pair(
    G: GramInnerProduct, frame: Frame
) -> tuple[int, int] | None:
    """Lexicographically smallest (i, j), 1-based, with ``<a_i, a_j> != 0``."""
    return _first_nonorthogonal([_image(G, v) for v in frame.vectors])


def is_orthogonal_tuple(G: GramInnerProduct, frame: Frame) -> bool:
    """True iff the frame vectors are pairwise orthogonal under G."""
    return first_nonorthogonal_pair(G, frame) is None


def coefficient_formula(G: GramInnerProduct, a: Vector, x: Vector) -> Fraction:
    """The projection coefficient ``<a, x> / <a, a>``, exactly.

    This is the closed form for a coordinate over an orthogonal frame:
    the value depends only on ``a`` and ``x``.
    """
    U, s, GU = _image(G, a)
    if not any(U):
        raise ZeroVectorError("projection coefficient onto the zero vector")
    # With a = U / s and x = xn / xd: (Gn U . xn) s / ((Gn U . U) xd).
    xn, xd = _row(G, x)
    return Fraction(sum(map(mul, GU, xn)) * s, sum(map(mul, GU, U)) * xd)


def verify_projection_equivalence(
    G: GramInnerProduct, frame: Frame, x: Vector
) -> bool:
    """Check that solved coordinates equal the projection formula, exactly.

    Requires the frame to be orthogonal under G (PreconditionError
    otherwise, before anything is solved) and ``x`` to lie in its span
    (:func:`solve_coordinates` raises SpanMembershipError).  For such
    inputs the two routes always agree.
    """
    if not is_orthogonal_tuple(G, frame):
        raise PreconditionError("frame is not orthogonal under the given form")
    return (tuple(coefficient_formula(G, a, x) for a in frame.vectors)
            == solve_coordinates(frame, x))


def _projection_checks(
    G: GramInnerProduct,
    cleared: Sequence[_Cleared],
    points: list[tuple[list[int], _Cleared]],
) -> list[bool]:
    """Whether each point ``(t, (xn, xd))`` of a frame cleared to
    ``[(U_k, s_k)]`` has the formula's coordinates, ``t_k == <a_k, x> /
    <a_k, a_k>`` with ``x = xn / xd``, as the integer compare
    ``(Gn U_k . xn) s_k == t_k (Gn U_k . U_k) xd``.  ``Gn U_k`` is derived
    from G here; it proves the frame orthogonal (PreconditionError, even
    with no points).  The frame is independent, so for a point drawn as
    ``sum(t_k a_k)`` this holds exactly when the formula's coordinates
    expand back to x.
    """
    images = [(U, s, _gn(G, U)) for U, s in cleared]
    if _first_nonorthogonal(images) is not None:
        raise PreconditionError("frame is not orthogonal under the given form")
    slots = [(s, GU, sum(map(mul, GU, U))) for U, s, GU in images]
    return [all(sum(map(mul, GU, xn)) * s == c * UU * xd
                for c, (s, GU, UU) in zip(t, slots))
            for t, (xn, xd) in points]


def _orthogonalize(
    G: GramInnerProduct, cleared: Sequence[_Cleared]
) -> list[_Cleared]:
    """Integer Gram-Schmidt over vectors, in the given order, each read in
    its one cleared form ``(U, s)`` with ``gcd(s, *U) == 1``: the one
    Gram-Schmidt loop.  Returns each output in the same form.

    The common denominator of G cancels in every projection coefficient
    ``<W, U> / <W, W>``, so projecting an earlier output W out of U is
    ``U <- <W,W> U - <W,U> W`` and ``s <- <W,W> s`` under G's numerator
    matrix, after which ``gcd(s, *U)`` is divided out: for a zero ``<W,U>``
    it is ``<W,W>``, and ``(U, s)`` comes back unchanged.  Each output but
    the last is mapped to ``Gn W`` once and keeps it with ``<W,W>``, so
    every later inner product is one dot product.
    """
    done: list[tuple[list[int], list[int], int]] = []  # W, Gn W, <W,W>
    out: list[_Cleared] = []
    for U, s in cleared:
        for W, GW, WW in done:
            WU = sum(map(mul, GW, U))
            U = [WW * a - WU * b for a, b in zip(U, W)]
            s *= WW
            g = gcd(s, *U)
            U = [a // g for a in U]
            s //= g
        out.append((U, s))
        if len(out) < len(cleared):
            GU = _gn(G, U)
            done.append((U, GU, sum(map(mul, GU, U))))
    return out


_ONE = Fraction(1)  # slot i's value over every candidate, one object


def _witness(
    G: GramInnerProduct, candidate: Frame, images: list[_Image], i: int, j: int
) -> tuple[Frame, Vector, tuple[Fraction, Fraction]]:
    """The orthogonal witness frame of a full-dimensional candidate, given
    its vectors' :func:`_image` under G and slots (i, j), with the collision
    point ``x = b_i + b_j`` and slot i's values of x over both frames.

    Gram-Schmidt runs on the images' ``(U, s)`` with slot i first, so its
    first output is ``b_i``, kept as the candidate's own vector object; the
    later outputs fill the other slots in order.  With ``b = U / s``, x is
    ``(U_i s_j + U_j s_i) / (s_i s_j)``, one Fraction per entry.  Slot i's
    value is 1 over the candidate, where x is ``e_i + e_j``, and
    ``<b_i, x> / <b_i, b_i> = 1 + ij s_i / (ii s_j)`` over the witness,
    with ``ii = Gn U_i . U_i`` and ``ij = Gn U_i . U_j``: the two agree
    exactly when ``<b_i, b_j> = 0``.
    """
    rest = [(U, s) for k, (U, s, _) in enumerate(images) if k != i - 1]
    outputs = _orthogonalize(G, [images[i - 1][:2], *rest])
    vectors = [tuple([Fraction(a, s) for a in U]) for U, s in outputs[1:]]
    vectors.insert(i - 1, candidate.vectors[i - 1])
    # Gram-Schmidt keeps prefix spans: the witness is independent too.
    witness = Frame._trusted(vectors=tuple(vectors))
    (U_i, s_i, GU_i), (U_j, s_j, _) = images[i - 1], images[j - 1]
    den = s_i * s_j
    x = tuple(Fraction(a * s_j + b * s_i, den) for a, b in zip(U_i, U_j))
    ii_s_j = sum(map(mul, GU_i, U_i)) * s_j
    values = (_ONE, Fraction(ii_s_j + sum(map(mul, GU_i, U_j)) * s_i, ii_s_j))
    return witness, x, values


def gram_schmidt(G: GramInnerProduct, vectors: Frame | Sequence[Vector]) -> Frame:
    """Orthogonalize a frame under G, exactly.

    Classical Gram-Schmidt without normalization: the first vector is kept
    as is, each later one has its projections onto the previous outputs
    subtracted.  Prefix spans are preserved.  A Frame is trusted; a raw
    sequence is validated as one first, so dependent input raises
    DependentFrameError.

    Runs over integers (:func:`_orthogonalize`).  The first output is the
    first input vector object; Fractions are built once per entry of each
    later output.
    """
    frame = vectors if isinstance(vectors, Frame) else Frame(tuple(vectors))
    outputs = _orthogonalize(G, [_row(G, v) for v in frame.vectors])
    later = [tuple([Fraction(a, s) for a in U]) for U, s in outputs[1:]]
    return Frame._trusted(vectors=(frame.vectors[0], *later))


def _orthogonal_samples(
    G: GramInnerProduct, m: int, frame_count: int, points_per_frame: int,
    bound: int, seed: int,
) -> Iterator[tuple[list[_Cleared], list[tuple[list[int], _Cleared]]]]:
    """The one seeded sampling layout, in ints: frame k is the draw of
    :func:`sample_frame` for the seed derived for (k, 0) made G-orthogonal,
    as ``[(U, s)]``; point t is ``(c, (xn, xd))``, the coefficients
    :func:`sample_coefficients` draws for the seed derived for (k, t + 1)
    and their combination, the point :func:`sample_span_point` makes."""
    for k in range(frame_count):
        rows = _draw_frame(G.dim, m, bound, derive_seed(seed, k, 0))
        frame = _orthogonalize(G, [(U, 1) for U in rows])
        yield frame, [(c, _combine(frame, c)) for c in (
            _draw_coefficients(m, bound, derive_seed(seed, k, t + 1))
            for t in range(points_per_frame))]


def _full_dimensional(frame: Frame, what: str) -> None:
    if frame.size != frame.dim:
        raise ShapeError(
            f"{what} needs m == dim, got m={frame.size}, dim={frame.dim}"
        )


def frame_adapted_inner_product(frame: Frame) -> GramInnerProduct:
    """An inner product making a full-dimensional frame orthonormal.

    With T the matrix whose columns are the frame vectors, returns
    ``G = T^-T T^-1 = (T T^T)^-1``, so that ``<a_i, a_j>_G`` is 1 when
    i == j and 0 otherwise.  Only full-dimensional frames (m == n) are
    supported; anything smaller raises ShapeError.
    """
    _full_dimensional(frame, "adapted inner product")
    return GramInnerProduct(invert_matrix(_gram_of(frame.vectors)))


def sample_inner_product(dim: int, bound: int, seed: int) -> GramInnerProduct:
    """Draw a random validated inner product, deterministically.

    Built as ``A^T A`` for a random nonsingular integer matrix A, which is
    symmetric positive definite by construction.
    """
    rows = sample_frame(dim, dim, bound, seed).vectors
    return GramInnerProduct(_gram_of(rows))
