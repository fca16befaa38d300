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
)
from .linalg import (
    Frame,
    Matrix,
    Vector,
    _Value,
    _bareiss,
    _cleared,
    identity_matrix,
    invert_matrix,
    mat_mul,
    sample_frame,
    solve_coordinates,
    transpose,
)


class GramInnerProduct(_Value):
    """A symmetric positive definite matrix defining ``<x, y> = x^T G y``.

    Entries may be ints, fraction strings or Fractions; they are coerced
    to Fractions.  Construction validates exactly (SymmetryError, or
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
        rows = tuple(tuple(Fraction(e) for e in row) for row in self.matrix)
        self.__dict__.update(matrix=rows)
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise ShapeError("Gram matrix must be square and nonempty")
        for i in range(n):
            for j in range(i + 1, n):
                if rows[i][j] != rows[j][i]:
                    raise SymmetryError(
                        f"matrix is not symmetric at ({i}, {j}): "
                        f"{rows[i][j]} vs {rows[j][i]}"
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
                    f"leading principal minor {k + 1} is {minor}, not positive",
                    minor_index=k + 1,
                )

    @property
    def dim(self) -> int:
        return len(self.matrix)


def identity_inner_product(dim: int) -> GramInnerProduct:
    """The standard dot product in the given dimension."""
    if dim < 1:
        raise ShapeError(f"dimension must be positive, got {dim}")
    return GramInnerProduct(identity_matrix(dim))


_Image = tuple[list[int], int, list[int]]


def _row(G: GramInnerProduct, v: Vector) -> tuple[list[int], int]:
    """``v`` cleared to an integer row over a scale, as :func:`_cleared`
    does, after checking its dimension against the form's: the integer dot
    products would silently truncate a vector of another length."""
    U, s = _cleared(v)
    if len(U) != G.dim:
        raise ShapeError(
            f"vector of dimension {len(U)} against a {G.dim}x{G.dim} form"
        )
    return U, s


def _images(G: GramInnerProduct, vectors: Sequence[Vector]) -> list[_Image]:
    """Each vector cleared once to ``(U, s, Gn U)``: an integer row U over
    a scale s (checked by :func:`_row`), and its image under G's numerator
    matrix Gn.

    With ``G = Gn / gd``, ``<v, w> = (Gn U_v) . U_w / (gd s_v s_w)``.  So
    every inner product of a cleared vector is one integer dot product,
    a zero test needs no Fraction at all, and in a ratio of two inner
    products gd cancels.
    """
    rows = G._numerators
    out = []
    for v in vectors:
        U, s = _row(G, v)
        out.append((U, s, [sum(map(mul, row, U)) for row in rows]))
    return out


def _nonorthogonal_pairs(images: list[_Image]) -> Iterator[tuple[int, int]]:
    """Every (i, j), 1-based with i < j, such that ``<a_i, a_j> != 0``, in
    lexicographic order, read from the frame's :func:`_images`."""
    for i, (_, _, GU) in enumerate(images):
        for j in range(i + 1, len(images)):
            if sum(map(mul, GU, images[j][0])):
                yield (i + 1, j + 1)


def _coefficient(image: _Image, xn: list[int], xd: int) -> Fraction:
    """``<a, x> / <a, a>`` for the image of a nonzero ``a`` and ``x`` cleared
    to ``xn / xd``: ``(Gn U . xn) s / ((Gn U . U) xd)``."""
    U, s, GU = image
    return Fraction(sum(map(mul, GU, xn)) * s, sum(map(mul, GU, U)) * xd)


def evaluate(G: GramInnerProduct, x: Vector, y: Vector) -> Fraction:
    """Exact value of ``x^T G y``.

    Computed over integers: with ``x = xn / xd``, ``y = yn / yd`` and
    ``G = Gn / gd``, the value is ``(Gn xn) . yn / (gd xd yd)``.
    """
    ((_, xd, GX),) = _images(G, (x,))
    yn, yd = _row(G, y)
    return Fraction(sum(map(mul, GX, yn)), G._denominator * xd * yd)


def first_nonorthogonal_pair(
    G: GramInnerProduct, frame: Frame
) -> tuple[int, int] | None:
    """Lexicographically smallest (i, j), 1-based, with ``<a_i, a_j> != 0``."""
    return next(_nonorthogonal_pairs(_images(G, frame.vectors)), None)


def is_orthogonal_tuple(G: GramInnerProduct, frame: Frame) -> bool:
    """True iff the frame vectors are pairwise orthogonal under G."""
    return first_nonorthogonal_pair(G, frame) is None


def coefficient_formula(G: GramInnerProduct, a: Vector, x: Vector) -> Fraction:
    """The projection coefficient ``<a, x> / <a, a>``, exactly.

    This is the closed form for a coordinate over an orthogonal frame:
    the value depends only on ``a`` and ``x``.
    """
    (image,) = _images(G, (a,))
    if not any(image[0]):
        raise ZeroVectorError("projection coefficient onto the zero vector")
    return _coefficient(image, *_row(G, x))


def verify_projection_equivalence(
    G: GramInnerProduct, frame: Frame, x: Vector
) -> bool:
    """Check that solved coordinates equal the projection formula, exactly.

    Requires the frame to be orthogonal under G (PreconditionError
    otherwise) and ``x`` to lie in its span.  For such inputs the two
    routes always agree; this computes both and compares.  The frame and
    ``x`` are cleared once: every pair is checked for orthogonality and
    every formula value is built from the frame's integer images, while
    the solved side is the public :func:`solve_coordinates`.
    """
    images = _images(G, frame.vectors)
    if next(_nonorthogonal_pairs(images), None) is not None:
        raise PreconditionError("frame is not orthogonal under the given form")
    solved = solve_coordinates(frame, x)
    xn, xd = _row(G, x)
    return solved == tuple(_coefficient(image, xn, xd) for image in images)


def _orthogonalize(
    G: GramInnerProduct,
    images: Sequence[tuple[list[int], int, list[int] | None]],
) -> list[tuple[list[int], int] | None]:
    """Integer Gram-Schmidt over cleared inputs ``(U, s, Gn U)``, as
    :func:`_images` gives them, in the given order; ``Gn U`` may be None
    where the caller has not computed it.

    Output k is ``(U, s)``, an integer vector over a positive scale, or None
    when input k is orthogonal to every earlier output and so is its own
    output.  The common denominator of G cancels in every projection
    coefficient ``<W, U> / <W, W>``, so projecting an earlier output W out
    of U is ``U <- <W,W> U - <W,U> W`` and ``s <- <W,W> s`` under G's
    numerator matrix, after which ``gcd(s, *U)`` is divided out.  Each
    output but the last keeps ``Gn W`` and ``<W,W>``, so every later inner
    product is one dot product; an input that is its own output reuses its
    given image.
    """
    rows = G._numerators
    done: list[tuple[list[int], list[int], int]] = []  # W, Gn W, <W,W>
    out: list[tuple[list[int], int] | None] = []
    for U, s, GU in images:
        projected = False
        for W, GW, WW in done:
            WU = sum(map(mul, GW, U))
            if WU:
                U = [WW * a - WU * b for a, b in zip(U, W)]
                s *= WW
                g = gcd(s, *U)
                if g > 1:
                    U = [a // g for a in U]
                    s //= g
                projected = True
        out.append((U, s) if projected else None)
        if len(out) < len(images):
            if projected or GU is None:
                GU = [sum(map(mul, row, U)) for row in rows]
            done.append((U, GU, sum(map(mul, GU, U))))
    return out


def gram_schmidt(G: GramInnerProduct, vectors: Frame | Sequence[Vector]) -> Frame:
    """Orthogonalize a frame under G, exactly.

    Classical Gram-Schmidt without normalization: the first vector is kept
    as is, each later one has its projections onto the previous outputs
    subtracted.  Prefix spans are preserved.  A Frame is trusted; a raw
    sequence is validated as one first, so dependent input raises
    DependentFrameError.

    Runs over integers (:func:`_orthogonalize`), and Fractions are built
    once per output entry.
    """
    frame = vectors if isinstance(vectors, Frame) else Frame(tuple(vectors))
    if frame.dim != G.dim:
        raise ShapeError(
            f"frame of dimension {frame.dim} against a {G.dim}x{G.dim} form"
        )
    outputs = _orthogonalize(G, [(*_cleared(v), None) for v in frame.vectors])
    return Frame._trusted(tuple(
        v if out is None else tuple(Fraction(a, out[1]) for a in out[0])
        for v, out in zip(frame.vectors, outputs)
    ))


def _full_dimensional(frame: Frame, what: str) -> None:
    if frame.size != frame.dim:
        raise ShapeError(
            f"{what} needs m == dim, got m={frame.size}, dim={frame.dim}"
        )


def frame_adapted_inner_product(frame: Frame) -> GramInnerProduct:
    """An inner product making a full-dimensional frame orthonormal.

    With T the matrix whose columns are the frame vectors, returns
    ``G = T^-T T^-1``, so that ``<a_i, a_j>_G`` is 1 when i == j and 0
    otherwise.  Only full-dimensional frames (m == n) are supported;
    anything smaller raises ShapeError.
    """
    _full_dimensional(frame, "adapted inner product")
    columns = tuple(
        tuple(frame[j][r] for j in range(frame.size)) for r in range(frame.dim)
    )
    inv = invert_matrix(columns)
    return GramInnerProduct(mat_mul(transpose(inv), inv))


def sample_inner_product(dim: int, bound: int, seed: int) -> GramInnerProduct:
    """Draw a random validated inner product, deterministically.

    Built as ``A^T A`` for a random nonsingular integer matrix A, which is
    symmetric positive definite by construction.
    """
    rows = sample_frame(dim, dim, bound, seed).vectors
    return GramInnerProduct(mat_mul(transpose(rows), rows))
