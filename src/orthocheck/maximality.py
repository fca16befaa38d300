"""Orthogonal frames are maximal: the counterexample oracle and its sweep.

Relations built over orthogonal frames are not just factorizable but
maximally so: every non-orthogonal frame can be rejected by an explicit
witness, an orthogonal frame sharing the offending slot vector plus one
collision point where the two frames disagree on that slot's coordinate.
:func:`orthogonality_witness` constructs that certificate and
:func:`verify_orthogonal_maximality` sweeps its builder over candidate
frames, which also gives each rejection's two slot values.  The
relation-level side of maximality (chain unions) lives in
:mod:`orthocheck.dependence`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import Iterable

from .errors import NoViolationError
from .inner_product import (
    GramInnerProduct,
    _first_nonorthogonal,
    _full_dimensional,
    _image,
    _witness,
    first_nonorthogonal_pair,  # noqa: F401  perfbench's traced run wraps it here
)
from .linalg import Frame, Vector, _check_nonnegative, _per_object, _Value, as_vector


def orthogonality_witness(
    candidate: Frame, i: int, j: int, G: GramInnerProduct
) -> tuple[Frame, Vector]:
    """A certificate that slot i of a non-orthogonal frame is key-determined
    by nothing: an orthogonal frame sharing slot i, plus the collision point
    ``x = b_i + b_j``.  Slot i's coordinate of x differs over the two frames
    (see ``inner_product._witness``), so their entries share the projection
    key (i, b_i, x) and disagree in value; NoViolationError if
    ``<b_i, b_j> = 0``.  Only full-dimensional candidates (m == dim) are
    supported.
    """
    _full_dimensional(candidate, "witness construction")
    m = candidate.size
    if not 1 <= i <= m or not 1 <= j <= m or i == j:
        raise IndexError(f"need distinct slots in 1..{m}, got i={i}, j={j}")
    images = [_image(G, v) for v in candidate.vectors]
    witness, x, (value, other) = _witness(G, candidate, images, i, j)
    if value == other:
        raise NoViolationError(
            f"slots {i} and {j} are already orthogonal; no witness exists"
        )
    return witness, x


class MaximalityReport(_Value):
    """One candidate frame's verdict, as its certificate: accepted exactly
    when it carries no witness.  A rejected candidate carries the witness
    frame, the collision point, slot i's two disagreeing values and i; the
    canonical relation entries of both frames at the collision point
    reproduce the collision in the factorization scan.
    """

    _fields = ("candidate", "orthogonal_witness", "collision_point", "values",
               "index")

    def __init__(
        self,
        candidate: Frame,
        orthogonal_witness: Frame | None = None,
        collision_point: Vector | None = None,
        values: tuple[Fraction, Fraction] | None = None,
        index: int | None = None,
    ) -> None:
        self.__dict__.update(
            candidate=candidate, orthogonal_witness=orthogonal_witness,
            collision_point=collision_point, values=values, index=index,
        )

    @property
    def accepted(self) -> bool:
        return self.orthogonal_witness is None


def verify_orthogonal_maximality(
    G: GramInnerProduct, candidates: Iterable[Frame]
) -> tuple[MaximalityReport, ...]:
    """Sweep candidate frames: accept the orthogonal, refute the rest.

    Every candidate must be full-dimensional for the form (ShapeError
    otherwise; :func:`_image` checks each vector's length).  A rejected
    report shows that the relation built over G-orthogonal frames cannot
    absorb the candidate: its witness pair breaks factorization at the
    reported slot.  Each distinct vector object is cleared once per call
    (:func:`_per_object`): the grid's candidates share a few.
    """
    image = _per_object(partial(_image, G))
    reports = []
    for candidate in candidates:
        _full_dimensional(candidate, "maximality sweep")
        images = [image(v) for v in candidate.vectors]
        pair = _first_nonorthogonal(images)
        if pair is None:
            reports.append(MaximalityReport(candidate))
            continue
        i, j = pair
        witness, x, values = _witness(G, candidate, images, i, j)
        reports.append(MaximalityReport(candidate, witness, x, values, i))
    return tuple(reports)


def exhaustive_candidates_2d(bound: int) -> tuple[Frame, ...]:
    """Every independent ordered pair of integer vectors in dimension 2.

    Entries range over [-bound, bound]; enumeration order is lexicographic
    in ((a1, a2), (b1, b2)), so the sweep is reproducible.  A negative
    bound raises ShapeError rather than giving an empty, vacuous sweep.
    """
    _check_nonnegative(bound=bound)
    span = range(-bound, bound + 1)
    grid = [((a, b), as_vector((a, b))) for a in span for b in span]
    frames = []
    for (a1, a2), v in grid:
        for (b1, b2), w in grid:
            if a1 * b2 - a2 * b1:  # the independence proof, over ints
                frames.append(Frame._trusted(vectors=(v, w)))
    return tuple(frames)
