"""Exact-arithmetic orthogonality checks without a fixed inner product.

The library realizes one idea at finite scale: a frame is orthogonal
precisely when each coordinate functional factors through the projection
onto its own slot vector and the point.  Everything runs over rationals,
so every verdict is exact and every rejection ships a re-checkable
counterexample.

The package root exports the README tour, the error classes and the
acceptance suite's names; every other helper is imported from its own
module (``orthocheck.linalg``, ``.inner_product``, ``.dependence``,
``.maximality``, ``.serialize``).
"""

from .errors import (
    ChainOrderError,
    DefinitenessError,
    DependentFrameError,
    DuplicatePointError,
    GenerationError,
    NoViolationError,
    OrthoError,
    OutputLimitError,
    PreconditionError,
    RelationParseError,
    ShapeError,
    SpanMembershipError,
    SymmetryError,
    ZeroVectorError,
)
from .linalg import (
    Frame,
    derive_seed,
    frame_of,
    linear_combination,
    sample_coefficients,
    sample_frame,
    sample_span_point,
    solve_coordinates,
)
from .inner_product import (
    GramInnerProduct,
    evaluate,
    frame_adapted_inner_product,
    gram_schmidt,
    identity_inner_product,
    is_orthogonal_tuple,
    sample_inner_product,
    verify_projection_equivalence,
)
from .dependence import (
    Relation,
    RelationPoint,
    build_orthogonal_relation,
    factor_check,
    relation_point,
)
from .maximality import (
    chain_union_check,
    exhaustive_candidates_2d,
    sample_chain,
    verify_orthogonal_maximality,
)
from .serialize import canonical_dumps, relation_to_json

__version__ = "0.1.0"

__all__ = [
    "ChainOrderError",
    "DefinitenessError",
    "DependentFrameError",
    "DuplicatePointError",
    "Frame",
    "GenerationError",
    "GramInnerProduct",
    "NoViolationError",
    "OrthoError",
    "OutputLimitError",
    "PreconditionError",
    "Relation",
    "RelationParseError",
    "RelationPoint",
    "ShapeError",
    "SpanMembershipError",
    "SymmetryError",
    "ZeroVectorError",
    "build_orthogonal_relation",
    "canonical_dumps",
    "chain_union_check",
    "derive_seed",
    "evaluate",
    "exhaustive_candidates_2d",
    "factor_check",
    "frame_adapted_inner_product",
    "frame_of",
    "gram_schmidt",
    "identity_inner_product",
    "is_orthogonal_tuple",
    "linear_combination",
    "relation_point",
    "relation_to_json",
    "sample_chain",
    "sample_coefficients",
    "sample_frame",
    "sample_inner_product",
    "sample_span_point",
    "solve_coordinates",
    "verify_orthogonal_maximality",
    "verify_projection_equivalence",
]
