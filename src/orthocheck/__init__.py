"""Exact-arithmetic orthogonality checks without a fixed inner product.

The library realizes one idea at finite scale: a frame is orthogonal
precisely when each coordinate functional factors through the projection
onto its own slot vector and the point.  Everything runs over rationals,
so every verdict is exact and every rejection ships a re-checkable
counterexample.

The package root exports the README tour, the error classes and the
acceptance suite's names; every other helper is imported from its own
module (``orthocheck.linalg``, ``.inner_product``, ``.dependence``,
``.maximality``, ``.serialize``).  Importing the package loads none of
them: a root name imports its home module the first time it is read
(PEP 562), so ``from orthocheck import Frame`` loads only what ``Frame``
needs.
"""

import importlib

__version__ = "0.1.0"

# Each exported name and the module that defines it.
_HOME = {
    **dict.fromkeys((
        "ChainOrderError", "DefinitenessError", "DependentFrameError",
        "DuplicatePointError", "GenerationError", "NoViolationError",
        "OrthoError", "OutputLimitError", "PreconditionError",
        "RelationParseError", "ShapeError", "SpanMembershipError",
        "SymmetryError", "ZeroVectorError",
    ), "errors"),
    **dict.fromkeys((
        "Frame", "derive_seed", "frame_of", "linear_combination",
        "sample_coefficients", "sample_frame", "sample_span_point",
        "solve_coordinates",
    ), "linalg"),
    **dict.fromkeys((
        "GramInnerProduct", "evaluate", "frame_adapted_inner_product",
        "gram_schmidt", "identity_inner_product", "is_orthogonal_tuple",
        "sample_inner_product", "verify_projection_equivalence",
    ), "inner_product"),
    **dict.fromkeys((
        "Relation", "RelationPoint", "build_orthogonal_relation",
        "factor_check", "relation_point",
    ), "dependence"),
    **dict.fromkeys((
        "chain_union_check", "exhaustive_candidates_2d", "sample_chain",
        "verify_orthogonal_maximality",
    ), "maximality"),
    **dict.fromkeys(("canonical_dumps", "relation_to_json"), "serialize"),
}

__all__ = sorted(_HOME)


def __getattr__(name: str) -> object:
    """Import ``name``'s home module and cache the value in the package."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_HOME[name]}")
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
