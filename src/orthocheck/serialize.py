"""JSON forms for every value the library or CLI exchanges.

One shared convention: rationals are strings ``"p/q"`` (``"/1"`` omitted),
vectors are arrays of rationals, frames and Gram matrices are arrays of
arrays.  ``canonical_dumps`` pins key order and strips insignificant
whitespace so equal values serialize to equal bytes; golden fixtures and
the CLI determinism contract both lean on that.

Parsers raise :class:`RelationParseError` with a dotted/indexed location
("points[3].frame[1][0]") for anything structurally wrong.  Semantic Gram
failures (asymmetry, a non-positive minor) propagate as their own error
types since they carry diagnostics a parse error would flatten.
Only the relation parsers import ``dependence``, when they run, so a
command that reads no relation does not load it.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Any

from .errors import OrthoError, OutputLimitError, RelationParseError
from .inner_product import GramInnerProduct
from .linalg import Frame, Vector

if TYPE_CHECKING:
    from .dependence import (
        Counterexample,
        FactorizationOutcome,
        ProjectionKey,
        Relation,
        RelationPoint,
    )
    from .maximality import MaximalityReport

RATIONAL_PATTERN = re.compile(r"[+-]?\d+(?:/\d+)?\Z", re.ASCII)


def canonical_dumps(obj: Any) -> str:
    """Serialize with sorted keys and no insignificant whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def rational_to_json(value: Fraction) -> str:
    value = value if type(value) is Fraction else Fraction(value)
    try:
        return str(value)
    except ValueError:
        # str() refuses more digits than the interpreter's int/str limit.
        raise OutputLimitError(
            f"a result value exceeds the {sys.get_int_max_str_digits()}-digit "
            "integer limit and cannot be written"
        ) from None


def rational_from_json(obj: Any, location: str = "rational") -> Fraction:
    if not isinstance(obj, str):
        raise RelationParseError(
            f"expected a \"p/q\" string, got {type(obj).__name__}", location
        )
    if not RATIONAL_PATTERN.match(obj):
        raise RelationParseError(f"not a rational literal: {obj!r}", location)
    num, slash, den = obj.partition("/")
    try:
        return Fraction(int(num), int(den)) if slash else Fraction(int(num))
    except ZeroDivisionError:
        raise RelationParseError(f"zero denominator: {obj!r}", location) from None
    except ValueError:
        # int() refuses more digits than the interpreter's int/str limit.
        digits = max(len(num.lstrip("+-")), len(den))
        raise RelationParseError(
            f"literal of {digits} digits exceeds the "
            f"{sys.get_int_max_str_digits()}-digit integer limit", location
        ) from None


def vector_to_json(v: Vector) -> list[str]:
    return [rational_to_json(entry) for entry in v]


def vector_from_json(obj: Any, location: str = "vector") -> Vector:
    if not isinstance(obj, list) or not obj:
        raise RelationParseError("expected a non-empty array of rationals", location)
    return tuple(
        rational_from_json(entry, f"{location}[{k}]") for k, entry in enumerate(obj)
    )


def frame_to_json(frame: Frame) -> list[list[str]]:
    return [vector_to_json(v) for v in frame]


def frame_from_json(obj: Any, location: str = "frame") -> Frame:
    if not isinstance(obj, list) or not obj:
        raise RelationParseError("expected a non-empty array of vectors", location)
    vectors = tuple(
        vector_from_json(entry, f"{location}[{k}]") for k, entry in enumerate(obj)
    )
    try:
        return Frame(vectors)
    except (OrthoError, ValueError) as exc:
        raise RelationParseError(str(exc), location) from exc


def gram_to_json(G: GramInnerProduct) -> list[list[str]]:
    return [vector_to_json(row) for row in G.matrix]


def gram_from_json(obj: Any, location: str = "gram") -> GramInnerProduct:
    """Parse a Gram matrix.  Structure errors become parse errors; symmetry
    and definiteness failures keep their own types (and the failing minor).
    """
    if not isinstance(obj, list) or not obj:
        raise RelationParseError("expected a non-empty array of rows", location)
    rows = tuple(
        vector_from_json(entry, f"{location}[{k}]") for k, entry in enumerate(obj)
    )
    if any(len(row) != len(rows) for row in rows):
        raise RelationParseError(
            f"expected a square {len(rows)}x{len(rows)} matrix", location
        )
    return GramInnerProduct(rows)


def relation_point_to_json(p: RelationPoint) -> dict[str, Any]:
    return {
        "frame": frame_to_json(p.frame),
        "point": vector_to_json(p.point),
        "values": vector_to_json(p.values),
    }


def relation_point_from_json(
    obj: Any, location: str = "point", frames: dict[str, Frame] | None = None
) -> RelationPoint:
    """Parse one relation point.

    ``frames`` interns parsed frames by the text of their JSON value (its
    ``repr``, a faithful literal for JSON values), so a frame repeated
    across points is parsed and validated once and then shared.  Only
    frames that parsed are stored: a malformed frame raises at its first
    occurrence, with that occurrence's location.
    """
    from .dependence import RelationPoint

    if not isinstance(obj, dict):
        raise RelationParseError("expected an object", location)
    missing = {"frame", "point", "values"} - obj.keys()
    if missing:
        raise RelationParseError(f"missing fields: {sorted(missing)}", location)
    frames = {} if frames is None else frames
    text = repr(obj["frame"])
    frame = frames.get(text)
    if frame is None:
        frame = frames[text] = frame_from_json(obj["frame"], f"{location}.frame")
    point = vector_from_json(obj["point"], f"{location}.point")
    values = vector_from_json(obj["values"], f"{location}.values")
    try:
        return RelationPoint(frame, point, values)
    except (OrthoError, ValueError) as exc:
        raise RelationParseError(str(exc), location) from exc


def relation_to_json(rel: Relation) -> list[dict[str, Any]]:
    return [relation_point_to_json(p) for p in rel.points]


def relation_from_json(obj: Any, location: str = "points") -> Relation:
    from .dependence import Relation

    if not isinstance(obj, list):
        raise RelationParseError("expected an array of relation points", location)
    frames: dict[str, Frame] = {}
    points = tuple(
        relation_point_from_json(entry, f"{location}[{k}]", frames)
        for k, entry in enumerate(obj)
    )
    try:
        return Relation(points)
    except (OrthoError, ValueError) as exc:
        raise RelationParseError(str(exc), location) from exc


def tables_to_json(
    tables: tuple[dict[ProjectionKey, Fraction], ...]
) -> list[list[dict[str, Any]]]:
    """Per-slot tables; the slot index is the outer list position + 1.

    Entries keep the first-seen scan order, so equal relations give
    byte-equal tables.  Keys share their vector and point objects across
    entries and slots, so each object is converted once per call (memo by
    identity) and its JSON list is shared by every entry that uses it.
    """
    memo: dict[int, list[str]] = {}

    def cached(v: Vector) -> list[str]:
        out = memo.get(id(v))
        if out is None:
            out = memo[id(v)] = vector_to_json(v)
        return out

    return [
        [
            {
                "vector": cached(key.vector),
                "point": cached(key.point),
                "value": rational_to_json(value),
            }
            for key, value in table.items()
        ]
        for table in tables
    ]


def counterexample_to_json(c: Counterexample) -> dict[str, Any]:
    first_value, second_value = c.values
    return {
        "index": c.index,
        "p": relation_point_to_json(c.first),
        "q": relation_point_to_json(c.second),
        "values": [rational_to_json(first_value), rational_to_json(second_value)],
    }


def outcome_to_json(outcome: FactorizationOutcome) -> dict[str, Any]:
    if outcome.counterexample is not None:
        return {"counterexample": counterexample_to_json(outcome.counterexample)}
    return {"tables": tables_to_json(outcome.tables)}


def maximality_report_to_json(report: MaximalityReport) -> dict[str, Any]:
    """Accepted reports carry candidate and verdict; rejected ones add the
    witness frame, collision point, and the two disagreeing values.
    """
    payload: dict[str, Any] = {
        "candidate": frame_to_json(report.candidate),
        "verdict": report.verdict,
    }
    if not report.accepted:
        payload["witness"] = frame_to_json(report.orthogonal_witness)
        payload["x"] = vector_to_json(report.collision_point)
        payload["value_candidate"] = rational_to_json(report.values[0])
        payload["value_witness"] = rational_to_json(report.values[1])
    return payload


def _load_json(path: str) -> Any:
    """Parse a UTF-8 JSON file; undecodable bytes and malformed JSON raise
    RelationParseError naming the file."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise RelationParseError(
            f"not UTF-8 text ({exc.reason})", f"{path} byte {exc.start}"
        ) from exc
    except json.JSONDecodeError as exc:
        raise RelationParseError(
            str(exc), f"{path} line {exc.lineno} column {exc.colno}"
        ) from exc
    except ValueError:
        # The decoder's int() refuses a JSON number above the int/str limit.
        raise RelationParseError(
            f"a JSON number exceeds the {sys.get_int_max_str_digits()}-digit "
            "integer limit", path
        ) from None


def load_relation(path: str) -> Relation:
    """Read a relation from a JSON file (array of {frame, point, values})."""
    return relation_from_json(_load_json(path), "points")


def load_gram(path: str) -> GramInnerProduct:
    """Read a Gram matrix from a JSON file (array of arrays of "p/q")."""
    return gram_from_json(_load_json(path), "gram")
