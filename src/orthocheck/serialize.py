"""JSON forms for every value the library or CLI exchanges.

One shared convention: rationals are strings ``"p/q"`` (``"/1"`` omitted),
vectors are arrays of rationals, frames and Gram matrices are arrays of
arrays.  ``canonical_dumps`` pins key order and strips insignificant
whitespace so equal values serialize to equal bytes; golden fixtures and
the CLI determinism contract both lean on that.

Parsers raise :class:`RelationParseError` with a dotted/indexed location
("points[3].frame[1][0]") for anything structurally wrong.  Each reader
takes its location as a tuple of parts, and a literal its index as well;
the string is joined (:func:`_at`) only in the ``raise`` of a failure.
Each call reads each distinct literal text once, through a table local
to the call.  Semantic Gram failures (asymmetry, a non-positive minor)
propagate as their own error types since they carry diagnostics a parse
error would flatten.  ``relation_from_json`` is the one relation reader.
It imports ``dependence`` when it runs, so a command that reads no
relation does not load it.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Iterable

from .errors import OrthoError, OutputLimitError, RelationParseError, _ends, _over_limit
from .inner_product import GramInnerProduct
from .linalg import Frame, Vector, _per_object, _rational

if TYPE_CHECKING:
    from .dependence import (
        Counterexample,
        FactorizationOutcome,
        ProjectionKey,
        Relation,
        RelationPoint,
    )
    from .maximality import MaximalityReport


def canonical_dumps(obj: Any) -> str:
    """Serialize with sorted keys and no insignificant whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def rational_to_json(value: Fraction) -> str:
    try:
        return str(value)
    except ValueError:
        # str() refuses more digits than the interpreter's int/str limit.
        raise OutputLimitError(
            _over_limit("a result value") + " and cannot be written") from None


def _at(where: tuple) -> str:
    """``where``'s parts joined: ``("points", 3, ".frame", 1)`` is
    ``"points[3].frame[1]"``.  Only a reader's ``raise`` calls it."""
    return "".join(part if type(part) is str else f"[{part}]" for part in where)


def _literal(obj: Any, literals: dict[str, Fraction], where: tuple,
             part: int | str) -> Fraction:
    """A ``"p/q"`` string at ``(*where, part)``, read by :func:`_rational`
    once per distinct text in the call's table ``literals``, failures not."""
    if not isinstance(obj, str):
        message = f"expected a \"p/q\" string, got {type(obj).__name__}"
        raise RelationParseError(message, _at((*where, part)))
    value = literals.get(obj)
    if value is None:
        try:
            value = literals[obj] = _rational(obj)
        except OrthoError as exc:
            raise RelationParseError(str(exc), _at((*where, part))) from None
    return value


def rational_from_json(obj: Any, location: str = "rational") -> Fraction:
    return _literal(obj, {}, (), location)


def vector_to_json(v: Vector) -> list[str]:
    return [rational_to_json(entry) for entry in v]


def _vector(obj: Any, literals: dict[str, Fraction], where: tuple) -> Vector:
    """A non-empty JSON array of rationals at ``where``."""
    if not isinstance(obj, list) or not obj:
        raise RelationParseError("expected a non-empty array of rationals", _at(where))
    entries = []
    for k, entry in enumerate(obj):
        entries.append(_literal(entry, literals, where, k))
    return tuple(entries)


def vector_from_json(obj: Any, location: str = "vector") -> Vector:
    return _vector(obj, {}, (location,))


def frame_to_json(frame: Frame) -> list[list[str]]:
    return [vector_to_json(v) for v in frame]


def _rows(obj: Any, literals: dict[str, Fraction], where: tuple, what: str
          ) -> tuple[Vector, ...]:
    """A non-empty JSON array of ``what``, vectors, at ``where``."""
    if not isinstance(obj, list) or not obj:
        raise RelationParseError(f"expected a non-empty array of {what}", _at(where))
    rows = []
    for k, row in enumerate(obj):
        rows.append(_vector(row, literals, (*where, k)))
    return tuple(rows)


def _frame(obj: Any, literals: dict[str, Fraction], where: tuple) -> Frame:
    vectors = _rows(obj, literals, where, "vectors")
    try:
        return Frame(vectors)
    except OrthoError as exc:
        raise RelationParseError(str(exc), _at(where)) from exc


def frame_from_json(obj: Any, location: str = "frame") -> Frame:
    return _frame(obj, {}, (location,))


def gram_to_json(G: GramInnerProduct) -> list[list[str]]:
    return [vector_to_json(row) for row in G.matrix]


def gram_from_json(obj: Any, location: str = "gram") -> GramInnerProduct:
    """Parse a Gram matrix.  Structure errors become parse errors; symmetry
    and definiteness failures keep their own types (and the failing minor).
    """
    rows = _rows(obj, {}, (location,), "rows")
    if any(len(row) != len(rows) for row in rows):
        raise RelationParseError(f"expected a square {len(rows)}x{len(rows)} matrix",
                                 location)
    return GramInnerProduct(rows)


def relation_point_to_json(p: RelationPoint) -> dict[str, Any]:
    return {
        "frame": frame_to_json(p.frame),
        "point": vector_to_json(p.point),
        "values": vector_to_json(p.values),
    }


def relation_to_json(rel: Relation) -> list[dict[str, Any]]:
    return [relation_point_to_json(p) for p in rel.points]


def relation_from_json(obj: Any, location: str = "points") -> Relation:
    """Parse a relation: an array of ``{frame, point, values}`` objects.

    One load reads each distinct literal text once (:func:`_literal`), and
    each distinct frame once: frames are interned by their rows as tuples,
    and a hit is used only if the stored JSON value ``==`` this one, so a
    frame repeated across points is parsed and validated once and then
    shared.  Only what parsed is stored: a malformed literal or frame
    raises at its first occurrence, with that occurrence's location.
    """
    from .dependence import Relation, RelationPoint

    if not isinstance(obj, list):
        raise RelationParseError("expected an array of relation points", location)
    literals: dict[str, Fraction] = {}
    frames: dict[Any, tuple[Any, Frame]] = {}
    points = []
    for k, entry in enumerate(obj):
        if not isinstance(entry, dict):
            raise RelationParseError("expected an object", f"{location}[{k}]")
        missing = {"frame", "point", "values"} - entry.keys()
        if missing:
            raise RelationParseError(
                f"missing fields: {sorted(missing)}", f"{location}[{k}]")
        frame = _interned(entry["frame"], frames, literals, (location, k, ".frame"))
        point = _vector(entry["point"], literals, (location, k, ".point"))
        values = _vector(entry["values"], literals, (location, k, ".values"))
        try:
            points.append(RelationPoint(frame, point, values))
        except OrthoError as exc:
            raise RelationParseError(str(exc), f"{location}[{k}]") from exc
    try:
        return Relation(points)
    except OrthoError as exc:
        raise RelationParseError(str(exc), location) from exc


def _interned(obj: Any, frames: dict[Any, tuple[Any, Frame]],
              literals: dict[str, Fraction], where: tuple) -> Frame:
    """The frame ``obj`` at ``where`` reads as, from ``frames`` when a frame
    with an equal JSON value was read before, keyed by its rows as tuples:
    a key that is hashable for every frame :func:`_frame` accepts."""
    key = None
    if type(obj) is list:
        # Only list rows become tuples: a long string row stays one value.
        key = tuple([tuple(row) if type(row) is list else row for row in obj])
    try:
        hit = frames.get(key)
    except TypeError:  # a row holding a list or an object is unhashable
        key = hit = None
    if hit is not None and hit[0] == obj:
        return hit[1]
    frame = _frame(obj, literals, where)
    frames[key] = (obj, frame)
    return frame


def tables_to_json(
    tables: tuple[dict[ProjectionKey, Fraction], ...]
) -> list[list[dict[str, Any]]]:
    """Per-slot tables; the slot index is the outer list position + 1.

    Entries keep the first-seen scan order, so equal relations give
    byte-equal tables.  Keys share their vector and point objects across
    entries and slots, so each object is converted once per call, and
    its JSON list, which serializes to the same bytes, is shared by every
    entry that uses it.
    """
    cached = _per_object(vector_to_json)
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


def maximality_report_to_json(report: MaximalityReport,
                              to_json=vector_to_json) -> dict[str, Any]:
    """Verdict ``"accepted"`` and the candidate for a report without a
    witness; ``"rejected"`` adds the witness frame, the collision point and
    the two disagreeing values.  ``to_json`` converts each candidate and
    witness vector.
    """
    candidate = [to_json(v) for v in report.candidate]
    if report.accepted:
        return {"candidate": candidate, "verdict": "accepted"}
    return {"candidate": candidate, "verdict": "rejected",
            "witness": [to_json(w) for w in report.orthogonal_witness],
            "x": vector_to_json(report.collision_point),
            "value_candidate": rational_to_json(report.values[0]),
            "value_witness": rational_to_json(report.values[1])}


def maximality_reports_to_json(reports: Iterable[MaximalityReport]
                               ) -> list[dict[str, Any]]:
    """Each report as :func:`maximality_report_to_json` writes it, with each
    distinct vector object converted once per call: grid candidates share a
    few vectors, and a witness keeps its candidate's slot vector."""
    to_json = _per_object(vector_to_json)
    return [maximality_report_to_json(report, to_json) for report in reports]


def _load_json(path: str) -> Any:
    """Parse a UTF-8 JSON file; undecodable bytes, malformed JSON and
    nesting deeper than the decoder recurses raise RelationParseError
    naming the file as :func:`_ends` shows it."""
    with open(path, "rb") as handle:
        data = handle.read()
    shown = _ends(path)
    try:
        return json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise RelationParseError(
            f"not UTF-8 text ({exc.reason})", f"{shown} byte {exc.start}"
        ) from exc
    except json.JSONDecodeError as exc:
        raise RelationParseError(
            str(exc), f"{shown} line {exc.lineno} column {exc.colno}"
        ) from exc
    except ValueError:
        # The decoder's int() refuses a JSON number above the int/str limit.
        raise RelationParseError(_over_limit("a JSON number"), shown) from None
    except RecursionError:
        raise RelationParseError("JSON nested too deeply to parse", shown) from None


def load_relation(path: str) -> Relation:
    """Read a relation from a JSON file (array of {frame, point, values})."""
    return relation_from_json(_load_json(path), "points")


def load_gram(path: str) -> GramInnerProduct:
    """Read a Gram matrix from a JSON file (array of arrays of "p/q")."""
    return gram_from_json(_load_json(path), "gram")
