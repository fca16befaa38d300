"""Pinned parse errors: a few hundred malformed relations, frames, Gram
matrices, vectors and literals, drawn from a fixed seed, and the error
each one raises.

Each bad value (a malformed, non-ASCII or over-long literal, a bare
number, ``true``, ``null``, a list, an object) goes into each place of a
relation entry (a frame entry, a frame row, the frame, a point entry, the
point, a values entry, the values, the whole entry), at entries drawn
from ``fixtures/relation4.json`` and from a built 157-entry dim-3
relation whose frames are shared across points.  Missing fields, a
dependent frame, a repeated (frame, point) pair, short values and the
frame, Gram, vector and rational readers on their own complete the table.
Every input is a JSON value, not text, so no case depends on the
decoder's wording.

``fixtures/parse_errors.json`` holds, per case, its description and the
exception's type, ``str()``, ``location`` and cause type, with the
int/str digit limit written as ``<limit>``.  To print the table of the
current code (only for when an error is meant to change)::

    PYTHONPATH=src python tests/test_parse_errors.py > tests/fixtures/parse_errors.json
"""

import copy
import json
import sys
from pathlib import Path
from random import Random

from orthocheck import (
    OrthoError,
    build_orthogonal_relation,
    identity_inner_product,
    relation_to_json,
)
from orthocheck.serialize import (
    canonical_dumps,
    frame_from_json,
    gram_from_json,
    rational_from_json,
    relation_from_json,
    vector_from_json,
)

FIXTURES = Path(__file__).resolve().parent / "fixtures"
TABLE = FIXTURES / "parse_errors.json"
LIMIT = sys.get_int_max_str_digits()
BAD = {
    "underscore": "1_0",
    "zero-den": "3/0",
    "arabic-indic": "٣",
    "space": " 1",
    "empty": "",
    "two-slashes": "1/2/3",
    "number": 3,
    "true": True,
    "null": None,
    "list": [["1"]],
    "object": {"a": "1"},
    "over-limit": "9" * (LIMIT + 1),
}
PLACES = ("frame entry", "frame row", "frame", "point entry", "point",
          "values entry", "values", "entry")


def sources():
    """The relations the cases corrupt, by name, as JSON values."""
    rel = build_orthogonal_relation(identity_inner_product(3), 10, 16, 3, 7, m=3)
    return {
        "relation4": json.loads((FIXTURES / "relation4.json").read_text(encoding="utf-8")),
        "built3": json.loads(canonical_dumps(relation_to_json(rel))),
    }


def _put(obj, place, bad, rng):
    """Put ``bad`` at ``place`` of a drawn entry of ``obj``; the path."""
    k = rng.randrange(len(obj))
    entry = obj[k]
    i, j = rng.randrange(len(entry["frame"])), rng.randrange(len(entry["point"]))
    if place == "frame entry":
        entry["frame"][i][j] = bad
        return f"[{k}].frame[{i}][{j}]"
    if place == "frame row":
        entry["frame"][i] = bad
        return f"[{k}].frame[{i}]"
    if place in ("point entry", "values entry"):
        field = place.split()[0]
        j = rng.randrange(len(entry[field]))
        entry[field][j] = bad
        return f"[{k}].{field}[{j}]"
    if place == "entry":
        obj[k] = bad
        return f"[{k}]"
    entry[place] = bad
    return f"[{k}].{place}"


def cases():
    """(description, reader, JSON value) triples, drawn from one seed."""
    rng = Random(20090402)
    relations = sources()
    drawn = []
    for name, source in relations.items():
        for bad_name, bad in BAD.items():
            drawn.append((f"{name} = {bad_name}", relation_from_json,
                          copy.deepcopy(bad)))
            for place in PLACES:
                obj = copy.deepcopy(source)
                path = _put(obj, place, copy.deepcopy(bad), rng)
                drawn.append((f"{name}{path} = {bad_name}", relation_from_json, obj))
        for field in ("frame", "point", "values"):
            obj = copy.deepcopy(source)
            k = rng.randrange(len(obj))
            del obj[k][field]
            drawn.append((f"{name}[{k}] without {field}", relation_from_json, obj))
        obj = copy.deepcopy(source)
        k = rng.randrange(len(obj))
        rows = obj[k]["frame"]
        rows[-1] = list(rows[0])
        drawn.append((f"{name}[{k}].frame dependent", relation_from_json, obj))
        obj = copy.deepcopy(source)
        k = rng.randrange(len(obj))
        obj.insert(rng.randrange(k + 1, len(obj) + 1), copy.deepcopy(obj[k]))
        drawn.append((f"{name}[{k}] repeated", relation_from_json, obj))
        obj = copy.deepcopy(source)
        k = rng.randrange(len(obj))
        obj[k]["values"].pop()
        drawn.append((f"{name}[{k}].values short", relation_from_json, obj))
    gram = json.loads((FIXTURES / "gram4.json").read_text(encoding="utf-8"))
    frame = relations["relation4"][0]["frame"]
    for bad_name, bad in BAD.items():
        drawn.append((f"rational = {bad_name}", rational_from_json, bad))
        for reader, value in ((vector_from_json, ["1", "2", "3"]),
                              (frame_from_json, frame), (gram_from_json, gram)):
            what = reader.__name__.removesuffix("_from_json")
            drawn.append((f"{what} = {bad_name}", reader, copy.deepcopy(bad)))
            obj = copy.deepcopy(value)
            i = rng.randrange(len(obj))
            obj[i] = copy.deepcopy(bad)
            drawn.append((f"{what}[{i}] = {bad_name}", reader, obj))
            if reader is not vector_from_json:
                obj = copy.deepcopy(value)
                i, j = rng.randrange(len(obj)), rng.randrange(len(obj[0]))
                obj[i][j] = copy.deepcopy(bad)
                drawn.append((f"{what}[{i}][{j}] = {bad_name}", reader, obj))
    drawn.append(("gram not square", gram_from_json, [row[:3] for row in gram]))
    drawn.append(("gram asymmetric", gram_from_json, [["1", "2"], ["3", "1"]]))
    drawn.append(("gram indefinite", gram_from_json, [["1", "2"], ["2", "1"]]))
    drawn.append(("frame dependent", frame_from_json, [["1", "0"], ["2", "0"]]))
    return drawn


def outcome(reader, obj):
    """The error ``reader(obj)`` raises as a JSON object, the digit limit
    written as ``<limit>``; ``None`` for each field if it raises none."""
    try:
        reader(obj)
    except OrthoError as exc:
        cause = exc.__cause__
        return {
            "type": type(exc).__name__,
            "message": str(exc).replace(str(LIMIT + 1), "<limit+1>")
                               .replace(str(LIMIT), "<limit>"),
            "location": getattr(exc, "location", None),
            "cause": None if cause is None else type(cause).__name__,
        }
    return {"type": None, "message": None, "location": None, "cause": None}


def table():
    return [{"case": case, **outcome(reader, obj)} for case, reader, obj in cases()]


def test_every_drawn_malformed_input_raises_its_pinned_error():
    pinned = json.loads(TABLE.read_text(encoding="utf-8"))
    got = table()
    assert [row["case"] for row in got] == [row["case"] for row in pinned]
    assert [(row, want) for row, want in zip(got, pinned) if row != want] == []


if __name__ == "__main__":
    print("[\n" + ",\n".join(map(json.dumps, table())) + "\n]")
