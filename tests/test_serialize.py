import json
import sys
from fractions import Fraction as F
from pathlib import Path
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orthocheck import (
    DefinitenessError,
    Relation,
    RelationParseError,
    SymmetryError,
    factor_check,
    frame_of,
    identity_inner_product,
    relation_point,
    relation_to_json,
    verify_orthogonal_maximality,
)
from orthocheck.serialize import (
    RATIONAL_PATTERN,
    canonical_dumps,
    frame_from_json,
    frame_to_json,
    gram_from_json,
    gram_to_json,
    load_gram,
    load_relation,
    maximality_report_to_json,
    outcome_to_json,
    rational_from_json,
    rational_to_json,
    relation_from_json,
    vector_from_json,
    vector_to_json,
)

FIXTURES = Path(__file__).resolve().parent / "fixtures"
E2 = frame_of((1, 0), (0, 1))
SHEAR = frame_of((1, 0), (1, 1))


# --- rationals ---

def test_rational_forms():
    assert rational_to_json(F(3)) == "3"
    assert rational_to_json(F(-2, 3)) == "-2/3"
    assert rational_to_json(F(2, 4)) == "1/2"
    assert rational_from_json("7/2") == F(7, 2)
    assert rational_from_json("-4") == F(-4)
    assert rational_from_json("+4") == F(4)


@pytest.mark.parametrize("bad", ["1.5", " 3", "3 ", "a/b", "1//2", "", "--3"])
def test_rational_rejects_malformed(bad):
    with pytest.raises(RelationParseError):
        rational_from_json(bad)


def test_rational_rejects_non_string_and_zero_denominator():
    with pytest.raises(RelationParseError):
        rational_from_json(3)
    with pytest.raises(RelationParseError) as err:
        rational_from_json("3/0", "values[1]")
    assert "values[1]" in str(err.value)


@settings(max_examples=300, deadline=None)
@given(st.from_regex(RATIONAL_PATTERN, fullmatch=True))
@example("007")
@example("+3")
@example("-0")
@example("2/4")
@example("-0012/0018")
@example("+6/3")
@example("3/0")
@example("-0/000")
def test_rational_parse_matches_fraction_on_every_literal(text):
    _, slash, den = text.partition("/")
    if slash and int(den) == 0:
        with pytest.raises(RelationParseError, match="zero denominator"):
            rational_from_json(text)
        return
    value = rational_from_json(text)
    assert type(value) is F
    assert value == F(text)


@pytest.mark.parametrize("text", [
    "\u0661\u0662/\u0663",  # Arabic-Indic 12/3
    "\uff11/\uff12",  # fullwidth 1/2
    "\u096b",  # Devanagari 5
    "1/\u09e9",  # ASCII numerator, Bengali denominator
    "-\U0001d7d9",  # mathematical double-struck 1
])
def test_rational_rejects_non_ascii_digits(text):
    with pytest.raises(RelationParseError, match="not a rational literal"):
        rational_from_json(text, "point[0]")


def test_rational_over_the_int_digit_limit_is_a_parse_error():
    limit = sys.get_int_max_str_digits()
    assert rational_from_json("9" * limit) == F(10 ** limit - 1)
    with pytest.raises(RelationParseError) as err:
        rational_from_json("1/" + "7" * (limit + 1), "values[2]")
    assert err.value.location == "values[2]"
    assert f"{limit + 1} digits" in str(err.value)
    assert f"{limit}-digit integer limit" in str(err.value)


# --- vectors and frames ---

def test_vector_round_trip():
    v = (F(1, 2), F(-3), F(0))
    assert vector_from_json(vector_to_json(v)) == v


def test_vector_error_location():
    with pytest.raises(RelationParseError) as err:
        vector_from_json(["1", "x"], "point")
    assert err.value.location == "point[1]"


def test_frame_round_trip():
    assert frame_from_json(frame_to_json(SHEAR)) == SHEAR


def test_frame_parse_rejects_dependent_vectors():
    with pytest.raises(RelationParseError) as err:
        frame_from_json([["1", "0"], ["2", "0"]], "points[4].frame")
    assert err.value.location == "points[4].frame"


# --- gram matrices ---

def test_gram_round_trip():
    G = identity_inner_product(3)
    assert gram_from_json(gram_to_json(G)).matrix == G.matrix


def test_gram_structural_errors_are_parse_errors():
    with pytest.raises(RelationParseError):
        gram_from_json([["1", "0"], ["0"]])
    with pytest.raises(RelationParseError):
        gram_from_json("nope")


def test_gram_semantic_errors_keep_their_types():
    with pytest.raises(SymmetryError):
        gram_from_json([["1", "2"], ["3", "1"]])
    with pytest.raises(DefinitenessError) as err:
        gram_from_json([["1", "2"], ["2", "1"]])
    assert err.value.minor_index == 2


# --- relations ---

def sample_relations():
    rng = Random(5)
    pool = [E2, SHEAR, frame_of((2, 1), (1, 1))]
    rels = []
    for _ in range(25):
        points = []
        for _ in range(rng.randint(0, 5)):
            fr = rng.choice(pool)
            x = (F(rng.randint(-3, 3)), F(rng.randint(-3, 3), 2))
            points.append(relation_point(fr, x))
        rels.append(Relation.from_points(points))
    return rels


def test_relation_round_trip_exact():
    for rel in sample_relations():
        again = relation_from_json(relation_to_json(rel))
        assert again == rel


def test_relation_round_trip_byte_identical():
    for rel in sample_relations():
        text = canonical_dumps(relation_to_json(rel))
        again = canonical_dumps(relation_to_json(relation_from_json(json.loads(text))))
        assert again == text


def test_relation_parse_error_locations():
    with pytest.raises(RelationParseError) as err:
        relation_from_json([{"frame": [["1", "0"], ["0", "1"]], "point": ["1", "0"]}])
    assert err.value.location == "points[0]"
    assert "values" in str(err.value)

    with pytest.raises(RelationParseError) as err:
        relation_from_json(
            [
                {
                    "frame": [["1", "0"], ["0", "1"]],
                    "point": ["1", "bad"],
                    "values": ["1", "0"],
                }
            ]
        )
    assert err.value.location == "points[0].point[1]"


def test_relation_parse_validates_each_distinct_frame_once():
    rel = Relation.from_points(
        relation_point(fr, (k, 1)) for k in range(3) for fr in (E2, SHEAR)
    )
    again = relation_from_json(json.loads(canonical_dumps(relation_to_json(rel))))
    assert again == rel
    assert len({id(p.frame) for p in again}) == 2

    good = {"frame": [["1", "0"], ["0", "1"]], "point": ["1", "1"],
            "values": ["1", "1"]}
    dependent = {"frame": [["1", "0"], ["2", "0"]], "point": ["1", "0"],
                 "values": ["1", "0"]}
    with pytest.raises(RelationParseError) as err:
        relation_from_json([good, dependent, dict(dependent)])
    assert err.value.location == "points[1].frame"

    plane = {"frame": [["1", "0", "0"], ["0", "1", "0"]], "values": ["1", "1"]}
    with pytest.raises(RelationParseError) as err:  # shared frame, own span test
        relation_from_json([dict(plane, point=["1", "1", "0"]),
                            dict(plane, point=["1", "1", "1"])])
    assert err.value.location == "points[1]"


def test_relation_parse_runs_no_span_elimination_for_full_frames(monkeypatch):
    import orthocheck.linalg as linalg

    bareiss = linalg._bareiss
    calls = []

    def counted(rows, *args, **kwargs):
        calls.append(len(rows))
        return bareiss(rows, *args, **kwargs)

    obj = json.loads((FIXTURES / "relation4.json").read_text(encoding="utf-8"))
    monkeypatch.setattr(linalg, "_bareiss", counted)
    rel = relation_from_json(obj)
    assert len(rel.points) == 9
    # one elimination per distinct frame (its independence check), none per
    # point: a 4-vector frame spans all of Q^4
    assert len({id(p.frame) for p in rel.points}) == 3
    assert calls == [4, 4, 4]


def test_relation_parse_rejects_out_of_span_point():
    obj = [
        {
            "frame": [["1", "0", "0"], ["0", "1", "0"]],
            "point": ["0", "0", "1"],
            "values": ["0", "0"],
        }
    ]
    with pytest.raises(RelationParseError) as err:
        relation_from_json(obj)
    assert err.value.location == "points[0]"


def test_relation_parse_rejects_duplicates():
    entry = {
        "frame": [["1", "0"], ["0", "1"]],
        "point": ["1", "1"],
        "values": ["1", "1"],
    }
    with pytest.raises(RelationParseError) as err:
        relation_from_json([entry, dict(entry)])
    assert err.value.location == "points"


# --- outcomes and reports ---

def test_outcome_tables_json_shape():
    rel = Relation((relation_point(E2, (3, 5)),))
    payload = outcome_to_json(factor_check(rel))
    assert list(payload) == ["tables"]
    assert payload["tables"] == [
        [{"point": ["3", "5"], "value": "3", "vector": ["1", "0"]}],
        [{"point": ["3", "5"], "value": "5", "vector": ["0", "1"]}],
    ]


def test_outcome_counterexample_json_fixture():
    rel = Relation((relation_point(E2, (3, 5)), relation_point(SHEAR, (3, 5))))
    payload = outcome_to_json(factor_check(rel))
    ce = payload["counterexample"]
    assert ce["index"] == 1
    assert ce["values"] == ["3", "-2"]
    assert ce["p"]["frame"] == [["1", "0"], ["0", "1"]]
    assert ce["q"]["frame"] == [["1", "0"], ["1", "1"]]


def test_maximality_report_json_fields():
    I2 = identity_inner_product(2)
    rejected, accepted = verify_orthogonal_maximality(I2, [SHEAR, E2])
    rj = maximality_report_to_json(rejected)
    assert sorted(rj) == [
        "candidate", "value_candidate", "value_witness", "verdict", "witness", "x",
    ]
    assert rj["verdict"] == "rejected"
    assert rj["value_candidate"] == "1" and rj["value_witness"] == "2"
    assert rj["x"] == ["2", "1"]
    aj = maximality_report_to_json(accepted)
    assert sorted(aj) == ["candidate", "verdict"]


def test_canonical_dumps_is_sorted_and_compact():
    text = canonical_dumps({"b": [1, 2], "a": {"z": "1/2", "y": None}})
    assert text == '{"a":{"y":null,"z":"1/2"},"b":[1,2]}'


# --- file loading ---

def test_load_relation_and_gram(tmp_path):
    rel = Relation((relation_point(E2, (3, 5)),))
    rel_path = tmp_path / "rel.json"
    rel_path.write_text(canonical_dumps(relation_to_json(rel)), encoding="utf-8")
    assert load_relation(str(rel_path)) == rel

    gram_path = tmp_path / "gram.json"
    gram_path.write_text('[["1","0"],["0","1"]]', encoding="utf-8")
    assert load_gram(str(gram_path)).matrix == identity_inner_product(2).matrix


def test_load_relation_rejects_an_over_long_json_number(tmp_path):
    path = tmp_path / "number.json"
    digits = "1" * (sys.get_int_max_str_digits() + 1)
    path.write_text('[{"frame": [[' + digits + ', 0]]}]', encoding="utf-8")
    with pytest.raises(RelationParseError) as err:
        load_relation(str(path))
    assert err.value.location == str(path)
    assert "digit integer limit" in str(err.value)


def test_load_relation_reports_syntax_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('[{"frame": }]', encoding="utf-8")
    with pytest.raises(RelationParseError) as err:
        load_relation(str(path))
    assert "line 1" in err.value.location
    assert "column" in err.value.location
