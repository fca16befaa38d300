import argparse
import errno
import gc
import itertools
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from orthocheck.cli import (
    GRID_CAP,
    BOUND_CAP,
    SAMPLE_CAP,
    RunConfig,
    _build_parser,
    _cap_work,
    _run_config,
    main,
)

from test_golden import GOLDEN, pinned, run_digest

ROOT = Path(__file__).resolve().parent.parent

COUNTEREXAMPLE_RELATION = [
    {"frame": [["1", "0"], ["0", "1"]], "point": ["3", "5"], "values": ["3", "5"]},
    {"frame": [["1", "0"], ["1", "1"]], "point": ["3", "5"], "values": ["-2", "5"]},
]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


def test_main_calls_each_command_by_name_with_config_and_args(capsys,
                                                              monkeypatch):
    import orthocheck.cli as cli

    calls = {}

    def recorder(name):
        def cmd(*args):
            calls.setdefault(name, []).append(args)
            return {}, True
        return cmd

    for name in ("equivalence", "factor", "maximality", "chain", "pair-ip"):
        monkeypatch.setattr(cli, f"cmd_{name.replace('-', '_')}", recorder(name))
    for argv in (["equivalence"], ["factor"], ["maximality"], ["chain"],
                 ["pair-ip", "--a=1,0", "--b=0,1"]):
        code, report, _ = run_cli(capsys, *argv)
        assert (code, report["command"], report["payload"]) == (0, argv[0], {})
        [(config, args)] = calls[argv[0]]
        assert isinstance(config, RunConfig)
        assert isinstance(args, argparse.Namespace)
        assert args.command == argv[0]
    assert len(calls) == 5


def test_no_command_makes_cyclic_garbage(capsys):
    """Every command frees what it builds by reference counting alone: after
    a run the collector finds what it finds after building the parser,
    argparse's own cycles, and nothing more.  The count is compared, not
    pinned, since argparse's differs between Python versions."""
    # One run per command path: both maximality sweeps, a built and a loaded
    # factor scan, a small and the default equivalence run, chain and pair-ip.
    runs = [
        ("maximality", "--bound", "1"),
        ("maximality", "--bound", "3"),
        ("factor", "--frames", "1"),
        ("factor", "--frames", "12"),
        ("equivalence", "--frames", "1", "--points", "1"),
        ("equivalence", "--frames", "8", "--points", "4"),
        ("factor", "--input", str(ROOT / "tests" / "fixtures" / "relation4.json"),
         "--dim", "4", "--m", "4"),
        ("chain",),
        ("pair-ip", "--a=1,0", "--b=1,1"),
    ]
    enabled = gc.isenabled()
    gc.disable()
    try:
        for argv in runs:  # warm up: imports and first-call caches
            main(list(argv))
        capsys.readouterr()
        gc.collect()
        _build_parser()
        parser_only = gc.collect()
        for argv in runs:
            code = main(list(argv))
            capsys.readouterr()
            assert (code, gc.collect()) == (0, parser_only), argv
    finally:
        if enabled:
            gc.enable()


def test_equivalence_defaults(capsys):
    code, report, _ = run_cli(capsys, "equivalence")
    assert code == 0
    assert report["verdict"] == "pass"
    assert report["payload"] == {"failures": 0, "trials": 32}
    assert report["config"]["seed"] == 0


def test_equivalence_zero_frames(capsys):
    code, report, _ = run_cli(capsys, "equivalence", "--frames", "0")
    assert code == 0
    assert report["payload"] == {"failures": 0, "trials": 0}


GRAM4 = str(ROOT / "tests" / "fixtures" / "gram4.json")
EQUIVALENCE_SWEEP = ("equivalence", "--dim", "4", "--m", "3", "--frames", "3",
                     "--points", "4", "--bound", "3", "--seed", "11",
                     "--gram", GRAM4)


def test_equivalence_points_are_the_sampled_span_points(capsys, monkeypatch):
    """Frame k is ``gram_schmidt`` of ``sample_frame``'s draw, and its points
    are ``sample_span_point(frame_k, bound, s)`` with the coefficients
    ``sample_coefficients(m, bound, s)``, ``s`` the seed derived for
    (k, t + 1), handed over in order as integer forms."""
    import orthocheck.cli as cli
    from orthocheck import (derive_seed, gram_schmidt, sample_coefficients,
                            sample_frame, sample_span_point)
    from orthocheck.serialize import load_gram

    seen = []
    real = cli._projection_checks

    def recorded(G, cleared, points):
        points = list(points)
        seen.append((
            tuple(tuple(F(a, s) for a in U) for U, s in cleared),
            [(tuple(map(F, c)), tuple(F(a, xd) for a in xn))
             for c, (xn, xd) in points]))
        return real(G, cleared, points)

    monkeypatch.setattr(cli, "_projection_checks", recorded)
    code, report, _ = run_cli(capsys, *EQUIVALENCE_SWEEP)
    assert (code, report["payload"]) == (0, {"failures": 0, "trials": 12})
    G, expected = load_gram(GRAM4), []
    for k in range(3):
        frame = gram_schmidt(G, sample_frame(4, 3, 3, derive_seed(11, k, 0)))
        seeds = [derive_seed(11, k, t + 1) for t in range(4)]
        expected.append((frame.vectors, [
            (sample_coefficients(3, 3, s), sample_span_point(frame, 3, s))
            for s in seeds]))
    assert seen == expected
    assert any(e.denominator > 1 for _, points in seen for _, x in points for e in x)


def test_equivalence_runs_no_solve(capsys, monkeypatch):
    """``--frames 3 --points 4`` checks every point against the coordinates
    it was drawn with: no module's ``_solve_many`` is called."""
    import orthocheck.cli as cli
    import orthocheck.inner_product as inner_product
    import orthocheck.linalg as linalg

    solves = []

    def counted(real):
        def solve(cleared, points):
            solves.append(len(points))
            return real(cleared, points)
        return solve

    for module in (linalg, inner_product, cli):
        if "_solve_many" in vars(module):
            monkeypatch.setattr(module, "_solve_many", counted(module._solve_many))
    code, report, _ = run_cli(capsys, *EQUIVALENCE_SWEEP)
    assert (code, report["payload"]) == (0, {"failures": 0, "trials": 12})
    assert solves == []


def test_equivalence_counts_a_wrong_drawn_coordinate(capsys, monkeypatch):
    """The sweep compares every coordinate of every point: one drawn
    coordinate off by one, at one point of one frame, is one failure in
    as many trials."""
    import orthocheck.cli as cli

    real = cli._orthogonal_samples

    def perturbed(*args):
        for k, (frame, points) in enumerate(real(*args)):
            if k == 1:  # frame 1, point 2, coordinate 2
                c, x = points[2]
                points[2] = ([c[0], c[1] + 1, *c[2:]], x)
            yield frame, points

    monkeypatch.setattr(cli, "_orthogonal_samples", perturbed)
    code, report, _ = run_cli(capsys, *EQUIVALENCE_SWEEP)
    assert code == 1 and report["verdict"] == "fail"
    assert report["payload"] == {"failures": 1, "trials": 12}


def test_equivalence_counts_a_wrong_point_entry(capsys, monkeypatch):
    """A combination kernel that puts one entry of one point off by one is
    one failure in as many trials: the drawn coordinates no longer
    expand to the point the formula reads."""
    import orthocheck.inner_product as inner_product

    real = inner_product._combine
    calls = []

    def perturbed(cleared, coeffs):
        N, L = real(cleared, coeffs)
        calls.append(len(coeffs))
        if len(calls) == 7:  # frame 1, point 2, entry 1
            N = [N[0] + 1, *N[1:]]
        return N, L

    monkeypatch.setattr(inner_product, "_combine", perturbed)
    code, report, _ = run_cli(capsys, *EQUIVALENCE_SWEEP)
    assert calls == [3] * 12
    assert code == 1 and report["verdict"] == "fail"
    assert report["payload"] == {"failures": 1, "trials": 12}


@pytest.mark.parametrize("argv", [
    pytest.param(EQUIVALENCE_SWEEP, id="gram4"),
    pytest.param(("equivalence", "--dim", "5", "--m", "4"), id="identity5"),
])
def test_equivalence_builds_no_fraction_after_loading_the_form(capsys,
                                                               monkeypatch, argv):
    """From the draw to the verdict the sweep runs in integers: once the
    form is loaded, ``cmd_equivalence`` builds no Fraction at all."""
    import orthocheck.cli as cli

    real_new, real_load = F.__new__, cli.RunConfig.load_inner_product
    built, loaded = [], []

    def counted(cls, *args, **kwargs):
        if loaded:
            built.append(args)
        return real_new(cls, *args, **kwargs)

    def load(config):
        G = real_load(config)
        loaded.append(G)
        return G

    monkeypatch.setattr(F, "__new__", staticmethod(counted))
    monkeypatch.setattr(cli.RunConfig, "load_inner_product", load)
    code, report, _ = run_cli(capsys, *argv)
    assert code == 0 and report["payload"]["failures"] == 0
    assert len(loaded) == 1 and report["payload"]["trials"] > 0
    assert len(built) == 0


def test_equivalence_over_a_non_orthogonal_frame_is_a_precondition_error(
        capsys, monkeypatch):
    """A Gram-Schmidt that returns its input leaves the frame non-orthogonal,
    which the per-frame check refuses before reading any point."""
    import orthocheck.inner_product as inner_product

    monkeypatch.setattr(inner_product, "_orthogonalize",
                        lambda G, cleared: list(cleared))
    code, report, err = run_cli(capsys, "equivalence", "--dim", "3", "--m", "3",
                                "--frames", "2", "--points", "2")
    assert (code, report) == (2, None)
    assert err == "ortho: frame is not orthogonal under the given form\n"


@pytest.mark.parametrize("argv, products", [
    pytest.param(("equivalence", "--dim", "3", "--m", "3", "--frames", "2",
                  "--points", "2"), 2 * (2 + 3), id="equivalence3"),
    pytest.param(("factor", "--dim", "8", "--m", "8", "--frames", "12",
                  "--points", "16"), 12 * 7, id="factor8"),
])
def test_sampled_frames_map_each_vector_under_the_form_once(
        capsys, monkeypatch, argv, products):
    """Gram-Schmidt reads each drawn row as ``(U, 1)`` and maps each output
    but the last under G's numerator matrix once: m - 1 products per frame.
    The equivalence check then maps the m finished vectors once more."""
    import orthocheck.inner_product as inner_product

    real, calls = inner_product._gn, []

    def counted(G, U):
        calls.append(U)
        return real(G, U)

    monkeypatch.setattr(inner_product, "_gn", counted)
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0 and len(calls) == products


def test_payloads_are_byte_identical_across_runs(capsys):
    payloads = []
    for _ in range(2):
        code, report, _ = run_cli(capsys, "factor", "--seed", "9")
        assert code == 0
        payloads.append(json.dumps(report["payload"], sort_keys=True))
    assert payloads[0] == payloads[1]


def test_factor_counterexample_exits_one(capsys, tmp_path):
    path = tmp_path / "rel.json"
    path.write_text(json.dumps(COUNTEREXAMPLE_RELATION), encoding="utf-8")
    code, report, _ = run_cli(capsys, "factor", "--input", str(path))
    assert code == 1
    assert report["verdict"] == "fail"
    assert report["payload"]["counterexample"]["values"] == ["3", "-2"]


def test_factor_commands_hash_no_fraction(capsys, tmp_path, monkeypatch):
    """The benchmark's dim-8 factor runs, built and loaded, hash vectors by
    integer ratios only: ``Fraction.__hash__`` is never called."""
    from orthocheck import (build_orthogonal_relation, canonical_dumps,
                            identity_inner_product, relation_to_json)

    rel = build_orthogonal_relation(identity_inner_product(8), 12, 16,
                                    RunConfig.bound, RunConfig.seed, m=8)
    path = tmp_path / "relation8.json"
    path.write_text(canonical_dumps(relation_to_json(rel)), encoding="utf-8")
    calls = []
    fraction_hash = F.__hash__

    def counting_hash(self):
        calls.append(self)
        return fraction_hash(self)

    monkeypatch.setattr(F, "__hash__", counting_hash)
    payloads = []
    for argv in (("--frames", "12", "--points", "16"), ("--input", str(path))):
        code, report, _ = run_cli(capsys, "factor", "--dim", "8", "--m", "8", *argv)
        assert code == 0 and len(report["payload"]["tables"][0]) == 192
        payloads.append(report["payload"])
    assert calls == [] and payloads[0] == payloads[1]


def test_factor_empty_relation_file(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("[]", encoding="utf-8")
    code, report, _ = run_cli(capsys, "factor", "--input", str(path))
    assert code == 0
    assert report["payload"] == {"tables": []}


RELATION4 = "tests/fixtures/relation4.json"  # dim 4, m = 4


@pytest.mark.parametrize("flags, named", [
    ((), "--dim is 2 and --m is 2"),
    (("--dim", "4", "--m", "3"), "--dim is 4 and --m is 3"),
], ids=["default-flags", "dim4-m3"])
def test_factor_input_must_match_dim_and_m(capsys, monkeypatch, flags, named):
    monkeypatch.chdir(ROOT)
    code, report, err = run_cli(capsys, "factor", "--input", RELATION4, *flags)
    assert code == 2
    assert report is None
    assert RELATION4 in err and "dim=4, m=4" in err and named in err


def test_factor_input_rejects_gram(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code, report, err = run_cli(
        capsys, "factor", "--dim", "4", "--m", "4", "--input", RELATION4,
        "--gram", "/nonexistent.json",
    )
    assert code == 2
    assert report is None
    assert "--gram" in err and "--input" in err


def test_factor_empty_input_fits_any_flags(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("[]", encoding="utf-8")
    code, report, _ = run_cli(
        capsys, "factor", "--input", str(path), "--dim", "4", "--m", "3"
    )
    assert code == 0
    assert report["payload"] == {"tables": []}


def test_factor_missing_file_is_usage_error(capsys, tmp_path):
    code, report, err = run_cli(capsys, "factor", "--input", str(tmp_path / "no.json"))
    assert code == 2
    assert report is None
    assert "no.json" in err


def test_factor_parse_error_carries_location(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('[{"frame": [["1","0"],["2","0"]], "point": ["1","0"], '
                    '"values": ["1","0"]}]', encoding="utf-8")
    code, _, err = run_cli(capsys, "factor", "--input", str(path))
    assert code == 2
    assert "points[0].frame" in err


@pytest.mark.parametrize("text, message", [
    ("{}", "points: expected an array of relation points"),
    ("[1]", "points[0]: expected an object"),
], ids=["not-an-array", "entry-not-an-object"])
def test_factor_input_of_the_wrong_shape_is_usage_error(capsys, tmp_path, text,
                                                        message):
    path = tmp_path / "shape.json"
    path.write_text(text, encoding="utf-8")
    code, report, err = run_cli(capsys, "factor", "--input", str(path))
    assert (code, report) == (2, None)
    assert err == f"ortho: {message}\n"


LONG = "1" * (sys.get_int_max_str_digits() + 1)
LIMIT = f"exceeds the {sys.get_int_max_str_digits()}-digit integer limit"


def test_factor_input_over_long_literal_is_usage_error(capsys, tmp_path):
    path = tmp_path / "long.json"
    path.write_text(json.dumps([{"frame": [["1", "0"], ["0", "1"]],
                                 "point": ["1", LONG], "values": ["1", "1"]}]),
                    encoding="utf-8")
    code, report, err = run_cli(capsys, "factor", "--input", str(path))
    assert (code, report) == (2, None)
    assert err.startswith("ortho: points[0].point[1]: ")
    assert LIMIT in err


def test_gram_over_long_literal_is_usage_error(capsys, tmp_path):
    path = tmp_path / "gram.json"
    path.write_text(json.dumps([["1", "0"], ["0", f"1/{LONG}"]]),
                    encoding="utf-8")
    code, report, err = run_cli(capsys, "factor", "--gram", str(path))
    assert (code, report) == (2, None)
    assert err.startswith("ortho: gram[1][1]: ")
    assert LIMIT in err


def test_gram_minor_over_the_digit_limit_is_usage_error(capsys, tmp_path):
    # Entries inside the limit whose second leading minor, -a**2, is not.
    a = "7" * 4000
    path = tmp_path / "gram.json"
    path.write_text(json.dumps([[a, "0"], ["0", f"-{a}"]]), encoding="utf-8")
    code, report, err = run_cli(capsys, "equivalence", "--dim", "2", "--m", "2",
                                "--gram", str(path))
    assert (code, report) == (2, None)
    assert err.splitlines() == [
        "ortho: leading principal minor 2 is <a value over the "
        f"{sys.get_int_max_str_digits()}-digit integer limit>, not positive"]


def test_pair_ip_over_long_literal_is_usage_error(capsys):
    code, report, err = run_cli(capsys, "pair-ip", f"--a=1,{LONG}", "--b=1,0")
    assert (code, report) == (2, None)
    assert err.startswith("ortho: component 2: ")
    assert LIMIT in err


@pytest.mark.parametrize("argv, message", [
    (("--a= 1,0", "--b=1,1"), "component 1: not a rational literal: ' 1'"),
    (("--a=1,0", "--b=1, 1"), "component 2: not a rational literal: ' 1'"),
], ids=["a", "b"])
def test_vector_literal_takes_no_spaces(capsys, argv, message):
    # As in a JSON rational and an integer flag, a space is no digit.
    code, report, err = run_cli(capsys, "pair-ip", *argv)
    assert (code, report) == (2, None)
    assert err == f"ortho: {message}\n"


def test_pair_ip_over_long_result_is_usage_error(capsys):
    # Inputs inside the limit whose adapted Gram matrix is not.
    code, report, err = run_cli(capsys, "pair-ip", "--a=1,0",
                                f"--b={'7' * 2500},1")
    assert (code, report) == (2, None)
    assert err.startswith("ortho: a result value exceeds the ")
    assert LIMIT in err


def test_maximality_bound_one_summary(capsys):
    code, report, _ = run_cli(capsys, "maximality", "--bound", "1")
    assert code == 0
    assert report["payload"]["summary"] == {
        "total": 48,
        "orthogonal_accepted": 16,
        "nonorthogonal_rejected": 32,
    }
    assert len(report["payload"]["rejected"]) == 32


def test_rejection_writer_converts_each_vector_object_once(capsys, monkeypatch):
    """The rejected reports share the grid's vectors, and each witness its
    candidate's slot vector; each distinct object is converted once."""
    import orthocheck.maximality
    import orthocheck.serialize

    sweeps, converted = [], []
    real_sweep = orthocheck.maximality.verify_orthogonal_maximality
    real_to_json = orthocheck.serialize.vector_to_json

    def sweep(*args):
        sweeps.append(real_sweep(*args))
        return sweeps[-1]

    def to_json(v):
        converted.append(v)
        return real_to_json(v)

    monkeypatch.setattr(orthocheck.maximality, "verify_orthogonal_maximality",
                        sweep)
    monkeypatch.setattr(orthocheck.serialize, "vector_to_json", to_json)
    code, report, _ = run_cli(capsys, "maximality", "--bound", "2")
    assert code == 0
    (reports,) = sweeps
    rejected = [r for r in reports if not r.accepted]
    assert len(report["payload"]["rejected"]) == len(rejected) > 0
    vectors = {id(v): v for r in rejected
               for v in (*r.candidate, *r.orthogonal_witness, r.collision_point)}
    assert len(converted) == len(vectors)
    assert {id(v) for v in converted} == set(vectors)


def _wrong_witness_value(G, report):
    """The rejection with the witness's slot value off by one."""
    first, second = report.values
    return _with(report, report.orthogonal_witness, (first, second + 1))


def _nonorthogonal_witness(G, report):
    """The rejection with a witness that shares slot i and carries its true
    values at the collision point, but is not G-orthogonal."""
    from orthocheck import is_orthogonal_tuple
    from orthocheck.linalg import Frame, is_independent, solve_coordinates

    i, x = report.index, report.collision_point
    for v in itertools.product((F(-1), F(1), F(2)), repeat=2):
        vectors = list(report.candidate)
        vectors[2 - i] = v  # the other slot of a dim-2 frame
        if not is_independent(vectors):
            continue
        witness = Frame(tuple(vectors))
        values = tuple(solve_coordinates(fr, x)[i - 1]
                       for fr in (report.candidate, witness))
        if values[0] != values[1] and not is_orthogonal_tuple(G, witness):
            return _with(report, witness, values)
    raise AssertionError("no non-orthogonal witness in the search range")


def _falsely_accepted(G, report):
    """The rejected candidate, reported as accepted."""
    from orthocheck.maximality import MaximalityReport

    return MaximalityReport(report.candidate)


def _with(report, witness, values):
    from orthocheck.maximality import MaximalityReport

    return MaximalityReport(report.candidate, witness, report.collision_point,
                            values, report.index)


@pytest.mark.parametrize(
    "tamper", [_wrong_witness_value, _nonorthogonal_witness, _falsely_accepted],
    ids=["wrong-value", "nonorthogonal-witness", "falsely-accepted"])
def test_maximality_recheck_decides_the_verdict(capsys, monkeypatch, tamper):
    """Each report is re-checked from scratch: one tampered rejection among
    32, or one rejected candidate reported as accepted, turns the verdict
    to fail."""
    import orthocheck.maximality

    real = orthocheck.maximality.verify_orthogonal_maximality
    tampered = []

    def sweep(G, candidates):
        reports = list(real(G, candidates))
        k = next(k for k, r in enumerate(reports) if not r.accepted)
        reports[k] = tamper(G, reports[k])
        tampered.append(reports[k])
        return tuple(reports)

    monkeypatch.setattr(orthocheck.maximality, "verify_orthogonal_maximality",
                        sweep)
    code, report, _ = run_cli(capsys, "maximality", "--bound", "1")
    assert len(tampered) == 1
    assert code == 1 and report["verdict"] == "fail"
    rejected = 31 if tamper is _falsely_accepted else 32
    assert report["payload"]["summary"]["nonorthogonal_rejected"] == rejected


def test_maximality_recheck_clears_its_own_vectors(capsys, monkeypatch):
    """The re-check reads nothing the sweep computed: with the sweep given
    the image of 2v for v = (1, 1), which keeps every accept and reject
    decision, the reported points and values are wrong, and the re-check's
    own clearing turns the verdict to fail."""
    import orthocheck.maximality as maximality

    real = maximality._image

    def doubled(G, v):
        U, s, GU = real(G, v)
        if v == (1, 1):
            return [2 * a for a in U], s, [2 * a for a in GU]
        return U, s, GU

    monkeypatch.setattr(maximality, "_image", doubled)
    code, report, _ = run_cli(capsys, "maximality", "--bound", "1")
    assert code == 1 and report["verdict"] == "fail"
    assert report["payload"]["summary"] == {
        "total": 48, "orthogonal_accepted": 16, "nonorthogonal_rejected": 32}


def test_maximality_recheck_clears_each_vector_once(capsys, monkeypatch):
    """The benchmark's bound-3 grid: from the sweep's return to the payload,
    the verification clears each distinct vector object once, the 48 grid
    vectors, each witness's new vector and each collision point, not once
    per solve, and no accepted candidate again."""
    import orthocheck.cli as cli
    import orthocheck.inner_product as inner_product
    import orthocheck.linalg as linalg
    import orthocheck.maximality as maximality

    cleared, swept, rechecked, counting = [], [], [], []
    real_cleared, real_recheck = linalg._cleared, cli._recheck
    real_sweep = maximality.verify_orthogonal_maximality
    real_to_json = cli.maximality_reports_to_json

    def counted(entries):
        if counting:
            cleared.append(entries)
        return real_cleared(entries)

    def sweep(G, candidates):
        swept.extend(real_sweep(G, candidates))
        counting.append(True)
        return tuple(swept)

    def recheck(G, reports):
        rechecked.extend(reports)
        return real_recheck(G, reports)

    def to_json(reports):
        counting.clear()
        return real_to_json(reports)

    for module in (linalg, inner_product):
        monkeypatch.setattr(module, "_cleared", counted)
    monkeypatch.setattr(maximality, "verify_orthogonal_maximality", sweep)
    monkeypatch.setattr(cli, "_recheck", recheck)
    monkeypatch.setattr(cli, "maximality_reports_to_json", to_json)
    code, report, _ = run_cli(capsys, "maximality", "--bound", "3")
    assert code == 0 and rechecked == swept and len(swept) == 2112
    rejections = [r for r in swept if not r.accepted]
    assert len(rejections) == 1920
    distinct = {id(v) for r in rejections
                for v in (*r.candidate, *r.orthogonal_witness, r.collision_point)}
    assert len(cleared) == len(distinct) == 48 + 2 * 1920
    assert {id(v) for v in cleared} == distinct


def test_maximality_recheck_builds_no_fraction(capsys, monkeypatch):
    """The re-check compares solved and reported values as integers: on
    the benchmark's bound-3 grid it builds no Fraction at all."""
    import orthocheck.cli as cli

    real_new, real_recheck = F.__new__, cli._recheck
    built, rechecked, inside = [], [], []

    def counted(cls, *args, **kwargs):
        if inside:
            built.append(args)
        return real_new(cls, *args, **kwargs)

    def recheck(G, reports):
        rechecked.append(len(reports))
        inside.append(True)
        try:
            return real_recheck(G, reports)
        finally:
            inside.clear()

    monkeypatch.setattr(F, "__new__", staticmethod(counted))
    monkeypatch.setattr(cli, "_recheck", recheck)
    code, _, _ = run_cli(capsys, "maximality", "--bound", "3")
    assert code == 0 and rechecked == [2112]
    assert len(built) == 0


def test_maximality_requires_square_config(capsys):
    code, report, err = run_cli(capsys, "maximality", "--dim", "3")
    assert code == 2
    assert report is None
    assert "dim" in err


def test_chain_defaults(capsys):
    code, report, _ = run_cli(capsys, "chain")
    assert code == 0
    lengths = report["payload"]["chain_lengths"]
    assert lengths == sorted(lengths)
    assert report["payload"]["union_passes"] is True


def test_chain_scans_only_its_last_member(capsys, monkeypatch):
    """On its pass path ``chain`` makes one ``factor_check``, of the chain's
    last member: m slot scans, however many members the chain has."""
    import orthocheck.dependence as dependence

    scans = []
    real = dependence._scan_slot

    def counted(points, index):
        scans.append(index)
        return real(points, index)

    monkeypatch.setattr(dependence, "_scan_slot", counted)
    code, report, _ = run_cli(capsys, "chain", "--dim", "3", "--m", "3",
                              "--frames", "4", "--points", "3", "--seed", "5")
    assert code == 0 and report["payload"]["union_passes"] is True
    lengths = report["payload"]["chain_lengths"]
    assert len(lengths) > 1 and lengths[-1] > 0
    assert scans == [1, 2, 3]


def test_pair_ip_fixture(capsys):
    code, report, _ = run_cli(capsys, "pair-ip", "--a=1,0", "--b=1,1")
    assert code == 0
    payload = report["payload"]
    assert payload["gram"] == [["1", "-1"], ["-1", "2"]]
    assert payload["pair_inner_product"] == "0"
    assert payload["coordinates_solver"] == payload["coordinates_formula"]


def test_pair_ip_identity_fixture(capsys):
    code, report, _ = run_cli(capsys, "pair-ip", "--a=1,0", "--b=0,1")
    assert code == 0
    assert report["payload"]["gram"] == [["1", "0"], ["0", "1"]]


def test_pair_ip_dependent_pair_is_usage_error(capsys):
    code, report, err = run_cli(capsys, "pair-ip", "--a=1,0", "--b=2,0")
    assert code == 2
    assert "dependent" in err


def test_pair_ip_dependent_pair_echoes_both_vectors_briefly(capsys):
    """Both vector texts are echoed as rejected input: whole when short, cut
    to their first characters and length when long."""
    code, report, err = run_cli(capsys, "pair-ip", "--a=1,0", "--b=2,0")
    assert (code, report) == (2, None)
    assert err == "ortho: vectors '1,0' and '2,0' are dependent\n"
    long_b = "7" * 4000 + ",0"
    code, report, err = run_cli(capsys, "pair-ip", "--a=1,0", f"--b={long_b}")
    assert (code, report) == (2, None)
    assert len(err.encode()) < 400
    assert err.startswith("ortho: vectors '1,0' and '777")
    assert err.endswith(f"... ({len(long_b)} characters) are dependent\n")


def test_pair_ip_wrong_dimension(capsys):
    code, _, err = run_cli(capsys, "pair-ip", "--a=1,0,0", "--b=0,1,0")
    assert code == 2
    assert "2-dimensional" in err


@pytest.mark.parametrize("flags, named", [
    (("--dim", "5"), "--dim 5"),
    (("--dim", "3", "--m", "3"), "--m 3"),
    (("--gram", "/nonexistent.json"), "--gram"),
    (("--gram", "tests/fixtures/gram4.json", "--dim", "4"), "--dim 4"),
], ids=["dim5", "dim3-m3", "missing-gram", "gram4-dim4"])
def test_pair_ip_rejects_dim_m_and_gram(capsys, monkeypatch, flags, named):
    monkeypatch.chdir(ROOT)
    code, report, err = run_cli(capsys, "pair-ip", "--a=1,0", "--b=1,1", *flags)
    assert code == 2
    assert report is None
    assert named in err


def test_pair_ip_accepts_explicit_dim_two(capsys):
    code, report, _ = run_cli(
        capsys, "pair-ip", "--a=1,0", "--b=1,1", "--dim", "2", "--m", "2"
    )
    assert code == 0
    assert report["config"]["dim"] == 2 and report["config"]["gram"] is None


def test_bad_gram_file_is_usage_error(capsys, tmp_path):
    path = tmp_path / "gram.json"
    path.write_text('[["1","2"],["2","1"]]', encoding="utf-8")
    code, _, err = run_cli(capsys, "equivalence", "--gram", str(path))
    assert code == 2
    assert "minor" in err


def test_gram_file_feeds_the_run(capsys, tmp_path):
    path = tmp_path / "gram.json"
    path.write_text('[["2","0"],["0","3"]]', encoding="utf-8")
    code, report, _ = run_cli(capsys, "equivalence", "--gram", str(path))
    assert code == 0
    assert report["payload"]["failures"] == 0
    assert report["config"]["gram"] == str(path)


@pytest.mark.parametrize("command", ["equivalence", "factor", "maximality", "chain"])
def test_gram_dim_mismatch_is_usage_error(capsys, tmp_path, command):
    path = tmp_path / "gram3.json"
    path.write_text('[["2","0","0"],["0","3","0"],["0","0","1"]]',
                    encoding="utf-8")
    code, report, err = run_cli(capsys, command, "--gram", str(path),
                                "--frames", "1", "--points", "1")
    assert code == 2
    assert report is None
    assert err == f"ortho: --gram {path} is 3x3 but --dim is 2\n"


def test_env_seed_is_not_read(capsys, monkeypatch, tmp_path):
    """A seed comes from ``--seed`` or its default: an ``ORTHO_SEED`` left
    in the environment changes no report, seeded or not."""
    monkeypatch.setenv("ORTHO_SEED", "123")
    code, report, _ = run_cli(capsys, "equivalence", "--seed", "7")
    assert code == 0
    assert report["config"]["seed"] == 7
    monkeypatch.chdir(ROOT)
    seeded = next(e for e in GOLDEN if "--seed" in e["argv"])
    unseeded = next(e for e in GOLDEN if "--seed" not in e["argv"])
    for entry in seeded, unseeded:
        assert run_digest(entry["argv"], tmp_path / "report.json") == (
            pinned(entry)), " ".join(entry["argv"])


def _seed_flag(source, seed):
    """``--seed`` as one argument (``flag``) or as two (``split``)."""
    return [f"--seed={seed}"] if source == "flag" else ["--seed", str(seed)]


@pytest.mark.parametrize("source", ["flag", "split"])
@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
def test_seed_outside_64_bits_is_usage_error(capsys, source, seed):
    # Read modulo 2^64 these would alias 2^64 - 1, 0 and 5 while echoing
    # themselves.
    argv = ["factor", "--frames", "2", "--points", "2", *_seed_flag(source, seed)]
    code, report, err = run_cli(capsys, *argv)
    assert code == 2
    assert report is None
    assert err == f"ortho: seed {seed} is outside [0, 2^64)\n"


@pytest.mark.parametrize("source", ["flag", "split"])
def test_largest_seed_is_accepted(capsys, source):
    argv = ["factor", "--frames", "2", "--points", "2", *_seed_flag(source, 2**64 - 1)]
    code, report, _ = run_cli(capsys, *argv)
    assert code == 0
    assert report["config"]["seed"] == 2**64 - 1


# Spellings of 2 that int() reads and the rational grammar does not.
INT_ONLY = {"underscore": "0_2", "spaces": " 2 ", "arabic-indic": "\u0662",
            "fullwidth": "\uff12"}
INTEGER_FLAGS = ("dim", "m", "frames", "points", "bound", "seed")


@pytest.mark.parametrize("spelling", INT_ONLY.values(), ids=INT_ONLY)
@pytest.mark.parametrize("flag", INTEGER_FLAGS)
def test_integer_flag_takes_ascii_digits_only(capsys, flag, spelling):
    code, report, err = run_cli(capsys, "equivalence", f"--{flag}", spelling)
    assert (code, report) == (2, None)
    assert err.splitlines()[-1] == (
        f"ortho equivalence: error: argument --{flag}: "
        f"not an integer: {spelling!r}")


@pytest.mark.parametrize("source", ["flag", "split"])
def test_integer_over_the_digit_limit_is_usage_error(capsys, source):
    limit = sys.get_int_max_str_digits()
    code, report, err = run_cli(capsys, "equivalence",
                                *_seed_flag(source, "9" * (limit + 1)))
    assert (code, report) == (2, None)
    assert err.splitlines()[-1] == (
        f"ortho equivalence: error: argument --seed: literal of {limit + 1} "
        f"digits exceeds the {limit}-digit integer limit")


LONG_TEXT = "9_" * 3000


@pytest.mark.parametrize("source", ["flag", "vector"])
def test_rejected_long_input_is_cut_short(capsys, source):
    if source == "flag":
        argv = ["equivalence", f"--seed={LONG_TEXT}"]
    else:
        argv = ["pair-ip", f"--a={LONG_TEXT},0", "--b=1,1"]
    code, report, err = run_cli(capsys, *argv)
    assert (code, report) == (2, None)
    assert len(err.encode()) < 400
    assert f"'{LONG_TEXT[:59]}... ({len(LONG_TEXT)} characters)" in err


SEVENS = "7" * 4000  # a literal inside the int/str limit


def _long_relation(dim, dependent):
    """A one-point relation over a frame of ``dim`` vectors whose entries
    all have 4,000 digits; ``dependent`` makes row 1 a copy of row 0."""
    rows = [[f"{SEVENS[:-4]}{i:02d}{j:02d}" for j in range(dim)] for i in range(dim)]
    if dependent:
        rows[1] = rows[0]
    return [{"frame": rows, "point": rows[0], "values": ["1"] + ["0"] * (dim - 1)}]


@pytest.mark.parametrize("case", [
    "dependent-frame", "duplicate-point", "grid-cap", "span-cap", "asymmetric-gram",
    "dim-flag", "bound-flag", "seed-flag", "mixed-dimensions"])
def test_message_over_a_long_value_is_one_short_line(capsys, tmp_path, case):
    """Every error that names a long value shows it cut short: exit 2 and
    one ``ortho:`` line of under 400 bytes."""
    path = tmp_path / "input.json"
    if case == "dependent-frame":
        path.write_text(json.dumps(_long_relation(16, True)), encoding="utf-8")
        argv = ["factor", "--input", str(path), "--dim", "16", "--m", "16"]
        named = "points[0].frame: frame vectors are linearly dependent: "
    elif case == "duplicate-point":
        path.write_text(json.dumps(_long_relation(2, False) * 2), encoding="utf-8")
        argv = ["factor", "--input", str(path)]
        named = "points: points[1] repeats the (frame, point) pair of points[0]: "
    elif case == "grid-cap":
        argv = ["maximality", "--bound", "9" * 1000]
        named = f"--bound {'9' * 60}... (1000 characters) asks for "
    elif case == "span-cap":
        argv = ["equivalence", "--frames", "9" * 2000, "--points", "9" * 2000]
        named = f"asks for {'9' * 60}... (4000 characters) span points"
    elif case == "asymmetric-gram":
        path.write_text(json.dumps([["1", SEVENS], ["0", "1"]]), encoding="utf-8")
        argv = ["equivalence", "--gram", str(path)]
        named = f"not symmetric at (0, 1): {'7' * 60}... (4000 characters) vs 0"
    elif case == "dim-flag":
        argv = ["equivalence", "--dim", SEVENS]
        named = f"got m=2, dim={'7' * 60}... (4000 characters)"
    elif case == "bound-flag":
        argv = ["equivalence", f"--bound=-{SEVENS}"]
        named = f"bound must be positive, got -{'7' * 59}... (4001 characters)"
    elif case == "mixed-dimensions":
        # One frame of 400 vectors, of lengths 1 to 400: every length differs.
        frame = [["1"] * k for k in range(1, 401)]
        path.write_text(json.dumps([{"frame": frame, "point": ["1"], "values": ["1"]}]),
                        encoding="utf-8")
        argv = ["factor", "--input", str(path)]
        dims = str(list(range(1, 401)))
        named = (f"points[0].frame: mixed vector dimensions: {dims[:80]}... "
                 f"({len(dims)} characters) ...{dims[-80:]}")
    else:
        argv = ["equivalence", "--seed", SEVENS]
        named = f"seed {'7' * 60}... (4000 characters) is outside [0, 2^64)"
    code, report, err = run_cli(capsys, *argv)
    assert (code, report) == (2, None)
    assert len(err.encode()) < 400
    assert len(err.splitlines()) == 1 and err.startswith("ortho: ")
    assert named in err
    assert "Fraction(" not in err and "Frame(" not in err


# Every value past the int/str digit limit is named in one wording, whether
# it is read (a literal, an integer flag, a JSON number) or written.
@pytest.mark.parametrize("argv", [
    ("pair-ip", f"--a=1,{LONG}", "--b=1,0"),
    ("equivalence", "--seed", LONG),
    ("factor", "--input", "number.json"),
    ("pair-ip", "--a=1,0", f"--b={'7' * 2500},1"),
], ids=["literal", "integer-flag", "json-number", "result-value"])
def test_digit_limit_has_one_wording(capsys, monkeypatch, tmp_path, argv):
    (tmp_path / "number.json").write_text(f"[{LONG}]", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code, report, err = run_cli(capsys, *argv)
    assert (code, report) == (2, None)
    assert LIMIT in err.splitlines()[-1]


def test_signed_integer_flags_still_parse(capsys):
    code, report, _ = run_cli(capsys, "equivalence", "--seed=+7", "--frames=+1",
                              "--points=-0")
    assert code == 0
    assert (report["config"]["seed"], report["config"]["frames"],
            report["config"]["points"]) == (7, 1, 0)


def test_output_flag_writes_file(capsys, tmp_path):
    out = tmp_path / "report.json"
    code, printed, _ = run_cli(capsys, "equivalence", "--output", str(out))
    assert code == 0
    assert printed is None
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["command"] == "equivalence"


def test_invalid_config_rejected(capsys):
    code, _, err = run_cli(capsys, "equivalence", "--m", "5", "--dim", "3")
    assert code == 2
    assert "2 <= m <= dim" in err
    code, _, err = run_cli(capsys, "equivalence", "--bound", "0")
    assert code == 2
    code, _, err = run_cli(capsys, "equivalence", "--frames", "-1")
    assert code == 2


def test_unknown_command_is_usage_error(capsys):
    assert main(["nonsense"]) == 2


COMMON_OPTIONS = {"-h", "--help", "--dim", "--m", "--frames", "--points",
                  "--bound", "--seed", "--gram", "--output"}


@pytest.mark.parametrize("command, extra", [
    ("equivalence", set()),
    ("factor", {"--input"}),
    ("maximality", set()),
    ("chain", set()),
    ("pair-ip", {"--a", "--b"}),
])
def test_subcommand_takes_exactly_its_options(command, extra):
    """Every subcommand takes the eight common flags (and ``--help``); only
    ``factor`` adds ``--input`` and only ``pair-ip`` adds ``--a``/``--b``."""
    import argparse

    parser = _build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == ["equivalence", "factor", "maximality",
                                 "chain", "pair-ip"]
    options = {s for a in sub.choices[command]._actions for s in a.option_strings}
    assert options == COMMON_OPTIONS | extra


def test_report_round_trips_exactly(capsys):
    from orthocheck.serialize import canonical_dumps

    code = main(["factor", "--frames", "2", "--points", "2"])
    text = capsys.readouterr().out.strip()
    assert code == 0
    assert canonical_dumps(json.loads(text)) == text


ENVELOPE_RUNS = {
    "equivalence": (("equivalence", "--frames", "2", "--points", "2"), 0),
    "factor": (("factor", "--frames", "2", "--points", "2"), 0),
    "maximality": (("maximality", "--bound", "1"), 0),
    "chain": (("chain", "--frames", "2", "--points", "2"), 0),
    "pair-ip": (("pair-ip", "--a=1,0", "--b=1,1"), 0),
    "factor-input-fail": (("factor", "--input", "counterexample"), 1),
}


@pytest.mark.parametrize("name", ENVELOPE_RUNS)
def test_report_envelope_on_stdout_and_output(capsys, tmp_path, name):
    from orthocheck.serialize import canonical_dumps

    argv, expected_code = ENVELOPE_RUNS[name]
    if "counterexample" in argv:
        path = tmp_path / "rel.json"
        path.write_text(json.dumps(COUNTEREXAMPLE_RELATION), encoding="utf-8")
        argv = tuple(str(path) if a == "counterexample" else a for a in argv)
    code = main(list(argv))
    printed = capsys.readouterr().out
    out = tmp_path / "report.json"
    assert main([*argv, "--output", str(out)]) == code == expected_code
    assert capsys.readouterr().out == ""
    written = out.read_bytes().decode("utf-8")

    stripped = []
    for text in (printed, written):
        report = json.loads(text)
        assert text == canonical_dumps(report) + "\n"
        assert set(report) == {"command", "config", "payload", "verdict",
                               "duration_s"}
        assert report["command"] == argv[0]
        assert report["verdict"] == ("pass" if code == 0 else "fail")
        assert type(report["duration_s"]) is float
        assert report["duration_s"] >= 0
        del report["duration_s"]
        stripped.append(canonical_dumps(report))
    assert stripped[0] == stripped[1]


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "orthocheck", "equivalence", "--frames", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["payload"]["trials"] == 4


# --- usage errors (exit 2) and bugs (exit 3) ---

@pytest.mark.parametrize("argv, named", [
    (("equivalence", "--m", "5", "--dim", "3"), "2 <= m <= dim"),
    (("equivalence", "--points", "-1"), "counts must be >= 0"),
    (("equivalence", "--bound", "0"), "bound must be positive"),
    (("maximality", "--dim", "3"), "m == dim"),
    (("pair-ip", "--a=1,0", "--b=1,1", "--dim", "5"), "--dim 5"),
    (("pair-ip", "--a=1,0,0", "--b=0,1,0"), "2-dimensional"),
    (("pair-ip", "--a=1,0", "--b=2,0"), "dependent"),
], ids=["config-m-dim", "config-counts", "config-bound", "maximality-square",
        "pair-ip-dim", "pair-ip-vectors", "pair-ip-dependent"])
def test_usage_checks_exit_two(capsys, monkeypatch, argv, named):
    monkeypatch.chdir(ROOT)
    code, report, err = run_cli(capsys, *argv)
    assert code == 2
    assert report is None
    assert err.startswith("ortho: ") and named in err
    assert "Traceback" not in err


def test_library_value_error_exits_three(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("injected library fault")

    # cmd_factor imports it from its home module when it runs.
    monkeypatch.setattr("orthocheck.dependence.build_orthogonal_relation",
                        broken)
    code, report, err = run_cli(capsys, "factor", "--frames", "1")
    assert code == 3
    assert report is None
    assert "Traceback" in err and "ValueError: injected library fault" in err


def test_undecodable_input_is_usage_error(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'["\xff"]')
    code, report, err = run_cli(capsys, "factor", "--input", str(path))
    assert code == 2
    assert report is None
    assert str(path) in err and "UTF-8" in err


@pytest.mark.parametrize("flag", ["--input", "--gram"])
def test_deeply_nested_json_is_usage_error(capsys, tmp_path, flag):
    # 2,000 levels (4 KB) pass the decoder's recursion limit on Python 3.11;
    # a version with a higher limit parses them and rejects the shape.
    # 100,000 levels pass the limit of every version.
    for depth in (2_000, 100_000):
        path = tmp_path / f"deep{depth}.json"
        path.write_text("[" * depth + "]" * depth, encoding="utf-8")
        code, report, err = run_cli(capsys, "factor", flag, str(path))
        assert (code, report) == (2, None)
        assert len(err.splitlines()) == 1 and err.startswith("ortho: ")
    assert err == f"ortho: {path}: JSON nested too deeply to parse\n"


def test_unwritable_output_is_usage_error(capsys, tmp_path):
    out = tmp_path / "missing-dir" / "report.json"
    code, report, err = run_cli(capsys, "equivalence", "--frames", "1",
                                "--output", str(out))
    assert code == 2
    assert "missing-dir" in err and "Traceback" not in err


@pytest.mark.parametrize("command, flag", [
    ("equivalence", "--gram"), ("factor", "--input"), ("equivalence", "--output")])
def test_long_path_is_shown_by_both_ends(capsys, tmp_path, command, flag):
    """An OSError names its file by both ends, the directory and the file
    name, around its length: exit 2 and one line of under 400 bytes."""
    path = str(tmp_path / ("a" * 5000 + ".json"))
    code, report, err = run_cli(capsys, command, flag, path)
    assert (code, report) == (2, None)
    assert len(err.encode()) < 400 and len(err.splitlines()) == 1
    assert err.startswith("ortho: [Errno ")
    assert f"'{path[:80]}... ({len(path)} characters) ...{path[-80:]}'" in err


@pytest.mark.parametrize("argv", [
    ("factor", "--input", "bad.json"),
    ("equivalence", "--gram", "bad.json"),
    ("equivalence", "--gram", "gram2.json", "--dim", "3"),
    ("factor", "--input", "relation4.json", "--dim", "3", "--m", "3"),
], ids=["input-malformed", "gram-malformed", "gram-shape", "input-shape"])
def test_long_readable_path_is_shown_by_both_ends(capsys, tmp_path, argv):
    """A file that opens but is malformed, or does not fit the flags, is
    named by both ends of its path too: five 200-character directories
    deep, exit 2 and one ``ortho:`` line of under 400 bytes."""
    folder = tmp_path.joinpath(*(c * 200 for c in "abcde"))
    folder.mkdir(parents=True)
    (folder / "bad.json").write_text("[1,", encoding="utf-8")
    (folder / "gram2.json").write_text('[["1", "0"], ["0", "1"]]', encoding="utf-8")
    (folder / "relation4.json").write_bytes(
        (ROOT / "tests" / "fixtures" / "relation4.json").read_bytes())
    path = str(folder / argv[2])
    code, report, err = run_cli(capsys, *argv[:2], path, *argv[3:])
    assert (code, report) == (2, None)
    assert len(err.encode()) < 400 and len(err.splitlines()) == 1
    assert err.startswith("ortho: ")
    assert f"{path[:80]}... ({len(path)} characters) ...{path[-80:]}" in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_output_to_a_full_device_keeps_its_message(capsys):
    code, report, err = run_cli(capsys, "equivalence", "--frames", "1",
                                "--output", "/dev/full")
    assert (code, report) == (2, None)
    assert err == f"ortho: {OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))}\n"


@pytest.mark.parametrize("argv", [
    ("equivalence", "--a=" + "7" * 5000), ("x" + "7" * 5000,),
    ("equivalence", "7" * 5000)], ids=["unknown-flag", "command", "positional"])
def test_long_stray_argument_is_cut_short(capsys, argv):
    """argparse names a stray argument in its message; the message is cut
    by both ends, so the list of choices survives."""
    code, report, err = run_cli(capsys, *argv)
    assert (code, report) == (2, None)
    assert len(err.encode()) < 400
    last = err.splitlines()[-1]
    assert last.startswith("ortho: error: ") and " characters) ..." in last
    if argv[0].startswith("x"):  # the tail still lists every command
        choices = last.rpartition("(choose from ")[2]
        assert choices.endswith(")") and all(
            name in choices
            for name in ("equivalence", "factor", "maximality", "chain", "pair-ip"))


# --- flags a command path never reads ---

@pytest.mark.parametrize("argv, named", [
    (("maximality", "--bound", "1", "--frames", "3"),
     "maximality in dimension 2 does not read --frames"),
    (("maximality", "--bound", "1", "--points", "3", "--frames", "3"),
     "maximality in dimension 2 does not read --frames or --points"),
    (("maximality", "--dim", "3", "--m", "3", "--frames", "1",
      "--points", "2"), "maximality does not read --points"),
], ids=["dim2-frames", "dim2-frames-points", "dim3-points"])
def test_maximality_rejects_unread_flags(capsys, argv, named):
    code, report, err = run_cli(capsys, *argv)
    assert code == 2
    assert report is None
    assert named in err


@pytest.mark.parametrize("flag", ["--frames", "--points", "--gram"])
def test_pair_ip_rejects_unread_flags(capsys, flag):
    code, report, err = run_cli(capsys, "pair-ip", "--a=1,0", "--b=1,1",
                                flag, "3")
    assert code == 2
    assert report is None
    assert f"pair-ip does not read {flag}" in err


@pytest.mark.parametrize("flag", ["--frames", "--points", "--bound", "--gram"])
def test_factor_input_rejects_unread_flags(capsys, monkeypatch, flag):
    monkeypatch.chdir(ROOT)
    code, report, err = run_cli(capsys, "factor", "--input", RELATION4,
                                "--dim", "4", "--m", "4", flag, "3")
    assert code == 2
    assert report is None
    assert f"factor --input does not read {flag}" in err


@pytest.mark.parametrize("argv", [
    ("maximality", "--bound", "1", "--seed", "3"),
    ("maximality", "--dim", "3", "--m", "3", "--frames", "2", "--seed", "3"),
    ("pair-ip", "--a=1,0", "--b=1,1", "--bound", "2", "--seed", "3"),
    ("factor", "--input", RELATION4, "--dim", "4", "--m", "4", "--seed", "3"),
], ids=["maximality-dim2", "maximality-dim3", "pair-ip", "factor-input"])
def test_read_flags_and_seed_stay_accepted(capsys, monkeypatch, argv):
    monkeypatch.chdir(ROOT)
    code, report, _ = run_cli(capsys, *argv)
    assert code == 0
    config = report["config"]
    assert config["seed"] == 3
    assert (config["frames"], config["points"]) == (
        (2, 4) if "--frames" in argv else (8, 4))


# --- the work cap ---

def _config_of(argv):
    """The parsed ``argv`` and the RunConfig that ``main`` builds for it."""
    args = _build_parser().parse_args(list(argv))
    return args, _run_config(args)


def test_config_of_builds_the_config_main_echoes(capsys):
    argv = ("equivalence", "--frames", "1", "--points", "1", "--seed", "7")
    _, config = _config_of(argv)
    assert (config.frames, config.points, config.seed) == (1, 1, 7)
    code, report, _ = run_cli(capsys, *argv)
    assert code == 0
    assert report["config"] == config.to_json()


def _benchmark_argvs():
    """The CLI commands of BENCHMARK.json's workloads, read from each
    workload's description (``ortho <command> <flags>: ...``); a ``<...>``
    file placeholder becomes a dummy path."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    argvs = []
    for workload in spec["workloads"]:
        text = re.sub(r"<[^>]*>", "placeholder.json", workload["why"])
        match = re.match(r"ortho (.*?):", text)
        assert match, f"no command in the description of {workload['name']}"
        argvs.append(match.group(1).split())
    return argvs


def _golden_argvs():
    golden = json.loads((ROOT / "tests" / "golden_payloads.json").read_text(
        encoding="utf-8"))
    return [entry["argv"] for entry in golden]


def test_golden_and_benchmark_configs_are_under_the_cap():
    argvs = _golden_argvs() + _benchmark_argvs()
    assert len(argvs) == 21
    capped = 0
    for argv in argvs:
        args, config = _config_of(argv)
        if args.command == "pair-ip" or getattr(args, "input", None):
            continue  # no sampled or swept work to bound
        _cap_work(args.command, config)
        capped += 1
    assert capped == 16


def test_maximality_huge_bound_exits_two_at_once(capsys):
    started = time.perf_counter()
    code, report, err = run_cli(capsys, "maximality", "--bound", "1000000")
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert report is None
    count = (2 * 1000000 + 1) ** 4
    assert f"--bound 1000000 asks for {count} candidate pairs" in err
    assert f"above the cap of {GRID_CAP}" in err


SPAN_FLAGS = ("--frames", "9" * 2200, "--points", "9" * 2200)
NINES_2000, NINES_2200 = (f"{'9' * 60}... ({n} characters)" for n in (2000, 2200))
SPAN_SHOWN = f"--frames {NINES_2200} --points {NINES_2200}"


@pytest.mark.parametrize("argv, flags, unit, cap", [
    (("maximality", "--bound", "9" * 2000), f"--bound {NINES_2000}",
     "candidate pairs", GRID_CAP),
    (("equivalence", *SPAN_FLAGS), SPAN_SHOWN, "span points", SAMPLE_CAP),
    (("factor", *SPAN_FLAGS), SPAN_SHOWN, "span points", SAMPLE_CAP),
    (("chain", *SPAN_FLAGS), SPAN_SHOWN, "span points", SAMPLE_CAP),
], ids=["grid", "equivalence", "factor", "chain"])
def test_work_count_over_the_digit_limit_is_usage_error(capsys, argv, flags,
                                                         unit, cap):
    # Every flag is inside the int/str limit and shown cut short; the work
    # count is past the limit.
    code, report, err = run_cli(capsys, *argv)
    assert (code, report) == (2, None)
    assert err.splitlines() == [
        f"ortho: {argv[0]} {flags} asks for <a value over the "
        f"{sys.get_int_max_str_digits()}-digit integer limit> {unit}, "
        f"above the cap of {cap}"]


@pytest.mark.parametrize("argv, flags, count", [
    (("maximality", "--bound", "12"), "--bound 12", 25 ** 4),
    (("maximality", "--dim", "3", "--m", "3", "--frames", str(SAMPLE_CAP + 1)),
     f"--frames {SAMPLE_CAP + 1}", SAMPLE_CAP + 1),
    (("equivalence", "--frames", "100", "--points", "51"),
     "--frames 100 --points 51", 5100),
    (("factor", "--frames", str(SAMPLE_CAP + 1), "--points", "0"),
     f"--frames {SAMPLE_CAP + 1} --points 0", SAMPLE_CAP + 1),
    (("chain", "--frames", "2", "--points", str(SAMPLE_CAP)),
     f"--frames 2 --points {SAMPLE_CAP}", 2 * SAMPLE_CAP),
], ids=["grid", "sampled-frames", "equivalence", "factor-no-points", "chain"])
def test_work_above_the_cap_is_usage_error(capsys, argv, flags, count):
    code, report, err = run_cli(capsys, *argv)
    assert code == 2
    assert report is None
    assert f"{argv[0]} {flags} asks for {count} " in err
    assert "above the cap of" in err


@pytest.mark.parametrize("argv", [
    ("maximality", "--bound", "11"),
    ("maximality", "--dim", "16", "--m", "16", "--frames", str(SAMPLE_CAP)),
    ("equivalence", "--frames", "50", "--points", "100"),
    ("factor", "--frames", str(SAMPLE_CAP), "--points", "0"),
    ("chain", "--frames", str(SAMPLE_CAP), "--points", "1"),
], ids=["grid", "sampled-frames", "equivalence", "factor-no-points", "chain"])
def test_work_at_the_cap_is_allowed(argv):
    args, config = _config_of(argv)
    _cap_work(args.command, config)


SAMPLED_COMMANDS = {
    "maximality": ("maximality", "--dim", "3", "--m", "3", "--frames", "1"),
    "equivalence": ("equivalence", "--frames", "1", "--points", "1"),
    "factor": ("factor", "--frames", "1", "--points", "1"),
    "chain": ("chain", "--frames", "1", "--points", "1"),
}


@pytest.mark.parametrize("name", SAMPLED_COMMANDS)
@pytest.mark.parametrize("bound", [BOUND_CAP + 1, 10 ** 60])
def test_sampled_bound_above_the_cap_is_usage_error(capsys, name, bound):
    argv = SAMPLED_COMMANDS[name] + ("--bound", str(bound))
    code, report, err = run_cli(capsys, *argv)
    assert code == 2
    assert report is None
    assert (f"{name} --bound {bound} is above the cap of {BOUND_CAP} "
            "for sampled entries") in err


@pytest.mark.parametrize("name", SAMPLED_COMMANDS)
def test_sampled_bound_at_the_cap_runs(capsys, name):
    argv = SAMPLED_COMMANDS[name] + ("--bound", str(BOUND_CAP))
    code, report, _ = run_cli(capsys, *argv)
    assert code == 0
    assert report["config"]["bound"] == BOUND_CAP
