import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from orthocheck.cli import (
    GRID_CAP,
    BOUND_CAP,
    SAMPLE_CAP,
    RunConfig,
    _build_parser,
    _cap_work,
    main,
)

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


def test_pair_ip_over_long_literal_is_usage_error(capsys):
    code, report, err = run_cli(capsys, "pair-ip", f"--a=1,{LONG}", "--b=1,0")
    assert (code, report) == (2, None)
    assert err.startswith("ortho: component 2: ")
    assert LIMIT in err


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


def test_env_seed_override(capsys, monkeypatch):
    monkeypatch.setenv("ORTHO_SEED", "123")
    code, report, _ = run_cli(capsys, "equivalence", "--seed", "7")
    assert code == 0
    assert report["config"]["seed"] == 123
    monkeypatch.setenv("ORTHO_SEED", "xyz")
    code, report, err = run_cli(capsys, "equivalence")
    assert code == 2
    assert "ORTHO_SEED" in err


@pytest.mark.parametrize("source", ["flag", "env"])
@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
def test_seed_outside_64_bits_is_usage_error(capsys, monkeypatch, source, seed):
    # Read modulo 2^64 these would alias 2^64 - 1, 0 and 5 while echoing
    # themselves.
    argv = ["factor", "--frames", "2", "--points", "2"]
    if source == "flag":
        argv.append(f"--seed={seed}")
    else:
        monkeypatch.setenv("ORTHO_SEED", str(seed))
    code, report, err = run_cli(capsys, *argv)
    assert code == 2
    assert report is None
    assert err == f"ortho: seed {seed} is outside [0, 2^64)\n"


@pytest.mark.parametrize("source", ["flag", "env"])
def test_largest_seed_is_accepted(capsys, monkeypatch, source):
    argv = ["factor", "--frames", "2", "--points", "2"]
    if source == "flag":
        argv.append(f"--seed={2**64 - 1}")
    else:
        monkeypatch.setenv("ORTHO_SEED", str(2**64 - 1))
    code, report, _ = run_cli(capsys, *argv)
    assert code == 0
    assert report["config"]["seed"] == 2**64 - 1


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
    (("factor", "--input", RELATION4, "--dim", "4", "--m", "4",
      "--gram", "tests/fixtures/gram4.json"), "--gram cannot be combined"),
    (("maximality", "--dim", "3"), "m == dim"),
    (("pair-ip", "--a=1,0", "--b=1,1", "--dim", "5"), "--dim 5"),
    (("pair-ip", "--a=1,0", "--b=1,1", "--gram", "x.json"), "takes no --gram"),
    (("pair-ip", "--a=1,0,0", "--b=0,1,0"), "2-dimensional"),
    (("pair-ip", "--a=1,0", "--b=2,0"), "dependent"),
], ids=["config-m-dim", "config-counts", "config-bound", "factor-input-gram",
        "maximality-square", "pair-ip-dim", "pair-ip-gram", "pair-ip-vectors",
        "pair-ip-dependent"])
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


def test_unwritable_output_is_usage_error(capsys, tmp_path):
    out = tmp_path / "missing-dir" / "report.json"
    code, report, err = run_cli(capsys, "equivalence", "--frames", "1",
                                "--output", str(out))
    assert code == 2
    assert "missing-dir" in err and "Traceback" not in err


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


@pytest.mark.parametrize("flag", ["--frames", "--points"])
def test_pair_ip_rejects_unread_flags(capsys, flag):
    code, report, err = run_cli(capsys, "pair-ip", "--a=1,0", "--b=1,1",
                                flag, "3")
    assert code == 2
    assert report is None
    assert f"pair-ip does not read {flag}" in err


@pytest.mark.parametrize("flag", ["--frames", "--points", "--bound"])
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
    """The RunConfig that ``main`` builds for ``argv``, and the command."""
    args = _build_parser().parse_args(list(argv))
    given = {name: getattr(args, name) for name in ("frames", "points", "bound")
             if getattr(args, name) is not None}
    config = RunConfig(dim=args.dim, m=args.m, seed=args.seed, gram=args.gram,
                       **given)
    return args, config


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
    assert len(argvs) == 16
    capped = 0
    for argv in argvs:
        args, config = _config_of(argv)
        if args.command == "pair-ip" or getattr(args, "input", None):
            continue  # no sampled or swept work to bound
        _cap_work(args.command, config)
        capped += 1
    assert capped == 11


def test_maximality_huge_bound_exits_two_at_once(capsys):
    started = time.perf_counter()
    code, report, err = run_cli(capsys, "maximality", "--bound", "1000000")
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert report is None
    count = (2 * 1000000 + 1) ** 4
    assert f"--bound 1000000 asks for {count} candidate pairs" in err
    assert f"above the cap of {GRID_CAP}" in err


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
