"""The CLI's misuse contract, by search: Hypothesis draws command lines over
the five commands, with every config flag at cheap values, one past each
cap, and at and past the int/str digit limit; input files that are valid,
malformed, undecodable, a directory or missing; and ``--output`` as a
file, a directory or ``/dev/full``.  ``main`` runs each in process.

Every run exits 0, 1 or 2, never 3 (a bug).  An exit 2 writes under 400
bytes of stderr, no traceback, and a last line that starts ``ortho``.  An
exit 0 or 1 writes a report whose ``config`` echoes every explicit flag.

Only the refused side of an expensive cap is drawn: ``--bound 12`` is one
past the dimension-2 grid's cap, and ``SAMPLE_CAP + 1`` frames or points
are one past the sampled cap, but no accepted run comes near either, so
each run takes milliseconds.  No subprocess starts.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from orthocheck.cli import BOUND_CAP, GRID_CAP, SAMPLE_CAP, RunConfig, main

FIXTURES = Path(__file__).resolve().parent / "fixtures"
DIGITS = sys.get_int_max_str_digits()
COMMANDS = ("equivalence", "factor", "maximality", "chain", "pair-ip")
# The first grid bound whose (2 * bound + 1) ** 4 pairs are over GRID_CAP.
GRID_REFUSED = next(b for b in range(1, 100) if (2 * b + 1) ** 4 > GRID_CAP)

# Config flag values that start a cheap run, unless the flags conflict.
CHEAP = {
    "dim": ["2", "3", "4", "16"],
    "m": ["2", "3", "4", "16"],
    "frames": ["0", "1", "2"],
    "points": ["0", "1", "2"],
    "bound": ["1", "2", str(GRID_REFUSED), str(BOUND_CAP)],
    "seed": ["0", "+3", str(2**64 - 1)],
}
# Values one past a cap or below a floor for each flag, and for any flag
# integers at and past the int/str digit limit and spellings that are not
# integers: each must be refused.
EDGES = {
    "dim": ["17", "1", "0", "-1"],
    "m": ["17", "1", "-0"],
    "frames": [str(SAMPLE_CAP + 1), "-1"],
    "points": [str(SAMPLE_CAP + 1), "-1"],
    "bound": [str(BOUND_CAP + 1), "0", "-1"],
    "seed": [str(2**64), "-1"],
}
REFUSED_ANYWHERE = ["9" * DIGITS, "9" * (DIGITS + 1),
                    "x", "", "1/2", "1_0", " 2", "\u0663", "1e3"]
GOOD_VECTORS = ["1,0", "0,1", "1,1", "-1,2", "1/2,3", "2,0"]
# None: the flag is left out, which argparse refuses.
BAD_VECTORS = [None, "0,0", "1,0,0", "1", "1, 0", "x,1", "1/0,1", "1,", "",
               f"1,{'7' * DIGITS}", f"1,{'7' * (DIGITS + 1)}"]
# Where no report can be written.
BAD_OUTPUTS = ["directory"] + (["/dev/full"] if os.path.exists("/dev/full") else [])


@st.composite
def command_lines(draw, paths):
    """``(argv, flags, output)``: a command line, the config flags it gives
    explicitly, and where its report goes.  Half of them carry one fault: a
    config flag at an edge, a bad file, a bad vector literal or a bad
    ``--output``; flags that conflict are refused without one."""
    command = draw(st.sampled_from(COMMANDS))
    flags = {name: draw(st.none() | st.sampled_from(values))
             for name, values in CHEAP.items()}
    dim = int(flags["dim"] or RunConfig.dim)
    flags["m"] = draw(st.none() | st.sampled_from(
        [m for m in CHEAP["m"] if int(m) <= dim]))
    if command == "maximality" and flags["dim"] in (None, "2") and flags["bound"] is None:
        # The default --bound 5 would sweep 14,641 pairs: keep it explicit.
        flags["bound"] = draw(st.sampled_from(CHEAP["bound"]))
    flags["gram"] = draw(st.none() | st.just(paths["gram"]))
    relation = draw(st.none() | st.sampled_from(paths["relations"]))
    if relation is not None and draw(st.booleans()):
        # The flags a relation's shape needs, and no flag it never reads.
        flags.update(dim="4", m="4", frames=None, points=None, bound=None, gram=None)
    vectors = [draw(st.sampled_from(GOOD_VECTORS)) for _ in "ab"]
    output = draw(st.sampled_from(["stdout", "file"]))
    fault = draw(st.none() | st.sampled_from(["flag", "gram", "input", "vector", "output"]))
    if fault == "flag":
        name = draw(st.sampled_from(sorted(EDGES)))
        flags[name] = draw(st.sampled_from(EDGES[name] + REFUSED_ANYWHERE))
    elif fault == "gram":
        flags["gram"] = draw(st.sampled_from(paths["bad"]))
    elif fault == "input":
        relation = draw(st.sampled_from(paths["bad"]))
    elif fault == "vector":
        vectors[draw(st.integers(0, 1))] = draw(st.sampled_from(BAD_VECTORS))
    elif fault == "output":
        output = draw(st.sampled_from(BAD_OUTPUTS))
    flags = {name: value for name, value in flags.items() if value is not None}
    argv = [command, *[f"--{name}={value}" for name, value in flags.items()]]
    if command == "factor" and relation is not None:
        argv.append(f"--input={relation}")
    elif command == "pair-ip":
        argv += [f"--{name}={vector}" for name, vector in zip("ab", vectors)
                 if vector is not None]
    return argv, flags, output


def _paths(tmp_path):
    """The files a command line may name: a valid Gram matrix, two valid
    relations, and as bad files malformed JSON, undecodable bytes, a
    directory and a missing path."""
    (tmp_path / "malformed.json").write_text("[1,", encoding="utf-8")
    (tmp_path / "undecodable.json").write_bytes(b'["\xff\xfe"]')
    return {
        "gram": str(FIXTURES / "gram4.json"),
        "relations": [str(FIXTURES / "relation4.json"),
                      str(FIXTURES / "relation4_conflict.json")],
        "bad": [str(tmp_path / "malformed.json"),
                str(tmp_path / "undecodable.json"),
                str(tmp_path / "missing.json"), str(tmp_path)],
    }


def _run(argv):
    """Exit code, stdout bytes and stderr text of ``main(argv)``."""
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    stderr = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
        stdout.flush()
    return code, stdout.buffer.getvalue(), stderr.getvalue()


def test_no_command_line_exits_3_or_floods_stderr(tmp_path):
    paths = _paths(tmp_path)
    report_path = tmp_path / "report.json"
    destinations = {"file": str(report_path), "directory": str(tmp_path),
                    "/dev/full": "/dev/full"}

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(command_lines(paths))
    def check(drawn):
        argv, flags, output = drawn
        if output != "stdout":
            argv = [*argv, f"--output={destinations[output]}"]
        report_path.unlink(missing_ok=True)
        code, written, err = _run(argv)
        assert code in (0, 1, 2), (argv, err)
        if code == 2:
            assert len(err.encode("utf-8")) < 400, (argv, err)
            assert "Traceback" not in err, (argv, err)
            assert err.splitlines()[-1].startswith("ortho"), (argv, err)
            return
        assert output in ("stdout", "file"), argv
        if output == "file":
            assert written == b""
            written = report_path.read_bytes()
        config = json.loads(written)["config"]
        for name, value in flags.items():
            assert config[name] == (value if name == "gram" else int(value)), argv

    check()
