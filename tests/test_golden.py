"""Golden payload hashes: the canonical report bytes of fixed CLI runs.

Each entry of ``golden_payloads.json`` names an ``ortho`` command line, two
sha256 digests of the report it writes, and optionally the expected
``exit`` code (default 0), so that failing verdicts are pinned too.
``sha256`` is the digest of the canonical report with ``duration_s``
removed, so it pins the JSON values; ``bytes_sha256`` is the digest of the
bytes written with the ``duration_s`` number cut out as text, so it pins
the spacing, key order and line end as written.  Both digests hold for the
report written to ``--output`` and for the one written to stdout.  Running twice in one process
(criterion 9) cannot catch a change that alters the bytes consistently;
these pinned digests do.
Commands run from the repository root so that a ``--gram`` or ``--input``
path echoes the same in every checkout.

The module imports nothing outside the standard library and ``orthocheck``
(pytest parametrizes it through the ``pytest_generate_tests`` hook), so the
pinned digests can be checked under any interpreter without pytest::

    PYTHONPATH=src python tests/test_golden.py --check

which runs each entry twice, once with ``--output`` and once to stdout,
prints one line per entry and exits 1 on any digest or exit-code
mismatch.  With ``--fresh`` each entry runs in a new interpreter through
``python -m orthocheck``, the entry path a user (and the benchmark) runs,
instead of calling ``main`` in this process.  Without ``--check`` it
prints the digests of the current code (only for when a payload change is
intended)::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

from orthocheck.cli import main as cli_main
from orthocheck.serialize import canonical_dumps

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = Path(__file__).resolve().parent / "golden_payloads.json"
GOLDEN = json.loads(FIXTURE.read_text(encoding="utf-8"))
# The duration_s number of a report as ``main`` writes it.
DURATION = re.compile(rb'(?<="duration_s":)[^,]*(?=,"payload":)')


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def pinned(entry):
    """What :func:`run_digest` returns for ``entry``'s command."""
    return entry.get("exit", 0), entry["sha256"], entry["bytes_sha256"]


def run_digest(argv, out_path=None, fresh=False):
    """Run one command, in this process or (``fresh``) in a new
    ``python -m orthocheck``, writing its report to ``--output out_path``
    or, with no ``out_path``, to stdout; return its exit code, the sha256
    of its report without ``duration_s``, and the sha256 of the bytes
    written with the ``duration_s`` number cut out (both None when no
    report was written)."""
    argv = list(argv)
    if out_path is not None:
        out_path = Path(out_path)
        out_path.unlink(missing_ok=True)
        argv += ["--output", str(out_path)]
    if fresh:
        done = subprocess.run([sys.executable, "-m", "orthocheck", *argv],
                              stdout=subprocess.PIPE, timeout=600)
        code, written = done.returncode, done.stdout
    else:
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        with contextlib.redirect_stdout(stdout):
            code = cli_main(argv)
        stdout.flush()
        written = stdout.buffer.getvalue()
    if out_path is not None:
        assert not written, "a report written to --output was printed too"
        written = out_path.read_bytes() if out_path.exists() else b""
    if not written:
        return code, None, None
    report = json.loads(written.decode("utf-8"))
    stripped = {k: v for k, v in report.items() if k != "duration_s"}
    return (code, _sha256(canonical_dumps(stripped).encode("utf-8")),
            _sha256(DURATION.sub(b"", written, count=1)))


def pytest_generate_tests(metafunc):
    if "entry" in metafunc.fixturenames:
        metafunc.parametrize(
            "entry", GOLDEN, ids=[" ".join(entry["argv"]) for entry in GOLDEN]
        )


def test_golden_payload_hash(entry, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    code, digest, byte_digest = run_digest(entry["argv"], tmp_path / "report.json")
    command = " ".join(entry["argv"])
    assert code == entry.get("exit", 0), f"ortho {command} exited {code}"
    assert digest == entry["sha256"], (
        f"payload of `ortho {command}` changed: "
        f"sha256 {digest}, pinned {entry['sha256']}"
    )
    assert byte_digest == entry["bytes_sha256"], (
        f"bytes written by `ortho {command}` changed: "
        f"sha256 {byte_digest}, pinned {entry['bytes_sha256']}"
    )


def test_golden_payload_hash_on_stdout(entry, monkeypatch):
    """Stdout gets the same bytes as ``--output``: both digests hold."""
    monkeypatch.chdir(ROOT)
    assert run_digest(entry["argv"]) == pinned(entry), " ".join(entry["argv"])


def test_golden_payload_hash_in_a_fresh_interpreter(tmp_path, monkeypatch):
    """The first entry through ``python -m orthocheck``, to ``--output`` and
    to stdout, as ``--fresh`` runs every entry."""
    monkeypatch.chdir(ROOT)
    entry = GOLDEN[0]
    for out_path in (tmp_path / "report.json", None):
        assert run_digest(entry["argv"], out_path, fresh=True) == pinned(entry)


def test_hashes_only_pick_buckets(tmp_path, monkeypatch):
    """With every vector hashing to one constant, the factor and chain
    entries keep their exit codes and digests, and a repeated (frame,
    point) pair is still found: equality, not the hash, decides."""
    import orthocheck.dependence  # loads every module that binds the hash
    from orthocheck import DuplicatePointError, Relation, relation_point
    from orthocheck.linalg import frame_of

    monkeypatch.chdir(ROOT)
    for name, module in list(sys.modules.items()):
        if name.startswith("orthocheck") and hasattr(module, "_vector_hash"):
            monkeypatch.setattr(module, "_vector_hash", lambda v: 0)
    entries = [e for e in GOLDEN if e["argv"][0] in ("factor", "chain")]
    assert len(entries) == 7
    for entry in entries:
        assert run_digest(entry["argv"], tmp_path / "report.json") == (
            pinned(entry)), " ".join(entry["argv"])
    p = relation_point(frame_of((1, 0), (1, 2)), (3, 4))
    copy = relation_point(frame_of(("2/2", 0), (1, "4/2")), ("6/2", 4))
    try:
        Relation((p, copy))
    except DuplicatePointError:
        return
    raise AssertionError("a repeated (frame, point) pair was not found")


def main(argv):
    """Print each entry's digests; with ``--check``, compare to the pins
    the digests of the report written to ``--output`` and to stdout; with
    ``--fresh``, run each entry in a new interpreter."""
    import os
    import platform
    import tempfile

    check, fresh = "--check" in argv, "--fresh" in argv
    if set(argv) - {"--check", "--fresh"}:
        print("usage: test_golden.py [--check] [--fresh]")
        return 2
    os.chdir(ROOT)
    value_matches = byte_matches = stdout_matches = 0
    with tempfile.TemporaryDirectory() as scratch:
        for entry in GOLDEN:
            code, digest, byte_digest = run_digest(
                entry["argv"], Path(scratch) / "report.json", fresh
            )
            command = " ".join(entry["argv"])
            if not check:
                print(digest, byte_digest, command)
                continue
            exit_code, pinned_digest, pinned_bytes = pinned(entry)
            value_ok = (code, digest) == (exit_code, pinned_digest)
            bytes_ok = (code, byte_digest) == (exit_code, pinned_bytes)
            stdout_ok = run_digest(entry["argv"], fresh=fresh) == pinned(entry)
            value_matches += value_ok
            byte_matches += bytes_ok
            stdout_matches += stdout_ok
            print("ok  " if value_ok and bytes_ok and stdout_ok else "FAIL",
                  f"exit {code}", digest, byte_digest, command)
    if check:
        print(f"python {platform.python_version()}: "
              f"{value_matches}/{len(GOLDEN)} value digests, "
              f"{byte_matches}/{len(GOLDEN)} byte digests and "
              f"{stdout_matches}/{len(GOLDEN)} stdout digests match")
        return 0 if value_matches == byte_matches == stdout_matches == len(GOLDEN) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
