"""Golden payload hashes: the canonical report bytes of fixed CLI runs.

Each entry of ``golden_payloads.json`` names an ``ortho`` command line and
the sha256 of its canonical report with ``duration_s`` removed, and
optionally the expected ``exit`` code (default 0), so that failing verdicts
are pinned too.  Running twice in one process (criterion 9) cannot catch a
change that alters the bytes consistently; these pinned digests do.
Commands run from the repository root so that a ``--gram`` or ``--input``
path echoes the same in every checkout.

The module imports nothing outside the standard library and ``orthocheck``
(pytest parametrizes it through the ``pytest_generate_tests`` hook), so the
pinned digests can be checked under any interpreter without pytest::

    PYTHONPATH=src python tests/test_golden.py --check

which prints one line per entry and exits 1 on any digest or exit-code
mismatch.  With ``--fresh`` each entry runs in a new interpreter through
``python -m orthocheck``, the entry path a user (and the benchmark) runs,
instead of calling ``main`` in this process.  Without ``--check`` it
prints the digests of the current code (only for when a payload change is
intended)::

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

from orthocheck.cli import main as cli_main
from orthocheck.serialize import canonical_dumps

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = Path(__file__).resolve().parent / "golden_payloads.json"
GOLDEN = json.loads(FIXTURE.read_text(encoding="utf-8"))


def run_digest(argv, out_path, fresh=False):
    """Run one command, in this process or (``fresh``) in a new
    ``python -m orthocheck``; return its exit code and the sha256 of its
    report without ``duration_s`` (None when no report was written)."""
    out_path = Path(out_path)
    out_path.unlink(missing_ok=True)
    argv = list(argv) + ["--output", str(out_path)]
    if fresh:
        code = subprocess.run(
            [sys.executable, "-m", "orthocheck", *argv], timeout=600
        ).returncode
    else:
        code = cli_main(argv)
    if not out_path.exists():
        return code, None
    report = json.loads(out_path.read_text(encoding="utf-8"))
    stripped = {k: v for k, v in report.items() if k != "duration_s"}
    digest = hashlib.sha256(canonical_dumps(stripped).encode("utf-8")).hexdigest()
    return code, digest


def pytest_generate_tests(metafunc):
    if "entry" in metafunc.fixturenames:
        metafunc.parametrize(
            "entry", GOLDEN, ids=[" ".join(entry["argv"]) for entry in GOLDEN]
        )


def test_golden_payload_hash(entry, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    code, digest = run_digest(entry["argv"], tmp_path / "report.json")
    command = " ".join(entry["argv"])
    assert code == entry.get("exit", 0), f"ortho {command} exited {code}"
    assert digest == entry["sha256"], (
        f"payload of `ortho {command}` changed: "
        f"sha256 {digest}, pinned {entry['sha256']}"
    )


def test_golden_payload_hash_in_a_fresh_interpreter(tmp_path, monkeypatch):
    """The first entry through ``python -m orthocheck``, as ``--fresh``
    runs every entry."""
    monkeypatch.chdir(ROOT)
    entry = GOLDEN[0]
    assert run_digest(entry["argv"], tmp_path / "report.json", fresh=True) == (
        entry.get("exit", 0), entry["sha256"])


def main(argv):
    """Print each entry's digest; with ``--check``, compare to the pins;
    with ``--fresh``, run each entry in a new interpreter."""
    import os
    import platform
    import tempfile

    check, fresh = "--check" in argv, "--fresh" in argv
    if set(argv) - {"--check", "--fresh"}:
        print("usage: test_golden.py [--check] [--fresh]")
        return 2
    os.chdir(ROOT)
    mismatches = 0
    with tempfile.TemporaryDirectory() as scratch:
        for entry in GOLDEN:
            code, digest = run_digest(
                entry["argv"], Path(scratch) / "report.json", fresh
            )
            command = " ".join(entry["argv"])
            if not check:
                print(digest, command)
                continue
            ok = code == entry.get("exit", 0) and digest == entry["sha256"]
            mismatches += not ok
            print("ok  " if ok else "FAIL", f"exit {code}", digest, command)
    if check:
        print(f"python {platform.python_version()}: "
              f"{len(GOLDEN) - mismatches}/{len(GOLDEN)} digests match")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
