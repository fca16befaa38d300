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
mismatch.  Without ``--check`` it prints the digests of the current code
(only for when a payload change is intended)::

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
from pathlib import Path

from orthocheck.cli import main as cli_main
from orthocheck.serialize import canonical_dumps

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = Path(__file__).resolve().parent / "golden_payloads.json"
GOLDEN = json.loads(FIXTURE.read_text(encoding="utf-8"))


def run_digest(argv, out_path):
    """Run one command; return its exit code and the sha256 of its report
    without ``duration_s`` (None when no report was written)."""
    out_path = Path(out_path)
    out_path.unlink(missing_ok=True)
    code = cli_main(list(argv) + ["--output", str(out_path)])
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


def main(argv):
    """Print each entry's digest; with ``--check``, compare to the pins."""
    import os
    import platform
    import tempfile

    check = argv == ["--check"]
    if argv and not check:
        print("usage: test_golden.py [--check]")
        return 2
    os.chdir(ROOT)
    mismatches = 0
    with tempfile.TemporaryDirectory() as scratch:
        for entry in GOLDEN:
            code, digest = run_digest(entry["argv"], Path(scratch) / "report.json")
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
    import sys

    sys.exit(main(sys.argv[1:]))
