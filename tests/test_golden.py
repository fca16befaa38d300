"""Golden payload hashes: the canonical report bytes of fixed CLI runs.

Each entry of ``golden_payloads.json`` names an ``ortho`` command line and
the sha256 of its canonical report with ``duration_s`` removed, and
optionally the expected ``exit`` code (default 0), so that failing verdicts
are pinned too.  Running twice in one process (criterion 9) cannot catch a
change that alters the bytes consistently; these pinned digests do.
Commands run from the repository root so that a ``--gram`` or ``--input``
path echoes the same in every checkout.

To print the digests of the current code (only when a payload change is
intended)::

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from orthocheck.cli import main as cli_main
from orthocheck.serialize import canonical_dumps

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = Path(__file__).resolve().parent / "golden_payloads.json"
GOLDEN = json.loads(FIXTURE.read_text(encoding="utf-8"))


def payload_digest(argv, out_path, exit_code=0):
    """Run one command and hash its report without ``duration_s``."""
    code = cli_main(list(argv) + ["--output", str(out_path)])
    assert code == exit_code, f"ortho {' '.join(argv)} exited {code}"
    report = json.loads(Path(out_path).read_text(encoding="utf-8"))
    stripped = {k: v for k, v in report.items() if k != "duration_s"}
    return hashlib.sha256(canonical_dumps(stripped).encode("utf-8")).hexdigest()


@pytest.mark.parametrize(
    "entry", GOLDEN, ids=[" ".join(entry["argv"]) for entry in GOLDEN]
)
def test_golden_payload_hash(entry, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    digest = payload_digest(
        entry["argv"], tmp_path / "report.json", entry.get("exit", 0)
    )
    assert digest == entry["sha256"], (
        f"payload of `ortho {' '.join(entry['argv'])}` changed: "
        f"sha256 {digest}, pinned {entry['sha256']}"
    )


if __name__ == "__main__":
    import os
    import tempfile

    os.chdir(ROOT)
    with tempfile.TemporaryDirectory() as scratch:
        for entry in GOLDEN:
            digest = payload_digest(
                entry["argv"], Path(scratch) / "report.json", entry.get("exit", 0)
            )
            print(digest, " ".join(entry["argv"]))
