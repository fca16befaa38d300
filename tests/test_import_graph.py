"""Start-up cost: a run loads only the modules its command needs.

Every ``ortho`` run starts a fresh interpreter, so each module the package
imports is paid for on every run.  ``dataclasses`` alone pulls in
``inspect``, ``ast``, ``dis`` and ``tokenize``; the value classes are plain
classes (see ``orthocheck.linalg._Value``) so that none of them loads.
The package root resolves its names on first access, and ``cli`` imports
``dependence`` and ``maximality`` only inside the commands that call them.

Each check runs in a fresh interpreter started with ``-S``: the check is on
what the package imports, not on what a site hook (a .pth file) of this
installation may import at start-up.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
UNWANTED = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def _loaded_after(code):
    """Run ``code`` in a fresh interpreter; return what it prints, split."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


def test_cli_import_loads_no_introspection_modules():
    code = (
        "import sys\n"
        "import orthocheck.cli\n"
        f"print(' '.join(m for m in {UNWANTED!r} if m in sys.modules))\n"
    )
    assert _loaded_after(code) == []


def test_package_import_loads_no_submodule():
    code = (
        "import sys\n"
        "import orthocheck\n"
        "print(' '.join(m for m in sys.modules if m.startswith('orthocheck.')))\n"
    )
    assert _loaded_after(code) == []


RELATION4 = str(ROOT / "tests" / "fixtures" / "relation4.json")


@pytest.mark.parametrize("argv, absent", [
    (["equivalence", "--frames", "1", "--points", "1"],
     ["dependence", "maximality"]),
    (["pair-ip", "--a=1,0", "--b=1,1"], ["dependence", "maximality"]),
    (["factor", "--frames", "1"], ["maximality"]),
    (["factor", "--input", RELATION4, "--dim", "4", "--m", "4"],
     ["maximality"]),
], ids=["equivalence", "pair-ip", "factor", "factor-input"])
def test_command_loads_only_its_modules(tmp_path, argv, absent):
    report = tmp_path / "report.json"
    code = (
        "import sys\n"
        "from orthocheck.cli import main\n"
        f"code = main({[*argv, '--output', str(report)]!r})\n"
        f"print(code, *(m for m in {absent!r} if 'orthocheck.' + m in sys.modules))\n"
    )
    assert _loaded_after(code) == ["0"]
    assert report.read_text(encoding="utf-8").startswith('{"command":')
