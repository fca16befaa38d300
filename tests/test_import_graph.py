"""Start-up cost: importing the CLI loads no introspection modules.

Every ``ortho`` run starts a fresh interpreter, so each module the package
imports is paid for on every run.  ``dataclasses`` alone pulls in
``inspect``, ``ast``, ``dis`` and ``tokenize``; the value classes are plain
classes (see ``orthocheck.linalg._Value``) so that none of them loads.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
UNWANTED = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def test_cli_import_loads_no_introspection_modules():
    # -S: the check is on what the package imports, not on what a site
    # hook (a .pth file) of this installation may import at start-up.
    code = (
        "import sys\n"
        "import orthocheck.cli\n"
        f"print(' '.join(m for m in {UNWANTED!r} if m in sys.modules))\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == []
