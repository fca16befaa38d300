"""Every name a library module imports is used in that module.

A deletion can leave its imports behind, and nothing else notices: the
module still imports cleanly.  This reads each ``src/orthocheck/*.py``
with ``ast`` and checks that each imported name is read somewhere in it.
Every import counts, also one inside a function or under
``typing.TYPE_CHECKING``, since ``ast.walk`` reaches them all.  The package
root re-exports through a name table, not by importing, so it is checked
too.  ``__future__`` imports and lines marked ``# noqa``, which keep a name
bound on purpose, are exempt.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "orthocheck"
MODULES = sorted(PACKAGE.glob("*.py"))


def _imported(tree, lines):
    """Names bound by the module's imports, with their line numbers."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            if "# noqa" not in lines[alias.lineno - 1]:
                yield alias.asname or alias.name.split(".")[0], alias.lineno


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_imported_name_is_used(path):
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text)
    # Annotations are parsed as expressions too, so they count as reads.
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{path.name}:{line} {name}"
              for name, line in _imported(tree, text.splitlines())
              if name not in used]
    assert unused == []
