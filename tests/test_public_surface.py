"""The package root's contract: ``__all__`` is what the root exports, and
it holds every name that its users import from ``orthocheck``.

Those users are the README's library tour, the acceptance suite and the
benchmark's input writer (``perfbench/inputs.py``).  Their files are read
as text and parsed with ``ast``, so nothing under ``perfbench/`` is
imported here; the input writer is also run as its own process, since a
root name it lost would otherwise first show as every benchmark run
failing while it makes its inputs.  Other helpers are imported from their
own modules.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import orthocheck
from orthocheck.serialize import load_gram, load_relation

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
INPUTS = ROOT / "perfbench" / "inputs.py"
README = (ROOT / "README.md").read_text(encoding="utf-8")
TOUR = re.search(r"## Library tour\s+```python\n(.*?)```", README, re.S).group(1)

ROOT_USERS = {
    "README tour": TOUR,
    "tests/test_acceptance.py": (ROOT / "tests" / "test_acceptance.py").read_text(
        encoding="utf-8"),
    "perfbench/inputs.py": INPUTS.read_text(encoding="utf-8"),
}


def _root_imports(source):
    return [
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "orthocheck"
        and node.level == 0
        for alias in node.names
    ]


def test_every_exported_name_resolves():
    assert len(set(orthocheck.__all__)) == len(orthocheck.__all__)
    missing = [n for n in orthocheck.__all__ if not hasattr(orthocheck, n)]
    assert missing == []


def test_dir_lists_every_exported_name():
    assert [n for n in orthocheck.__all__ if n not in dir(orthocheck)] == []


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'orthocheck'.*'no_such_name'"):
        orthocheck.no_such_name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from orthocheck import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(orthocheck.__all__)


@pytest.mark.parametrize("user", sorted(ROOT_USERS))
def test_root_users_import_only_exported_names(user):
    names = _root_imports(ROOT_USERS[user])
    assert names, f"{user} imports nothing from orthocheck"
    assert [n for n in names if n not in orthocheck.__all__] == []


def _run_inputs(*args):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(INPUTS), *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_benchmark_input_writer_runs(tmp_path):
    gram = tmp_path / "gram.json"
    _run_inputs("gram", "4", "1", str(gram))
    assert load_gram(str(gram)).dim == 4
    relation = tmp_path / "relation.json"
    printed = _run_inputs("relation", "3", "2", "2", "1", str(relation))
    assert printed.split() == ["4"]
    assert len(load_relation(str(relation))) == 4


def test_readme_tour_states_true_values():
    """Run the tour statement by statement; each bare expression's value
    must be the one its comment states."""
    namespace = {}
    values = []
    for stmt in ast.parse(TOUR).body:
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), "README.md", "eval")
            values.append(eval(code, namespace))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert values == [(-2, 5), ((1, -1), (-1, 2)), 0, False, (3, -2), (1, 2)]
    assert values[3] is False
