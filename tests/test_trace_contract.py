"""The traced benchmark run names library functions; they must still exist.

``perfbench/trace_child.py`` wraps each name in ``ENTRY_POINTS`` and the
``__post_init__`` of each class in ``VALIDATORS`` on its home module,
``orthocheck.<layer>``.  A refactor that moves or renames one of them
breaks the traced run only when it is run; this test catches it here.
The file is read as text and its two tables are evaluated as literals, so
nothing under ``perfbench/`` is imported or written.

A name that resolves can still be bypassed: a dispatch that reaches a
command through a binding the tracer did not replace runs untraced.  So a
few small commands also run through ``trace_child.py`` in a subprocess,
writing only into the test's temporary directory, and the library calls
that a command imports when it runs are counted too.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from orthocheck.cli import main

ROOT = Path(__file__).resolve().parent.parent
TRACE_CHILD = ROOT / "perfbench" / "trace_child.py"


def _tables():
    tree = ast.parse(TRACE_CHILD.read_text(encoding="utf-8"))
    found = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in (
                "ENTRY_POINTS", "VALIDATORS"
            ):
                found[target.id] = ast.literal_eval(node.value)
    return found


TABLES = _tables()


def _pairs(table):
    return [
        (layer, name)
        for layer, names in TABLES[table].items()
        for name in names
    ]


@pytest.mark.parametrize("layer, name", _pairs("ENTRY_POINTS"))
def test_entry_point_resolves_on_its_home_module(layer, name):
    module = importlib.import_module(f"orthocheck.{layer}")
    assert callable(getattr(module, name, None)), f"orthocheck.{layer}.{name}"


@pytest.mark.parametrize("layer, name", _pairs("VALIDATORS"))
def test_validator_class_resolves_with_post_init(layer, name):
    module = importlib.import_module(f"orthocheck.{layer}")
    cls = getattr(module, name, None)
    assert isinstance(cls, type), f"orthocheck.{layer}.{name}"
    assert callable(getattr(cls, "__post_init__", None))


@pytest.mark.parametrize("argv, deferred", [
    (("equivalence", "--frames", "2", "--points", "2"), ()),
    (("factor", "--frames", "2", "--points", "2"),
     ("dependence.build_orthogonal_relation", "dependence.factor_check")),
    (("maximality", "--bound", "1"),
     ("maximality.verify_orthogonal_maximality",
      "maximality.exhaustive_candidates_2d")),
], ids=["equivalence", "factor", "maximality"])
def test_traced_run_goes_through_the_wrappers(capsys, tmp_path, argv, deferred):
    stats_path = tmp_path / "s.json"
    path = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(TRACE_CHILD), str(stats_path), "--", *argv],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    functions = json.loads(stats_path.read_text(encoding="utf-8"))["functions"]
    # ``deferred`` names are imported inside the command when it runs, so
    # they are read from their home modules after the wrappers went in.
    for key in ("cli.main", f"cli.cmd_{argv[0]}", "serialize.canonical_dumps",
                *deferred):
        assert functions[key]["calls"] == 1, key

    assert main(list(argv)) == 0
    untraced = json.loads(capsys.readouterr().out)
    assert json.loads(result.stdout)["payload"] == untraced["payload"]
