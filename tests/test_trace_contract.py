"""The traced benchmark run names library functions; they must still exist.

``perfbench/trace_child.py`` wraps each name in ``ENTRY_POINTS`` and the
``__post_init__`` of each class in ``VALIDATORS`` on its home module,
``orthocheck.<layer>``.  A refactor that moves or renames one of them
breaks the traced run only when it is run; this test catches it here.
The file is read as text and its two tables are evaluated as literals, so
nothing under ``perfbench/`` is imported or written.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACE_CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "trace_child.py"


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
