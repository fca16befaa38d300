"""Traced run of one ``ortho`` command, for the per-layer half of the benchmark.

Usage::

    python3 perfbench/trace_child.py STATS_PATH -- <ortho arguments>

Wraps each layer's entry points (ENTRY_POINTS) and the ``__post_init__``
validators of ``Frame``, ``GramInnerProduct``, ``RelationPoint`` and
``Relation``, then calls ``cli.main`` in this process.
The modules import each other with ``from .x import y``, so every module
namespace that binds a wrapped function gets the wrapper, not only the
defining one.  Spans are kept in memory as per-function totals: calls,
inclusive time and self time (inclusive minus the time covered by child
spans).  The totals, the parent-child call counts and a few counts taken
from return values are written to STATS_PATH as JSON; the command's own
report goes to stdout as usual and the exit code is the command's.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from time import perf_counter

# Entry points wrapped per layer: the public functions the benchmark's
# commands reach, plus ``determinant`` and ``invert_matrix`` so that every
# elimination is counted.  Small helpers (vector arithmetic, ``as_vector``,
# per-entry JSON converters) stay unwrapped: their time is charged to the
# calling span.
ENTRY_POINTS = {
    "cli": ("main", "cmd_equivalence", "cmd_factor", "cmd_maximality"),
    "linalg": ("matrix_rank", "determinant", "invert_matrix",
               "solve_coordinates", "is_independent", "span_contains",
               "sample_frame", "sample_span_point"),
    "inner_product": ("evaluate", "is_orthogonal_tuple", "coefficient_formula",
                      "verify_projection_equivalence", "gram_schmidt",
                      "identity_inner_product"),
    "dependence": ("relation_point", "factor_check", "factor_check_points",
                   "build_orthogonal_relation"),
    "maximality": ("verify_orthogonal_maximality", "orthogonality_witness",
                   "first_nonorthogonal_pair", "exhaustive_candidates_2d"),
    "serialize": ("canonical_dumps", "outcome_to_json",
                  "maximality_report_to_json", "load_relation", "load_gram"),
}
VALIDATORS = {
    "linalg": ("Frame",),
    "inner_product": ("GramInnerProduct",),
    "dependence": ("RelationPoint", "Relation"),
}
NAMESPACES = ("orthocheck", "orthocheck.linalg", "orthocheck.inner_product",
              "orthocheck.dependence", "orthocheck.maximality",
              "orthocheck.serialize", "orthocheck.cli")


class Tracer:
    """Per-function span totals, with self time computed from nesting."""

    def __init__(self) -> None:
        self.functions: dict[str, dict] = {}
        self.edges: dict[str, int] = {}
        self.counters = {"table_entries": 0, "candidates": 0, "rejected": 0,
                         "bytes_out": 0, "bytes_in": 0}
        self._stack: list[list] = []

    def wrap(self, layer: str, name: str, fn, hook=None):
        key = f"{layer}.{name}"
        stat = self.functions.setdefault(
            key, {"layer": layer, "calls": 0, "total_s": 0.0, "self_s": 0.0})
        stack, edges = self._stack, self.edges

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            edge = f"{stack[-1][0] if stack else '-'}>{key}"
            edges[edge] = edges.get(edge, 0) + 1
            span = [key, 0.0]
            stack.append(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stat["calls"] += 1
                stat["total_s"] += elapsed
                stat["self_s"] += elapsed - span[1]
                if stack:
                    stack[-1][1] += elapsed
            if hook is not None:
                hook(args, result)
            return result

        return traced

    # Counts read from arguments and return values at the layer boundary.

    def _tables(self, args, outcome) -> None:
        if outcome.tables is not None:
            self.counters["table_entries"] += sum(len(t) for t in outcome.tables)

    def _sweep(self, args, reports) -> None:
        self.counters["candidates"] += len(reports)
        self.counters["rejected"] += sum(1 for r in reports if not r.accepted)

    def _emitted(self, args, text) -> None:
        self.counters["bytes_out"] += len(text.encode("utf-8"))

    def _parsed(self, args, result) -> None:
        self.counters["bytes_in"] += os.path.getsize(args[0])

    def install(self) -> None:
        """Replace every binding of the entry points in every namespace."""
        hooks = {
            "dependence.factor_check": self._tables,
            "maximality.verify_orthogonal_maximality": self._sweep,
            "serialize.canonical_dumps": self._emitted,
            "serialize.load_relation": self._parsed,
            "serialize.load_gram": self._parsed,
        }
        modules = [importlib.import_module(name) for name in NAMESPACES]
        replacements = {}
        for layer, names in ENTRY_POINTS.items():
            home = importlib.import_module(f"orthocheck.{layer}")
            for name in names:
                original = getattr(home, name)
                replacements[id(original)] = self.wrap(
                    layer, name, original, hooks.get(f"{layer}.{name}"))
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
        for layer, classes in VALIDATORS.items():
            home = importlib.import_module(f"orthocheck.{layer}")
            for cls_name in classes:
                cls = getattr(home, cls_name)
                cls.__post_init__ = self.wrap(
                    layer, f"{cls_name}.__post_init__", cls.__post_init__)

    def to_json(self) -> dict:
        return {"functions": self.functions, "edges": self.edges,
                "counters": self.counters}


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: trace_child.py STATS_PATH -- <ortho arguments>",
              file=sys.stderr)
        return 2
    stats_path, command = argv[0], argv[2:]
    tracer = Tracer()
    tracer.install()
    cli = importlib.import_module("orthocheck.cli")
    code = cli.main(command)
    sys.stdout.flush()
    with open(stats_path, "w", encoding="utf-8") as handle:
        json.dump(tracer.to_json(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
