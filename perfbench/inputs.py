"""Input files for the benchmark workloads, made from a seed with public
library functions.  Runs as its own process so that the benchmark driver
stays small: a child's peak RSS counts the parent's pages up to ``exec``.

Usage::

    python3 perfbench/inputs.py gram DIM SEED PATH
    python3 perfbench/inputs.py relation DIM FRAMES POINTS SEED PATH

``gram`` writes a dense DIMxDIM Gram matrix from ``sample_inner_product``;
``relation`` writes the orthogonal relation ``ortho factor`` builds for the
same flags (identity inner product, m = DIM) and prints its entry count.
"""

from __future__ import annotations

import sys

from orthocheck import (
    build_orthogonal_relation,
    canonical_dumps,
    identity_inner_product,
    relation_to_json,
    sample_inner_product,
)
from orthocheck.cli import RunConfig
from orthocheck.serialize import gram_to_json


def main(argv: list[str]) -> int:
    kind, *numbers, path = argv
    if kind == "gram":
        dim, seed = map(int, numbers)
        value = gram_to_json(sample_inner_product(dim, RunConfig.bound, seed))
    elif kind == "relation":
        dim, frames, points, seed = map(int, numbers)
        rel = build_orthogonal_relation(
            identity_inner_product(dim), frames, points, RunConfig.bound, seed,
            m=dim)
        value = relation_to_json(rel)
        print(len(rel))
    else:
        print(f"unknown input kind {kind!r}", file=sys.stderr)
        return 2
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(canonical_dumps(value) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
