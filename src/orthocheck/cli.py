"""Command-line harness: seeded experiment suites with JSON reports.

Five subcommands cover the library surface: ``equivalence`` (solver vs
coefficient formula on orthogonal frames), ``factor`` (factorization scan
over a built or loaded relation), ``maximality`` (candidate sweep with
witness rejections, exhaustive in dimension 2), ``chain`` (nested chain
unions), and ``pair-ip`` (adapted inner product for one vector pair).

Each command imports the modules it runs when it is dispatched, so a run
loads no ``dependence`` or ``maximality`` code it does not call; that
import is part of the command's ``duration_s``.
Each ``cmd_*`` returns its payload and whether it passed; ``main`` times
the command, assembles the report (command, config echo, payload, verdict,
``duration_s``) and writes it, to stdout or ``--output``, as canonical
JSON.  With a fixed config the payload is byte-identical across runs and
platforms; only ``duration_s`` varies.
Exit codes: 0 verdict pass, 1 verdict fail, 2 usage or parse error, 3 an
unexpected error inside the library (a bug; the traceback goes to stderr).
A flag the chosen command path never reads is a usage error; ``--seed`` is
accepted everywhere.  So are flags that ask for more work than the
command's cap (see ``_cap_work``).  ``ORTHO_SEED`` in the environment
overrides ``--seed``; a seed outside [0, 2^64) is a usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import TYPE_CHECKING, Any, Collection, Sequence

from .errors import DependentFrameError, OrthoError, ShapeError, UsageError
from .inner_product import (
    GramInnerProduct,
    coefficient_formula,
    evaluate,
    frame_adapted_inner_product,
    gram_schmidt,
    identity_inner_product,
    is_orthogonal_tuple,
    verify_projection_equivalence,
)
from .linalg import (
    Frame,
    Vector,
    _check_seed,
    _Value,
    derive_seed,
    sample_frame,
    sample_span_point,
    solve_coordinates,
)
from .serialize import (
    canonical_dumps,
    gram_to_json,
    load_gram,
    load_relation,
    maximality_report_to_json,
    outcome_to_json,
    rational_from_json,
    rational_to_json,
    vector_to_json,
)

if TYPE_CHECKING:
    from .maximality import MaximalityReport

CHAIN_DEPTH = 4
_CHAIN_STREAM = 0x434E

# Work caps, checked from the flags before any work starts (_cap_work).
# Each allows about a minute on a 2-core VM at the dearest shape its flags
# reach: the dimension-2 grid up to --bound 11 (279,841 pairs at about
# 0.19 ms each), and SAMPLE_CAP sampled frames or points at dim 16 with
# entries up to BOUND_CAP, which sets their bit length (about 12 ms per
# unit; equivalence at 5,000 points ran 56 s).
GRID_CAP = 300_000
SAMPLE_CAP = 5_000
BOUND_CAP = 100


class RunConfig(_Value):
    """Shared experiment parameters; every command echoes them back.

    The defaults are class attributes too (``RunConfig.bound``).
    """

    _fields = ("dim", "m", "frames", "points", "bound", "seed", "gram")
    dim: int = 2
    m: int = 2
    frames: int = 8
    points: int = 4
    bound: int = 5
    seed: int = 0
    gram: str | None = None

    def __init__(self, dim: int = dim, m: int = m, frames: int = frames,
                 points: int = points, bound: int = bound, seed: int = seed,
                 gram: str | None = gram) -> None:
        self.__dict__.update(dim=dim, m=m, frames=frames, points=points,
                             bound=bound, seed=seed, gram=gram)
        self.__post_init__()

    def __post_init__(self) -> None:
        if not 2 <= self.m <= self.dim <= 16:
            raise UsageError(
                f"need 2 <= m <= dim <= 16, got m={self.m}, dim={self.dim}"
            )
        if self.frames < 0 or self.points < 0:
            raise UsageError("frame and point counts must be >= 0")
        if self.bound < 1:
            raise UsageError(f"bound must be positive, got {self.bound}")
        _check_seed(self.seed)

    def to_json(self) -> dict[str, Any]:
        return dict(zip(self._fields, self._values()))

    def load_inner_product(self) -> GramInnerProduct:
        """The identity form, or the ``--gram`` file's, sized to ``dim``."""
        if self.gram is None:
            return identity_inner_product(self.dim)
        G = load_gram(self.gram)
        if G.dim != self.dim:
            raise ShapeError(
                f"--gram {self.gram} is {G.dim}x{G.dim} but --dim is {self.dim}"
            )
        return G


def _cap_work(command: str, config: RunConfig) -> None:
    """Raise UsageError if the work ``command`` would start, bounded from its
    flags alone, is above its cap.

    The dimension-2 sweep visits every ordered pair of grid vectors,
    ``(2 * bound + 1) ** 4``; a sampled sweep one frame per ``--frames``;
    the other commands ``frames * points`` span points, counting a frame
    without points as one, since it is still drawn and orthogonalized.
    Sampled entries are drawn up to ``--bound``, so there it is capped too.
    """
    if command == "maximality" and config.dim == 2:
        flags, count = f"--bound {config.bound}", (2 * config.bound + 1) ** 4
        unit, cap = "candidate pairs", GRID_CAP
    elif config.bound > BOUND_CAP:
        raise UsageError(
            f"{command} --bound {config.bound} is above the cap of "
            f"{BOUND_CAP} for sampled entries"
        )
    elif command == "maximality":
        flags, count = f"--frames {config.frames}", config.frames
        unit, cap = "candidate frames", SAMPLE_CAP
    else:
        flags = f"--frames {config.frames} --points {config.points}"
        count = config.frames * max(config.points, 1)
        unit, cap = "span points", SAMPLE_CAP
    if count > cap:
        raise UsageError(
            f"{command} {flags} asks for {count} {unit}, above the cap of {cap}"
        )


def _reject_unread(given: Collection[str], path: str, *unread: str) -> None:
    """Raise UsageError if ``given``, the count flags passed explicitly on
    the command line, holds one that this command path never reads."""
    flags = [f"--{name}" for name in unread if name in given]
    if flags:
        raise UsageError(f"{path} does not read {' or '.join(flags)}")


Result = tuple[dict[str, Any], bool]


def cmd_equivalence(config: RunConfig) -> Result:
    """Solver coordinates vs the coefficient formula on orthogonal frames."""
    G = config.load_inner_product()
    _cap_work("equivalence", config)
    trials = failures = 0
    for k in range(config.frames):
        raw = sample_frame(config.dim, config.m, config.bound,
                           derive_seed(config.seed, k, 0))
        frame = gram_schmidt(G, raw)
        for t in range(config.points):
            x = sample_span_point(frame, config.bound,
                                  derive_seed(config.seed, k, t + 1))
            trials += 1
            if not verify_projection_equivalence(G, frame, x):
                failures += 1
    return {"trials": trials, "failures": failures}, failures == 0


def cmd_factor(config: RunConfig, input_path: str | None = None,
               given: Collection[str] = ()) -> Result:
    """Factorization scan over a loaded relation or a fresh orthogonal one."""
    from .dependence import build_orthogonal_relation, factor_check

    if input_path is not None and config.gram is not None:
        raise UsageError(
            "--gram cannot be combined with --input: a loaded relation is "
            "checked without an inner product"
        )
    if input_path is not None:
        _reject_unread(given, "factor --input", "frames", "points", "bound")
        rel = load_relation(input_path)
        if rel.points and (rel.points[0].frame.dim, rel.slot_count) != (
            config.dim, config.m
        ):
            raise ShapeError(
                f"--input {input_path} holds a relation with "
                f"dim={rel.points[0].frame.dim}, m={rel.slot_count} "
                f"but --dim is {config.dim} and --m is {config.m}"
            )
    else:
        G = config.load_inner_product()
        _cap_work("factor", config)
        rel = build_orthogonal_relation(
            G, config.frames, config.points, config.bound, config.seed,
            m=config.m,
        )
    outcome = factor_check(rel)
    return outcome_to_json(outcome), outcome.passed


def _recheck_rejection(G: GramInnerProduct, report: MaximalityReport) -> bool:
    """Reproduce a rejection from scratch: re-solve both frames at the
    collision point and confirm the slot values disagree as reported."""
    i = report.index
    candidate_value = solve_coordinates(report.candidate, report.collision_point)[i - 1]
    witness_value = solve_coordinates(report.orthogonal_witness,
                                      report.collision_point)[i - 1]
    return (
        (candidate_value, witness_value) == report.values
        and candidate_value != witness_value
        and report.orthogonal_witness[i - 1] == report.candidate[i - 1]
        and is_orthogonal_tuple(G, report.orthogonal_witness)
    )


def cmd_maximality(config: RunConfig, given: Collection[str] = ()) -> Result:
    """Candidate sweep: orthogonal frames accepted, the rest rejected with
    verified witnesses.  Exhaustive grid in dimension 2, sampled above."""
    from .maximality import exhaustive_candidates_2d, verify_orthogonal_maximality

    if config.m != config.dim:
        raise UsageError(
            f"maximality sweep needs m == dim, got m={config.m}, dim={config.dim}"
        )
    G = config.load_inner_product()
    if config.dim == 2:
        _reject_unread(given, "maximality in dimension 2", "frames", "points")
        _cap_work("maximality", config)
        candidates: tuple[Frame, ...] = exhaustive_candidates_2d(config.bound)
    else:
        _reject_unread(given, "maximality", "points")
        _cap_work("maximality", config)
        candidates = tuple(
            sample_frame(config.dim, config.dim, config.bound,
                         derive_seed(config.seed, k, 0))
            for k in range(config.frames)
        )
    reports = verify_orthogonal_maximality(G, candidates)
    accepted = sum(1 for r in reports if r.accepted)
    rejected = [r for r in reports if not r.accepted]
    sound = all(
        is_orthogonal_tuple(G, r.candidate) for r in reports if r.accepted
    ) and all(_recheck_rejection(G, r) for r in rejected)
    payload = {
        "summary": {
            "total": len(reports),
            "orthogonal_accepted": accepted,
            "nonorthogonal_rejected": len(rejected),
        },
        "rejected": [maximality_report_to_json(r) for r in rejected],
    }
    return payload, sound


def cmd_chain(config: RunConfig) -> Result:
    """Nested chain inside a built orthogonal relation; union must factor."""
    from .dependence import build_orthogonal_relation
    from .maximality import chain_union_check, sample_chain

    G = config.load_inner_product()
    _cap_work("chain", config)
    rel = build_orthogonal_relation(
        G, config.frames, config.points, config.bound, config.seed, m=config.m,
    )
    chain = sample_chain(rel, CHAIN_DEPTH,
                         derive_seed(config.seed, _CHAIN_STREAM))
    union_passes = chain_union_check(chain)
    payload = {
        "chain_lengths": [len(member) for member in chain],
        "union_passes": union_passes,
    }
    return payload, union_passes


def cmd_pair_ip(config: RunConfig, a_text: str, b_text: str,
                given: Collection[str] = ()) -> Result:
    """Adapted inner product for one independent pair in dimension 2, given
    as vector literals (see ``parse_vector_literal``)."""
    if (config.dim, config.m) != (2, 2):
        raise UsageError(
            f"pair-ip runs in dimension 2 with m = 2, got --dim {config.dim} "
            f"and --m {config.m}"
        )
    if config.gram is not None:
        raise UsageError(
            "pair-ip builds its own adapted inner product and takes no --gram"
        )
    _reject_unread(given, "pair-ip", "frames", "points")
    a, b = parse_vector_literal(a_text), parse_vector_literal(b_text)
    if len(a) != 2 or len(b) != 2:
        raise UsageError("pair-ip expects two 2-dimensional vectors")
    try:
        frame = Frame((a, b))
    except DependentFrameError:
        raise UsageError(f"vectors {a_text} and {b_text} are dependent") from None
    G = frame_adapted_inner_product(frame)
    x = sample_span_point(frame, config.bound, derive_seed(config.seed, 0))
    solver = solve_coordinates(frame, x)
    formula = tuple(coefficient_formula(G, v, x) for v in frame)
    pair_value = evaluate(G, a, b)
    passed = pair_value == 0 and solver == formula
    payload = {
        "gram": gram_to_json(G),
        "pair_inner_product": rational_to_json(pair_value),
        "x": vector_to_json(x),
        "coordinates_solver": vector_to_json(solver),
        "coordinates_formula": vector_to_json(formula),
    }
    return payload, passed


def parse_vector_literal(text: str) -> Vector:
    """Comma-separated rationals, e.g. ``3,-1/2``.  Use ``--a=-1,2`` for a
    leading minus so the shell parser does not read it as a flag."""
    parts = text.split(",")
    return tuple(
        rational_from_json(part.strip(), f"component {k + 1}")
        for k, part in enumerate(parts)
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ortho",
        description="Exact-arithmetic orthogonality checks: coordinate "
                    "functionals, factorization through projections, and "
                    "maximality sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--dim", type=int, default=2, help="ambient dimension")
        p.add_argument("--m", type=int, default=2, help="vectors per frame")
        # No parser defaults: RunConfig fills them in, so that an explicit
        # flag the command path ignores can be told from a default.
        p.add_argument("--frames", type=int, help="frame count")
        p.add_argument("--points", type=int, help="span points per frame")
        p.add_argument("--bound", type=int,
                       help="integer entry bound for sampling")
        p.add_argument("--seed", type=int, default=0,
                       help="master seed, in [0, 2^64)")
        p.add_argument("--gram", default=None,
                       help="path to a Gram matrix JSON file "
                            "(default: identity)")
        p.add_argument("--output", default=None,
                       help="write the JSON report here instead of stdout")

    p_eq = sub.add_parser(
        "equivalence",
        help="check solver coordinates against the coefficient formula",
    )
    add_common(p_eq)

    p_factor = sub.add_parser(
        "factor", help="run the factorization scan over a relation",
    )
    add_common(p_factor)
    p_factor.add_argument("--input", default=None,
                          help="relation JSON file; omitted means a built "
                               "orthogonal relation")

    p_max = sub.add_parser(
        "maximality",
        help="sweep candidate frames; non-orthogonal ones get witnesses",
    )
    add_common(p_max)

    p_chain = sub.add_parser(
        "chain", help="nested chain of sub-relations; union must factor",
    )
    add_common(p_chain)

    p_pair = sub.add_parser(
        "pair-ip", help="adapted inner product for one vector pair",
    )
    add_common(p_pair)
    p_pair.add_argument("--a", required=True,
                        help="first vector, e.g. --a=1,0")
    p_pair.add_argument("--b", required=True,
                        help="second vector, e.g. --b=-1,2")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        env_seed = os.environ.get("ORTHO_SEED")
        try:
            seed = args.seed if env_seed is None else int(env_seed)
        except ValueError:
            raise UsageError(
                f"ORTHO_SEED is not an integer: {env_seed!r}") from None
        given = {name: getattr(args, name)
                 for name in ("frames", "points", "bound")
                 if getattr(args, name) is not None}
        config = RunConfig(dim=args.dim, m=args.m, seed=seed, gram=args.gram,
                           **given)
        started = time.perf_counter()
        if args.command == "equivalence":
            payload, passed = cmd_equivalence(config)
        elif args.command == "factor":
            payload, passed = cmd_factor(config, args.input, given)
        elif args.command == "maximality":
            payload, passed = cmd_maximality(config, given)
        elif args.command == "chain":
            payload, passed = cmd_chain(config)
        else:
            payload, passed = cmd_pair_ip(config, args.a, args.b, given)
        report = {
            "command": args.command,
            "config": config.to_json(),
            "payload": payload,
            "verdict": "pass" if passed else "fail",
            "duration_s": round(time.perf_counter() - started, 6),
        }
        text = canonical_dumps(report) + "\n"
        if args.output is None:
            sys.stdout.write(text)
        else:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
    except (OrthoError, OSError) as exc:
        print(f"ortho: {exc}", file=sys.stderr)
        return 2
    except Exception:
        # Not a usage error: a bug.  Print the traceback as an uncaught
        # exception would, but exit 3: Python's own exit code for an
        # uncaught exception, 1, would read as a failing verdict.
        sys.excepthook(*sys.exc_info())
        return 3
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
