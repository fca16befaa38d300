"""Command-line harness: seeded experiment suites with JSON reports.

Five subcommands cover the library surface: ``equivalence`` (drawn
coordinates vs coefficient formula on orthogonal frames), ``factor``
(factorization scan over a built or loaded relation), ``maximality``
(candidate sweep with witness rejections, exhaustive in dimension 2),
``chain`` (nested chain unions), and ``pair-ip`` (adapted inner product
for one vector pair).

Each command imports the modules it runs when it is dispatched:
``factor`` and ``chain`` load ``dependence``, ``maximality`` loads
``maximality``, and ``equivalence`` and ``pair-ip`` load neither.  That
import is part of the command's ``duration_s``.
Every command is ``cmd_<name>(config, args)``, ``-`` read as ``_``: the
RunConfig and the parsed flags, from which it reads its own.  It returns
its payload and whether it passed; ``main`` looks it up by name, times
it, assembles the report (command, config echo, payload, verdict,
``duration_s``) and writes it, to stdout or ``--output``, as canonical
JSON.  With a fixed config the payload is byte-identical across runs and
platforms; only ``duration_s`` varies.  ``main`` runs the command and the
write with the cyclic garbage collector off and restores the caller's
setting, because no command makes cyclic garbage (pinned by
``test_no_command_makes_cyclic_garbage``).
``maximality`` passes only if every report survives a re-check that
reads nothing the sweep computed: one pass over all reports, with its own
table, clearing each vector once, proving each accepted candidate
orthogonal and solving both frames of each rejection again, to integers
``(N, D)`` that it compares with the reported values by cross-multiplying.
Exit codes: 0 verdict pass, 1 verdict fail, 2 usage or parse error, 3 an
unexpected error inside the library (a bug; the traceback goes to stderr).
A flag the chosen command path never reads is a usage error, and so are
flags that ask for more work than the command's cap (see ``_cap_work``)
and a seed outside [0, 2^64); ``--seed`` itself is accepted everywhere.
"""

from __future__ import annotations

import argparse
import gc
import sys
import time
from functools import partial
from typing import TYPE_CHECKING, Any, NoReturn, Sequence

from .errors import (
    DependentFrameError,
    OrthoError,
    RationalError,
    ShapeError,
    UsageError,
    _ends,
    _shown,
)
from .inner_product import (
    GramInnerProduct,
    _first_nonorthogonal,
    _image,
    _orthogonal_samples,
    _projection_checks,
    _row,
    coefficient_formula,
    evaluate,
    frame_adapted_inner_product,
    identity_inner_product,
)
from .linalg import (
    RATIONAL_PATTERN,
    Frame,
    Vector,
    _check_seed,
    _per_object,
    _rational,
    _solve_many,
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
    maximality_reports_to_json,
    outcome_to_json,
    rational_from_json,
    rational_to_json,
    vector_to_json,
)

if TYPE_CHECKING:
    from .dependence import Relation
    from .maximality import MaximalityReport

CHAIN_DEPTH = 4
_CHAIN_STREAM = 0x434E

# Work caps, checked from the flags before any work starts (_cap_work).
# Each allows under a minute on a 2-core VM at the dearest shape its flags
# reach: the dimension-2 grid up to --bound 11 (279,841 pairs at about
# 0.11 ms each, the median of ten runs at --bound 7), and SAMPLE_CAP
# sampled frames or points at dim 16 with entries up to BOUND_CAP, which
# sets their bit length.  Under the dense gram16.json form a unit costs
# about 12 ms for a built factor with one frame per point and 11 ms for a
# maximality frame, the dearest; 6 ms for an equivalence frame, and
# 0.7 ms for each further point of it.
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
        if not 2 <= m <= dim <= 16:
            raise UsageError(
                f"need 2 <= m <= dim <= 16, got m={_shown(m)}, dim={_shown(dim)}")
        if frames < 0 or points < 0:
            raise UsageError("frame and point counts must be >= 0")
        if bound < 1:
            raise UsageError(f"bound must be positive, got {_shown(bound)}")
        _check_seed(seed)
        self.__dict__.update(dim=dim, m=m, frames=frames, points=points,
                             bound=bound, seed=seed, gram=gram)

    def to_json(self) -> dict[str, Any]:
        return dict(zip(self._fields, self._values()))

    def load_inner_product(self) -> GramInnerProduct:
        """The identity form, or the ``--gram`` file's, sized to ``dim``."""
        if self.gram is None:
            return identity_inner_product(self.dim)
        G = load_gram(self.gram)
        if G.dim != self.dim:
            raise ShapeError(
                f"--gram {_ends(self.gram)} is {G.dim}x{G.dim} but --dim is {self.dim}"
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
        flags, count = f"--bound {_shown(config.bound)}", (2 * config.bound + 1) ** 4
        unit, cap = "candidate pairs", GRID_CAP
    elif config.bound > BOUND_CAP:
        raise UsageError(
            f"{command} --bound {_shown(config.bound)} is above the cap of "
            f"{BOUND_CAP} for sampled entries"
        )
    elif command == "maximality":
        flags, count = f"--frames {_shown(config.frames)}", config.frames
        unit, cap = "candidate frames", SAMPLE_CAP
    else:
        flags = f"--frames {_shown(config.frames)} --points {_shown(config.points)}"
        count = config.frames * max(config.points, 1)
        unit, cap = "span points", SAMPLE_CAP
    if count > cap:
        raise UsageError(
            f"{command} {flags} asks for {_shown(count)} {unit}, above the cap of {cap}"
        )


def _reject_unread(args: argparse.Namespace, path: str, *unread: str) -> None:
    """Raise UsageError if ``args`` holds a config flag, passed explicitly on
    the command line, that this command path never reads."""
    flags = [f"--{name}" for name in unread if getattr(args, name) is not None]
    if flags:
        raise UsageError(f"{path} does not read {' or '.join(flags)}")


Result = tuple[dict[str, Any], bool]


def _built_relation(command: str, config: RunConfig) -> Relation:
    """The orthogonal relation ``command`` builds from its flags: the form
    is loaded, the work capped, then the relation sampled."""
    from .dependence import build_orthogonal_relation

    G = config.load_inner_product()
    _cap_work(command, config)
    return build_orthogonal_relation(
        G, config.frames, config.points, config.bound, config.seed, m=config.m,
    )


def cmd_equivalence(config: RunConfig, args: argparse.Namespace) -> Result:
    """Drawn coordinates vs the coefficient formula on orthogonal frames:
    each point combines its frame's vectors with drawn integer coefficients,
    its coordinates, which the formula must give back.  No solve runs."""
    G = config.load_inner_product()
    _cap_work("equivalence", config)
    trials = failures = 0
    for frame, points in _orthogonal_samples(
            G, config.m, config.frames, config.points, config.bound, config.seed):
        checks = _projection_checks(G, frame, points)
        trials += len(checks)
        failures += checks.count(False)
    return {"trials": trials, "failures": failures}, failures == 0


def cmd_factor(config: RunConfig, args: argparse.Namespace) -> Result:
    """Factorization scan over a loaded relation or a fresh orthogonal one."""
    from .dependence import factor_check

    if args.input is not None:
        _reject_unread(args, "factor --input", "frames", "points", "bound", "gram")
        rel = load_relation(args.input)
        if rel.shape not in (None, (config.dim, config.m)):
            dim, m = rel.shape
            raise ShapeError(
                f"--input {_ends(args.input)} holds a relation with dim={dim}, m={m} "
                f"but --dim is {config.dim} and --m is {config.m}"
            )
    else:
        rel = _built_relation("factor", config)
    outcome = factor_check(rel)
    return outcome_to_json(outcome), outcome.passed


def _recheck(G: GramInnerProduct, reports: Sequence[MaximalityReport]) -> bool:
    """Reproduce every verdict from scratch, reading nothing the sweep
    computed but the reports themselves.  An accepted candidate must be
    G-orthogonal.  A rejection's two frames are re-solved at the collision
    point (:func:`_solve_many`); slot i's two values must be the reported
    ones and differ, and the witness must share slot i and be G-orthogonal.
    False at the first report that fails a check.

    One pass over all of them, with one call-local table of its own
    (:func:`_per_object` over :func:`_image`): each distinct vector object
    is cleared once to its image ``(U, s, Gn U)``, whose ``(U, s)`` the
    solves read; each collision point, a new object, is cleared directly.
    A solved ``N / D`` and a reported ``p / q`` are compared as
    ``N q == p D``: no Fraction is built.
    """
    image = _per_object(partial(_image, G))
    for report in reports:
        frame = candidate = report.candidate.vectors
        if not report.accepted:
            i, x = report.index, [_row(G, report.collision_point)]
            frame = witness = report.orthogonal_witness.vectors
            (nc, dc), (nw, dw) = [(N[i - 1], D) for N, D in (
                _solve_many([(U, s) for U, s, _ in map(image, vs)], x)[0]
                for vs in (candidate, witness))]
            (pc, qc), (pw, qw) = [v.as_integer_ratio() for v in report.values]
            if not (
                nc * qc == pc * dc and nw * qw == pw * dw
                and nc * dw != nw * dc
                and witness[i - 1] == candidate[i - 1]
            ):
                return False
        # An accepted candidate, or a rejection's witness, must be G-orthogonal.
        if _first_nonorthogonal(list(map(image, frame))) is not None:
            return False
    return True


def cmd_maximality(config: RunConfig, args: argparse.Namespace) -> Result:
    """Candidate sweep: orthogonal frames accepted, the rest rejected with
    verified witnesses.  Exhaustive grid in dimension 2, sampled above."""
    from .maximality import exhaustive_candidates_2d, verify_orthogonal_maximality

    if config.m != config.dim:
        raise UsageError(
            f"maximality sweep needs m == dim, got m={config.m}, dim={config.dim}"
        )
    G = config.load_inner_product()
    if config.dim == 2:
        _reject_unread(args, "maximality in dimension 2", "frames", "points")
        _cap_work("maximality", config)
        candidates: tuple[Frame, ...] = exhaustive_candidates_2d(config.bound)
    else:
        _reject_unread(args, "maximality", "points")
        _cap_work("maximality", config)
        candidates = tuple(
            sample_frame(config.dim, config.dim, config.bound,
                         derive_seed(config.seed, k, 0))
            for k in range(config.frames)
        )
    reports = verify_orthogonal_maximality(G, candidates)
    sound = _recheck(G, reports)
    rejected = [r for r in reports if not r.accepted]
    payload = {
        "summary": {
            "total": len(reports),
            "orthogonal_accepted": len(reports) - len(rejected),
            "nonorthogonal_rejected": len(rejected),
        },
        "rejected": maximality_reports_to_json(rejected),
    }
    return payload, sound


def cmd_chain(config: RunConfig, args: argparse.Namespace) -> Result:
    """Nested chain inside a built orthogonal relation; union must factor."""
    from .dependence import chain_union_check, sample_chain

    rel = _built_relation("chain", config)
    chain = sample_chain(rel, CHAIN_DEPTH,
                         derive_seed(config.seed, _CHAIN_STREAM))
    union_passes = chain_union_check(chain)
    payload = {
        "chain_lengths": [len(member) for member in chain],
        "union_passes": union_passes,
    }
    return payload, union_passes


def cmd_pair_ip(config: RunConfig, args: argparse.Namespace) -> Result:
    """Adapted inner product for one independent pair in dimension 2, given
    as vector literals (see ``parse_vector_literal``)."""
    if (config.dim, config.m) != (2, 2):
        raise UsageError(
            f"pair-ip runs in dimension 2 with m = 2, got --dim {config.dim} "
            f"and --m {config.m}"
        )
    _reject_unread(args, "pair-ip", "frames", "points", "gram")
    a, b = parse_vector_literal(args.a), parse_vector_literal(args.b)
    if len(a) != 2 or len(b) != 2:
        raise UsageError("pair-ip expects two 2-dimensional vectors")
    try:
        frame = Frame((a, b))
    except DependentFrameError:
        raise UsageError(
            f"vectors {_shown(args.a)} and {_shown(args.b)} are dependent"
        ) from None
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
    """Comma-separated rationals, no spaces: ``3,-1/2``.  Use ``--a=-1,2`` for a
    leading minus so the shell parser does not read it as a flag."""
    parts = text.split(",")
    return tuple(
        rational_from_json(part, f"component {k + 1}")
        for k, part in enumerate(parts)
    )


def _integer(text: str) -> int:
    """Read an integer flag: RATIONAL_PATTERN without its slash, so ASCII
    digits and a sign, where ``int()`` also reads ``1_0``, surrounding
    spaces and non-ASCII digits.  Anything else raises ArgumentTypeError,
    which argparse reports naming the flag."""
    if "/" in text or not RATIONAL_PATTERN.match(text):
        raise argparse.ArgumentTypeError(f"not an integer: {_shown(text)}")
    try:
        return _rational(text).numerator
    except RationalError as exc:  # more digits than the int/str limit
        raise argparse.ArgumentTypeError(str(exc)) from None


# Each subcommand and its help line, in the order ``--help`` lists them.
_COMMANDS = {
    "equivalence": "check drawn coordinates against the coefficient formula",
    "factor": "run the factorization scan over a relation",
    "maximality": "sweep candidate frames; non-orthogonal ones get witnesses",
    "chain": "nested chain of sub-relations; union must factor",
    "pair-ip": "adapted inner product for one vector pair",
}


class _Parser(argparse.ArgumentParser):
    """Cuts each error message, which may quote an argument, by :func:`_ends`."""

    def error(self, message: str) -> NoReturn:
        super().error(_ends(message))


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ortho",
        description="Exact-arithmetic orthogonality checks: coordinate "
                    "functionals, factorization through projections, and "
                    "maximality sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        # No parser defaults: RunConfig fills them in, so that an explicit
        # flag the command path ignores can be told from a default.
        p.add_argument("--dim", type=_integer, help="ambient dimension")
        p.add_argument("--m", type=_integer, help="vectors per frame")
        p.add_argument("--frames", type=_integer, help="frame count")
        p.add_argument("--points", type=_integer, help="span points per frame")
        p.add_argument("--bound", type=_integer,
                       help="integer entry bound for sampling")
        p.add_argument("--seed", type=_integer, help="master seed, in [0, 2^64)")
        p.add_argument("--gram", help="path to a Gram matrix JSON file "
                                      "(default: identity)")
        p.add_argument("--output",
                       help="write the JSON report here instead of stdout")
        if name == "factor":
            p.add_argument("--input", help="relation JSON file; omitted means a "
                                           "built orthogonal relation")
        elif name == "pair-ip":
            p.add_argument("--a", required=True,
                           help="first vector, e.g. --a=1,0")
            p.add_argument("--b", required=True,
                           help="second vector, e.g. --b=-1,2")
    return parser


def _run_config(args: argparse.Namespace) -> RunConfig:
    """The RunConfig built from the config flags given alone."""
    return RunConfig(**{name: getattr(args, name) for name in RunConfig._fields
                        if getattr(args, name) is not None})


def main(argv: Sequence[str] | None = None) -> int:
    enabled = gc.isenabled()
    gc.disable()
    try:
        parser = _build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)

        try:
            config = _run_config(args)
            # Looked up when main runs, so a rebound ``cmd_*`` is the one called.
            command = globals()["cmd_" + args.command.replace("-", "_")]
            started = time.perf_counter()
            payload, passed = command(config, args)
            report = {
                "command": args.command,
                "config": config.to_json(),
                "payload": payload,
                "verdict": "pass" if passed else "fail",
                "duration_s": round(time.perf_counter() - started, 6),
            }
            data = (canonical_dumps(report) + "\n").encode("utf-8")
            if args.output is None:
                sys.stdout.buffer.write(data)
            else:
                with open(args.output, "wb") as handle:
                    handle.write(data)
        except (OrthoError, OSError) as exc:
            if isinstance(exc, OSError) and isinstance(exc.filename, str):
                exc.filename = _ends(exc.filename)  # a long path would flood stderr
            print(f"ortho: {exc}", file=sys.stderr)
            return 2
        except Exception:
            # Not a usage error: a bug.  Print the traceback as an uncaught
            # exception would, but exit 3: Python's own exit code for an
            # uncaught exception, 1, would read as a failing verdict.
            sys.excepthook(*sys.exc_info())
            return 3
        return 0 if passed else 1
    finally:
        if enabled:
            gc.enable()
