"""End-to-end benchmark of the ``ortho`` CLI, with a traced per-layer run.

Usage, from the repository root::

    python3 perfbench/run.py --workload factor8 --seed 3 --seconds 25 --trace 0

Each run makes the workload's input files from ``--seed`` with public
library functions (``inputs.py``, untimed), then runs the workload's CLI
command as a child process again and again, one at a time, until
``--seconds`` have passed: a closed loop with one client.  Each workload
child is preceded by a calibration child (fixed Fraction arithmetic) and a
set-up child (imports ``orthocheck.cli``, builds the workload's
``RunConfig`` and loads its inner product, which gives ``setup_s``).
Children are timed from spawn to exit; CPU time and peak RSS come from
``os.wait4``.  One untimed warm-up iteration runs first.

Times are reported at reference speed: each is multiplied by REFERENCE_S
over the mean wall time of the calibration children run just before and
just after it.  The machine's speed drifts by up to 2x over minutes, which
no number of samples in one run averages out; the ratio to the calibration
children does.  The measured values are printed beside the rescaled ones.

Every workload child is checked after the loop (the driver parses no
report while children run, so its own memory, which a child's peak RSS
inherits up to ``exec``, stays small): exit code 0, verdict ``pass``, the
echoed dim and seed, the payload sha256 equal to the first run's, and a
check of the workload's own (see the ``prepare_*`` functions).

With ``--trace 1`` the loop alternates untraced iterations with traced
children (``trace_child.py``), which run ``cli.main`` in-process with every
layer's entry points wrapped, and reports per-layer self times (at
reference speed) and counts.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``).  The lines before it give the same
figures for reading, with quartiles, sample counts, ``fail_ratio``, the
payload sha256 and every sample's wall time in run order.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 120.0

# Fixed Fraction arithmetic that no change to the program can speed up.
CALIBRATION = (
    "from fractions import Fraction as F\n"
    "acc = 0\n"
    "for i in range(60000):\n"
    "    a = F(i % 13 - 6, i % 7 + 1)\n"
    "    b = F(i % 5 + 1, i % 3 + 1)\n"
    "    acc += (a * b - a / b).numerator\n"
)
REFERENCE_S = 0.4  # the calibration child's wall time at reference speed

# Everything a command does before its own work starts.
SETUP_PROBE = (
    "import json, sys\n"
    "from orthocheck.cli import RunConfig\n"
    "RunConfig(**json.loads(sys.argv[1])).load_inner_product()\n"
)

# Which end-to-end metric each per-layer metric should move.
LAYER_MOVES = {
    "linalg.self_s": "items_per_s",
    "linalg.calls": "items_per_s",
    "linalg.eliminations": "items_per_s",
    "linalg.solve_s": "items_per_s",
    "linalg.rank_s": "items_per_s",
    "linalg.frame_validations": "wall_s",
    "linalg.frame_validate_s": "wall_s",
    "linalg.draws_per_frame": "items_per_s",
    "inner_product.self_s": "items_per_s",
    "inner_product.calls": "items_per_s",
    "inner_product.evaluations": "items_per_s",
    "inner_product.evaluate_s": "items_per_s",
    "inner_product.orthogonality_checks": "items_per_s",
    "inner_product.gram_schmidt_s": "items_per_s",
    "inner_product.gram_validate_s": "setup_s",
    "dependence.self_s": "items_per_s",
    "dependence.calls": "items_per_s",
    "dependence.relation_points": "items_per_s",
    "dependence.relation_point_s": "items_per_s",
    "dependence.factor_check_s": "wall_s",
    "dependence.table_entries": "wall_s",
    "maximality.self_s": "items_per_s",
    "maximality.calls": "items_per_s",
    "maximality.witnesses": "items_per_s",
    "maximality.rejected_ratio": "items_per_s,peak_rss_mb",
    "serialize.self_s": "wall_s",
    "serialize.emit_s": "wall_s,peak_rss_mb",
    "serialize.bytes_out": "wall_s,peak_rss_mb",
    "serialize.parse_s": "wall_s,setup_s",
    "serialize.bytes_in": "wall_s,setup_s",
    "cli.self_s": "wall_s",
    "trace.overhead_s": "-",
    "trace.coverage": "-",
}
LAYERS = ("cli", "linalg", "inner_product", "dependence", "maximality",
          "serialize")


# ---------------------------------------------------------------------------
# child processes


@dataclass
class Sample:
    """One child run, timed from spawn to exit; its stdout is in ``path``."""

    path: Path
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    error: str | None = None


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "ORTHO_SEED"}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(args: list[str], stdout_path: Path) -> Sample:
    """Run ``python3 <args>`` with stdout to a file."""
    with open(stdout_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out,
                                env=child_env(), cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    sample = Sample(stdout_path, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024)
    if proc.returncode != 0:
        sample.error = f"exit code {proc.returncode}"
    return sample


def payload_sha256(report: dict) -> str:
    """sha256 of the payload in canonical form (sorted keys, no spaces)."""
    payload = json.dumps(report["payload"], sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def read_report(sample: Sample) -> dict | None:
    """The child's report, or None with ``sample.error`` set."""
    if sample.error is not None:
        return None
    try:
        report = json.loads(sample.path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        sample.error = f"unreadable report: {exc}"
        return None
    if report.get("verdict") != "pass":
        sample.error = f"verdict {report.get('verdict')!r}"
        return None
    return report


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Prepared:
    """A workload made concrete for one seed: argv, set-up config, checks.

    ``check`` returns an error message, or None when the report is right.
    """

    argv: list[str]
    config: dict
    units: int
    unit_name: str
    check: Callable[[dict], str | None] = lambda report: None
    notes: list[str] = field(default_factory=list)


def _flags(config: dict) -> list[str]:
    out = []
    for key in ("dim", "m", "frames", "points", "bound", "seed", "gram"):
        if key in config:
            out += [f"--{key}", str(config[key])]
    return out


def make_input(*args: object) -> str:
    """Run ``inputs.py`` (untimed) and return what it prints."""
    done = subprocess.run(
        [sys.executable, str(HERE / "inputs.py"), *map(str, args)],
        capture_output=True, text=True, env=child_env(), cwd=ROOT,
        timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"inputs.py {args}: {done.stderr.strip()}")
    return done.stdout


def prepare_max2d(seed: int, work: Path) -> Prepared:
    """Exhaustive dimension-2 sweep; an integer recount checks the summary.

    The grid is fixed by the bound, so the seed changes nothing here.
    """
    bound = 3
    span = range(-bound, bound + 1)
    grid = [(a, b) for a in span for b in span]
    total = accepted = 0
    for v in grid:
        for w in grid:
            if v[0] * w[1] - v[1] * w[0] != 0:
                total += 1
                accepted += v[0] * w[0] + v[1] * w[1] == 0
    expected = {"total": total, "orthogonal_accepted": accepted,
                "nonorthogonal_rejected": total - accepted}

    def check(report: dict) -> str | None:
        payload = report["payload"]
        if payload["summary"] != expected:
            return f"summary {payload['summary']} != recount {expected}"
        if len(payload["rejected"]) != total - accepted:
            return "rejection list length differs from the recount"
        return None

    config = {"dim": 2, "m": 2, "bound": bound, "seed": seed}
    return Prepared(["maximality", *_flags(config)], config, total,
                    "candidates", check,
                    [f"recount: {total} candidates, {accepted} accepted"])


def prepare_equiv12(seed: int, work: Path) -> Prepared:
    """Equivalence under a dense sampled 12x12 Gram matrix."""
    gram = work / "gram12.json"
    config = {"dim": 12, "m": 12, "frames": 4, "points": 4, "seed": seed,
              "gram": str(gram)}
    make_input("gram", config["dim"], seed, gram)
    expected = {"trials": config["frames"] * config["points"], "failures": 0}

    def check(report: dict) -> str | None:
        if report["payload"] != expected:
            return f"payload {report['payload']} != {expected}"
        return None

    return Prepared(["equivalence", *_flags(config)], config,
                    expected["trials"], "trials", check,
                    [f"gram: {gram.stat().st_size} bytes"])


FACTOR8 = {"dim": 8, "m": 8, "frames": 12, "points": 16}


def _factor8_relation(seed: int, path: Path) -> int:
    """Write the relation ``ortho factor`` builds for FACTOR8; its length."""
    return int(make_input("relation", FACTOR8["dim"], FACTOR8["frames"],
                          FACTOR8["points"], seed, path))


def prepare_factor8(seed: int, work: Path) -> Prepared:
    """Factorization scan over a relation the command builds itself."""
    entries = _factor8_relation(seed, work / "relation8.json")
    config = {**FACTOR8, "seed": seed}
    return Prepared(["factor", *_flags(config)], config, entries, "entries")


def prepare_factor8_load(seed: int, work: Path) -> Prepared:
    """The factor8 relation read back from a file; payload must match."""
    path = work / "relation8.json"
    entries = _factor8_relation(seed, path)
    factor8 = run_child(
        ["-m", "orthocheck", "factor", *_flags({**FACTOR8, "seed": seed})],
        work / "factor8.out")

    @functools.cache
    def expected() -> dict | None:
        return read_report(factor8)

    def check(report: dict) -> str | None:
        if expected() is None:
            return f"factor8 run failed: {factor8.error}"
        if report["payload"] != expected()["payload"]:
            return "payload differs from the factor8 payload"
        return None

    config = {"dim": 8, "m": 8, "seed": seed}
    return Prepared(["factor", "--input", str(path), *_flags(config)], config,
                    entries, "entries", check,
                    [f"relation: {path.stat().st_size} bytes"])


WORKLOADS = {
    "max2d": prepare_max2d,
    "equiv12": prepare_equiv12,
    "factor8": prepare_factor8,
    "factor8_load": prepare_factor8_load,
}


# ---------------------------------------------------------------------------
# the run


@dataclass
class Iteration:
    """A calibration child, a set-up child and a workload child, in order.

    ``scale`` converts this iteration's times to reference speed; it is set
    from this calibration and the next one once the loop has ended.
    """

    calibration: Sample
    setup: Sample
    sample: Sample
    scale: float = 1.0
    report: dict | None = None


class Run:
    """One benchmark run: a closed loop of timed children, checked after."""

    def __init__(self, prep: Prepared, work: Path) -> None:
        self.prep = prep
        self.work = work
        self.workloads: list[Sample] = []
        self.helpers: list[Sample] = []
        self.reference: str | None = None

    def _out(self, stem: str) -> Path:
        count = len(self.workloads) + len(self.helpers)
        return self.work / f"{stem}-{count}.out"

    def workload(self, traced: bool = False) -> Sample:
        path = self._out("report")
        if traced:
            args = [str(HERE / "trace_child.py"),
                    str(path.with_suffix(".trace")), "--", *self.prep.argv]
        else:
            args = ["-m", "orthocheck", *self.prep.argv]
        sample = run_child(args, path)
        self.workloads.append(sample)
        return sample

    def helper(self, args: list[str]) -> Sample:
        sample = run_child(args, self._out("helper"))
        self.helpers.append(sample)
        return sample

    def iteration(self) -> Iteration:
        calibration = self.helper(["-c", CALIBRATION])
        setup = self.helper(["-c", SETUP_PROBE, json.dumps(self.prep.config)])
        return Iteration(calibration, setup, self.workload())

    def broken(self) -> bool:
        """More than half the workload children exited nonzero."""
        failed = sum(1 for s in self.workloads if s.error is not None)
        return failed * 2 > len(self.workloads)

    def check(self) -> dict[int, dict]:
        """Check every workload child in run order; reports by sample id."""
        reports = {}
        for sample in self.workloads:
            report = read_report(sample)
            if report is None:
                continue
            echoed = report["config"]
            sha = payload_sha256(report)
            if (echoed["dim"], echoed["seed"]) != (
                    self.prep.config["dim"], self.prep.config["seed"]):
                sample.error = f"config echo {echoed} does not match the run"
            elif self.reference is not None and sha != self.reference:
                sample.error = "payload sha256 differs from the first run"
            else:
                sample.error = self.prep.check(report)
            if sample.error is None:
                self.reference = self.reference or sha
                reports[id(sample)] = report
        return reports


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "orthocheck" / "cli.py").is_file():
        print(f"perfbench: no orthocheck sources under {SRC}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args: argparse.Namespace, work: Path) -> int:
    prep = WORKLOADS[args.workload](args.seed, work)
    run = Run(prep, work)
    run.iteration()  # warm-up: checked and counted, not timed
    iterations: list[Iteration] = []
    traced: list[tuple[Sample, Iteration]] = []  # each after its iteration
    started = time.perf_counter()
    while not run.broken():
        if time.perf_counter() - started >= args.seconds and iterations and (
                traced or not args.trace):
            break
        if args.trace and len(traced) < len(iterations):
            traced.append((run.workload(traced=True), iterations[-1]))
        else:
            iterations.append(run.iteration())
    closing = run.helper(["-c", CALIBRATION])
    calibrations = [it.calibration for it in iterations] + [closing]
    for it, after in zip(iterations, calibrations[1:]):
        it.scale = 2 * REFERENCE_S / (it.calibration.wall_s + after.wall_s)

    reports = run.check()
    failed = sum(1 for s in run.workloads if s.error is not None)
    helper_errors = [s.error for s in run.helpers if s.error is not None]
    print(f"workload {args.workload}: ortho {' '.join(prep.argv)}")
    print("  " + "; ".join([f"{prep.units} {prep.unit_name}", *prep.notes]))
    print(f"environment: python {platform.python_version()}, "
          f"nproc {os.cpu_count()}, commit {commit_id()}, seed {args.seed}")
    for error in sorted({s.error for s in run.workloads if s.error}
                        | {f"helper child: {e}" for e in helper_errors}):
        print(f"  FAILED: {error}")
    print(f"  payload sha256 {run.reference}")
    print(f"  fail_ratio {failed}/{len(run.workloads)} = "
          f"{failed / len(run.workloads):.4g}")
    print("  in run order, wall_s: "
          + " ".join(f"{it.sample.wall_s:.3f}" for it in iterations))
    print("  in run order, calibration wall_s: "
          + " ".join(f"{c.wall_s:.3f}" for c in calibrations))

    for it in iterations:
        it.report = reports.get(id(it.sample))
    good = [it for it in iterations if it.report is not None]
    good_traced = [(s, it) for s, it in traced if id(s) in reports]
    result = {"correct": failed == 0 and not helper_errors,
              "attempted": len(run.workloads), "failed": failed}
    if not good or (args.trace and not good_traced):
        print(json.dumps({**result, "correct": False, "metrics": {}}))
        return 1
    if args.trace:
        metrics = traced_metrics(good_traced, good)
    else:
        metrics = end_to_end_metrics(good, prep.units)
    print(json.dumps({**result, "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# metrics


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def describe(name: str, values: list[float], unit: str, label: str) -> str:
    q1, med, q3 = quartiles(values)
    return (f"  {name:<12} {label:<20} median {med:.6g} {unit}  "
            f"q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}")


def end_to_end_metrics(good: list[Iteration], units: int) -> dict:
    """Medians at reference speed; measured values are printed beside."""
    series = {
        "wall_s": ("s", lambda it: it.sample.wall_s),
        "items_per_s": ("1/s", lambda it: units / it.report["duration_s"]),
        "cpu_s": ("s", lambda it: it.sample.cpu_s),
        "setup_s": ("s", lambda it: it.setup.wall_s),
        "peak_rss_mb": ("MB", lambda it: it.sample.peak_rss_mb),
    }
    metrics = {}
    for name, (unit, measured) in series.items():
        values = [measured(it) for it in good]
        print(describe(name, values, unit, "measured"))
        if unit == "s":
            values = [v * it.scale for v, it in zip(values, good)]
        elif unit == "1/s":
            values = [v / it.scale for v, it in zip(values, good)]
        if unit != "MB":
            print(describe(name, values, unit, "at reference speed"))
        metrics[name] = {"value": statistics.median(values), "unit": unit}
    return metrics


def layer_metrics(stats: dict, traced_wall: float) -> dict[str, float]:
    """Per-layer figures from one traced child's span totals."""
    fns, edges, counters = stats["functions"], stats["edges"], stats["counters"]

    def fn(key: str, field_name: str) -> float:
        return fns[key][field_name] if key in fns else 0

    def layer(name: str, field_name: str) -> float:
        return sum(f[field_name] for f in fns.values() if f["layer"] == name)

    out = {f"{name}.self_s": layer(name, "self_s") for name in LAYERS}
    sampled = fn("linalg.sample_frame", "calls")
    draws = edges.get("linalg.sample_frame>linalg.is_independent", 0)
    candidates = counters["candidates"]
    out.update({
        "linalg.calls": layer("linalg", "calls"),
        "linalg.eliminations": sum(
            fn(f"linalg.{k}", "calls") for k in
            ("matrix_rank", "solve_coordinates", "determinant", "invert_matrix")),
        "linalg.solve_s": fn("linalg.solve_coordinates", "total_s"),
        "linalg.rank_s": fn("linalg.matrix_rank", "total_s"),
        "linalg.frame_validations": fn("linalg.Frame.__post_init__", "calls"),
        "linalg.frame_validate_s": fn("linalg.Frame.__post_init__", "total_s"),
        "linalg.draws_per_frame": draws / sampled if sampled else 0.0,
        "inner_product.calls": layer("inner_product", "calls"),
        "inner_product.evaluations": fn("inner_product.evaluate", "calls"),
        "inner_product.evaluate_s": fn("inner_product.evaluate", "total_s"),
        "inner_product.orthogonality_checks":
            fn("inner_product.is_orthogonal_tuple", "calls"),
        "inner_product.gram_schmidt_s":
            fn("inner_product.gram_schmidt", "total_s"),
        "inner_product.gram_validate_s":
            fn("inner_product.GramInnerProduct.__post_init__", "total_s"),
        "dependence.calls": layer("dependence", "calls"),
        "dependence.relation_points": fn("dependence.relation_point", "calls"),
        "dependence.relation_point_s":
            fn("dependence.relation_point", "total_s"),
        "dependence.factor_check_s": fn("dependence.factor_check", "total_s"),
        "dependence.table_entries": counters["table_entries"],
        "maximality.calls": layer("maximality", "calls"),
        "maximality.witnesses": fn("maximality.orthogonality_witness", "calls"),
        "maximality.rejected_ratio":
            counters["rejected"] / candidates if candidates else 0.0,
        "serialize.emit_s": sum(
            fn(f"serialize.{k}", "total_s") for k in
            ("canonical_dumps", "outcome_to_json", "maximality_report_to_json")),
        "serialize.bytes_out": counters["bytes_out"],
        "serialize.parse_s": sum(
            fn(f"serialize.{k}", "total_s")
            for k in ("load_relation", "load_gram")),
        "serialize.bytes_in": counters["bytes_in"],
        "trace.coverage":
            sum(out[f"{name}.self_s"] for name in LAYERS) / traced_wall,
    })
    return out


def unit_of(name: str) -> str:
    suffix = name.rsplit(".", 1)[1]
    if suffix.endswith("_s"):
        return "s"
    if suffix.startswith("bytes"):
        return "bytes"
    if suffix in ("rejected_ratio", "coverage"):
        return "ratio"
    if suffix == "draws_per_frame":
        return "draws/frame"
    return "count"


def traced_metrics(traced: list[tuple[Sample, Iteration]],
                   good: list[Iteration]) -> dict:
    """Per-layer medians over the traced children.

    Times are at reference speed, each traced child taking the scale of the
    iteration it follows (the calibrations run just before and after it).
    """
    per_run = []
    for sample, it in traced:
        stats = json.loads(sample.path.with_suffix(".trace").read_text(
            encoding="utf-8"))
        figures = layer_metrics(stats, sample.wall_s)
        per_run.append({name: value * it.scale if unit_of(name) == "s" else value
                        for name, value in figures.items()})
    traced_walls = [sample.wall_s * it.scale for sample, it in traced]
    walls = [it.sample.wall_s * it.scale for it in good]
    metrics = {}
    for name, moves in LAYER_MOVES.items():
        if name == "trace.overhead_s":
            value = statistics.median(traced_walls) - statistics.median(walls)
        else:
            value = statistics.median(r[name] for r in per_run)
        unit = unit_of(name)
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:<36} {value:>14.6g} {unit:<12} moves {moves}")
    print(describe("wall_s", traced_walls, "s", "traced, ref. speed"))
    print(describe("wall_s", walls, "s", "untraced, ref. speed"))
    return metrics


def commit_id() -> str:
    """The checked-out commit, when the tree is a git checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown"


if __name__ == "__main__":
    sys.exit(main())
