"""Acceptance suite: the nine package-level criteria, one test each.

Each criterion prints a single summary line.  Run with ``pytest
tests/test_acceptance.py -v -s`` to see the lines as they pass.  Counts,
seeds, and exactness requirements are pinned; elapsed time is printed
against the stated budget but not asserted, so a slow machine cannot turn
a correct build red.
"""

import json
import time
from fractions import Fraction as F
from itertools import combinations

from orthocheck import (
    GramInnerProduct,
    Relation,
    RelationPoint,
    build_orthogonal_relation,
    canonical_dumps,
    chain_union_check,
    derive_seed,
    evaluate,
    exhaustive_candidates_2d,
    factor_check,
    frame_adapted_inner_product,
    frame_of,
    gram_schmidt,
    identity_inner_product,
    is_orthogonal_tuple,
    linear_combination,
    relation_point,
    sample_chain,
    sample_coefficients,
    sample_frame,
    sample_inner_product,
    sample_span_point,
    solve_coordinates,
    verify_orthogonal_maximality,
    verify_projection_equivalence,
)
from orthocheck.cli import main as cli_main

from oracles import grouping_verdict, solve_2x2_cramer

MASTER = 20260817


def announce(number, name, passed, detail, started, budget):
    elapsed = time.perf_counter() - started
    verdict = "PASS" if passed else "FAIL"
    print(
        f"[acceptance] criterion {number} ({name}): {verdict} - {detail} "
        f"({elapsed:.2f}s, budget {budget}s)"
    )


def test_criterion_1_coordinate_round_trip():
    started = time.perf_counter()
    trials, failures = 10_000, 0
    for k in range(trials):
        dim = 2 + (k % 3)
        m = 2 + (k % (dim - 1))
        bound = 1 + (k % 5)
        seed = derive_seed(MASTER, 1, k)
        fr = sample_frame(dim, m, bound, derive_seed(seed, 0))
        coeffs = sample_coefficients(m, bound, derive_seed(seed, 1))
        x = linear_combination(fr.vectors, coeffs)
        if solve_coordinates(fr, x) != coeffs:
            failures += 1
    announce(1, "coordinate round-trip", failures == 0,
             f"{trials} trials, {failures} failures", started, 5)
    assert failures == 0


def test_criterion_2_formula_equivalence():
    started = time.perf_counter()
    forms = [identity_inner_product(3)]
    for g in range(10):
        forms.append(sample_inner_product(3, 3, derive_seed(MASTER, 2, g)))
    for G in forms:
        GramInnerProduct(G.matrix)
    trials, failures = 1_000, 0
    for k in range(trials):
        G = forms[k % len(forms)]
        m = 2 + (k % 2)
        seed = derive_seed(MASTER, 2, 100 + k)
        fr = gram_schmidt(G, sample_frame(3, m, 4, derive_seed(seed, 0)))
        x = sample_span_point(fr, 4, derive_seed(seed, 1))
        if not verify_projection_equivalence(G, fr, x):
            failures += 1
    announce(2, "solver equals coefficient formula", failures == 0,
             f"{trials} trials over {len(forms)} forms, {failures} failures",
             started, 5)
    assert failures == 0


def _oracle_pool():
    """16 distinct relation entries over dimension-2 frames, entries in
    [-2, 2]: canonical coordinates mixed with adversarial hand values."""
    frames = [
        frame_of((1, 0), (0, 1)),
        frame_of((1, 0), (1, 1)),
        frame_of((1, 0), (0, 2)),
        frame_of((1, 1), (1, -1)),
    ]
    xs = [(F(1), F(1)), (F(2), F(-1)), (F(0), F(2)), (F(-2), F(1))]
    pool = []
    for fi, fr in enumerate(frames):
        for xi, x in enumerate(xs):
            if (fi + xi) % 5 == 0:
                pool.append(RelationPoint(fr, x, (F(fi - xi), F(xi - 2))))
            else:
                pool.append(relation_point(fr, x))
    assert len({(p.frame, p.point) for p in pool}) == 16
    return pool


def test_criterion_3_oracle_equivalence_exhaustive():
    started = time.perf_counter()
    pool = _oracle_pool()
    checked = mismatches = 0
    for size in range(7):
        for idx in combinations(range(len(pool)), size):
            rel = Relation(tuple(pool[i] for i in idx))
            entries = [(p.frame.vectors, p.point, p.values) for p in rel.points]
            checked += 1
            if factor_check(rel).passed != grouping_verdict(entries):
                mismatches += 1
    announce(3, "factorization matches brute-force oracle", mismatches == 0,
             f"{checked} relations of <= 6 points, {mismatches} mismatches",
             started, 60)
    assert checked == 14_893
    assert mismatches == 0


def test_criterion_4_orthogonal_relations_always_factor():
    started = time.perf_counter()
    runs, failures = 100, 0
    for k in range(runs):
        dim = 2 + (k % 3)
        G = identity_inner_product(dim)
        rel = build_orthogonal_relation(G, 4, 3, 5, seed=derive_seed(MASTER, 4, k),
                                        m=dim)
        if not factor_check(rel).passed:
            failures += 1
    announce(4, "built orthogonal relations factor", failures == 0,
             f"{runs} builds, {failures} counterexamples", started, 5)
    assert failures == 0


def test_criterion_5_maximality_sweep_exhaustive():
    started = time.perf_counter()
    G = identity_inner_product(2)
    candidates = exhaustive_candidates_2d(2)
    reports = verify_orthogonal_maximality(G, candidates)
    bad = 0
    accepted = rejected = 0
    fixture_seen = False
    for rep in reports:
        orthogonal = is_orthogonal_tuple(G, rep.candidate)
        if rep.accepted != orthogonal:
            bad += 1
            continue
        if rep.accepted:
            accepted += 1
            continue
        rejected += 1
        # re-solve both frames from scratch with an independent method
        i = rep.index
        cand, wit, x = rep.candidate, rep.orthogonal_witness, rep.collision_point
        lam_c = solve_2x2_cramer(cand[0], cand[1], x)[i - 1]
        lam_w = solve_2x2_cramer(wit[0], wit[1], x)[i - 1]
        if (lam_c, lam_w) != rep.values or lam_c == lam_w:
            bad += 1
            continue
        if rep.candidate.vectors == ((F(1), F(0)), (F(1), F(1))):
            fixture_seen = (
                rep.values == (F(1), F(2)) and x == (F(2), F(1))
            )
    ok = bad == 0 and fixture_seen
    announce(5, "exhaustive maximality sweep", ok,
             f"{len(reports)} candidates: {accepted} accepted, {rejected} "
             f"rejected, {bad} inconsistent, fixture "
             f"{'reproduced' if fixture_seen else 'missing'}", started, 30)
    assert bad == 0
    assert fixture_seen
    assert accepted + rejected == len(reports)


def test_criterion_6_chain_unions():
    started = time.perf_counter()
    trials, failures = 500, 0
    G2, G3 = identity_inner_product(2), identity_inner_product(3)
    for k in range(trials):
        G = G2 if k % 2 == 0 else G3
        rel = build_orthogonal_relation(G, 4, 3, 4, seed=derive_seed(MASTER, 6, k))
        chain = sample_chain(rel, 4, seed=derive_seed(MASTER, 6, k, 1))
        if not chain_union_check(chain):
            failures += 1
    announce(6, "chain unions keep factoring", failures == 0,
             f"{trials} nested chains, {failures} failures", started, 10)
    assert failures == 0


def test_criterion_7_adapted_inner_product():
    started = time.perf_counter()
    trials, failures = 1_000, 0
    for k in range(trials):
        dim = 2 + (k % 2)
        fr = sample_frame(dim, dim, 4, derive_seed(MASTER, 7, k))
        G = frame_adapted_inner_product(fr)
        GramInnerProduct(G.matrix)
        orthonormal = all(
            evaluate(G, fr[i], fr[j]) == (1 if i == j else 0)
            for i in range(dim)
            for j in range(dim)
        )
        x = sample_span_point(fr, 4, derive_seed(MASTER, 7, k, 1))
        formula = tuple(
            evaluate(G, v, x) / evaluate(G, v, v) for v in fr
        )
        if not orthonormal or formula != solve_coordinates(fr, x):
            failures += 1
    fixture = frame_adapted_inner_product(frame_of((1, 0), (1, 1)))
    fixture_ok = fixture.matrix == ((F(1), F(-1)), (F(-1), F(2)))
    announce(7, "adapted inner product construction",
             failures == 0 and fixture_ok,
             f"{trials} frames, {failures} failures, fixture "
             f"{'reproduced' if fixture_ok else 'missing'}", started, 10)
    assert failures == 0
    assert fixture_ok


def test_criterion_8_subset_monotonicity():
    started = time.perf_counter()
    import random as _random

    trials, failures = 500, 0
    for k in range(trials):
        rel = build_orthogonal_relation(
            identity_inner_product(2), 4, 3, 4, seed=derive_seed(MASTER, 8, k)
        )
        rng = _random.Random(derive_seed(MASTER, 8, k, 1))
        indices = rng.sample(range(len(rel)), rng.randint(0, len(rel)))
        if not factor_check(rel.take(indices)).passed:
            failures += 1
    announce(8, "subset monotonicity", failures == 0,
             f"{trials} random subsets, {failures} failures", started, 5)
    assert failures == 0


def test_criterion_9_cli_determinism(tmp_path):
    started = time.perf_counter()
    commands = [
        ["equivalence", "--frames", "4", "--points", "3", "--seed", "11"],
        ["factor", "--frames", "3", "--points", "3", "--seed", "7"],
        ["maximality", "--bound", "2", "--seed", "3"],
        ["chain", "--frames", "4", "--points", "3", "--seed", "5"],
        ["pair-ip", "--a=1,0", "--b=1,1", "--seed", "2"],
    ]
    mismatches = 0
    for ci, argv in enumerate(commands):
        payloads = []
        for attempt in range(2):
            out = tmp_path / f"run_{ci}_{attempt}.json"
            code = cli_main(argv + ["--output", str(out)])
            assert code == 0, f"command {argv} exited {code}"
            report = json.loads(out.read_text(encoding="utf-8"))
            stripped = {k: v for k, v in report.items() if k != "duration_s"}
            payloads.append(canonical_dumps(stripped))
        if payloads[0] != payloads[1]:
            mismatches += 1
    announce(9, "CLI payload determinism", mismatches == 0,
             f"{len(commands)} commands run twice, {mismatches} mismatches",
             started, 5)
    assert mismatches == 0
