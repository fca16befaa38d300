"""Independent reference implementations the tests check the library against.

Everything here is deliberately naive: cofactor expansion instead of
elimination, minor enumeration instead of pivot counting, a quadratic
pairwise scan instead of hash tables, Cramer's rule instead of the
solver, a double sum over the Gram matrix instead of integer images.
Slow is fine; these only run on small inputs.
"""

import random
from fractions import Fraction
from itertools import combinations

from orthocheck.linalg import SAMPLING_CAP, Frame, is_independent, solve_coordinates


def det_cofactor(rows):
    """Determinant by first-row cofactor expansion."""
    n = len(rows)
    assert all(len(row) == n for row in rows), "square input only"
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(n):
        minor = [
            [row[k] for k in range(n) if k != j]
            for row in rows[1:]
        ]
        sign = -1 if j % 2 else 1
        total += sign * Fraction(rows[0][j]) * det_cofactor(minor)
    return total


def mat_mul(a, b):
    """Matrix product by the textbook triple loop."""
    return tuple(
        tuple(sum((Fraction(row[k]) * b[k][c] for k in range(len(b))), Fraction(0))
              for c in range(len(b[0])))
        for row in a
    )


def rank_by_minors(rows):
    """Largest k such that some k-by-k minor has nonzero determinant."""
    if not rows:
        return 0
    n_rows, n_cols = len(rows), len(rows[0])
    for k in range(min(n_rows, n_cols), 0, -1):
        for row_idx in combinations(range(n_rows), k):
            for col_idx in combinations(range(n_cols), k):
                minor = [[rows[r][c] for c in col_idx] for r in row_idx]
                if det_cofactor(minor) != 0:
                    return k
    return 0


def solve_2x2_cramer(v, w, x):
    """Coordinates (c1, c2) with c1*v + c2*w = x, by Cramer's rule."""
    det = v[0] * w[1] - v[1] * w[0]
    assert det != 0, "dependent pair"
    c1 = Fraction(x[0] * w[1] - x[1] * w[0], 1) / det
    c2 = Fraction(v[0] * x[1] - v[1] * x[0], 1) / det
    return (c1, c2)


def first_conflict_pairwise(entries):
    """First factorization conflict over raw (frame, point, values) triples.

    Scan order matches the library contract: ascending slot index, then
    each entry against all earlier entries.  Returns (index, s, t) with
    1-based index and entry positions s < t, or None.
    """
    if not entries:
        return None
    m = len(entries[0][0])
    for i in range(m):
        for t in range(len(entries)):
            for s in range(t):
                frame_s, x_s, values_s = entries[s]
                frame_t, x_t, values_t = entries[t]
                same_key = frame_s[i] == frame_t[i] and x_s == x_t
                if same_key and values_s[i] != values_t[i]:
                    return (i + 1, s, t)
    return None


def grouping_verdict(entries):
    """True iff no two entries share a slot key with different values."""
    return first_conflict_pairwise(entries) is None


def naive_bilinear(G, x, y):
    """``x^T G y`` as a double sum over ``G.matrix``, in Fractions."""
    total = Fraction(0)
    for i in range(len(x)):
        for j in range(len(y)):
            total += Fraction(x[i]) * Fraction(G.matrix[i][j]) * Fraction(y[j])
    return total


def nonorthogonal_pairs(G, vectors):
    """Every 1-based pair (i, j), i < j, with ``<v_i, v_j> != 0`` under G,
    in lexicographic order, by one naive evaluation per pair."""
    return [
        (i + 1, j + 1)
        for i, j in combinations(range(len(vectors)), 2)
        if naive_bilinear(G, vectors[i], vectors[j]) != 0
    ]


def gram_schmidt_fractions(gram, vectors):
    """Classical Gram-Schmidt under the form ``x^T gram y``, over Fractions.

    No normalization: each vector has its projections onto the earlier
    outputs subtracted, one coefficient ``<w, u> / <w, w>`` at a time.
    """

    def form(x, y):
        return sum(
            (x[i] * Fraction(gram[i][j]) * y[j]
             for i in range(len(x)) for j in range(len(y))),
            Fraction(0),
        )

    out = []
    for v in vectors:
        u = [Fraction(e) for e in v]
        for w in out:
            coeff = form(w, u) / form(w, w)
            u = [a - coeff * b for a, b in zip(u, w)]
        out.append(tuple(u))
    return tuple(out)


def linear_combination_fractions(vectors, coeffs):
    """``sum(c_k * v_k)`` over Fractions, one scaled vector added at a time."""
    out = [Fraction(0)] * len(vectors[0])
    for c, v in zip(coeffs, vectors):
        c = Fraction(c)
        out = [a + c * b for a, b in zip(out, v)]
    return tuple(out)


def witness_by_solving(G, candidate, i, j):
    """A rejected candidate's witness, collision point and slot values by
    the route that spells the construction out: Gram-Schmidt (the Fraction
    reference above) on the frame reordered with slot i first, put back in
    slot order; ``x = b_i + b_j``; and slot i's coordinate of x over each
    frame from the public ``solve_coordinates``."""
    m = len(candidate)
    order = [i - 1] + [k for k in range(m) if k != i - 1]
    orthogonalized = gram_schmidt_fractions(
        G.matrix, [candidate[k] for k in order]
    )
    slots = [None] * m
    for position, k in enumerate(order):
        slots[k] = orthogonalized[position]
    witness = Frame(tuple(slots))
    x = tuple(a + b for a, b in zip(candidate[i - 1], candidate[j - 1]))
    values = (
        solve_coordinates(candidate, x)[i - 1],
        solve_coordinates(witness, x)[i - 1],
    )
    return witness, x, values


def sample_frame_fraction_draws(dim, m, bound, seed):
    """``sample_frame`` as it drew before it ranked its int draws: each draw
    is built as Fractions and tested with ``is_independent``.  Returns the
    accepted frame, validated afresh, and the number of draws it took."""
    rng = random.Random(seed)
    for draws in range(1, SAMPLING_CAP + 1):
        candidate = [
            tuple(Fraction(rng.randint(-bound, bound)) for _ in range(dim))
            for _ in range(m)
        ]
        if is_independent(candidate):
            return Frame(tuple(candidate)), draws
    raise AssertionError(f"no independent frame in {SAMPLING_CAP} draws")
