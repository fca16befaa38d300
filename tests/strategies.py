"""Hypothesis strategies shared by the test modules."""

from fractions import Fraction as F

from hypothesis import assume
from hypothesis import strategies as st

from orthocheck import GramInnerProduct
from orthocheck.linalg import is_independent

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def spellings(q):
    """The input spellings of the rational ``q`` that the library reads as
    ``q``: the Fraction, unreduced ``p/q`` strings such as ``"2/4"``, a
    ``+`` sign such as ``"+3/1"``, ``"-0"`` for zero, and the int itself."""
    n, d = q.numerator, q.denominator
    sign = st.sampled_from(["", "+"]) if n >= 0 else st.just("")
    options = [st.just(q), st.builds(
        lambda s, k: f"{s}{n * k}/{d * k}", sign, st.integers(1, 4))]
    if d == 1:
        options += [st.just(n), st.builds(lambda s: f"{s}{n}", sign)]
    if n == 0:
        options.append(st.sampled_from(["-0", "-0/3"]))
    return st.one_of(options)


def spelled(values):
    """One spelling of each entry of ``values``, as a tuple."""
    return st.tuples(*map(spellings, values))


@st.composite
def rational_forms_and_frames(draw, n=None, m=None):
    """A rational SPD form ``B^T B + c I`` and a rational frame under it;
    the dimension n and frame size m are drawn unless given."""
    n = draw(st.integers(2, 6)) if n is None else n
    m = draw(st.integers(2, n)) if m is None else m
    b = [[draw(rationals) for _ in range(n)] for _ in range(n)]
    c = draw(st.fractions(min_value=F(1, 4), max_value=3, max_denominator=4))
    gram = [
        [sum(b[k][i] * b[k][j] for k in range(n)) + (c if i == j else 0)
         for j in range(n)]
        for i in range(n)
    ]
    vectors = [[draw(rationals) for _ in range(n)] for _ in range(m)]
    assume(is_independent(vectors))
    return GramInnerProduct(gram), vectors
