"""Hypothesis strategies shared by the test modules."""

from fractions import Fraction as F

from hypothesis import assume
from hypothesis import strategies as st

from orthocheck import GramInnerProduct
from orthocheck.linalg import is_independent

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)


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
