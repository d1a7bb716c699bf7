"""Property tests of the fraction-free linear algebra kernel (``solve``,
``Mat.rank`` and ``Mat.inverse`` on small rational matrices) and of the
integer normal forms ``snf`` and ``positive_row_echelon``.

Derandomized with a bounded number of examples, so the suite stays
deterministic and fast.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from galekit import (  # noqa: E402
    DomainError,
    Mat,
    det_exact,
    is_row_echelon,
    positive_row_echelon,
    snf,
)
from galekit.matrix import solve  # noqa: E402

PROFILE = settings(derandomize=True, max_examples=150, deadline=None)

entries = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5)),
)


def matrices(rows, cols):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(Mat)


@st.composite
def products(draw):
    """(A, X) with A m x n and X n x k."""
    m, n, k = draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(1, 3))
    return draw(matrices(m, n)), draw(matrices(n, k))


@st.composite
def systems(draw):
    """(A, B); B = A X, consistent by construction, half of the time."""
    A, X = draw(products())
    B = A @ X if draw(st.booleans()) else draw(matrices(A.rows, X.cols))
    return A, B


def _hstack(A, B):
    return Mat([a + b for a, b in zip(A.row_tuples(), B.row_tuples())])


@PROFILE
@given(products())
def test_solve_recovers_consistent_right_hand_side(pair):
    A, X = pair
    B = A @ X
    sol = solve(A, B)
    assert sol is not None and A @ sol == B


@PROFILE
@given(systems())
def test_solve_none_means_rank_jump(system):
    A, B = system
    sol = solve(A, B)
    if sol is None:
        assert A.rank() < _hstack(A, B).rank()
    else:
        assert A @ sol == B
        assert A.rank() == _hstack(A, B).rank()


@PROFILE
@given(st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
    lambda mn: matrices(*mn)))
def test_rank_of_transpose(A):
    assert A.rank() == A.transpose().rank()


@PROFILE
@given(st.integers(1, 5).flatmap(lambda n: matrices(n, n)))
def test_inverse_when_nonsingular(A):
    n = A.rows
    if A.rank() < n:
        with pytest.raises(DomainError):
            A.inverse()
    else:
        assert A.inverse() @ A == Mat.identity(n)


def int_matrices(max_rows=5, max_cols=6, lo=-9, hi=9):
    return st.tuples(st.integers(1, max_rows), st.integers(1, max_cols)).flatmap(
        lambda mn: st.lists(st.lists(st.integers(lo, hi), min_size=mn[1],
                                     max_size=mn[1]),
                            min_size=mn[0], max_size=mn[0]).map(Mat))


@st.composite
def unimodular(draw, n):
    """A product of elementary integer row operations on I_n."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for op, i, j, q in draw(st.lists(st.tuples(
            st.integers(0, 2), st.integers(0, n - 1), st.integers(0, n - 1),
            st.integers(-3, 3)), max_size=8)):
        if op == 0:
            rows[i], rows[j] = rows[j], rows[i]
        elif op == 1:
            rows[i] = [-x for x in rows[i]]
        elif i != j:
            rows[i] = [x + q * y for x, y in zip(rows[i], rows[j])]
    return Mat(rows)


@PROFILE
@given(int_matrices())
def test_snf_is_a_smith_form(A):
    res = snf(A)
    assert res.alpha @ A @ res.beta == res.S
    assert abs(det_exact(res.alpha)) == 1 and abs(det_exact(res.beta)) == 1
    k = len(res.factors)
    assert all(res.S[i, j] == (res.factors[i] if i == j and i < k else 0)
               for i in range(A.rows) for j in range(A.cols))
    assert all(c > 0 for c in res.factors)
    assert all(b % a == 0 for a, b in zip(res.factors, res.factors[1:]))


@PROFILE
@given(int_matrices().flatmap(lambda A: st.tuples(
    st.just(A), unimodular(A.rows), unimodular(A.cols))))
def test_snf_factors_are_unimodular_invariants(case):
    A, L, R = case
    assert snf(L @ A @ R).factors == snf(A).factors


def _is_permutation(P):
    return (all(sorted(row) == [0] * (P.cols - 1) + [1] for row in P.row_tuples())
            and all(sorted(col) == [0] * (P.rows - 1) + [1]
                    for col in P.transpose().row_tuples()))


@PROFILE
@given(int_matrices(4, 6, -3, 6))
def test_positive_row_echelon_when_it_returns(A):
    try:
        E, alpha, beta = positive_row_echelon(A)
    except DomainError:
        return
    assert alpha @ A @ beta == E
    assert all(x >= 0 for row in E.row_tuples() for x in row)
    assert is_row_echelon(E)
    assert abs(det_exact(alpha)) == 1
    assert _is_permutation(beta)
