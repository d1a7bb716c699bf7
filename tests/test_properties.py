"""Property tests of the fraction-free linear algebra kernel: ``solve``,
``Mat.rank`` and ``Mat.inverse`` on small rational matrices.

Derandomized with a bounded number of examples, so the suite stays
deterministic and fast.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from galekit import DomainError, Mat  # noqa: E402
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
