"""Property tests of the fraction-free linear algebra kernel (``solve``,
``Mat.rank`` and ``Mat.inverse`` on small rational matrices), of the
integer normal forms ``snf`` and ``positive_row_echelon``, and of lattice
membership (``Lattice.coordinates``), ``lattice_intersection``,
``dual_lattice`` and ``quotient_structure`` (against sympy's Smith form).

Derandomized with a bounded number of examples, so the suite stays
deterministic and fast.
"""

from fractions import Fraction
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from galekit import (  # noqa: E402
    DomainError,
    Lattice,
    Mat,
    det_exact,
    dual_lattice,
    is_row_echelon,
    lattice_intersection,
    positive_row_echelon,
    quotient_structure,
    snf,
)
from galekit.matrix import solve  # noqa: E402
from conftest import solve_oracle  # noqa: E402

PROFILE = settings(derandomize=True, max_examples=150, deadline=None)

entries = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5)),
)


def matrices(rows, cols, cell=entries):
    return st.lists(st.lists(cell, min_size=cols, max_size=cols),
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


def _combine(coeffs, rows, width):
    return tuple(sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(width))


@st.composite
def lattices_and_vectors(draw):
    """(L, v): L spanned by integer or rational generators in Q^m; v an
    integer or a rational combination of the generators, or any vector."""
    m, k = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    gens = draw(matrices(k, m, draw(st.sampled_from([entries, st.integers(-6, 6)]))))
    kind = draw(st.integers(0, 2))
    if kind == 2:
        v = tuple(draw(st.lists(entries, min_size=m, max_size=m)))
    else:
        coeff = st.integers(-4, 4) if kind == 0 else entries
        v = _combine(draw(st.lists(coeff, min_size=k, max_size=k)), gens.row_tuples(), m)
    return Lattice.from_matrix(gens), v


@PROFILE
@given(lattices_and_vectors())
def test_coordinates_decide_membership(case):
    L, v = case
    c = L.coordinates(v)
    if L.rank == 0:
        member = not any(v)
    else:
        sol = solve_oracle(L.basis_matrix().transpose(), Mat([[x] for x in v]))
        member = sol is not None and sol.is_integral
    assert (c is not None) == member
    if c is not None:
        assert all(isinstance(x, int) for x in c)
        assert _combine(c, L.basis, L.ambient_dim) == tuple(v)


@st.composite
def operands(draw):
    """Two or three lattices in Q^m, each of 1 to m + 1 generators."""
    m = draw(st.integers(1, 4))
    return [Lattice.from_matrix(draw(matrices(draw(st.integers(1, m + 1)), m)))
            for _ in range(draw(st.integers(2, 3)))]


@PROFILE
@given(operands())
def test_intersection_lies_in_every_operand(lats):
    inter = lattice_intersection(lats)
    assert all(row in L for row in inter.basis for L in lats)


@st.composite
def full_rank_lattice(draw, m):
    """An upper triangular integer matrix with a positive diagonal, times a
    unimodular matrix on the right: a full-rank lattice in Z^m."""
    rows = [[draw(st.integers(1, 4)) if i == j else
             draw(st.integers(-5, 5)) if j > i else 0 for j in range(m)]
            for i in range(m)]
    return Lattice.from_matrix(Mat(rows) @ draw(unimodular(m)))


@PROFILE
@given(st.integers(1, 4).flatmap(lambda m: st.tuples(
    st.lists(full_rank_lattice(m), min_size=2, max_size=3),
    st.lists(st.integers(-3, 3), min_size=m, max_size=m))))
def test_intersection_contains_index_multiples(case):
    # N Z^m lies in every operand for N the product of their indices
    lats, coeffs = case
    inter = lattice_intersection(lats)
    n = math.prod(abs(det_exact(L.basis_matrix())) for L in lats)
    v = _combine(coeffs, lats[0].basis, lats[0].ambient_dim)
    assert tuple(n * x for x in v) in inter


@PROFILE
@given(st.tuples(st.integers(1, 4), st.integers(1, 5)).flatmap(
    lambda km: matrices(*km)))
def test_dual_lattice_pairs_integrally_and_is_an_involution(A):
    L = Lattice.from_matrix(A)
    D = dual_lattice(L)
    assert D.rank == L.rank
    pairings = [sum(x * y for x, y in zip(u, v)) for u in L.basis for v in D.basis]
    assert all(Fraction(p).denominator == 1 for p in pairings)
    assert dual_lattice(D) == L


@PROFILE
@given(int_matrices(5, 5))
def test_quotient_structure_matches_sympy_smith_form(A):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form
    q = quotient_structure(A.cols, Lattice.from_matrix(A))
    S = smith_normal_form(sympy.Matrix(A.to_lists()), domain=sympy.ZZ)
    diag = [abs(int(S[i, i])) for i in range(min(S.shape)) if S[i, i]]
    assert q.free_rank == A.cols - len(diag)
    assert q.torsion_factors == tuple(c for c in diag if c > 1)
    if A.rows == A.cols and A.rank() == A.rows:
        assert q.free_rank == 0 and q.torsion_order == abs(det_exact(A))
