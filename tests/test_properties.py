"""Property tests of the stored denominator of ``Mat``, of the
fraction-free linear algebra kernel (``Mat.rank`` and ``Mat.inverse`` on
small rational matrices), of integral left factors (``solve_left_factor``
over any weight matrix, rank-deficient and rational ones included), of integer
left kernels (``left_kernel_rows``), of the integer normal forms ``snf``
and ``positive_row_echelon``, and of lattice membership
(``Lattice.coordinates``), ``lattice_intersection``,
``dual_lattice`` and ``quotient_structure`` (against sympy's Smith form),
and of the Gale duality between positive spanning and W-positivity.

Derandomized with a bounded number of examples, so the suite stays
deterministic and fast.
"""

from fractions import Fraction
import math
from operator import mul

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from galekit import (  # noqa: E402
    DomainError,
    Lattice,
    Mat,
    classify_w,
    det_exact,
    dual_lattice,
    gale_dual,
    is_f_complete,
    is_row_echelon,
    lattice_intersection,
    left_kernel_rows,
    positive_row_echelon,
    quotient_structure,
    snf,
    solve_left_factor,
)
from galekit.lattices import _gcd_maximal_minors  # noqa: E402
from galekit.matrix import (  # noqa: E402
    format_matrix,
    parse_matrix,
    submatrix_cols,
)
from conftest import hnf_clauses_hold, solve_oracle  # noqa: E402

PROFILE = settings(derandomize=True, max_examples=150, deadline=None)

entries = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5)),
)


def matrices(rows, cols, cell=entries):
    return st.lists(st.lists(cell, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(Mat)


@st.composite
def factored(draw):
    """(A, Q) with Q any rational r x m matrix and A = C Q for an integer
    C, so an integral left factor of A through Q exists."""
    r, m, k = draw(st.integers(1, 4)), draw(st.integers(1, 5)), draw(st.integers(1, 3))
    Q = draw(matrices(r, m))
    return draw(matrices(k, r, st.integers(-3, 3))) @ Q, Q


@st.composite
def left_systems(draw):
    """(A, Q); A factors through Q by construction half of the time."""
    A, Q = draw(factored())
    return (A if draw(st.booleans()) else draw(matrices(A.rows, Q.cols))), Q


def _hstack(A, B):
    return Mat([a + b for a, b in zip(A.row_tuples(), B.row_tuples())])


@PROFILE
@given(factored())
def test_left_factor_recovers_integral_combination(pair):
    A, Q = pair
    alpha = solve_left_factor(A, Q)
    assert alpha is not None and alpha.is_integral and alpha @ Q == A


@PROFILE
@given(left_systems())
def test_left_factor_none_means_row_outside_lattice(system):
    # the oracle stacks a row onto Q: it lies in L_r(Q) exactly when the
    # row lattice does not grow
    A, Q = system
    alpha = solve_left_factor(A, Q)
    lattice = Lattice.from_matrix(Q)
    outside = [a for a in A.row_tuples()
               if Lattice.from_rows(Q.row_tuples() + (a,), Q.cols) != lattice]
    if alpha is None:
        assert outside
    else:
        assert not outside and alpha.is_integral and alpha @ Q == A


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


def _made_from(A, B, Z, k):
    """Every way of making a Mat, from a rational 3 x 4 A, a rational 4 x 2
    B, an integer 3 x 2 Z and a scalar k.  W = [A | Z] is rational with its
    last two columns integral, so a selection of them has denominator 1."""
    W = _hstack(A, Z)
    return {
        "int rows": Mat(Z.to_lists()),
        "Fraction rows": Mat([[Fraction(x) for x in row] for row in A.row_tuples()]),
        "mixed rows": W,
        "transpose": A.transpose(),
        "int transpose": Z.transpose(),
        "take_cols of int columns": W.take_cols([4, 5]),
        "take_cols": W.take_cols([0, 5]),
        "submatrix_cols of int columns": submatrix_cols(W, (5, 6)),
        "complement": submatrix_cols(W, (5, 6), complement=True),
        "product": A @ B,
        "int product": Z.transpose() @ Z,
        "rational by int": Z.transpose() @ A,
        "scale": A.scale(k),
        "int scale": Z.scale(k),
        "negation": -A,
        "from_cols": Mat.from_cols(A.col_tuples()),
        "identity": Mat.identity(A.rows),
        "parse_matrix": parse_matrix(format_matrix(W)),
    }


def _check_stored_denominators(made):
    for how, M in made.items():
        entries = [x for row in M.row_tuples() for x in row]
        den = math.lcm(*(Fraction(x).denominator for x in entries))
        d, scaled = M.int_scaled()
        assert d == den, how
        assert scaled == [[x * d for x in row] for row in M.row_tuples()], how
        assert M.is_integral == (den == 1) == all(type(x) is int for x in entries), how


def test_stored_denominator_on_integral_results_of_rational_matrices():
    # each result is integral, or has a smaller denominator than its parent
    h = Fraction(1, 2)
    A = Mat([[h, 1, Fraction(1, 3), 2], [1, 1, 1, 1], [0, h, 1, 0]])
    B = Mat([[2, 0], [0, 1], [0, 3], [1, 1]])
    Z = Mat([[1, 2], [3, 4], [5, 6]])
    made = _made_from(A, B, Z, 6)
    _check_stored_denominators(made)
    assert made["take_cols of int columns"].is_integral
    assert made["scale"].is_integral and made["product"].int_scaled()[0] == 2
    assert (Mat([[h, Fraction(1, 3)]]) @ Mat([[2], [3]])).is_integral


@PROFILE
@given(matrices(3, 4), matrices(4, 2), matrices(3, 2, st.integers(-6, 6)),
       entries)
def test_stored_denominator_is_a_fresh_scan(A, B, Z, k):
    _check_stored_denominators(_made_from(A, B, Z, k))


@st.composite
def kernel_inputs(draw):
    """m x n matrices, half of them a product X Y through r <= n columns,
    so that rank deficiency is common."""
    m, n = draw(st.integers(1, 7)), draw(st.integers(1, 5))
    if draw(st.booleans()):
        return draw(matrices(m, n))
    r = draw(st.integers(1, n))
    return draw(matrices(m, r)) @ draw(matrices(r, n))


@PROFILE
@given(kernel_inputs())
def test_left_kernel_is_the_saturated_kernel_in_hermite_form(A):
    rows = left_kernel_rows(A)
    assert len(rows) == A.rows - A.rank()
    assert all(sum(map(mul, row, col)) == 0 for row in rows for col in A.col_tuples())
    if rows:
        K = Mat(rows)
        assert _gcd_maximal_minors(K.col_tuples(), K.rows) == 1
        pivots = [next(j for j, x in enumerate(row) if x) + 1 for row in rows]
        assert hnf_clauses_hold(K, pivots)


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


@st.composite
def gale_inputs(draw):
    """An integer n x m matrix with n < m, entries small."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(n + 1, n + 4))
    return draw(matrices(n, m, st.integers(-3, 3)))


@PROFILE
@given(gale_inputs())
def test_f_complete_iff_gale_dual_is_w_positive(V):
    # Stiemke/Gordan: V y = 0 for some y > 0 iff the row lattice of the Gale
    # dual holds a strictly positive vector (W-clause c)
    hypothesis.assume(V.rank() == V.rows)
    Q = gale_dual(V)
    hypothesis.assume(all(any(col) for col in Q.col_tuples()))
    assert is_f_complete(V) == ("c" not in classify_w(Q).violated)
