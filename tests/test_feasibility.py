"""The exact feasibility kernel (``matrix._nonneg_solve``) and the fw
routines built on it, against the square-subsystem scans it replaced."""

import random
from fractions import Fraction

import pytest

from galekit import (
    GaleKitError,
    Lattice,
    Mat,
    classify_f,
    classify_w,
    cone_contains,
    is_f_complete,
)
from galekit import fw, matrix
from galekit.matrix import _nonneg_solve
from galekit.normal_forms import strictly_positive_row_vector
from conftest import (
    gauss_rank,
    is_f_complete_oracle,
    mixed_sign_plane_oracle,
    nonneg_combination_oracle,
    proportional_columns_oracle,
    rand_mat,
    strictly_positive_row_vector_oracle,
)


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _check_answer(A, b, x, w):
    """Exactly one of x, w is given, and it is a point or a certificate."""
    assert (x is None) != (w is None)
    if x is not None:
        assert len(x) == len(A[0]) and all(v >= 0 for v in x)
        assert all(_dot(row, x) == bi for row, bi in zip(A, b))
    else:
        assert all(_dot(w, col) >= 0 for col in zip(*A))
        assert _dot(w, b) < 0


def _rand_system(rng):
    m, n = rng.randint(1, 4), rng.randint(1, 7)
    A = rand_mat(rng, m, n, -3, 3).to_lists()
    shape = rng.randrange(5)
    if shape == 0 and m > 1:
        # rank-deficient: the last row repeats a combination of the others
        A[-1] = [x - 2 * y for x, y in zip(A[0], A[1 % (m - 1)])]
    elif shape == 1:
        for row in A:
            row[rng.randrange(n)] = 0
    elif shape == 2:
        A = [[Fraction(x, rng.randint(1, 3)) for x in row] for row in A]
    b = [rng.randint(-4, 4) for _ in range(m)]
    if shape == 3:
        # feasible by construction
        x0 = [rng.randint(0, 2) for _ in range(n)]
        b = [_dot(row, x0) for row in A]
    return A, b


def test_nonneg_solve_matches_subset_scan():
    rng = random.Random(701)
    verdicts = [0, 0]
    for _ in range(600):
        A, b = _rand_system(rng)
        x, w = _nonneg_solve(A, b)
        _check_answer(A, b, x, w)
        cols = list(zip(*A))
        assert (x is not None) == (nonneg_combination_oracle(cols, tuple(b)) is not None)
        assert (x is not None) == cone_contains(Mat(A), range(1, len(cols) + 1), b)
        verdicts[x is not None] += 1
    assert min(verdicts) >= 150


def test_nonneg_solve_edge_systems():
    # zero right-hand side: x = 0
    assert _nonneg_solve([[1, -1]], [0]) == ([0, 0], None)
    # every column zero, nonzero target
    x, w = _nonneg_solve([[0, 0], [0, 0]], [1, 0])
    _check_answer([[0, 0], [0, 0]], [1, 0], x, w)
    # inconsistent equalities (rank-deficient A, b off its column space)
    A, b = [[1, 2], [2, 4]], [1, 3]
    x, w = _nonneg_solve(A, b)
    assert x is None
    _check_answer(A, b, x, w)
    # a rational point
    x, w = _nonneg_solve([[3, 0], [0, 2]], [1, Fraction(1, 3)])
    assert x == [Fraction(1, 3), Fraction(1, 6)] and w is None


def _rand_q(rng):
    r, m = rng.randint(1, 4), rng.randint(2, 7)
    Q = rand_mat(rng, r, m, -2, 3)
    rows = Q.to_lists()
    if r > 1 and rng.random() < 0.2:
        rows[-1] = [x + y for x, y in zip(rows[0], rows[1 % (r - 1)])]
    if rng.random() < 0.15:
        j = rng.randrange(m)
        for row in rows:
            row[j] = 0
    return Mat(rows)


def test_fw_kernels_match_subset_scans(monkeypatch):
    rng = random.Random(702)
    feasible = infeasible = deficient = proportional = 0
    for _ in range(250):
        Q = _rand_q(rng)
        deficient += Q.rank() < Q.rows
        assert is_f_complete(Q) == is_f_complete_oracle(Q)
        cols = list(Q.col_tuples())
        prop = fw._has_proportional_columns(cols)
        assert prop == proportional_columns_oracle(cols)
        proportional += prop

        lat = Lattice.from_matrix(Q)
        if lat.rank:
            basis = [list(row) for row in lat.basis]
            support = [j for j in range(Q.cols) if any(row[j] for row in basis)]
            got = strictly_positive_row_vector(basis, support)
            ref = strictly_positive_row_vector_oracle(basis, support)
            assert (got is None) == (ref is None)
            if got is None:
                infeasible += 1
            else:
                feasible += 1
                vec, lam = got
                assert all(vec[j] > 0 for j in support)
                assert vec == tuple(_dot(lam, col) for col in zip(*basis))
        assert fw._has_mixed_sign_plane_vector(lat) == mixed_sign_plane_oracle(lat)

        got_f, got_w = classify_f(Q), classify_w(Q)
        with monkeypatch.context() as mp:
            mp.setattr(fw, "is_f_complete", is_f_complete_oracle)
            mp.setattr(fw, "strictly_positive_row_vector",
                       strictly_positive_row_vector_oracle)
            mp.setattr(fw, "_has_mixed_sign_plane_vector", mixed_sign_plane_oracle)
            mp.setattr(fw, "_has_proportional_columns", proportional_columns_oracle)
            ref_f, ref_w = classify_f(Q), classify_w(Q)
        assert got_f == ref_f
        assert ("a" in got_f.violated) == (gauss_rank(Q) < Q.rows)
        assert got_w.violated == ref_w.violated
        witness = got_w.positive_witness
        assert (witness is None) == (ref_w.positive_witness is None)
        if witness is not None:
            assert all(x > 0 for j, x in enumerate(witness) if any(Q.col(j)))
            assert witness in lat
    assert feasible >= 40 and infeasible >= 40 and deficient >= 10
    assert 40 <= proportional <= 210


def test_wrong_certificate_raises(monkeypatch):
    A, b = [[1, 1]], [-1]
    x, w = _nonneg_solve(A, b)
    assert x is None and w == [1]
    # a phase 1 that hands back a non-certificate, or a wrong point
    monkeypatch.setattr(matrix, "_phase1", lambda a, rhs: (None, [-1]))
    with pytest.raises(GaleKitError, match="Farkas certificate"):
        _nonneg_solve(A, b)
    monkeypatch.setattr(matrix, "_phase1", lambda a, rhs: ([1, 0], None))
    with pytest.raises(GaleKitError, match="simplex point"):
        _nonneg_solve(A, b)
