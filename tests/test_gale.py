import random
from itertools import combinations

import pytest

from galekit import (
    DomainError,
    GaleDualPair,
    Lattice,
    Mat,
    QuotientStructure,
    det_duality_check,
    double_gale,
    gale_dual,
    gcd_max_minors,
    quotient_iso_check,
    quotient_structure,
    solve_left_factor,
)
from conftest import count_rank_calls, rand_full_row_rank, rand_mat

WORKED_Q = Mat([[1, 1, 0, 0], [0, 1, 1, 2]])
WORKED_V = Mat([[1, -1, 1, 0], [0, 0, 2, -1]])
WORKED_PAIR = GaleDualPair(WORKED_V, WORKED_Q)


def _row_lattice_equal(A, B):
    return Lattice.from_matrix(A) == Lattice.from_matrix(B)


def test_gale_dual_worked_example():
    assert _row_lattice_equal(gale_dual(WORKED_Q), WORKED_V)


def test_gale_dual_reduction_example():
    G = gale_dual(Mat([[1, 2, 0, 0], [0, 0, 3, 5]]))
    assert _row_lattice_equal(G, Mat([[2, -1, 0, 0], [0, 0, 5, -3]]))
    assert G == Mat([[2, -1, 0, 0], [0, 0, 5, -3]])  # Hermite-canonical


def test_gale_dual_projective_plane():
    G = gale_dual(Mat([[1, 0, -1], [0, 1, -1]]))
    assert G == Mat([[1, 1, 1]])


def test_gale_dual_errors():
    # rank-deficient and square: the rank error comes first
    with pytest.raises(DomainError, match="full row rank"):
        gale_dual(Mat([[1, 2], [2, 4]]))
    with pytest.raises(DomainError, match="more columns than rows"):
        gale_dual(Mat([[1, 0], [0, 1]]))


def test_gale_dual_orthogonality_random():
    rng = random.Random(401)
    for _ in range(40):
        m = rng.randint(2, 6)
        d = rng.randint(1, m - 1)
        A = rand_full_row_rank(rng, d, m)
        G = gale_dual(A)
        zero = Mat([[0] * d for _ in range(m - d)])
        assert G @ A.transpose() == zero
        # the dual's row lattice is saturated
        q = quotient_structure(m, Lattice.from_matrix(G))
        assert q.is_free


def test_double_gale_closure():
    A = Mat([[2, -1, 0, 0], [0, 0, 5, -3]])
    assert _row_lattice_equal(double_gale(A), A)


def test_double_gale_detects_cotorsion():
    A = Mat([[2, 0, 0], [0, 2, 0]])
    gg = double_gale(A)
    assert _row_lattice_equal(gg, Mat([[1, 0, 0], [0, 1, 0]]))
    assert not _row_lattice_equal(gg, A)
    lat_a = Lattice.from_matrix(A)
    lat_gg = Lattice.from_matrix(gg)
    assert all(row in lat_gg for row in lat_a.basis)


def test_double_gale_row_lattice_iff_no_cotorsion():
    rng = random.Random(402)
    for _ in range(30):
        m = rng.randint(3, 6)
        d = rng.randint(1, m - 1)
        A = rand_full_row_rank(rng, d, m)
        free = quotient_structure(m, Lattice.from_matrix(A)).is_free
        assert _row_lattice_equal(double_gale(A), A) == free


def test_pair_validation():
    GaleDualPair(WORKED_V, WORKED_Q)
    with pytest.raises(DomainError):
        GaleDualPair(WORKED_V, Mat([[2, 2, 0, 0], [0, 2, 2, 4]]))


def test_pair_validation_reads_ranks_off_its_lattices(monkeypatch):
    rank_calls = count_rank_calls(monkeypatch)
    GaleDualPair(WORKED_V, WORKED_Q)
    with pytest.raises(DomainError, match="^invalid pair: rank deficiency$"):
        GaleDualPair(Mat([[1, -1, 1, 0], [2, -2, 2, 0]]), WORKED_Q)
    with pytest.raises(DomainError, match="^invalid pair: rank deficiency$"):
        GaleDualPair(WORKED_V, Mat([[1, 1, 0, 0], [2, 2, 0, 0]]))
    with pytest.raises(DomainError, match="^invalid pair: rows of Q do not "
                       r"span ker\(V\)$"):
        GaleDualPair(WORKED_V, Mat([[2, 2, 0, 0], [0, 2, 2, 4]]))
    assert rank_calls["rank"] == 0


def test_quotient_iso_worked_example():
    left, right, equal = quotient_iso_check(WORKED_PAIR, (1,))
    assert equal


def test_quotient_iso_empty_index():
    left, right, equal = quotient_iso_check(WORKED_PAIR, ())
    assert equal
    assert left == QuotientStructure(2, ())


def test_quotient_iso_reduction_pair():
    Q = Mat([[1, 2, 0, 0], [0, 0, 3, 5]])
    V = gale_dual(Q)
    left, right, equal = quotient_iso_check(GaleDualPair(V, Q), (1,))
    assert equal
    # torsion is cyclic of order d_1 = 2 on top of the free part
    assert left == QuotientStructure(1, (2,))


def test_det_duality_worked_example():
    lhs, rhs, equal = det_duality_check(WORKED_PAIR, (1, 3))
    assert (lhs, rhs, equal) == (2, 2, True)


def test_det_duality_zero_case():
    lhs, rhs, equal = det_duality_check(WORKED_PAIR, (1, 2))
    assert (lhs, rhs, equal) == (0, 0, True)


def test_det_duality_requires_size_n():
    with pytest.raises(DomainError):
        det_duality_check(WORKED_PAIR, (1,))


def test_universal_property():
    rng = random.Random(403)
    for _ in range(20):
        m = rng.randint(3, 6)
        d = rng.randint(1, m - 1)
        V = rand_full_row_rank(rng, d, m)
        Q = gale_dual(V)
        # any integral annihilator factors through Q
        mult = rand_mat(rng, Q.rows, Q.rows, -3, 3)
        A = mult @ Q
        alpha = solve_left_factor(A, Q)
        assert alpha is not None and alpha @ Q == A


def test_subset_identities_random():
    rng = random.Random(404)
    for _ in range(8):
        m = rng.randint(3, 5)
        n = rng.randint(1, m - 1)
        V = rand_full_row_rank(rng, n, m)
        Q = gale_dual(V)
        pair = GaleDualPair(V, Q)
        for size in range(m + 1):
            for I in combinations(range(1, m + 1), size):
                left, right, equal = quotient_iso_check(pair, I)
                assert equal, (V, I, left, right)
                if size == n:
                    lhs, rhs, ok = det_duality_check(pair, I)
                    assert ok, (V, I, lhs, rhs)
