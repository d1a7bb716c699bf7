import random
from collections import Counter
from fractions import Fraction
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
from galekit import cli, matrix
from conftest import (
    count_calls, count_rank_calls, gauss_rank, rand_full_row_rank, rand_mat, solve_oracle)

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


def test_left_factor_through_dependent_rows():
    # [1] = -[2] + [3]: an integral factor exists although no rational
    # solution with a free variable at zero is integral
    A, Q = Mat([[1]]), Mat([[2], [3]])
    alpha = solve_left_factor(A, Q)
    assert alpha is not None and alpha.is_integral and alpha @ Q == A
    # [1, 0] is half of the generator [2, 0] of L_r(Q), in its span only
    assert solve_left_factor(Mat([[1, 0]]), Mat([[2, 0], [4, 0]])) is None
    Q = Mat([[2, 0], [4, 0]])
    alpha = solve_left_factor(Mat([[6, 0], [0, 0]]), Q)
    assert alpha is not None and alpha @ Q == Mat([[6, 0], [0, 0]])


def test_left_factor_corpus():
    # 3,000 seeded Q of 1-4 rows and 1-5 columns, entries in [-3, 3], one in
    # five with a rational entry.  A = C Q for an integer C always factors;
    # A = C Q with one half-integer entry in C, or A random, factors exactly
    # when every row lies in L_r(Q), that is when stacking it on Q leaves
    # the row lattice as it is.  For Q of full row rank alpha is the unique
    # rational solution, when that is integral.
    rng = random.Random(405)
    tally = Counter()
    for _ in range(3000):
        r, m, k = rng.randint(1, 4), rng.randint(1, 5), rng.randint(1, 3)
        rows = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(r)]
        rational = rng.random() < 0.2
        if rational:
            rows[rng.randrange(r)][rng.randrange(m)] = Fraction(
                rng.choice([-3, -1, 1, 5]), rng.choice([2, 3, 4]))
        Q = Mat(rows)
        C = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(k)]
        kind = rng.choice(["integral", "integral", "half", "random"])
        if kind == "half":
            C[rng.randrange(k)][rng.randrange(r)] += Fraction(1, 2)
        A = Mat(C) @ Q if kind != "random" else Mat(
            [[rng.randint(-3, 3) for _ in range(m)] for _ in range(k)])
        alpha = solve_left_factor(A, Q)
        lattice = Lattice.from_matrix(Q)
        inside = all(Lattice.from_rows(Q.row_tuples() + (a,), m) == lattice
                     for a in A.row_tuples())
        assert (alpha is not None) == inside, (A, Q)
        if alpha is not None:
            assert alpha.is_integral and alpha @ Q == A, (A, Q, alpha)
        deficient = gauss_rank(Q) < r
        if not deficient:
            x = solve_oracle(Q.transpose(), A.transpose())
            assert alpha == (x.transpose() if x is not None and x.is_integral else None)
        assert inside or kind != "integral"
        tally["rational"] += rational
        tally["deficient"] += deficient
        tally["deficient factored"] += deficient and alpha is not None
        tally["none"] += alpha is None
        tally["random inside"] += kind == "random" and inside
    assert min(tally.values()) >= 100, tally


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


def test_subset_checks_check_each_index_set_once(monkeypatch):
    # each check reads its index set once and selects columns from it
    # directly; gale --check on a 3 x 9 pair makes 2^9 + C(9, 3) checks
    calls = count_calls(monkeypatch, matrix, "check_index_set")
    assert quotient_iso_check(WORKED_PAIR, (1, 3))[2]
    assert calls["check_index_set"] == 1
    assert det_duality_check(WORKED_PAIR, (1, 3))[2]
    assert calls["check_index_set"] == 2
    V = Mat([[1, 0, 0, 1, 0, 1, 1, 2, 1],
             [0, 1, 0, 1, 1, 0, 1, 1, 2],
             [0, 0, 1, 0, 1, 1, 1, 1, -1]])
    calls.clear()
    assert cli._run_gale_checks(GaleDualPair(V, gale_dual(V)), 12) == 512
    assert calls["check_index_set"] == 512 + 84
