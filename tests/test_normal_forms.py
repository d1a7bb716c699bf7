import random
from fractions import Fraction

import pytest

from galekit import (
    DomainError,
    GaleKitError,
    Lattice,
    Mat,
    det_exact,
    hnf,
    is_row_echelon,
    left_kernel_rows,
    positive_row_echelon,
    snf,
)
from galekit.normal_forms import _hnf_int
from conftest import (
    check_hnf_result,
    hnf_int_oracle,
    minors_gcd_oracle,
    positive_row_echelon_oracle,
    rand_mat,
    rand_unimodular,
    snf_oracle,
)

WORKED_Q = Mat([[1, 1, 0, 0], [0, 1, 1, 2]])


def test_hnf_worked_example_exact():
    res = hnf(WORKED_Q.transpose())
    assert res.H == Mat([[1, 0], [0, 1], [0, 0], [0, 0]])
    assert res.U == Mat([[1, 0, 0, 0], [-1, 1, 0, 0],
                         [1, -1, 1, 0], [0, 0, 2, -1]])
    assert res.pivot_map == (1, 2)


def test_hnf_identity():
    res = hnf(Mat.identity(4))
    assert res.H == Mat.identity(4)
    assert res.U == Mat.identity(4)


def test_hnf_random_oracle():
    rng = random.Random(201)
    for _ in range(80):
        A = rand_mat(rng, rng.randint(1, 4), rng.randint(1, 5))
        assert check_hnf_result(A, hnf(A))


def test_hnf_idempotent():
    rng = random.Random(202)
    for _ in range(30):
        A = rand_mat(rng, 3, 4)
        H = hnf(A).H
        assert hnf(H).H == H


def test_hnf_unique_under_row_permutation():
    rng = random.Random(203)
    for _ in range(30):
        rows = [list(r) for r in rand_mat(rng, 4, 3).row_tuples()]
        H1 = hnf(Mat(rows)).H
        rng.shuffle(rows)
        assert hnf(Mat(rows)).H == H1


def test_hnf_rational_input():
    A = Mat([[Fraction(1, 2), 0], [0, Fraction(1, 3)]])
    res = hnf(A)
    assert res.U.is_integral
    assert res.U @ A == res.H
    # scaling the matrix scales its Hermite form
    assert hnf(A.scale(6)).H == res.H.scale(6)


def test_left_kernel_rows():
    rows = left_kernel_rows(WORKED_Q.transpose())
    assert rows == [(1, -1, 1, 0), (0, 0, 2, -1)]
    assert left_kernel_rows(Mat.identity(3)) == []


def test_fused_hnf_int_matches_two_list_oracle():
    rng = random.Random(206)
    deficient = 0
    for _ in range(400):
        r, c = rng.randint(1, 7), rng.randint(1, 8)
        A = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
        if r >= 2 and rng.random() < 0.4:
            A[-1] = [x - 2 * y for x, y in zip(A[0], A[1])]
        if rng.random() < 0.1:
            A[rng.randrange(r)] = [0] * c
        expected = hnf_int_oracle(A)
        deficient += len(expected[2]) < r
        assert _hnf_int([row[:] for row in A]) == expected
    assert deficient >= 100


def test_snf_paper_example():
    A = Mat([[2, 0, 0], [0, 3, 5]])
    res = snf(A)
    assert res.S == Mat([[1, 0, 0], [0, 2, 0]])
    assert res.factors == (1, 2)
    assert res.alpha @ A @ res.beta == res.S
    assert abs(det_exact(res.alpha)) == 1
    assert abs(det_exact(res.beta)) == 1


def test_snf_identity():
    res = snf(Mat.identity(3))
    assert res.S == Mat.identity(3)
    assert res.factors == (1, 1, 1)


def test_snf_random_vs_minor_gcds():
    rng = random.Random(204)
    for _ in range(40):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        A = rand_mat(rng, m, n)
        res = snf(A)
        assert res.alpha @ A @ res.beta == res.S
        prod = 1
        for j, c in enumerate(res.factors, start=1):
            prod *= c
            assert prod == minors_gcd_oracle(A, j)
        if len(res.factors) < min(m, n):
            assert minors_gcd_oracle(A, len(res.factors) + 1) == 0
        for a, b in zip(res.factors, res.factors[1:]):
            assert b % a == 0 and a > 0


def test_snf_factors_invariant_under_unimodular():
    rng = random.Random(205)
    for _ in range(20):
        A = rand_mat(rng, 3, 4)
        L = rand_unimodular(rng, 3)
        R = rand_unimodular(rng, 4)
        assert snf(L @ A @ R).factors == snf(A).factors


def test_snf_divisibility_cascade():
    A = Mat([[2, 0, 0], [0, 4, 0], [0, 0, 3]])
    res = snf(A)
    assert res.factors == (1, 2, 12)
    assert res.alpha @ A @ res.beta == res.S
    assert snf(Mat([[6, 0], [0, 4]])).factors == (2, 12)


def test_snf_rejects_rational():
    with pytest.raises(DomainError):
        snf(Mat([[Fraction(1, 2)]]))


def _outcome(fn, A):
    """repr of the result, or the error type and message."""
    try:
        return repr(fn(A))
    except GaleKitError as exc:
        return f"{type(exc).__name__}: {exc}"


def test_block_snf_matches_two_list_oracle():
    # S, alpha, beta and factors, repr for repr; the kinds cycle through
    # generic, rank-deficient (a product through a narrower inner
    # dimension), all-zero or scaled, and entries up to 10^6
    rng = random.Random(208)
    kinds = {"deficient": 0, "zero_or_scaled": 0, "large": 0}
    for it in range(2000):
        kind = it % 4
        d, m = rng.randint(1, 8), rng.randint(1, 10)
        if kind == 1:
            d, m = rng.randint(2, 8), rng.randint(2, 10)
            k = rng.randint(1, min(d, m) - 1)
            A = rand_mat(rng, d, k) @ rand_mat(rng, k, m)
        elif kind == 2:
            A = rand_mat(rng, d, m).scale(rng.randint(0, 12) if it % 8 == 2 else 0)
        else:
            hi = 10**6 if kind == 3 else 9
            A = rand_mat(rng, d, m, -hi, hi)
        expected = _outcome(snf_oracle, A)
        assert _outcome(snf, A) == expected
        res = snf_oracle(A)
        kinds["deficient"] += len(res.factors) < min(d, m)
        kinds["zero_or_scaled"] += kind == 2
        kinds["large"] += max(abs(x) for row in A.row_tuples() for x in row) > 10**5
    assert min(kinds.values()) >= 200, kinds


# ---------------------------------------------------------------------------

def _echelon_valid(A, E, alpha, beta):
    assert alpha @ A @ beta == E
    assert abs(det_exact(alpha)) == 1
    assert all(x >= 0 for row in E.row_tuples() for x in row)
    assert is_row_echelon(E)
    # beta is a permutation matrix
    bl = beta.to_lists()
    assert all(sorted(row) == [0] * (beta.cols - 1) + [1] for row in bl)
    assert all(sorted(col) == [0] * (beta.rows - 1) + [1]
               for col in beta.transpose().to_lists())
    # row lattice is preserved up to the column permutation
    assert (Lattice.from_matrix(E @ beta.inverse())
            == Lattice.from_matrix(A))


def test_echelon_fixed_point():
    A = Mat([[1, 1, 0, 0], [0, 1, 1, 2]])
    E, alpha, beta = positive_row_echelon(A)
    assert (E, alpha, beta) == (A, Mat.identity(2), Mat.identity(4))


def test_echelon_needs_permutation():
    A = Mat([[0, 0, 3, 5], [1, 2, 0, 0]])
    E, alpha, beta = positive_row_echelon(A)
    _echelon_valid(A, E, alpha, beta)
    leads = [next(j for j, x in enumerate(E.row(i)) if x) for i in range(2)]
    assert leads == [0, 2]


def test_echelon_scrambled_input():
    A = Mat([[1, 5], [0, 1]]) @ Mat([[1, 1, 0, 0], [0, 0, 1, 1]])
    E, alpha, beta = positive_row_echelon(A)
    _echelon_valid(A, E, alpha, beta)


def test_echelon_negative_entries_positivized():
    A = Mat([[1, 1, 0, 0], [-1, 0, 1, 2]])
    E, alpha, beta = positive_row_echelon(A)
    _echelon_valid(A, E, alpha, beta)


def test_echelon_with_dependent_rows():
    A = Mat([[1, 1, 0], [2, 2, 0], [0, 0, 1]])
    E, alpha, beta = positive_row_echelon(A)
    _echelon_valid(A, E, alpha, beta)
    assert not any(E.row(2))


def test_echelon_rejects_non_w_positive():
    with pytest.raises(DomainError):
        positive_row_echelon(Mat([[1, -1]]))


def test_hnf_snf_huge_entries():
    rng = random.Random(207)
    for _ in range(6):
        A = Mat([[rng.randint(-10**9, 10**9) for _ in range(4)]
                 for _ in range(3)])
        assert check_hnf_result(A, hnf(A))
        res = snf(A)
        assert res.alpha @ A @ res.beta == res.S
        for a, b in zip(res.factors, res.factors[1:]):
            assert a > 0 and b % a == 0


def test_echelon_random_w_positive():
    # random nonnegative row lattices scrambled by unimodular transforms
    rng = random.Random(206)
    for _ in range(25):
        d, m = rng.randint(1, 3), rng.randint(2, 5)
        base = Mat([[rng.randint(0, 4) for _ in range(m)] for _ in range(d)])
        A = rand_unimodular(rng, d) @ base
        E, alpha, beta = positive_row_echelon(A)
        _echelon_valid(A, E, alpha, beta)


def test_block_echelon_matches_two_list_oracle():
    # (E, alpha, beta), or the error type and message, repr for repr:
    # scrambled nonnegative lattices, with dependent and zero rows, and
    # arbitrary sign patterns (many of them not W-positive)
    rng = random.Random(209)
    raised = 0
    for it in range(2000):
        d, m = rng.randint(1, 5), rng.randint(1, 8)
        if it % 2:
            A = rand_mat(rng, d, m, -4, 6)
        else:
            base = [[rng.randint(0, 4) for _ in range(m)] for _ in range(d)]
            if d >= 2 and it % 6 == 0:
                base[-1] = [x + y for x, y in zip(base[0], base[1])]
            if it % 10 == 4:
                base[rng.randrange(d)] = [0] * m
            A = rand_unimodular(rng, d) @ Mat(base)
        expected = _outcome(positive_row_echelon_oracle, A)
        assert _outcome(positive_row_echelon, A) == expected
        raised += expected.startswith("DomainError")
    assert raised >= 200
