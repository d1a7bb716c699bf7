import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from galekit import (
    DomainError,
    Mat,
    ParseError,
    det_exact,
    format_matrix,
    parse_matrix,
    rank_exact,
    submatrix_cols,
)
from galekit import matrix
from conftest import (
    cofactor_det,
    count_calls,
    eliminate_oracle,
    forward_elimination_oracle,
    gauss_rank,
    rand_mat,
    solve_oracle,
    xgcd_oracle,
)


@pytest.mark.parametrize("entry, message", [
    (True, "bool is not a valid matrix entry"),
    (1.0, "matrix entries must be int or Fraction, got float"),
    ("1", "matrix entries must be int or Fraction, got str"),
    (None, "matrix entries must be int or Fraction, got NoneType"),
], ids=["bool", "float", "str", "None"])
def test_constructor_rejects_entry_types(entry, message):
    with pytest.raises(TypeError) as exc:
        Mat([[1, 2], [3, entry]])
    assert str(exc.value) == message


def test_constructor_normalizes_and_accepts_iterables():
    A = Mat([[Fraction(4, 2), Fraction(1, 2)]])
    assert type(A[0, 0]) is int and A[0, 0] == 2
    assert A[0, 1] == Fraction(1, 2)
    assert Mat(zip((1, 3), (2, 4))) == Mat([[1, 2], [3, 4]])
    assert Mat((x, x + 1) for x in (1, 3)) == Mat([[1, 2], [3, 4]])
    assert Mat(iter(row) for row in [[5, 6]]) == Mat([[5, 6]])
    for bad in ([], [[]], [[1, 2], [3]]):
        with pytest.raises(DomainError):
            Mat(bad)


def test_int_rows_skip_entry_normalization(monkeypatch):
    calls = count_calls(monkeypatch, matrix, "_norm_entry")
    Mat([[1, -2, 3], [4, 5, 10 ** 30]])
    assert calls["_norm_entry"] == 0
    Mat([[1, Fraction(1, 2)]])
    assert calls["_norm_entry"] == 2


def test_det_paper_minor():
    assert det_exact(Mat([[1, 0], [1, 2]])) == 2


def test_det_identity():
    assert det_exact(Mat.identity(3)) == 1


def test_det_random_vs_cofactor():
    rng = random.Random(101)
    for _ in range(60):
        n = rng.randint(1, 5)
        A = rand_mat(rng, n, n, -9, 9)
        assert det_exact(A) == cofactor_det(A)


def test_det_rational():
    A = Mat([[Fraction(1, 2), 0], [0, Fraction(1, 2)]])
    assert det_exact(A) == Fraction(1, 4)


def test_det_rejects_non_square():
    with pytest.raises(DomainError):
        det_exact(Mat([[1, 2, 3], [4, 5, 6]]))


def test_rank_fan_matrix():
    assert rank_exact(Mat([[1, -1, 1, 0], [0, 0, 2, -1]])) == 2


def test_rank_zero_matrix():
    assert rank_exact(Mat([[0, 0], [0, 0]])) == 0


def test_rank_random_vs_gauss():
    rng = random.Random(102)
    for _ in range(60):
        m, n = rng.randint(1, 5), rng.randint(1, 6)
        A = rand_mat(rng, m, n)
        assert rank_exact(A) == gauss_rank(A)
        assert rank_exact(A) == rank_exact(A.transpose())


def test_submatrix_cols_examples():
    Q = Mat([[1, 1, 0, 0], [0, 1, 1, 2]])
    assert submatrix_cols(Q, (2, 4)) == Mat([[1, 0], [1, 2]])
    assert submatrix_cols(Q, (1, 2, 3, 4)) == Q
    V = Mat([[1, -1, 1, 0], [0, 0, 2, -1]])
    assert submatrix_cols(V, (2, 4), complement=True) == Mat([[1, 1], [0, 2]])


def test_submatrix_cols_partition():
    rng = random.Random(103)
    for _ in range(25):
        A = rand_mat(rng, 2, 5)
        I = tuple(sorted(rng.sample(range(1, 6), rng.randint(1, 4))))
        direct = submatrix_cols(A, I)
        comp = submatrix_cols(A, I, complement=True)
        assert direct.cols + comp.cols == A.cols
        merged = {}
        rest = [j for j in range(1, 6) if j not in I]
        for pos, j in enumerate(I):
            merged[j] = direct.col(pos)
        for pos, j in enumerate(rest):
            merged[j] = comp.col(pos)
        assert all(merged[j + 1] == A.col(j) for j in range(5))


def test_submatrix_cols_errors():
    A = Mat([[1, 2], [3, 4]])
    with pytest.raises(DomainError):
        submatrix_cols(A, (0, 1))
    with pytest.raises(DomainError):
        submatrix_cols(A, (1, 3))
    with pytest.raises(DomainError):
        submatrix_cols(A, (2, 1))


def test_parse_format_roundtrip():
    text = "1 -2 3/4\n0 5 -7/2\n"
    A = parse_matrix(text)
    assert A == Mat([[1, -2, Fraction(3, 4)], [0, 5, Fraction(-7, 2)]])
    assert parse_matrix(format_matrix(A)) == A


def test_parse_comments_and_blanks():
    A = parse_matrix("# heading\n\n1 2  # trailing\n3 4\n")
    assert A == Mat([[1, 2], [3, 4]])


def test_parse_rejects_floats_and_garbage():
    with pytest.raises(ParseError):
        parse_matrix("1.5 2\n")
    with pytest.raises(ParseError):
        parse_matrix("a b\n")
    with pytest.raises(ParseError):
        parse_matrix("")
    with pytest.raises(ParseError):
        parse_matrix("1 2\n3\n")


def test_entries_normalized():
    A = Mat([[Fraction(4, 2)]])
    assert isinstance(A[0, 0], int) and A[0, 0] == 2


def test_matmul_and_transpose():
    A = Mat([[1, 2], [3, 4]])
    B = Mat([[0, 1], [1, 0]])
    assert A @ B == Mat([[2, 1], [4, 3]])
    assert A.transpose() == Mat([[1, 3], [2, 4]])


def test_inverse_exact():
    A = Mat([[1, 0], [1, 2]])
    inv = A.inverse()
    assert inv == Mat([[1, 0], [Fraction(-1, 2), Fraction(1, 2)]])
    assert A @ inv == Mat.identity(2)
    with pytest.raises(DomainError):
        Mat([[1, 2], [2, 4]]).inverse()


def test_det_huge_entries():
    rng = random.Random(104)
    for _ in range(10):
        n = rng.randint(2, 4)
        A = Mat([[rng.randint(-10**18, 10**18) for _ in range(n)]
                 for _ in range(n)])
        assert det_exact(A) == cofactor_det(A)


def test_rank_huge_entries():
    rng = random.Random(105)
    for _ in range(10):
        A = Mat([[rng.randint(-10**12, 10**12) for _ in range(4)]
                 for _ in range(3)])
        assert rank_exact(A) == gauss_rank(A)


def _outcome(fn):
    """repr of the value, or the error type and message."""
    try:
        return repr(fn())
    except DomainError as exc:
        return f"DomainError: {exc}"


def _inverse_oracle(A):
    sol = solve_oracle(A, Mat.identity(A.rows))
    if sol is None:
        raise DomainError("matrix is singular")
    return sol


def _assert_kernel_matches_oracles(A):
    assert A.rank() == gauss_rank(A)
    if A.rows == A.cols:
        assert _outcome(A.inverse) == _outcome(lambda: _inverse_oracle(A))


def test_fraction_free_kernel_matches_oracles():
    # 2,000 matrices of shapes 1-7 x 1-7; 20 % rational, 30 % rank-deficient
    rng = random.Random(106)

    def entry():
        x = rng.randint(-6, 6)
        return Fraction(x, rng.randint(2, 7)) if rational else x

    tally = {"rational": 0, "deficient": 0, "square": 0}
    for _ in range(2000):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        rational = rng.random() < 0.2
        rows = [[entry() for _ in range(n)] for _ in range(m)]
        if rng.random() < 0.3 and m > 1:
            c = [rng.randint(-2, 2) for _ in range(m - 1)]
            rows[-1] = [sum(ci * rows[i][j] for i, ci in enumerate(c))
                        for j in range(n)]
        A = Mat(rows)
        _assert_kernel_matches_oracles(A)
        tally["rational"] += rational
        tally["deficient"] += gauss_rank(A) < min(m, n)
        tally["square"] += m == n
    assert all(count >= 200 for count in tally.values()), tally


def test_fraction_free_kernel_large_entries():
    # 300 square matrices with entries up to 10^6, some singular by construction
    rng = random.Random(107)
    singular = 0
    for t in range(300):
        n = rng.randint(1, 7)
        rows = [[rng.randint(-10**6, 10**6) for _ in range(n)] for _ in range(n)]
        if t % 3 == 0 and n > 1:
            rows[-1] = [2 * x - y for x, y in zip(rows[0], rows[1])]
        A = Mat(rows)
        _assert_kernel_matches_oracles(A)
        singular += A.rank() < n
    assert singular >= 50


def _xgcd_pair(rng: random.Random, kind: int) -> tuple[int, int]:
    """A seeded pair of one of seven kinds, every value of at most 300 bits."""
    def value(bits: int) -> int:
        return rng.getrandbits(rng.randint(1, bits)) * rng.choice((1, -1))
    if kind == 0:  # anything
        return value(300), value(300)
    if kind == 6:  # small
        return value(16), value(16)
    if kind == 1:  # a zero on one side or both
        return rng.choice([(0, value(300)), (value(300), 0), (0, 0)])
    if kind == 2:  # a | b
        a = value(290)
        return a, a * rng.randint(-40, 40)
    if kind == 3:  # b | a
        b = value(290)
        return b * rng.randint(-40, 40), b
    if kind == 4:  # |b| / g in {1, 2}, Euclid's loop kept
        g, c = value(280) or 1, rng.choice((1, 2, -1, -2))
        return g * (value(16) | 1), g * c
    g = value(200)  # a common factor
    return g * value(90), g * value(90)


def test_xgcd_matches_euclid_oracle():
    # the cofactors read off math.gcd and pow are Euclid's, verbatim: an
    # exhaustive small grid and 120,000 seeded pairs of 1 to 300 bits, with
    # a tally of every class of input
    for a in range(-40, 41):
        for b in range(-40, 41):
            assert matrix.xgcd(a, b) == xgcd_oracle(a, b), (a, b)
    rng = random.Random(270)
    tally = Counter()
    for it in range(120_000):
        a, b = _xgcd_pair(rng, it % 7)
        g, x, y = matrix.xgcd(a, b)
        assert (g, x, y) == xgcd_oracle(a, b), (a, b)
        assert g == math.gcd(a, b) == a * x + b * y
        bits = max(a.bit_length(), b.bit_length())
        assert bits <= 300
        if not (a and b):
            tally["zero"] += 1
            continue
        tally["mixed_signs"] += (a < 0) != (b < 0)
        tally["a_divides_b"] += b % a == 0
        tally["b_divides_a"] += a % b == 0
        tally["m_le_2" if abs(b) // g <= 2 else "m_gt_2"] += 1
        tally["bits_1_16"] += bits <= 16
        tally["bits_200_300"] += bits >= 200
    assert len(tally) == 8 and min(tally.values()) >= 10_000, tally


def test_forward_elimination_matches_gauss_jordan_oracle():
    # 2,000 integer matrices up to 12 x 24, the last 0-4 columns carried:
    # pivots, the last pivot, every vanishing row, and d * RREF on every
    # column (pivot columns included) from the back substitution; the whole
    # matrix left in place is the full-width Bareiss loop's, with the same
    # row objects
    rng = random.Random(108)
    tally = {"zero_row": 0, "deficient": 0, "carried": 0, "large": 0}
    for it in range(2000):
        nrows, width = rng.randint(1, 12), rng.randint(1, 24)
        ncols = width - rng.randint(0, min(4, width - 1))
        hi = 1000 if it % 4 == 3 else 6
        rows = [[rng.randint(-hi, hi) for _ in range(width)] for _ in range(nrows)]
        if nrows > 2 and it % 3 == 0:
            a, b = rng.sample(range(nrows), 2)
            rows[b] = [rng.randint(-3, 3) * x for x in rows[a]]
        if it % 5 == 0:
            rows[rng.randrange(nrows)] = [0] * width
        if it % 11 == 0:
            cols = rng.sample(range(ncols), rng.randint(0, ncols))
            rows = [[0 if j in cols else x for j, x in enumerate(r)] for r in rows]
        expected = [r[:] for r in rows]
        bareiss = [r[:] for r in rows]
        ids = set(map(id, rows))
        pivots, d = matrix._eliminate(rows, ncols)
        assert (pivots, d) == eliminate_oracle(expected, ncols)
        assert (pivots, d) == forward_elimination_oracle(bareiss, ncols)
        assert rows == bareiss and set(map(id, rows)) == ids
        rank = len(pivots)
        assert rows[rank:] == expected[rank:]
        assert matrix._back_substitute(rows, pivots, d, range(width)) == expected[:rank]
        tally["zero_row"] += any(not any(r) for r in expected)
        tally["deficient"] += rank < min(nrows, ncols)
        tally["carried"] += width > ncols
        tally["large"] += hi > 6
    assert min(tally.values()) >= 200, tally


def test_rank_runs_no_back_substitution(monkeypatch):
    calls = count_calls(monkeypatch, matrix, "_back_substitute")
    A = Mat([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    assert A.rank() == 3
    assert calls["_back_substitute"] == 0
    assert A.inverse() @ A == Mat.identity(3)
    assert calls["_back_substitute"] == 1
