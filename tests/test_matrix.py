import random
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
from galekit.matrix import solve
from conftest import cofactor_det, count_calls, gauss_rank, rand_mat, solve_oracle


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


def _assert_kernel_matches_oracles(A, B):
    assert repr(solve(A, B)) == repr(solve_oracle(A, B))
    assert A.rank() == gauss_rank(A)
    if A.rows == A.cols:
        assert _outcome(A.inverse) == _outcome(lambda: _inverse_oracle(A))


def test_fraction_free_kernel_matches_oracles():
    # 2,000 systems of shapes 1-7 x 1-7 with 1-3 right-hand sides; 20 %
    # rational, 30 % rank-deficient, 40 % consistent by construction
    rng = random.Random(106)

    def entry():
        x = rng.randint(-6, 6)
        return Fraction(x, rng.randint(2, 7)) if rational else x

    tally = {"rational": 0, "deficient": 0, "none": 0, "square": 0}
    for _ in range(2000):
        m, n, k = rng.randint(1, 7), rng.randint(1, 7), rng.randint(1, 3)
        rational = rng.random() < 0.2
        rows = [[entry() for _ in range(n)] for _ in range(m)]
        if rng.random() < 0.3 and m > 1:
            c = [rng.randint(-2, 2) for _ in range(m - 1)]
            rows[-1] = [sum(ci * rows[i][j] for i, ci in enumerate(c))
                        for j in range(n)]
        A = Mat(rows)
        if rng.random() < 0.4:
            B = A @ Mat([[entry() for _ in range(k)] for _ in range(n)])
        else:
            B = Mat([[entry() for _ in range(k)] for _ in range(m)])
        _assert_kernel_matches_oracles(A, B)
        tally["rational"] += rational
        tally["deficient"] += gauss_rank(A) < min(m, n)
        tally["none"] += solve_oracle(A, B) is None
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
        B = Mat([[rng.randint(-10**6, 10**6)] for _ in range(n)])
        _assert_kernel_matches_oracles(A, B)
        singular += A.rank() < n
    assert singular >= 50
