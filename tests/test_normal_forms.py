import random
from collections import Counter
from fractions import Fraction

import pytest

from galekit import (
    DomainError,
    GaleKitError,
    Lattice,
    Mat,
    QuotientStructure,
    det_exact,
    hnf,
    is_row_echelon,
    left_kernel_rows,
    positive_row_echelon,
    quotient_structure,
    snf,
)
from galekit import normal_forms
from conftest import (
    _basis_with_positive_first_row,
    check_hnf_result,
    count_calls,
    hermite_fold_oracle,
    hnf_int_oracle,
    lift_into_rows_oracle,
    minors_gcd_oracle,
    positive_row_echelon_oracle,
    rand_mat,
    rand_unimodular,
    snf_oracle,
    solve_oracle,
)

WORKED_Q = Mat([[1, 1, 0, 0], [0, 1, 1, 2]])
WORKED_V = Mat([[1, -1, 1, 0], [0, 0, 2, -1]])


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


def _hnf_against_scan_oracle(A: Mat) -> bool:
    """Check ``hnf(A)`` against the scan of ``hnf_int_oracle``: H, the
    pivots and the rows of U past the rank are canonical, so they are equal;
    the first rank rows of U are one unimodular choice, so U A = H and
    |det U| = 1 are checked instead.  Returns whether A has fewer pivots
    than rows."""
    d, rows = A.int_scaled()
    h, u, piv = hnf_int_oracle(rows)
    res = hnf(A)
    p = len(piv)
    assert res.H.to_lists() == [[Fraction(x, d) for x in row] for row in h]
    assert [j - 1 for j in res.pivot_map] == piv
    assert res.U.to_lists()[p:] == u[p:]
    assert res.U @ A == res.H
    assert abs(det_exact(res.U)) == 1
    return p < A.rows


def test_hnf_matches_scan_oracle_on_canonical_parts():
    rng = random.Random(206)
    deficient = 0
    for _ in range(400):
        r, c = rng.randint(1, 7), rng.randint(1, 8)
        A = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
        if r >= 2 and rng.random() < 0.4:
            A[-1] = [x - 2 * y for x, y in zip(A[0], A[1])]
        if rng.random() < 0.1:
            A[rng.randrange(r)] = [0] * c
        deficient += _hnf_against_scan_oracle(Mat(A))
    assert deficient >= 100
    # a second corpus, seeded apart: rational Q^T, the tall shape whose
    # first rank rows of U give the class-group generators
    rng = random.Random(216)
    seen = {"rational": 0, "deficient": 0}
    for _ in range(300):
        r = rng.randint(1, 3)
        m = rng.randint(r + 1, 10)
        den = rng.choice([1, 2, 6])
        Q = [[Fraction(rng.randint(0, 5), rng.randint(1, den)) for _ in range(m)]
             for _ in range(r)]
        if r >= 2 and rng.random() < 0.2:
            Q[-1] = [2 * x for x in Q[0]]
        _hnf_against_scan_oracle(Mat(Q).transpose())
        seen["rational"] += den > 1
        seen["deficient"] += Mat(Q).rank() < r
    assert min(seen.values()) >= 30, seen


def _fuzz_matrix(rng):
    """Integer or rational, with zero and dependent rows, down to 1 x n and
    m x 1."""
    shape = rng.choice(["1xn", "mx1", "any", "any"])
    r = 1 if shape == "1xn" else rng.randint(1, 7)
    c = 1 if shape == "mx1" else rng.randint(1, 8)
    den = rng.choice([1, 1, 2, 6])
    rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, den)) for _ in range(c)]
            for _ in range(r)]
    if r >= 2 and rng.random() < 0.4:
        rows[-1] = [x - 2 * y for x, y in zip(rows[0], rows[1])]
    if rng.random() < 0.15:
        rows[rng.randrange(r)] = [0] * c
    return Mat(rows)


def _lattice_scale_matrix(rng, shape):
    """Entries up to +-1000 in the shapes the lattice layer builds: the
    stacked 2a x b bases of an intersection (sharing a row half the time),
    the b x a transpose of one basis (a Gale dual), a matrix whose last
    rows are unimodular (its kernel needs no saturation: |D| = 1), and the
    zero matrix (rank 0)."""
    def block(r, c):
        return [[rng.randint(-1000, 1000) for _ in range(c)] for _ in range(r)]

    a = rng.randint(1, 6)
    b = rng.randint(a, 10)
    if shape == "stacked":
        rows = block(2 * a, b)
        if rng.random() < 0.5:
            rows[a] = [x + y for x, y in zip(rows[0], rows[-1])]
        return rows
    if shape == "transpose":
        return [list(col) for col in zip(*block(a, b))]
    if shape == "unit":
        # the last a rows are independent, so they are the pivot rows, and
        # the last pivot is their determinant, +-1
        return block(b, a) + rand_unimodular(rng, a).to_lists()
    return [[0] * a for _ in range(b)]


def test_left_kernels_and_hermite_bases_match_oracles():
    # left kernels against the two-list oracle's U past the rank (hnf's U,
    # by the test above); hnf's H against the pass that carries no transform
    rng = random.Random(207)
    shapes = ["stacked", "transpose", "unit", "zero"]
    for t in range(1600):
        A = _fuzz_matrix(rng) if t < 1200 else Mat(_lattice_scale_matrix(rng, shapes[t % 4]))
        res = hnf(A)
        _, u, piv = hnf_int_oracle(A.int_scaled()[1])
        assert left_kernel_rows(A) == [tuple(row) for row in u[len(piv):]]
        L = Lattice.from_matrix(A)
        assert L.basis == tuple(res.H.row(i) for i in range(res.rank))
        assert L._pivots == tuple(j - 1 for j in res.pivot_map)


def _fold_fuzz_case(rng):
    """(integer rows, denominator): tall, wide or square, entries up to
    +-10^6, full rank, rank-deficient through a product of thin factors or a
    combined row, with zero rows half the time."""
    r, c = rng.choice([(rng.randint(5, 9), rng.randint(1, 4)),   # tall
                       (rng.randint(1, 4), rng.randint(5, 9)),   # wide
                       (rng.randint(1, 6),) * 2])
    bound = rng.choice([1, 9, 1000, 10 ** 6])
    kind = rng.choice(["full", "thin", "combined"])
    if kind == "thin" and min(r, c) >= 2:
        k = rng.randint(1, min(r, c) - 1)
        x = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(r)]
        y = [[rng.randint(-bound, bound) for _ in range(c)] for _ in range(k)]
        rows = [[sum(a * b for a, b in zip(xr, col)) for col in zip(*y)] for xr in x]
    else:
        rows = [[rng.randint(-bound, bound) for _ in range(c)] for _ in range(r)]
        if kind == "combined" and r >= 2:
            rows[-1] = [a - rng.randint(-3, 3) * b for a, b in zip(rows[0], rows[1])]
    if rng.random() < 0.5:
        for _ in range(rng.randint(1, r)):
            rows[rng.randrange(r)] = [0] * c
    return rows, rng.choice([1, 1, 2, 6, 35])


def test_hermite_fold_matches_scan_oracle():
    # row insertion, behind every transform-free Hermite basis, against the
    # column fold it replaced and the scan of hnf_int_oracle: the same rows
    # and pivots, on integer and rational input, since a Hermite basis is
    # unique
    rng = random.Random(211)
    seen = {"rational": 0, "deficient": 0, "zero_row": 0, "tall": 0, "wide": 0,
            "large": 0, "zero_matrix": 0}
    for _ in range(2400):
        rows, den = _fold_fuzz_case(rng)
        r, c = len(rows), len(rows[0])
        h, _, piv = hnf_int_oracle(rows)
        expected = [tuple(row) for row in h[:len(piv)]]
        basis, pivots = normal_forms._hermite_insert([tuple(row) for row in rows], c)
        assert ([tuple(row) for row in basis], pivots) == (expected, piv)
        fold, fold_pivots = hermite_fold_oracle([tuple(row) for row in rows], c)
        assert ([tuple(row) for row in fold], fold_pivots) == (expected, piv)
        A = Mat([[Fraction(x, den) for x in row] for row in rows])
        L = Lattice.from_matrix(A)
        assert (L.basis, L._pivots) == (
            tuple(tuple(Fraction(x, den) for x in row) for row in expected), tuple(piv))
        seen["rational"] += den > 1
        seen["deficient"] += 0 < len(piv) < min(r, c)
        seen["zero_row"] += any(not any(row) for row in rows)
        seen["tall"] += r > c
        seen["wide"] += r < c
        seen["large"] += max(abs(x) for row in rows for x in row) > 10 ** 5
        seen["zero_matrix"] += not piv
    assert min(seen.values()) >= 50, seen
    # many rows meeting many columns, where the fold's carried rows grew
    for r, c in [(14, 20), (20, 24), (24, 30), (24, 30)]:
        rows = [[rng.randint(-1000, 1000) for _ in range(c)] for _ in range(r)]
        h, _, piv = hnf_int_oracle(rows)
        basis, pivots = normal_forms._hermite_insert(rows, c)
        assert (basis, pivots) == (h[:len(piv)], piv)


def _full_row_rank_case(rng):
    """A full-row-rank integer m x n matrix, 1 x n up to 24 x 30: random,
    a random one scaled by an integer (a lattice of large index), or a
    random one with a unimodular matrix applied on the left (larger
    entries, the same lattice); with a denominator for rational input."""
    m = rng.choice([1, 1, rng.randint(2, 8), rng.randint(9, 24)])
    n = rng.randint(m, min(30, m + 8))
    bound = rng.choice([9, 1000])
    kind = rng.choice(["random", "scaled", "unimodular"])
    while True:
        rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]
        if kind == "scaled":
            k = rng.choice([2, 6, 35])
            rows = [[k * x for x in row] for row in rows]
        elif kind == "unimodular":
            rows = (rand_unimodular(rng, m) @ Mat(rows)).to_lists()
        if Mat(rows).rank() == m:
            return rows, rng.choice([1, 1, 2, 6, 35])


def test_full_row_rank_hnf_matches_scan_oracle():
    # row insertion on [A | I] against the scan of hnf_int_oracle: a
    # full-row-rank A has one U with U A = H, so H, U and the pivots all
    # agree, on integer, scaled and rational input
    rng = random.Random(213)
    seen = {"one_row": 0, "square": 0, "rational": 0, "large": 0}
    for _ in range(300):
        rows, den = _full_row_rank_case(rng)
        h, u, piv = hnf_int_oracle(rows)
        res = hnf(Mat([[Fraction(x, den) for x in row] for row in rows]))
        assert res.H.to_lists() == [[Fraction(x, den) for x in row] for row in h]
        assert (res.U.to_lists(), [j - 1 for j in res.pivot_map]) == (u, piv)
        seen["one_row"] += len(rows) == 1
        seen["square"] += len(rows) == len(rows[0])
        seen["rational"] += den > 1
        seen["large"] += len(rows) >= 14
    assert min(seen.values()) >= 20, seen


def test_every_hnf_takes_one_row_insertion(monkeypatch):
    # every shape is Hermite-reduced by one row insertion on [A | I]; only
    # a tall A, or a wide one whose rows are dependent, also takes the left
    # kernel, for the rows of U past the rank
    rng = random.Random(214)
    cases = [Mat(_full_row_rank_case(rng)[0]) for _ in range(20)]
    calls = count_calls(monkeypatch, normal_forms, "_hermite_insert", "_left_kernel")
    for A in cases:
        hnf(A)
    assert calls == {"_hermite_insert": 20}
    hnf(WORKED_Q.transpose())
    assert calls == {"_hermite_insert": 21, "_left_kernel": 1}
    hnf(Mat([[2, 4, 6, 1], [1, 2, 3, 5], [3, 6, 9, 6]]))
    assert calls == {"_hermite_insert": 22, "_left_kernel": 2}


def test_hermite_mod_is_the_hermite_basis_with_the_modulus():
    # the fold with a modulus D: a triangular basis of the lattice of the
    # rows and D Z^k, with the Hermite pivots, each a divisor of D, and
    # every other entry in [0, D); the rows above a pivot are not reduced,
    # since the kernel's back substitution reduces its own rows
    rng = random.Random(212)
    for _ in range(400):
        k = rng.randint(1, 6)
        D = rng.choice([2, 6, 12, 210, rng.randint(2, 10 ** 6)])
        gens = [[rng.randint(-10 ** 6, 10 ** 6) for _ in range(k)]
                for _ in range(rng.randint(0, 7))]
        basis = normal_forms._hermite_mod(gens, D, k)
        assert basis == hermite_fold_oracle(gens, k, D)[0]
        h, _, piv = hnf_int_oracle(gens + [[D * int(i == j) for j in range(k)]
                                           for i in range(k)])
        assert piv == list(range(k))
        assert all(basis[i][j] == 0 for i in range(k) for j in range(i))
        assert all(0 <= x < D for i, row in enumerate(basis) for x in row[i + 1:])
        assert [row[i] for i, row in enumerate(basis)] == [h[i][i] for i in range(k)]
        assert all(D % row[i] == 0 for i, row in enumerate(basis))
        assert hnf_int_oracle(basis)[0] == h[:k]


def test_inverse_columns_span_the_scaled_dual(monkeypatch):
    # the one back substitution of the kernels and the Picard bases: column
    # s is D H^-1's column s less multiples of the columns before it, zero
    # past s, with D / H[s][s] on the diagonal and every entry above it
    # reduced below its row's diagonal entry; the columns span what D H^-1
    # spans (Fraction Gauss-Jordan inverse)
    fold, folds = normal_forms._hermite_mod, []
    monkeypatch.setattr(normal_forms, "_hermite_mod",
                        lambda *args: folds.append(fold(*args)) or folds[-1])
    rng = random.Random(271)
    for _ in range(400):
        k = rng.randint(1, 6)
        D = rng.choice([1, 2, 6, 12, 210, rng.randint(2, 10 ** 6)])
        gens = [[rng.randint(-10 ** 6, 10 ** 6) for _ in range(k)]
                for _ in range(rng.randint(0, 7))]
        cols = normal_forms._inverse_columns(gens, D, k)
        # the fold it ran, skipped for D = 1, where H is the identity
        herm = folds.pop() if D > 1 else fold(gens, D, k)
        assert not folds
        inverse = solve_oracle(Mat(herm), Mat.identity(k)).scale(D)
        assert inverse.is_integral
        for s, col in enumerate(cols):
            assert col[s] == D // herm[s][s] and not any(col[s + 1:])
            assert all(0 <= col[l] < cols[l][l] for l in range(s))
        assert hnf_int_oracle(cols)[0] == hnf_int_oracle(inverse.col_tuples())[0]


def test_positive_span_vector_counts_the_kernel_side_without_it(monkeypatch):
    # for rho independent rows with support S, the Hermite basis of the
    # kernel has |S| - rho rows nonzero on S (each j off S is a pivot whose
    # row is e_j), so the side of the Gale pair is chosen without the
    # kernel and the kernel is built only for Stiemke's LP
    calls = count_calls(monkeypatch, normal_forms, "_left_kernel")
    rng = random.Random(2808)
    sides = Counter()
    for _ in range(600):
        m = rng.randint(1, 10)
        A = [[rng.randint(-2, 5) for _ in range(m)] for _ in range(rng.randint(1, 5))]
        for j in rng.sample(range(m), rng.randint(0, m // 2)):
            for row in A:
                row[j] = 0
        if rng.random() < 0.3:  # cotorsion
            A[0] = [2 * x for x in A[0]]
        basis = [list(row) for row in Lattice.from_matrix(Mat(A)).basis]
        if not basis:
            continue
        rho = len(basis)
        support = [j for j in range(m) if any(row[j] for row in basis)]
        kernel = left_kernel_rows(Mat(basis).transpose())
        assert sum(any(row[j] for j in support) for row in kernel) == len(support) - rho
        kernel_side = rho + 1 >= len(support) - rho
        sides[kernel_side] += 1
        calls.clear()
        y = normal_forms._positive_span_vector(basis)
        assert calls["_left_kernel"] == kernel_side
        assert y == normal_forms._positive_span_vector(basis, kernel)
    assert sides[True] >= 100 and sides[False] >= 100


def test_left_kernel_runs_no_euclid_pass(monkeypatch):
    # every [A | I] reduction goes through _hermite_insert; the kernel
    # needs none
    calls = count_calls(monkeypatch, normal_forms, "_hermite_insert")
    rng = random.Random(209)
    for t in range(8):
        left_kernel_rows(Mat(_lattice_scale_matrix(rng, ["stacked", "unit"][t % 2])))
    left_kernel_rows(_fuzz_matrix(rng))
    assert calls["_hermite_insert"] == 0


@pytest.mark.parametrize("diagonal, message", [
    (3, "substitution left a remainder"),  # 3 does not divide D = 2
    (2, "row is not integral"),            # 2 Z is not the lattice G + D Z
])
def test_left_kernel_invariants_are_galekit_errors(monkeypatch, diagonal, message):
    A = Mat([[1], [2]])
    assert left_kernel_rows(A) == [(2, -1)]
    monkeypatch.setattr(normal_forms, "_hermite_mod",
                        lambda gens, D, k: [[diagonal * int(i == j) for j in range(k)]
                                            for i in range(k)])
    with pytest.raises(GaleKitError, match=message + r" \(internal invariant\)"):
        left_kernel_rows(A)


def test_lattice_basis_and_left_kernel_take_no_hnf(monkeypatch):
    calls = count_calls(monkeypatch, normal_forms, "hnf")
    assert Lattice.from_matrix(WORKED_V).rank == 2
    assert left_kernel_rows(WORKED_Q.transpose()) == [(1, -1, 1, 0), (0, 0, 2, -1)]
    assert calls["hnf"] == 0


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


def _snf_outcome(fn, A):
    """repr of S and the factors, or the error type and message."""
    try:
        res = fn(A)
    except GaleKitError as exc:
        return f"{type(exc).__name__}: {exc}"
    return repr((res.S, res.factors))


def test_block_snf_matches_two_list_oracle():
    # S and the factors, or the error, repr for repr; alpha and beta are one
    # unimodular pair, not a canonical one, so they are checked by
    # alpha A beta = S and |det| = 1.  The kinds cycle through generic,
    # rank-deficient (a product through a narrower inner dimension),
    # all-zero or scaled, and entries up to 10^6; then the shapes of the
    # lattice workload, 6 x 10 to 12 x 20 with entries up to +-1000
    rng = random.Random(208)
    kinds = {"deficient": 0, "zero_or_scaled": 0, "large": 0}
    lattice_shapes = 0
    for it in range(2120):
        kind = it % 4 if it < 2000 else 4
        d, m = rng.randint(1, 8), rng.randint(1, 10)
        if kind == 1:
            d, m = rng.randint(2, 8), rng.randint(2, 10)
            k = rng.randint(1, min(d, m) - 1)
            A = rand_mat(rng, d, k) @ rand_mat(rng, k, m)
        elif kind == 2:
            A = rand_mat(rng, d, m).scale(rng.randint(0, 12) if it % 8 == 2 else 0)
        elif kind == 4:
            d, m = rng.randint(6, 12), rng.randint(10, 20)
            A = rand_mat(rng, d, m, -1000, 1000)
        else:
            hi = 10**6 if kind == 3 else 9
            A = rand_mat(rng, d, m, -hi, hi)
        res = snf(A)
        assert repr((res.S, res.factors)) == _snf_outcome(snf_oracle, A)
        assert res.alpha @ A @ res.beta == res.S
        assert abs(det_exact(res.alpha)) == 1 and abs(det_exact(res.beta)) == 1
        kinds["deficient"] += len(res.factors) < min(d, m)
        kinds["zero_or_scaled"] += kind == 2
        kinds["large"] += max(abs(x) for row in A.row_tuples() for x in row) > 10**5
        lattice_shapes += kind == 4
    assert min(kinds.values()) >= 200, kinds
    assert lattice_shapes >= 100
    R = Mat([[Fraction(1, 2), 3]])
    assert _snf_outcome(snf, R) == _snf_outcome(snf_oracle, R) == (
        "DomainError: snf requires an integer matrix")


def test_snf_repairs_the_divisibility_chain():
    # a diagonal input is left diagonal by the first Hermite pass, so only
    # the 2 x 2 gcd steps turn it into the Smith form
    for diag, factors in [((2, 3), (1, 6)), ((4, 6, 10), (2, 2, 60))]:
        A = Mat([[x if i == j else 0 for j in range(len(diag))]
                 for i, x in enumerate(diag)])
        res = snf(A)
        assert res.factors == factors
        assert res.S == Mat([[x if i == j else 0 for j in range(len(diag))]
                             for i, x in enumerate(factors)])
        assert res.alpha @ A @ res.beta == res.S
        assert abs(det_exact(res.alpha)) == 1 and abs(det_exact(res.beta)) == 1


def test_smith_forms_take_row_insertion_alone(monkeypatch):
    # snf and quotient_structure eliminate only through _hermite_insert
    calls = count_calls(monkeypatch, normal_forms, "_hermite_insert")
    rng = random.Random(215)
    for _ in range(10):
        A = rand_mat(rng, rng.randint(2, 6), rng.randint(2, 8), -50, 50)
        snf(A)
    assert calls["_hermite_insert"] >= 10
    L = Lattice.from_matrix(Mat([[2, 0, 0], [0, 3, 5]]))
    calls.clear()
    assert quotient_structure(3, L).torsion_factors == (2,)
    assert calls["_hermite_insert"] >= 2


def test_smith_factors_on_bare_rows_match_snf():
    # the factors of the uncarried Smith loop against snf's, on the shapes
    # and kinds of the block fuzz above
    rng = random.Random(210)
    for it in range(1000):
        d, m = rng.randint(1, 8), rng.randint(1, 10)
        if it % 3 == 1 and min(d, m) > 1:
            k = rng.randint(1, min(d, m) - 1)
            A = rand_mat(rng, d, k) @ rand_mat(rng, k, m)
        else:
            hi = 10**6 if it % 3 == 2 else 9
            A = rand_mat(rng, d, m, -hi, hi)
        assert normal_forms._smith(A.to_lists(), d, m) == snf(A).factors


def _unit_split_case(rng, kind):
    """A matrix for the unit-pivot split: kind 0 has every Hermite pivot
    above 1 (2 A), kind 1 every pivot 1 (a unimodular image of [I | B]),
    kind 2 small entries (mostly mixed), kind 3 a product through a narrower
    inner dimension, kind 4 zero rows put in, kind 5 more rows than columns,
    kind 6 a 1 x 1 matrix."""
    d, m = rng.randint(1, 7), rng.randint(1, 9)
    if kind == 0:
        return rand_mat(rng, d, m, -9, 9).scale(2)
    if kind == 1:
        k = rng.randint(1, m)
        rows = [[int(i == j) for j in range(k)] + [rng.randint(-9, 9) for _ in range(m - k)]
                for i in range(k)]
        return rand_unimodular(rng, k) @ Mat(rows)
    if kind == 2:
        return rand_mat(rng, d, m, -3, 3)
    if kind == 3:
        d, m = rng.randint(2, 7), rng.randint(2, 9)
        k = rng.randint(1, min(d, m) - 1)
        return rand_mat(rng, d, k) @ rand_mat(rng, k, m)
    if kind == 4:
        rows = rand_mat(rng, d, m, -9, 9).to_lists()
        for _ in range(rng.randint(1, 2)):
            rows.insert(rng.randint(0, len(rows)), [0] * m)
        return Mat(rows)
    if kind == 5:
        m = rng.randint(1, 5)
        return rand_mat(rng, rng.randint(m + 1, 8), m, -9, 9)
    return Mat([[rng.randint(-30, 30)]])


def test_smith_split_of_unit_pivots_matches_oracle():
    # snf splits the unit Hermite pivots off and Smith-reduces the residual:
    # S and the factors against the oracle, alpha and beta by alpha A beta = S
    # and |det| = 1, and quotient_structure of the same lattice against the
    # factors; each case is counted by the pivots the matrix really has
    rng = random.Random(216)
    seen = Counter()
    for it in range(700):
        A = _unit_split_case(rng, it % 7)
        d, m = A.shape
        res = snf(A)
        assert repr((res.S, res.factors)) == _snf_outcome(snf_oracle, A)
        assert res.alpha @ A @ res.beta == res.S
        assert abs(det_exact(res.alpha)) == 1 and abs(det_exact(res.beta)) == 1
        torsion = tuple(c for c in res.factors if c > 1)
        assert quotient_structure(m, Lattice.from_matrix(A)) == QuotientStructure(
            m - len(res.factors), torsion)
        top, pivots = normal_forms._hermite_insert(A.to_lists(), m)
        rank, u = len(pivots), sum(top[k][c] == 1 for k, c in enumerate(pivots))
        seen["u = 0"] += rank > 0 and u == 0
        seen["all 1"] += rank > 0 and u == rank
        seen["mixed"] += 0 < u < rank
        seen["rank-deficient"] += rank < min(d, m)
        seen["zero rows"] += any(not any(row) for row in A.row_tuples())
        seen["d > m"] += d > m
        seen["1 x 1"] += d == m == 1
    assert len(seen) == 7 and min(seen.values()) >= 20, seen


def test_snf_transposed_pass_sees_only_the_residual(monkeypatch):
    # on the lattice workload's largest shape, 12 x 20 with entries up to
    # +-1000, the first row pass meets the whole block and every later pass
    # the residual: d - u rows on the m - u columns left by the u unit
    # pivots, or their transpose, which carries beta's m rows
    calls = []
    insert = normal_forms._hermite_insert

    def recorded(rows, n):
        rows = list(rows)
        calls.append((len(rows), n, len(rows[0]) if rows else 0))
        return insert(rows, n)

    monkeypatch.setattr(normal_forms, "_hermite_insert", recorded)
    rng = random.Random(217)
    for _ in range(10):
        d, m = 12, 20
        A = rand_mat(rng, d, m, -1000, 1000)
        top, pivots = insert(A.to_lists(), m)
        u = sum(top[k][c] == 1 for k, c in enumerate(pivots))
        assert 0 < u < d
        calls.clear()
        assert snf(A).factors == snf_oracle(A).factors
        assert calls[0] == (d, m, m + d)
        later = set(calls[1:])
        assert (m - u, d - u, d - u + m) in later  # a transposed pass ran
        assert later <= {(d - u, m - u, m - u + d), (m - u, d - u, d - u + m)}, later


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


def test_positive_rebase_matches_solve_and_inverse_oracles():
    # the integer lift and the rebase that carries its transform in its
    # rows against the solve and the rational unimodular inverse they
    # replace: bases M P of P >= 0 (M not always unimodular, so the lattice
    # may have cotorsion and the lift a d > 1), y > 0 on the support of P,
    # and random columns carried past the basis, which must come out as
    # T @ X for the oracle's transform T
    rng = random.Random(233)
    seen = Counter()
    for _ in range(1200):
        k, n, t = rng.randint(1, 4), rng.randint(1, 7), rng.randint(0, 3)
        n = max(n, k)
        P = [[rng.randint(0, 4) for _ in range(n)] for _ in range(k)]
        for row in P:
            if rng.random() < 0.3:
                row[rng.randrange(n)] = 0
        if Mat(P).rank() < k:
            continue
        M = rand_unimodular(rng, k) if rng.random() < 0.5 else \
            Mat([[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)])
        if M.rank() < k:
            continue
        basis = (M @ Mat(P)).to_lists()
        coef = [rng.randint(1, 3) for _ in P]
        y = [sum(a * row[j] for a, row in zip(coef, P)) for j in range(n)]
        if not any(y):
            continue
        c, lam = normal_forms._lift_into_rows(basis, y)
        assert (c, lam) == lift_into_rows_oracle(basis, y)
        support = [j for j, v in enumerate(c) if v]
        rows, T = _basis_with_positive_first_row(basis, c, lam, support)
        X = [[rng.randint(-5, 5) for _ in range(t)] for _ in range(k)]
        expected = ([r + list(x) for r, x in zip(rows, (T @ Mat(X)).to_lists())]
                    if t else rows)
        carried = [row + x for row, x in zip(basis, X)]
        assert normal_forms.basis_with_positive_first_row(carried, c, lam) == expected
        seen["cotorsion"] += c != tuple(y)
        seen["carried"] += t > 0
        seen["zero_column"] += len(support) < n
        seen["cases"] += 1
    assert seen["cases"] >= 1000 and min(seen.values()) >= 100, seen
