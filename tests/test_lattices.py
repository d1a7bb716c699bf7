import random
from collections import Counter
from fractions import Fraction

import pytest

from galekit import (
    DomainError,
    Lattice,
    Mat,
    QuotientStructure,
    dual_lattice,
    gcd_max_minors,
    has_cotorsion,
    lattice_intersection,
    quotient_structure,
    transverse,
)
from galekit import lattices, matrix, normal_forms
from conftest import (
    box_vectors,
    count_calls,
    intersect_pair_oracle,
    intersection_oracle,
    minors_gcd_oracle,
    rand_mat,
)


def test_transverse_inverse_case():
    A = Mat([[1, 1], [0, 2]])  # transpose of the 2x2 weight submatrix
    assert transverse(A) == Mat([[1, 0], [Fraction(-1, 2), Fraction(1, 2)]])


def test_transverse_identity():
    assert transverse(Mat.identity(3)) == Mat.identity(3)


def test_transverse_half_identity():
    A = Mat([[Fraction(1, 2), 0], [0, Fraction(1, 2)]])
    assert transverse(A) == Mat([[2, 0], [0, 2]])


def test_transverse_requires_full_row_rank():
    with pytest.raises(DomainError):
        transverse(Mat([[1, 2], [2, 4]]))


def test_transverse_involution():
    rng = random.Random(301)
    for _ in range(30):
        m, n = rng.randint(1, 3), rng.randint(1, 4)
        if m > n:
            m, n = n, m
        B = rand_mat(rng, m, n)
        if B.rank() < m:
            continue
        assert transverse(transverse(B)) == B


def test_dual_diagonal():
    L = Lattice.from_matrix(Mat([[2, 0], [0, 2]]))
    assert dual_lattice(L).basis == ((Fraction(1, 2), 0), (0, Fraction(1, 2)))


def test_dual_pairing_integral():
    L = Lattice.from_matrix(Mat([[1, 0], [Fraction(-1, 2), Fraction(1, 2)]]))
    D = dual_lattice(L)
    for x in D.basis:
        for y in L.basis:
            v = sum(a * b for a, b in zip(x, y))
            assert v == int(v)


def test_dual_involution():
    rng = random.Random(302)
    for _ in range(30):
        k, m = rng.randint(1, 3), rng.randint(1, 4)
        if k > m:
            k, m = m, k
        L = Lattice.from_rows(rand_mat(rng, k, m).row_tuples(), m)
        if L.rank == 0:
            continue
        assert dual_lattice(dual_lattice(L)) == L


def test_intersection_worked_example():
    Q = Mat([[1, 1, 0, 0], [0, 1, 1, 2]])
    index_sets = [(2, 4), (1, 4), (1, 3), (2, 3)]
    lats = []
    for I in index_sets:
        sub = Q.take_cols([i - 1 for i in I])
        lats.append(Lattice.from_rows(sub.col_tuples(), 2))
    inter = lattice_intersection(lats)
    assert inter.basis_matrix() == Mat([[2, 0], [0, 2]])


def test_intersection_self():
    L = Lattice.from_matrix(Mat([[1, 2], [0, 3]]))
    assert lattice_intersection([L, L]) == L


def test_intersection_commutative_associative_idempotent():
    rng = random.Random(303)
    for _ in range(15):
        A = Lattice.from_matrix(rand_mat(rng, 2, 3, -4, 4))
        B = Lattice.from_matrix(rand_mat(rng, 2, 3, -4, 4))
        C = Lattice.from_matrix(rand_mat(rng, 2, 3, -4, 4))
        ab = lattice_intersection([A, B])
        assert ab == lattice_intersection([B, A])
        assert lattice_intersection([ab, C]) == lattice_intersection(
            [A, lattice_intersection([B, C])])
        assert lattice_intersection([A, A]) == A


def _box_members(L, bound):
    return {v for v in box_vectors(L.ambient_dim, bound) if v in L}


def test_intersection_box_oracle_small():
    rng = random.Random(304)
    for _ in range(25):
        k1, k2 = rng.randint(1, 3), rng.randint(1, 3)
        L1 = Lattice.from_matrix(rand_mat(rng, k1, 3, -4, 4))
        L2 = Lattice.from_matrix(rand_mat(rng, k2, 3, -4, 4))
        inter = lattice_intersection([L1, L2])
        got = _box_members(inter, 4)
        expected = _box_members(L1, 4) & _box_members(L2, 4)
        assert got == expected


def test_intersection_disjoint_lines():
    L1 = Lattice.from_matrix(Mat([[1, 0]]))
    L2 = Lattice.from_matrix(Mat([[0, 1]]))
    assert lattice_intersection([L1, L2]).rank == 0


def _rand_generators(rng, m, rational):
    """m/2 to m+1 generator rows in Z^m or Q^m, sometimes with a dependent
    row, sometimes supported on one block of coordinates only (so that two
    such lattices can have disjoint spans), sometimes none at all."""
    if rng.random() < 0.05:
        return []
    rows = []
    for _ in range(rng.randint(max(1, m // 2), m + 1)):
        if rational:
            rows.append([Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                         for _ in range(m)])
        else:
            rows.append([rng.randint(-5, 5) for _ in range(m)])
    if len(rows) >= 2 and rng.random() < 0.3:
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        rows.append([a * x + b * y for x, y in zip(rows[0], rows[1])])
    if rng.random() < 0.15:
        cut, low = rng.randint(0, m), rng.random() < 0.5
        rows = [[x if (j < cut) == low else 0 for j, x in enumerate(r)]
                for r in rows]
    return rows


def test_intersection_matches_dual_sum_oracle():
    rng = random.Random(305)
    seen = {"zero": 0, "rational": 0, "partial": 0, "full": 0}
    for _ in range(600):
        m, rational = rng.randint(1, 6), rng.random() < 0.25
        lats = [Lattice.from_rows(_rand_generators(rng, m, rational), m)
                for _ in range(rng.randint(2, 4))]
        got = lattice_intersection(lats)
        assert got == intersection_oracle(lats)
        if got.rank == 0:
            seen["zero"] += 1
        elif not got.is_integral:
            seen["rational"] += 1
        elif got.rank < m:
            seen["partial"] += 1
        else:
            seen["full"] += 1
    assert min(seen.values()) >= 20, seen


def test_intersection_is_one_kernel_per_pair(monkeypatch):
    # one integer kernel per pair, of the stored rows H at the scale
    # D = lcm(d1, d2): the first operand's rows stacked last, reversed, below
    # the second's negated rows, whichever rank is larger; that is D times
    # the stack of canonical bases [-B2; reversed(B1)]
    L1 = Lattice.from_matrix(Mat([[1, 2, 3, 4], [0, 5, 6, 7]]))
    L2 = Lattice.from_matrix(Mat([[2, 0, 2, 0], [0, 3, 1, 4], [1, 1, 1, 1]]))
    R1 = Lattice.from_rows([[Fraction(1, 2), 1, 0, 3], [0, Fraction(3, 2), 2, 1]])
    R2 = Lattice.from_rows([[Fraction(1, 3), 0, 1, 1], [0, 1, Fraction(2, 3), 0],
                            [1, 1, 1, 1]])
    assert (L1.rank, L2.rank, R1.rank, R2.rank) == (2, 3, 2, 3)
    assert (L1._d, L2._d, R1._d, R2._d) == (1, 1, 2, 3)
    meet, rational_meet = intersection_oracle([L1, L2]), intersection_oracle([R1, R2])
    others = count_calls(monkeypatch, lattices, "transverse")
    stacks = []
    kernel = lattices._left_kernel

    def capture(rows):
        stacks.append([list(r) for r in rows])
        return kernel(rows)

    monkeypatch.setattr(lattices, "_left_kernel", capture)
    # (first, second, D/d1, D/d2, their intersection)
    pairs = [(L1, L2, 1, 1, meet), (L2, L1, 1, 1, meet),
             (R1, R2, 3, 2, rational_meet), (R2, R1, 2, 3, rational_meet)]
    for n, (first, second, s1, s2, expected) in enumerate(pairs, 1):
        assert lattice_intersection([first, second]) == expected
        assert len(stacks) == n
        assert others["transverse"] == 0
        assert stacks[-1] == ([[-s2 * x for x in r] for r in second._rows]
                              + [[s1 * x for x in r] for r in reversed(first._rows)])
        assert all(type(x) is int for row in stacks[-1] for x in row)
        negated = [tuple(-x for x in r) for r in second.basis]
        assert stacks[-1] == Mat(negated + list(reversed(first.basis))).int_scaled()[1]


def _oracle_fold(lats):
    """``lattice_intersection`` by ``intersect_pair_oracle``."""
    out = lats[0]
    for L in lats[1:]:
        if out.rank == 0 or L.rank == 0:
            return Lattice.zero(out.ambient_dim)
        out = intersect_pair_oracle(out, L)
    return out


def _int_rows(rng, k, m, bound=1000, scale=1):
    return [[scale * rng.randint(-bound, bound) for _ in range(m)] for _ in range(k)]


def test_intersection_matches_operand_order_oracle():
    """The stack [-B2; reversed(B1)] gives the canonical basis the stack
    [B1; -B2] gives, on a corpus seeded apart from the dual-sum one:
    benchmark-sized pairs, scaled operands (pivots above 1), rational
    bases, unequal ranks in both orders, disjoint spans, full-rank pairs,
    3- and 4-lattice folds and rational pairs with d1 != d2 in both orders."""
    rng = random.Random(2917)
    seen = Counter()

    def check(lats):
        got = lattice_intersection(lats)
        assert got.basis == _oracle_fold(lats).basis
        return got

    for a, b in [(6, 10), (8, 12), (9, 14), (10, 16), (12, 20)]:
        for _ in range(3):
            lats = [Lattice.from_rows(_int_rows(rng, a, b), b) for _ in range(2)]
            if check(lats).rank == 2 * a - b:
                seen["benchmark"] += 1
    for _ in range(12):
        a, b = rng.choice([(6, 10), (8, 12), (12, 20)])
        lats = [Lattice.from_rows(_int_rows(rng, a, b, scale=rng.randint(2, 6)), b)
                for _ in range(2)]
        if all(any(row[p] > 1 for row, p in zip(L.basis, L._pivots)) for L in lats):
            check(lats)
            seen["scaled"] += 1
    for _ in range(20):
        m = rng.randint(3, 7)
        lats = [Lattice.from_rows([[Fraction(rng.randint(-60, 60), rng.randint(1, 9))
                                    for _ in range(m)]
                                   for _ in range(rng.randint(m // 2 + 1, m))], m)
                for _ in range(2)]
        if any(not L.is_integral for L in lats) and check(lats).rank:
            seen["rational"] += 1
    for _ in range(25):
        m = rng.randint(3, 12)
        k1 = rng.randint(2, m)  # k1 + k2 > m: the spans meet
        k2 = rng.choice([k for k in range(m - k1 + 1, m + 1) if k != k1])
        bound = rng.choice([9, 1000])
        L1 = Lattice.from_rows(_int_rows(rng, k1, m, bound), m)
        L2 = Lattice.from_rows(_int_rows(rng, k2, m, bound), m)
        if L1.rank != L2.rank and check([L1, L2]).rank:
            assert check([L2, L1]).rank
            seen["unequal"] += 2
    for _ in range(20):
        m = rng.randint(2, 12)
        k1 = rng.randint(1, m - 1)
        k2 = rng.randint(1, m - k1)
        if rng.random() < 0.5:  # generic spans of complementary dimension
            rows1, rows2 = _int_rows(rng, k1, m), _int_rows(rng, k2, m)
        else:  # spans supported on disjoint blocks of coordinates
            rows1 = [r[:k1] + [0] * (m - k1) for r in _int_rows(rng, k1, m, 9)]
            rows2 = [[0] * k1 + r[k1:] for r in _int_rows(rng, k2, m, 9)]
        lats = [Lattice.from_rows(rows1, m), Lattice.from_rows(rows2, m)]
        if all(L.rank for L in lats) and check(lats).rank == 0:
            seen["zero"] += 1
    for _ in range(20):
        m = rng.randint(1, 10)
        lats = [Lattice.from_rows(_int_rows(rng, m + rng.randint(0, 2), m,
                                            rng.choice([9, 1000])), m)
                for _ in range(2)]
        if all(L.rank == m for L in lats) and check(lats).rank == m:
            seen["full"] += 1
    for count in (3, 4):
        for _ in range(15):
            m = rng.randint(4, 10)
            lats = [Lattice.from_rows(_int_rows(rng, rng.randint(m - 1, m), m,
                                                rng.choice([9, 1000])), m)
                    for _ in range(count)]
            if check(lats).rank:
                seen[f"fold{count}"] += 1
    for _ in range(15):  # both operands rational, with d1 != d2
        m = rng.randint(3, 8)
        lats = [Lattice.from_rows([[Fraction(rng.randint(-60, 60), den) for _ in range(m)]
                                   for _ in range(rng.randint(m // 2 + 1, m))], m)
                for den in rng.sample([2, 3, 4, 6, 9, 35], 2)]
        d1, d2 = (L._d for L in lats)
        if min(d1, d2) > 1 and d1 != d2 and check(lats).rank:
            assert check(lats[::-1]).rank
            seen["mixed_d"] += 1
    minimum = {"benchmark": 15, "scaled": 10, "rational": 15, "unequal": 30,
               "zero": 15, "full": 15, "fold3": 10, "fold4": 10, "mixed_d": 10}
    assert all(seen[case] >= n for case, n in minimum.items()), seen


def test_intersection_requires_nonempty():
    with pytest.raises(DomainError):
        lattice_intersection([])


def test_quotient_examples():
    assert quotient_structure(2, Lattice.from_matrix(Mat([[2, 0], [0, 2]]))) \
        == QuotientStructure(0, (2, 2))
    assert quotient_structure(3, Lattice.from_matrix(Mat([[2, 0, 0], [0, 3, 5]]))) \
        == QuotientStructure(1, (2,))
    assert quotient_structure(3, Lattice.from_matrix(Mat.identity(3))) == QuotientStructure(0, ())
    assert QuotientStructure(1, (2, 4)).torsion_order == 8


def test_quotient_rejects_rational():
    L = Lattice.from_matrix(Mat([[Fraction(1, 2), 0]]))
    with pytest.raises(DomainError):
        quotient_structure(2, L)


@pytest.mark.parametrize("args, message", [
    ((1.5,), "free rank 1.5 is not an integer"),
    ((True,), "free rank True is not an integer"),
    ((1, (2.0, 4)), "torsion factor 2.0 is not an integer"),
    ((1, (2, Fraction(4))), r"torsion factor Fraction\(4, 1\) is not an integer"),
    ((-1,), "negative free rank"),
    ((0, (0, 2)), "torsion factors must exceed 1"),
    ((0, (2, 1)), "torsion factors must exceed 1"),
    ((0, (2, 3)), "torsion factors must form a divisibility chain"),
], ids=["float rank", "bool rank", "float factor", "Fraction factor", "negative rank",
        "zero factor", "unit factor", "chain"])
def test_quotient_structure_refuses_bad_fields(args, message):
    # integers are checked first, and a factor of 0 or 1 is refused before
    # the divisibility chain divides by it
    with pytest.raises(DomainError, match=f"^{message}$"):
        QuotientStructure(*args)


def test_quotient_structure_runs_no_snf(monkeypatch):
    # the bare basis rows carry no transform; the factors match snf's
    rng = random.Random(308)
    cases = []
    for _ in range(200):
        m = rng.randint(1, 8)
        A = rand_mat(rng, rng.randint(1, 5), m, -9, 9)
        cases.append((m, Lattice.from_rows(A.row_tuples(), m)))
    expected = []
    for m, L in cases:
        factors = normal_forms.snf(L.basis_matrix()).factors if L.rank else ()
        torsion = tuple(c for c in factors if c > 1)
        expected.append(QuotientStructure(m - len(factors), torsion))
    calls = count_calls(monkeypatch, normal_forms, "snf")
    assert [quotient_structure(m, L) for m, L in cases] == expected
    assert calls["snf"] == 0


def test_quotient_structure_smiths_only_a_residual(monkeypatch):
    # every Hermite pivot 1 (a unimodular image of [I | B]): no Smith pass;
    # one pivot above 1: one Smith pass, on that row alone
    rng = random.Random(309)
    calls = count_calls(monkeypatch, normal_forms, "_smith")
    for _ in range(50):
        k, m = rng.randint(1, 6), rng.randint(6, 9)
        rows = [[int(i == j) for j in range(k)] + [rng.randint(-9, 9) for _ in range(m - k)]
                for i in range(k)]
        assert quotient_structure(m, Lattice.from_rows(rows, m)) == QuotientStructure(m - k, ())
    assert calls["_smith"] == 0
    smith = normal_forms._smith
    seen = []

    def residual(rows, d, m):
        seen.append((d, m))
        return smith(rows, d, m)

    monkeypatch.setattr(lattices, "_smith", residual)
    L = Lattice.from_rows([[1, 0, 3, 5], [0, 1, 2, 7], [0, 0, 4, 6]], 4)
    assert quotient_structure(4, L) == QuotientStructure(1, (2,))
    assert seen == [(1, 2)]


def test_gcd_max_minors_examples():
    assert gcd_max_minors(Mat([[1, -1, 1, 0], [0, 0, 2, -1]])) == 1
    assert gcd_max_minors(Mat([[2, 0], [0, 2]])) == 4


def test_gcd_max_minors_oracle():
    rng = random.Random(305)
    count = 0
    while count < 30:
        A = rand_mat(rng, 2, 4)
        if A.rank() < 2:
            continue
        count += 1
        assert gcd_max_minors(A) == minors_gcd_oracle(A, 2)


def test_gcd_max_minors_rejects_rank_deficient():
    with pytest.raises(DomainError, match="^rank-deficient input$"):
        gcd_max_minors(Mat([[1, 2], [2, 4]]))
    with pytest.raises(DomainError, match="^rank-deficient input$"):
        gcd_max_minors(Mat([[1, 2, 3], [2, 4, 6]]))


def test_has_cotorsion_examples():
    Q = Mat([[1, 1, 0, 0], [0, 1, 1, 2]])
    assert not has_cotorsion(4, Lattice.from_matrix(Q))
    assert has_cotorsion(1, Lattice.from_matrix(Mat([[2]])))


def test_has_cotorsion_vs_quotient():
    rng = random.Random(306)
    for _ in range(40):
        k, m = rng.randint(1, 3), rng.randint(1, 4)
        L = Lattice.from_rows(rand_mat(rng, k, m).row_tuples(), m)
        q = quotient_structure(m, L)
        assert has_cotorsion(m, L) == (not q.is_free)


def test_quotient_torsion_order_equals_minor_gcd():
    rng = random.Random(307)
    count = 0
    while count < 30:
        n = rng.randint(1, 3)
        r = rng.randint(1, 2)
        A = rand_mat(rng, n, n + r)
        if A.rank() < n:
            continue
        count += 1
        q = quotient_structure(n + r, Lattice.from_matrix(A))
        assert q.torsion_order == gcd_max_minors(A)


def test_lattice_canonical_form_and_membership():
    L = Lattice.from_rows([(2, 4), (4, 2)], 2)
    M = Lattice.from_rows([(4, 2), (6, 6), (2, 4)], 2)
    assert L == M
    assert (2, 4) in L
    assert (1, 2) not in L
    assert L.coordinates((6, 6)) is not None


@pytest.mark.parametrize("entry", [1.5, "x", True], ids=["float", "str", "bool"])
def test_lattice_vectors_take_mat_entries_only(entry):
    # coordinates and membership check a vector's entries as Mat does, and
    # still take Fractions
    with pytest.raises(TypeError) as expected:
        Mat([[entry]])
    L = Lattice.from_rows([(2, 0), (0, 3)])
    with pytest.raises(TypeError) as err:
        L.coordinates((entry, 0))
    assert str(err.value) == str(expected.value)
    with pytest.raises(TypeError) as err:
        (entry, 0) in L
    assert str(err.value) == str(expected.value)
    assert L.coordinates((Fraction(4, 2), Fraction(-3))) == (1, -1)
    assert (Fraction(1, 2), 0) not in L
    assert (Fraction(4, 2), 3) in L


def test_lattice_zero_and_errors():
    Z = Lattice.zero(3)
    assert Z.rank == 0 and Z.basis_matrix() is None
    with pytest.raises(DomainError):
        Lattice.from_rows([(1, 2), (1, 2, 3)])


@pytest.mark.parametrize("ambient", [2.5, 2.0, True, "2"],
                         ids=["float", "integral_float", "bool", "str"])
def test_ambient_dimension_is_an_int(ambient):
    # a non-int ambient dimension, bools included, is a DomainError in the
    # constructors and in the quotient questions, never a TypeError
    # from deeper down
    with pytest.raises(DomainError, match="is not an integer"):
        Lattice.zero(ambient)
    with pytest.raises(DomainError):
        Lattice.from_rows([[1, 2]], ambient)
    L = Lattice.from_rows([[1, 2]])
    for question in (quotient_structure, has_cotorsion):
        with pytest.raises(DomainError, match="is not an integer"):
            question(ambient, L)
    assert Lattice.zero(1).ambient_dim == 1
    assert quotient_structure(2, L) == QuotientStructure(1, ())


def test_from_rows_on_integer_rows_builds_no_mat(monkeypatch):
    # integer rows take one entry scan and go into the row insertion as
    # they are: no Mat is built on the way
    scans = count_calls(monkeypatch, matrix, "_norm_rows")
    built = Counter()
    init = Mat.__init__

    def counted(self, rows):
        built["Mat"] += 1
        init(self, rows)

    monkeypatch.setattr(Mat, "__init__", counted)
    L = Lattice.from_rows([(4, 2, 0), (6, 6, 3), (0, 0, 0)], 3)
    assert scans["_norm_rows"] == 1 and built["Mat"] == 0
    assert L.basis == ((2, 4, 3), (0, 6, 6)) and L.is_integral


def test_from_matrix_reads_the_stored_denominator(monkeypatch):
    # a Mat's entries were scanned when it was built: from_matrix takes its
    # integer scaling as it is, with no second scan, into one row insertion
    integer = Mat([[4, 2, 0], [6, 6, 3], [0, 0, 0]])
    rational = Mat([[Fraction(1, 2), 1, 0], [0, Fraction(2, 3), 4]])
    scans = count_calls(monkeypatch, matrix, "_norm_rows")
    inserts = count_calls(monkeypatch, normal_forms, "_hermite_insert")
    got = []
    for n, A in enumerate((integer, rational), 1):
        got.append(Lattice.from_matrix(A))
        assert (scans["_norm_rows"], inserts["_hermite_insert"]) == (0, n)
    assert got[0].basis == ((2, 4, 3), (0, 6, 6)) and got[0].is_integral
    assert got[1].basis == ((Fraction(1, 2), Fraction(1, 3), -4), (0, Fraction(2, 3), 4))
    assert got == [Lattice.from_rows(A.row_tuples()) for A in (integer, rational)]


def test_lattice_stores_the_cleared_integer_rows():
    # d is the least positive integer with d L integral, whatever
    # denominators the generators carry; the basis is the stored rows over d
    rng = random.Random(316)
    for _ in range(300):
        m = rng.randint(1, 5)
        rows = [[rng.randint(-20, 20) for _ in range(m)] for _ in range(rng.randint(1, 4))]
        den, extra = rng.choice([1, 2, 6, 35]), rng.choice([1, 3, 4])
        gens = [[Fraction(x * extra, den * extra) for x in row] for row in rows]
        L = Lattice.from_rows(gens, m)
        d = L._d
        assert all(type(x) is int for row in L._rows for x in row)
        assert L.basis == tuple(tuple(Fraction(x, d) for x in row) for row in L._rows)
        assert L.is_integral == (d == 1)
        assert all((d * x).denominator == 1 for row in L.basis for x in row)
        assert all(any((d // p * x).denominator > 1 for row in L.basis for x in row)
                   for p in (2, 3, 5, 7) if d % p == 0)
