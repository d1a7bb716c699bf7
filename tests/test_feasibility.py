"""The exact feasibility kernel (``matrix._nonneg_solve``) and the fw
routines built on it, against the square-subsystem scans it replaced."""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from galekit import (
    DomainError,
    GaleKitError,
    Lattice,
    Mat,
    classify_f,
    classify_w,
    cone_contains,
    gale_dual,
    is_f_complete,
)
from galekit import fans, fw, matrix, normal_forms
from galekit.lattices import has_cotorsion
from galekit.matrix import _nonneg_solve
from conftest import (
    count_calls,
    gauss_rank,
    is_f_complete_oracle,
    mixed_sign_plane_oracle,
    nonneg_combination_oracle,
    proportional_columns_oracle,
    rand_mat,
    strictly_positive_row_vector,
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


def _check_cone_branches(A, b):
    """``cone_contains`` on every column of A, in both branches, against
    ``nonneg_combination_oracle``: b is in the cone iff the oracle finds
    c >= 0, and on independent columns, where c is unique, in its relative
    interior iff c > 0.  Returns c."""
    V, gens = Mat(A), range(1, len(A[0]) + 1)
    c = nonneg_combination_oracle(list(zip(*A)), tuple(b))
    assert cone_contains(V, gens, b) == (c is not None)
    if gauss_rank(V) == V.cols:
        assert cone_contains(V, gens, b, interior=True) == (
            c is not None and all(v > 0 for v in c))
    else:
        with pytest.raises(DomainError, match="simplicial"):
            cone_contains(V, gens, b, interior=True)
    return c


def test_nonneg_solve_matches_subset_scan():
    # integer systems go to the simplex; rational ones through cone_contains,
    # which clears their rows
    rng = random.Random(701)
    verdicts = Counter()
    for _ in range(600):
        A, b = _rand_system(rng)
        c = _check_cone_branches(A, b)
        integral = all(type(v) is int for row in A for v in row)
        if integral:
            x, w = _nonneg_solve(A, b)
            _check_answer(A, b, x, w)
            assert (x is not None) == (c is not None)
        verdicts[integral, c is not None] += 1
    assert min(verdicts.values()) >= 40 and len(verdicts) == 4, verdicts


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
    # a rational point, from integer rows and from rational ones
    x, w = _nonneg_solve([[9, 0], [0, 6]], [3, 1])
    assert x == [Fraction(1, 3), Fraction(1, 6)] and w is None
    assert _check_cone_branches([[3, 0], [0, 2]], [1, Fraction(1, 3)]) == x


def test_nonneg_solve_takes_integer_rows_as_they_are(monkeypatch):
    # integer rows go to the simplex unscaled; the same rows as Fractions,
    # one of them halved, go through cone_contains, which clears each row
    # once and hands the simplex the integer system back
    rng = random.Random(2512)
    scalings = count_calls(monkeypatch, matrix, "_int_row")
    systems = []
    solve = matrix._nonneg_solve
    monkeypatch.setattr(fans, "_nonneg_solve",
                        lambda A, b: systems.append((A, b)) or solve(A, b))
    verdicts = [0, 0]
    for _ in range(300):
        m, n = rng.randint(1, 4), rng.randint(1, 7)
        A = rand_mat(rng, m, n, -3, 3).to_lists()
        b = [rng.randint(-4, 4) for _ in range(m)]
        i = rng.randrange(m)
        A[i][0] = 2 * A[i][0] + 1  # an odd entry: the halved row scales back to itself
        half = [[Fraction(x, 2 if k == i else 1) for x in row] for k, row in enumerate(A)]
        half_b = [Fraction(x, 2 if k == i else 1) for k, x in enumerate(b)]
        scalings.clear()
        x, w = _nonneg_solve(A, b)
        assert scalings["_int_row"] == 0
        _check_answer(A, b, x, w)
        for interior in (False, True):
            scalings.clear()
            try:
                cone_contains(Mat(half), range(1, n + 1), half_b, interior)
            except DomainError:
                assert interior and gauss_rank(Mat(A)) < n
            assert scalings["_int_row"] == m
        assert systems[-1] == (A, b)
        assert (_check_cone_branches(half, half_b) is not None) == (x is not None)
        verdicts[x is not None] += 1
    assert min(verdicts) >= 75


def _rand_q_sides(rng):
    """Weight-matrix candidates for the two clause-c LPs: r = 1-5, m <= 12,
    with cotorsion, zero columns, a dependent row, or a column that is the
    negative sum of the others (often infeasible)."""
    r, m = rng.randint(1, 5), rng.randint(2, 12)
    rows = rand_mat(rng, r, m, -2, 4).to_lists()
    shape = rng.randrange(5)
    if shape == 0:
        i = rng.randrange(r)
        rows[i] = [rng.choice((2, 3)) * x for x in rows[i]]
    elif shape == 1:
        for j in rng.sample(range(m), rng.randint(1, min(3, m - 1))):
            for row in rows:
                row[j] = 0
    elif shape == 2 and r > 1:
        rows[-1] = [x - y for x, y in zip(rows[0], rows[1 % (r - 1)])]
    elif shape == 3:
        j = rng.randrange(m)
        for row in rows:
            row[j] = -sum(row) + row[j]
    return Mat(rows)


def test_both_sides_of_clause_c_agree():
    """Gordan's LP on the weight side and Stiemke's on the kernel side give
    the same verdict as the old LP, and primitive witnesses > 0 exactly on
    the support that lift into L."""
    rng = random.Random(2513)
    seen = {"positive": 0, "infeasible": 0, "cotorsion": 0, "zero": 0,
            "deficient": 0, "weight_side": 0, "kernel_side": 0}
    for _ in range(320):
        Q = _rand_q_sides(rng)
        lat = Lattice.from_matrix(Q)
        if not lat.rank:
            continue
        basis = lat.basis
        support = [j for j in range(Q.cols) if any(row[j] for row in basis)]
        kernel = fw._classify_w(Q)[1]
        rows = [sub for sub in ([row[j] for j in support] for row in kernel) if any(sub)]
        weight = normal_forms._weight_side_vector(basis, support)
        kernel_side = normal_forms._kernel_side_vector(rows, support, Q.cols)
        ref = strictly_positive_row_vector([list(row) for row in basis], support)
        assert (weight is None) == (kernel_side is None) == (ref is None)
        for y in (weight, kernel_side):
            if y is None:
                continue
            assert all(type(v) is int for v in y) and math.gcd(*y) == 1
            assert [j for j, v in enumerate(y) if v > 0] == support
            assert all(v == 0 for j, v in enumerate(y) if j not in support)
            c, lam = normal_forms._lift_into_rows(basis, y)
            assert c in lat and c == tuple(_dot(lam, col) for col in zip(*basis))
        seen["positive" if ref else "infeasible"] += 1
        seen["cotorsion"] += has_cotorsion(Q.cols, lat)
        seen["zero"] += len(support) < Q.cols
        seen["deficient"] += lat.rank < Q.rows
        seen["weight_side" if len(basis) + 1 < len(rows) else "kernel_side"] += 1
    assert min(seen.values()) >= 30, seen


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


def _classify_by_oracles(monkeypatch, Q, positive):
    """classify_f(Q) and classify_w(Q) with every fw kernel replaced by an
    oracle; ``positive(basis, support)`` answers W-clause c."""
    lat = Lattice.from_matrix(Q)

    def span_vector(basis, kernel):
        support = [j for j in range(Q.cols) if any(row[j] for row in basis)]
        found = positive([list(row) for row in basis], support)
        return None if found is None else list(found[0])

    with monkeypatch.context() as mp:
        mp.setattr(fw, "_is_f_complete",
                   lambda rows, rank: is_f_complete_oracle(Mat(rows)))
        mp.setattr(fw, "_positive_span_vector", span_vector)
        # the repeated-direction test answers clause d in classify_f and
        # clause f in classify_w
        mp.setattr(fw, "_has_repeated_direction", proportional_columns_oracle)
        rep_f = classify_f(Q)
        mp.setattr(fw, "_has_repeated_direction",
                   lambda cols: mixed_sign_plane_oracle(lat))
        return rep_f, classify_w(Q)


def _check_w_report(Q, rep):
    """The witness of clause c is > 0 on the support of L and lies in L;
    and for a W-matrix the kernel handed on is the Gale dual."""
    lat = Lattice.from_matrix(Q)
    witness = rep.positive_witness
    assert (witness is None) == ("c" in rep.violated or lat.rank == 0)
    if witness is not None:
        assert all((x > 0) == any(Q.col(j)) for j, x in enumerate(witness))
        assert witness in lat
    if rep.is_w_matrix:
        assert Mat(fw._classify_w(Q)[1]) == gale_dual(Q)


def test_fw_kernels_match_subset_scans(monkeypatch):
    rng = random.Random(702)
    feasible = infeasible = deficient = proportional = 0
    for _ in range(250):
        Q = _rand_q(rng)
        deficient += Q.rank() < Q.rows
        assert is_f_complete(Q) == is_f_complete_oracle(Q)
        cols = list(Q.col_tuples())
        prop = fw._has_repeated_direction([c for c in cols if any(c)])
        assert prop == proportional_columns_oracle(cols)
        proportional += prop

        lat = Lattice.from_matrix(Q)
        got_w, kernel = fw._classify_w(Q)
        kernel_cols = list(zip(*kernel)) if kernel else [()] * Q.cols
        if lat.rank:
            basis = [list(row) for row in lat.basis]
            support = [j for j in range(Q.cols) if any(row[j] for row in basis)]
            got = got_w.positive_witness
            lp = strictly_positive_row_vector(basis, support)
            ref = strictly_positive_row_vector_oracle(basis, support)
            assert (got is None) == (lp is None) == (ref is None)
            if got is None:
                infeasible += 1
            else:
                feasible += 1
                vec, lam = lp
                assert all(vec[j] > 0 for j in support)
                assert vec == tuple(_dot(lam, col) for col in zip(*basis))
        assert (fw._has_repeated_direction(kernel_cols)
                == mixed_sign_plane_oracle(lat))

        got_f = classify_f(Q)
        assert classify_w(Q) == got_w
        for positive in (strictly_positive_row_vector,
                         strictly_positive_row_vector_oracle):
            ref_f, ref_w = _classify_by_oracles(monkeypatch, Q, positive)
            assert got_f == ref_f
            assert got_w.violated == ref_w.violated
            assert (got_w.positive_witness is None) == (ref_w.positive_witness is None)
        assert ("a" in got_f.violated) == (gauss_rank(Q) < Q.rows)
        _check_w_report(Q, got_w)
    assert feasible >= 40 and infeasible >= 40 and deficient >= 10
    assert 40 <= proportional <= 210


def _rand_q_second(rng):
    """Weight-matrix candidates of a second family: a random nonnegative-
    leaning matrix with cotorsion (a scaled row, or two rows mixed by a
    transform of determinant 4), zero columns, a dependent row, a multiple
    of a unit vector, or one column the negative sum of the others."""
    r, m = rng.randint(1, 4), rng.randint(2, 8)
    rows = rand_mat(rng, r, m, -1, 4).to_lists()
    shape = rng.randrange(6)
    if shape == 0:
        # cotorsion: a row scaled by 2 or 3
        i = rng.randrange(r)
        rows[i] = [rng.choice((2, 3)) * x for x in rows[i]]
    elif shape == 1 and r > 1:
        rows[1] = [x + 2 * y for x, y in zip(rows[0], rows[1])]
        rows[0] = [2 * x for x in rows[0]]
    elif shape == 2:
        for j in rng.sample(range(m), rng.randint(1, min(2, m - 1))):
            for row in rows:
                row[j] = 0
    elif shape == 3 and r > 1:
        rows[-1] = [rng.choice((-1, 1, 2)) * x for x in rows[0]]
    elif shape == 4:
        # a multiple of a unit vector: e_j in the rational span of L
        rows[0] = [0] * m
        rows[0][rng.randrange(m)] = rng.choice((1, 2, 3))
    else:
        # infeasible-prone: one column the negative of a sum of others
        j = rng.randrange(m)
        for row in rows:
            row[j] = -sum(row) + row[j]
    return Mat(rows)


def test_w_positivity_second_corpus(monkeypatch):
    """An independently seeded corpus for clause c: verdicts against both
    oracles, witnesses > 0 on the support and inside L."""
    rng = random.Random(1509)
    seen = {"b": 0, "c": 0, "zero": 0, "deficient": 0, "lifted": 0, "e": 0,
            "unit_multiple": 0}
    for _ in range(300):
        Q = _rand_q_second(rng)
        got_f, (got_w, kernel) = classify_f(Q), fw._classify_w(Q)
        for positive in (strictly_positive_row_vector,
                         strictly_positive_row_vector_oracle):
            ref_f, ref_w = _classify_by_oracles(monkeypatch, Q, positive)
            assert got_f == ref_f
            assert got_w.violated == ref_w.violated
        _check_w_report(Q, got_w)
        if "d" not in got_w.violated:
            ok, witness = fw.is_w_positive(Q)
            assert ok == ("c" not in got_w.violated)
            assert witness is None or witness in Lattice.from_matrix(Q)
        seen["b"] += "b" in got_w.violated
        seen["c"] += "c" in got_w.violated
        seen["zero"] += "d" in got_w.violated
        seen["deficient"] += "a" in got_w.violated
        seen["e"] += "e" in got_w.violated
        # some e_j in the span of L but outside L: a zero kernel column and
        # no unit vector
        seen["unit_multiple"] += ("e" not in got_w.violated and any(
            not any(row[j] for row in kernel) for j in range(Q.cols)))
        # the LP's vector lies outside L (only in its saturation): lifted
        lat = Lattice.from_matrix(Q)
        if lat.rank:
            y = normal_forms._positive_span_vector(lat.basis, kernel)
            seen["lifted"] += y is not None and tuple(y) not in lat
    assert min(seen.values()) >= 20, seen


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
