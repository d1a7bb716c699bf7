import random

import pytest

from galekit import (
    DomainError,
    GaleKitError,
    Lattice,
    Mat,
    QuotientStructure,
    classify_f,
    classify_w,
    double_gale,
    f_reduce,
    gale_dual,
    i_reduce,
    is_f_complete,
    is_w_positive,
    is_w_reduced,
    positivize,
    quotient_structure,
    submatrix_cols,
    w_reduce,
)
from galekit import fw, gale, normal_forms
from galekit.matrix import vec_gcd
from conftest import count_calls, count_rank_calls, rand_f_matrix, rand_full_row_rank

WORKED_Q = Mat([[1, 1, 0, 0], [0, 1, 1, 2]])
WORKED_V = Mat([[1, -1, 1, 0], [0, 0, 2, -1]])
RED_Q = Mat([[1, 2, 0, 0], [0, 0, 3, 5]])
# 3x11 W-matrix whose Gale dual has column gcds 2, 2, 3 at columns 2, 5, 8
WIDE_Q = Mat([[1, 0, -1, 1, 1, -1, -1, 0, 1, 0, -2],
              [0, 1, 4, 2, 1, 2, 2, 0, 0, 4, 6],
              [0, 0, 0, 6, 3, 12, 18, 2, 6, 0, 12]])


def _row_lattice_equal(A, B):
    return Lattice.from_matrix(A) == Lattice.from_matrix(B)


def test_is_f_complete_examples():
    assert is_f_complete(WORKED_V)
    assert not is_f_complete(Mat([[1, 0], [0, 1]]))
    assert not is_f_complete(Mat([[1, 0, 1], [0, 1, 1]]))


def test_is_w_positive_examples():
    ok, witness = is_w_positive(WORKED_Q)
    assert ok
    assert all(x > 0 for x in witness)
    assert witness in Lattice.from_matrix(WORKED_Q)

    ok, witness = is_w_positive(Mat([[1, -1]]))
    assert not ok and witness is None

    ok, witness = is_w_positive(Mat([[2, 2, 15, 15], [-1, -1, -7, -7]]))
    assert ok and all(x > 0 for x in witness)


def test_is_w_positive_rejects_zero_column():
    with pytest.raises(DomainError):
        is_w_positive(Mat([[1, 0], [2, 0]]))


def test_classify_w_examples():
    rep = classify_w(WORKED_Q)
    assert rep.is_w_matrix and rep.violated == ()
    assert rep.positive_witness is not None

    rep = classify_w(Mat([[1, 0], [0, 1]]))
    assert not rep.is_w_matrix and "e" in rep.violated

    assert classify_w(RED_Q).is_w_matrix


def test_classify_w_reads_rank_off_hermite_basis(monkeypatch):
    rank_calls = count_rank_calls(monkeypatch)
    assert classify_w(WORKED_Q).is_w_matrix
    assert "a" in classify_w(Mat([[1, 1, 2], [2, 2, 4]])).violated
    assert rank_calls["rank"] == 0


def test_classify_w_mixed_sign_clause():
    # (1,-1) supported on two coordinates with opposite signs
    rep = classify_w(Mat([[1, -1, 0], [0, 0, 1]]))
    assert "f" in rep.violated


def test_classify_f_examples():
    rep = classify_f(WORKED_V)
    assert rep.is_f_matrix and rep.is_cf_matrix

    rep = classify_f(Mat([[1, 0, 2], [0, 1, 0]]))
    assert "d" in rep.violated

    rep = classify_f(Mat([[2, -1, 0, 0], [0, 0, 5, -3]]))
    assert rep.is_f_matrix and rep.is_cf_matrix


def test_classify_f_reads_rank_off_column_lattice(monkeypatch):
    # clause a from the column lattice that clause e builds; the one rank
    # left is the Stiemke test of clause b
    rank_calls = count_rank_calls(monkeypatch)
    assert classify_f(WORKED_V).is_cf_matrix
    assert rank_calls["rank"] == 1
    assert classify_f(Mat([[1, -1], [2, -2]])).violated == ("a", "b", "e")


def test_classify_f_non_cf():
    # doubled column scaling kills the full-column-lattice clause only
    rep = classify_f(Mat([[2, 0, -2], [0, 1, -1]]))
    assert rep.is_f_matrix and not rep.is_cf_matrix and rep.violated == ("e",)


def test_positivize_already_positive():
    out = positivize(WORKED_Q)
    assert all(x >= 0 for row in out.row_tuples() for x in row)
    assert _row_lattice_equal(out, WORKED_Q)
    assert all(x > 0 for x in out.row(0))


def test_positivize_scrambled():
    Q = Mat([[1, 1, 0, 0], [-1, 0, 1, 2]])
    out = positivize(Q)
    assert all(x >= 0 for row in out.row_tuples() for x in row)
    assert _row_lattice_equal(out, Q)


def test_positivize_reduction_tail():
    Q = Mat([[2, 2, 15, 15], [-1, -1, -7, -7]])
    out = positivize(Q)
    assert all(x >= 0 for row in out.row_tuples() for x in row)
    assert _row_lattice_equal(out, Mat([[1, 1, 0, 0], [0, 0, 1, 1]]))


def test_positivize_solves_one_lp(monkeypatch):
    # the one LP is classify_w's clause c (in normal_forms); positivize
    # reuses its witness, so fw itself solves none and needs no Gale dual
    calls = []
    nonneg_solve = fw._nonneg_solve

    def counted(A, b):
        calls.append(1)
        return nonneg_solve(A, b)

    monkeypatch.setattr(fw, "_nonneg_solve", counted)
    gale_calls = count_calls(monkeypatch, gale, "gale_dual")
    for Q in (WORKED_Q, WIDE_Q, Mat([[2, 2, 15, 15], [-1, -1, -7, -7]])):
        del calls[:]
        gale_calls.clear()
        out = positivize(Q)
        assert len(calls) == 0
        assert gale_calls["gale_dual"] == 0
        assert all(x >= 0 for row in out.row_tuples() for x in row)
        assert all(x > 0 for x in out.row(0))
        assert _row_lattice_equal(out, Q)


def test_positivize_rejects_non_w():
    with pytest.raises(DomainError):
        positivize(Mat([[1, 0], [0, 1]]))


def test_f_reduce_examples():
    reduced, gcds = f_reduce(Mat([[2, -1, 0, 0], [0, 0, 5, -3]]))
    assert reduced == Mat([[1, -1, 0, 0], [0, 0, 1, -1]])
    assert gcds == (2, 1, 5, 3)

    reduced, gcds = f_reduce(WORKED_V)
    assert reduced == WORKED_V and gcds == (1, 1, 1, 1)


def test_f_reduce_recovers_multipliers():
    rng = random.Random(501)
    done = 0
    while done < 10:
        base = rand_f_matrix(rng, 2, 4)
        if base is None or not classify_f(base).is_f_matrix:
            continue
        red0, g0 = f_reduce(base)
        mults = [rng.randint(1, 4) for _ in range(4)]
        scaled = Mat([[row[j] * mults[j] for j in range(4)]
                      for row in red0.row_tuples()])
        if not classify_f(scaled).is_f_matrix:
            continue
        red, gcds = f_reduce(scaled)
        assert red == red0
        assert gcds == tuple(mults)
        done += 1


def test_f_reduce_idempotent():
    red, _ = f_reduce(Mat([[2, -1, 0, 0], [0, 0, 5, -3]]))
    again, gcds = f_reduce(red)
    assert again == red and all(d == 1 for d in gcds)


def test_w_reduce_paper_chain():
    q1 = i_reduce(RED_Q, 1)
    assert _row_lattice_equal(q1, Mat([[2, 2, 3, 5], [-1, -1, 0, 0]]))
    q13 = i_reduce(i_reduce(q1, 2), 3)
    assert _row_lattice_equal(q13, Mat([[2, 2, 15, 5], [-1, -1, -6, -2]]))
    q134 = i_reduce(q13, 4)
    assert _row_lattice_equal(q134, Mat([[2, 2, 15, 15], [-1, -1, -7, -7]]))
    assert gale_dual(q134) == Mat([[1, -1, 0, 0], [0, 0, 1, -1]])
    assert w_reduce(RED_Q) == q134


def test_w_reduce_fixed_point():
    out = w_reduce(WORKED_Q)
    assert _row_lattice_equal(out, WORKED_Q)


def test_w_reduce_matches_definition_route():
    rng = random.Random(502)
    done = 0
    while done < 8:
        V = rand_f_matrix(rng, 2, 4)
        if V is None:
            continue
        red, _ = f_reduce(V)
        mults = [rng.randint(1, 3) for _ in range(4)]
        scaled = Mat([[row[j] * mults[j] for j in range(4)]
                      for row in red.row_tuples()])
        if not classify_f(scaled).is_f_matrix:
            continue
        Q = gale_dual(scaled)
        if not classify_w(Q).is_w_matrix:
            continue
        got = w_reduce(Q)
        expected = gale_dual(f_reduce(gale_dual(Q))[0])
        assert _row_lattice_equal(got, expected)
        done += 1


def test_is_w_reduced_examples():
    assert is_w_reduced(WORKED_Q)
    assert not is_w_reduced(RED_Q)
    assert is_w_reduced(Mat([[1, 1, 1]]))


def test_is_w_reduced_one_hnf_per_column(monkeypatch):
    # one transform-free Hermite pass per column-deleted Q^i, for its
    # maximal minors, and no hnf with its transform
    calls = count_calls(monkeypatch, normal_forms, "hnf", "_hermite_basis")
    assert fw._is_w_reduced(WORKED_Q, WORKED_V)
    assert calls["_hermite_basis"] == WORKED_Q.cols
    assert calls["hnf"] == 0


def test_is_w_reduced_rank_deficient_column_is_an_invariant():
    # a W-matrix has no rank-deficient Q^i; this Q has the unit vector e_1
    Q = Mat([[1, 0, 0], [0, 1, 1]])
    with pytest.raises(GaleKitError, match="rank-deficient "
                       r"\(internal invariant\)") as info:
        fw._is_w_reduced(Q, gale_dual(Q))
    assert not isinstance(info.value, DomainError)


def test_w_reduce_recomputes_dual_only_after_rescaling(monkeypatch):
    steps, cur = [], WIDE_Q
    for i in range(1, WIDE_Q.cols + 1):
        nxt = i_reduce(cur, i)
        steps.append(nxt != cur)
        cur = nxt
    assert [i + 1 for i, s in enumerate(steps) if s] == [2, 5, 8]
    counts = count_calls(monkeypatch, gale, "gale_dual")
    assert w_reduce(WIDE_Q) == cur
    assert counts["gale_dual"] == 1 + 3
    counts.clear()
    assert w_reduce(cur) == cur
    assert counts["gale_dual"] == 1


def test_w_reduce_idempotent_up_to_lattice():
    out = w_reduce(RED_Q)
    again = w_reduce(out)
    assert _row_lattice_equal(out, again)
    assert is_w_reduced(out)


# ---------------------------------------------------------------------------
# duality properties

def test_fw_duality_random():
    rng = random.Random(503)
    checked = 0
    while checked < 40:
        m = rng.randint(3, 6)
        d = rng.randint(1, m - 1)
        A = rand_full_row_rank(rng, d, m)
        if any(not any(A.col(j)) for j in range(m)):
            continue
        G = gale_dual(A)
        f_side = is_f_complete(A)
        if any(not any(G.col(j)) for j in range(m)):
            # a zero dual column forces a non-spanning configuration
            assert not f_side
            checked += 1
            continue
        w_side, _ = is_w_positive(G)
        assert f_side == w_side, (A, G)
        checked += 1


def test_fw_duality_other_direction():
    rng = random.Random(504)
    checked = 0
    while checked < 25:
        m = rng.randint(3, 6)
        d = rng.randint(1, m - 1)
        A = rand_full_row_rank(rng, d, m)
        if any(not any(A.col(j)) for j in range(m)):
            continue
        G = gale_dual(A)
        w_side, _ = is_w_positive(A)
        f_side = is_f_complete(G)
        assert w_side == f_side, (A, G)
        checked += 1


def test_w_f_gale_correspondence():
    rng = random.Random(505)
    checked = 0
    while checked < 30:
        m = rng.randint(3, 6)
        d = rng.randint(1, m - 1)
        A = rand_full_row_rank(rng, d, m)
        G = gale_dual(A)
        assert classify_f(A).is_f_matrix == classify_w(G).is_w_matrix
        if classify_w(A).is_w_matrix:
            assert classify_f(G).is_cf_matrix
        checked += 1


def test_quisopra_f_iff_double_gale_cf():
    rng = random.Random(506)
    checked = 0
    while checked < 25:
        m = rng.randint(3, 6)
        d = rng.randint(1, m - 1)
        A = rand_full_row_rank(rng, d, m)
        assert classify_f(A).is_f_matrix == classify_f(double_gale(A)).is_cf_matrix
        checked += 1


def test_deleted_column_quotient_is_cyclic_of_column_gcd():
    rng = random.Random(507)
    done = 0
    while done < 10:
        V = rand_f_matrix(rng, 2, 4)
        if V is None:
            continue
        Q = gale_dual(V)
        if not classify_w(Q).is_w_matrix:
            continue
        W = gale_dual(Q)
        m = Q.cols
        for i in range(1, m + 1):
            d = vec_gcd(W.col(i - 1))
            qi = submatrix_cols(Q, (i,), complement=True)
            q = quotient_structure(m - 1, Lattice.from_matrix(qi))
            torsion = (d,) if d > 1 else ()
            assert q.torsion_factors == torsion
        done += 1
