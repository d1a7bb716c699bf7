import math
import random
import re

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
    snf,
    submatrix_cols,
    w_reduce,
)
from galekit import fw, gale, matrix, normal_forms
from conftest import (_rescale, count_calls, count_rank_calls, i_reduce_oracle,
                      rand_f_matrix, rand_full_row_rank, rand_unimodular, w_reduce_oracle)

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
    # clauses a and b read the rank off the column lattice that clause e
    # builds; clause b adds only the Stiemke LP
    rank_calls = count_rank_calls(monkeypatch)
    assert classify_f(WORKED_V).is_cf_matrix
    assert rank_calls["rank"] == 0
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
    # the one LP is classify_w's clause c (bound in normal_forms, where the
    # Stiemke LP on the kernel lives); positivize reuses its witness and
    # needs no Gale dual
    calls = count_calls(monkeypatch, matrix, "_nonneg_solve")
    gale_calls = count_calls(monkeypatch, gale, "gale_dual")
    for Q in (WORKED_Q, WIDE_Q, Mat([[2, 2, 15, 15], [-1, -1, -7, -7]])):
        calls.clear()
        gale_calls.clear()
        out = positivize(Q)
        assert calls["_nonneg_solve"] == 1
        assert gale_calls["gale_dual"] == 0
        assert all(x >= 0 for row in out.row_tuples() for x in row)
        assert all(x > 0 for x in out.row(0))
        assert _row_lattice_equal(out, Q)


def test_positivize_first_row_is_the_primitive_witness():
    # 300 Gale duals of random F-matrices, rows scrambled by a unimodular
    # transform: the first row is classify_w's witness over its gcd
    rng = random.Random(1804)
    done = 0
    while done < 300:
        # columns with the positive relation w: they span R^n positively
        # once they have full rank
        n = rng.choice([1, 2, 3])
        w = [rng.randint(1, 3) for _ in range(rng.randint(n + 1, n + 3))]
        rows = [[rng.randint(-3, 3) for _ in w] for _ in range(n)]
        V = Mat([row + [-sum(a * b for a, b in zip(row, w))] for row in rows])
        if not classify_f(V).is_f_matrix:
            continue
        Q = gale_dual(V)
        if not classify_w(Q).is_w_matrix:
            continue
        Q = rand_unimodular(rng, Q.rows) @ Q
        witness = classify_w(Q).positive_witness
        g = math.gcd(*witness)
        out = positivize(Q)
        assert out.row(0) == tuple(x // g for x in witness)
        assert all(x >= 0 for row in out.row_tuples() for x in row)
        assert _row_lattice_equal(out, Q)
        done += 1


def test_positivize_refuses_a_witness_that_does_not_lift(monkeypatch):
    # a lift that returns a multiple of the witness means the witness is
    # not in the row lattice of Q
    def lift_twice(basis, y):
        c, lam = normal_forms._lift_into_rows(basis, y)
        return tuple(2 * x for x in c), tuple(2 * x for x in lam)

    monkeypatch.setattr(fw, "_lift_into_rows", lift_twice)
    with pytest.raises(GaleKitError, match="no-cotorsion violation"):
        positivize(WORKED_Q)


def test_classify_w_solves_one_lp_on_one_kernel(monkeypatch):
    # clauses c, e and f and the lift under cotorsion share one kernel
    lp_calls = count_calls(monkeypatch, matrix, "_nonneg_solve")
    kernel_calls = count_calls(monkeypatch, normal_forms, "left_kernel_rows")
    cases = [(WORKED_Q, ()), (WIDE_Q, ()), (RED_Q, ()),
             (Mat([[1, -1]]), ("c", "f")),
             (Mat([[2, 2, 4]]), ("b",)),
             (Mat([[2, 0, 2], [0, 2, 2]]), ("b", "f")),
             # e_1 spans a zero column of the kernel; only 2 e_1 lies in L
             (Mat([[1, 0, 0], [0, 1, 1]]), ("e",)),
             (Mat([[2, 0, 0], [0, 1, 1]]), ("b",))]
    for Q, violated in cases:
        lp_calls.clear()
        kernel_calls.clear()
        rep = classify_w(Q)
        assert rep.violated == violated
        assert lp_calls["_nonneg_solve"] == 1
        assert kernel_calls["left_kernel_rows"] == 1
        if "c" not in violated:
            assert rep.positive_witness in Lattice.from_matrix(Q)


def test_clause_c_lp_runs_on_the_shorter_side(monkeypatch):
    # Gordan's LP on Q (rho + 1 rows) when the kernel is longer, Stiemke's on
    # K otherwise; either way one LP and one kernel per call
    sizes = []
    solve = normal_forms._nonneg_solve

    def sized(A, b):
        sizes.append(len(A))
        return solve(A, b)

    monkeypatch.setattr(normal_forms, "_nonneg_solve", sized)
    wps = Mat([[1, 1, 2, 3, 5, 7]])
    assert classify_w(wps).positive_witness == (1, 1, 2, 3, 5, 7)
    assert sizes == [2]
    V = rand_f_matrix(random.Random(2511), 3, 8)
    sizes.clear()
    rep = classify_w(gale_dual(V))
    assert rep.is_w_matrix and sizes == [3]


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


def _rescale_via_snf(Q, i, d):
    """The oracle's ``_rescale`` with alpha read off the full ``snf``."""
    alpha = snf(submatrix_cols(Q, (i,), complement=True)).alpha
    rows = (alpha @ Q).to_lists()
    for row in rows:
        row[i - 1] *= d
    if any(x % d for x in rows[-1]):
        raise GaleKitError("last row not divisible in i-reduction "
                           "(cyclic-quotient theorem violation)")
    rows[-1] = [x // d for x in rows[-1]]
    return Mat(rows)


def _rescaled_q(Q, i, d):
    """The weight matrix the oracle's ``_rescale`` returns (here with no
    dual rows)."""
    return _rescale(Q, [], i, d)[0]


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except GaleKitError as exc:
        return f"{type(exc).__name__}: {exc}"


def test_rescale_alpha_matches_snf():
    # with d = 1 the output is alpha @ Q itself; d = 2, 3 also exercise the
    # divisibility check
    rng = random.Random(503)
    for it in range(600):
        r, s = rng.randint(1, 5), rng.randint(2, 9)
        hi = 1000 if it % 4 == 3 else 6
        Q = Mat([[rng.randint(-hi, hi) for _ in range(s)] for _ in range(r)])
        i, d = rng.randint(1, s), it % 3 + 1
        assert _outcome(_rescaled_q, Q, i, d) == _outcome(_rescale_via_snf, Q, i, d)


def test_is_w_reduced_examples():
    assert is_w_reduced(WORKED_Q)
    assert not is_w_reduced(RED_Q)
    assert is_w_reduced(Mat([[1, 1, 1]]))


def test_is_w_reduced_one_hnf_per_column(monkeypatch):
    # one transform-free Hermite pass per column-deleted Q^i, for its
    # maximal minors, and no hnf with its transform
    calls = count_calls(monkeypatch, normal_forms, "hnf", "_hermite_insert")
    assert fw._is_w_reduced(WORKED_Q, WORKED_V)
    assert calls["_hermite_insert"] == WORKED_Q.cols
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
    # one kernel for classify_w and one for the Gale dual of the rescaled
    # kernel; no Smith form and no gale_dual call
    counts = count_calls(monkeypatch, normal_forms, "_left_kernel", "_smith")
    counts.update(count_calls(monkeypatch, gale, "gale_dual"))
    assert w_reduce(WIDE_Q) == cur
    assert (counts["_left_kernel"], counts["_smith"], counts["gale_dual"]) == (2, 0, 0)
    counts.clear()
    assert w_reduce(cur) is cur
    assert (counts["_left_kernel"], counts["_smith"], counts["gale_dual"]) == (1, 0, 0)


def test_w_reduce_carries_the_gale_dual():
    """Seeded Gale duals of random F-matrices with scaled columns: the Gale
    dual of ``w_reduce(Q)`` is that of Q with every column divided by its
    gcd."""
    rng = random.Random(1601)
    done = rescaled = 0
    while done < 200:
        n, s = rng.randint(2, 3), rng.randint(4, 6)
        V = rand_f_matrix(rng, n, s)
        if V is None:
            continue
        mults = [rng.randint(1, 3) for _ in range(s)]
        Q = gale_dual(Mat([[x * m for x, m in zip(row, mults)]
                           for row in V.row_tuples()]))
        if not classify_w(Q).is_w_matrix:
            continue
        dual = gale_dual(Q)
        gcds = [math.gcd(*dual.col(j)) for j in range(s)]
        out = w_reduce(Q)
        assert gale_dual(out) == Mat([[x // d for x, d in zip(row, gcds)]
                                      for row in dual.row_tuples()]), Q
        assert is_w_reduced(out)
        rescaled += sum(d > 1 for d in gcds)
        done += any(d > 1 for d in gcds)
    assert rescaled >= 500, rescaled


def test_w_reduce_idempotent_up_to_lattice():
    out = w_reduce(RED_Q)
    again = w_reduce(out)
    assert _row_lattice_equal(out, again)
    assert is_w_reduced(out)


def _nonreduced_w(rng, r, m):
    """A candidate r x m weight matrix shaped like perfbench's non-reduced
    family: the last row is congruent modulo p to a combination of the others
    on every column but one."""
    p, skip = rng.choice((2, 3)), rng.randrange(m)
    rows = [[rng.randint(0, 4) for _ in range(m)] for _ in range(r - 1)]
    ks = [rng.randrange(1, p) for _ in range(r - 1)]
    last = [sum(k * row[j] for k, row in zip(ks, rows)) % p + p * rng.randint(0, 1)
            for j in range(m)]
    last[skip] = rng.randint(0, 4)
    return Mat(rows + [last])


def _scaled_gale_dual(rng, top):
    """The Gale dual of a random reduced F-matrix with column multipliers
    1..top; with top = 1 a reduced W-matrix."""
    n = rng.randint(2, 4)
    V = rand_f_matrix(rng, n, rng.randint(n + 2, n + 4))
    if V is None:
        return None
    mults = [rng.randint(1, top) for _ in range(V.cols)]
    return gale_dual(Mat([[x * k for x, k in zip(row, mults)]
                          for row in f_reduce(V)[0].row_tuples()]))


def test_reductions_match_the_smith_oracle():
    """On a seeded corpus, ``w_reduce`` and every ``i_reduce`` give the row
    lattices of the Smith route they replaced, the Gale dual of ``w_reduce(Q)``
    is that of Q with primitive columns, and a reduced Q (or a column of gcd
    1) comes back as the same object."""
    rng = random.Random(3011)
    makers = {"nonreduced": lambda: _nonreduced_w(rng, rng.randint(2, 3),
                                                  rng.randint(6, 9)),
              "scaled": lambda: _scaled_gale_dual(rng, 6),
              "reduced": lambda: _scaled_gale_dual(rng, 1),
              "r1": lambda: Mat([[rng.randint(1, 12)
                                  for _ in range(rng.randint(3, 5))]])}
    need = {"nonreduced": 40, "scaled": 40, "reduced": 15, "r1": 30}
    tally = dict.fromkeys([*makers, "multi", "fixed"], 0)
    for _ in range(1000):
        short = [kind for kind in makers if tally[kind] < need[kind]]
        if not short:
            break
        kind = rng.choice(short)
        Q = makers[kind]()
        if Q is None or not classify_w(Q).is_w_matrix:
            continue
        dual = gale_dual(Q)
        gcds = [math.gcd(*dual.col(j)) for j in range(Q.cols)]
        out = w_reduce(Q)
        assert _row_lattice_equal(out, w_reduce_oracle(Q)), Q
        assert gale_dual(out) == Mat([[x // d for x, d in zip(row, gcds)]
                                      for row in dual.row_tuples()]), Q
        assert is_w_reduced(out)
        assert (out is Q) == all(d == 1 for d in gcds), Q
        for i, d in enumerate(gcds, 1):
            step = i_reduce(Q, i)
            assert _row_lattice_equal(step, i_reduce_oracle(Q, i)), (Q, i)
            assert (step is Q) == (d == 1), (Q, i)
        tally[kind] += 1
        tally["multi"] += sum(d > 1 for d in gcds) >= 2
        tally["fixed"] += out is Q
    assert all(tally[kind] >= need[kind] for kind in makers), tally
    assert tally["multi"] >= 40 and tally["fixed"] >= 30, tally


def test_gale_reduce_checks_the_rescaled_rows_of_q():
    # a kernel that is not RED_Q's Gale dual: (2, 2, 0, 0), row 1 of RED_Q
    # rescaled, is not in the row lattice of the kernel's reduction
    assert gale_dual(RED_Q) == Mat([[2, -1, 0, 0], [0, 0, 5, -3]])
    with pytest.raises(GaleKitError, match=r"reduced row lattice \(internal invariant\)"):
        fw._gale_reduce(RED_Q, [(2, 1, 0, 0), (0, 0, 5, 3)], range(4))
    assert fw._gale_reduce(RED_Q, gale_dual(RED_Q).row_tuples(), range(4)) == w_reduce(RED_Q)


def test_i_reduce_checks_its_column_index_first():
    for i, message in [(1.5, "index 1.5 is not an integer"),
                       (True, "index True is not an integer"),
                       (0, "index 0 out of range 1..4")]:
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            i_reduce(RED_Q, i)


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
            d = math.gcd(*W.col(i - 1))
            qi = submatrix_cols(Q, (i,), complement=True)
            q = quotient_structure(m - 1, Lattice.from_matrix(qi))
            torsion = (d,) if d > 1 else ()
            assert q.torsion_factors == torsion
        done += 1
