import random

import pytest

from galekit import (
    DomainError,
    GaleKitError,
    Lattice,
    Mat,
    QuotientStructure,
    cartier_basis,
    cartier_index,
    cl_generators,
    cl_generators_full,
    class_group,
    classify_w,
    delta_sigma,
    enumerate_SF,
    fan_from_cones,
    full_report,
    gale_dual,
    gcd_max_minors,
    is_pws,
    is_w_reduced,
    picard_basis,
    torsion_via_Tn,
    w_reduce,
    weil_class,
)
from galekit import fw, gale, matrix, normal_forms, toric
from conftest import (
    box_vectors,
    cartier_indices_oracle,
    count_calls,
    count_rank_calls,
    rand_full_row_rank,
)

WORKED_Q = Mat([[1, 1, 0, 0], [0, 1, 1, 2]])
WORKED_V = Mat([[1, -1, 1, 0], [0, 0, 2, -1]])
NOPROJ_Q = Mat([[1, 1, 0, 0, 1, 0],
                [0, 1, 1, 1, 0, 0],
                [0, 0, 0, 1, 1, 1]])
P2_V = Mat([[1, 0, -1], [0, 1, -1]])
TORSION_V = Mat([[2, 0, -2], [0, 1, -1]])


def _worked_fan():
    return enumerate_SF(WORKED_V)[0]


def test_class_group_examples():
    assert class_group(WORKED_V) == QuotientStructure(2, ())
    assert class_group(Mat([[2, -1, 0, 0], [0, 0, 5, -3]])) == QuotientStructure(2, ())
    assert class_group(TORSION_V) == QuotientStructure(1, (2,))


def test_torsion_via_Tn():
    assert torsion_via_Tn(WORKED_V).is_trivial
    assert torsion_via_Tn(TORSION_V) == QuotientStructure(0, (2,))
    assert torsion_via_Tn(Mat.identity(2)).is_trivial


def test_class_group_and_torsion_reject_rank_deficient():
    V = Mat([[1, -1, 2, 0], [2, -2, 4, 0]])
    with pytest.raises(DomainError, match="^class_group requires full row rank$"):
        class_group(V)
    with pytest.raises(DomainError, match="^torsion_via_Tn requires full row rank$"):
        torsion_via_Tn(V)


def test_torsion_routes_agree_random():
    rng = random.Random(701)
    for _ in range(40):
        m = rng.randint(3, 6)
        n = rng.randint(1, m - 1)
        V = rand_full_row_rank(rng, n, m)
        assert torsion_via_Tn(V).torsion_factors == class_group(V).torsion_factors
        assert gcd_max_minors(V) == class_group(V).torsion_order


def test_is_pws_examples():
    flag, cond = is_pws(WORKED_V)
    assert flag and all(cond.values())
    flag, cond = is_pws(TORSION_V)
    assert not flag and not any(cond.values())
    flag, _ = is_pws(gale_dual(NOPROJ_Q))
    assert flag


def test_is_pws_reads_one_hnf_of_v_transpose(monkeypatch):
    # classify_f: 2 hnf + 2 ranks; then one HNF(V^T) and the Hermite basis
    # of its upper block
    hnf_calls = count_calls(monkeypatch, normal_forms, "hnf")
    rank_calls = count_rank_calls(monkeypatch)
    flag, cond = is_pws(WORKED_V)
    assert flag and all(cond.values())
    assert hnf_calls["hnf"] <= 4
    assert rank_calls["rank"] <= 2


def test_is_pws_shares_the_column_lattice_of_classify_f(monkeypatch):
    # T_n is the Hermite basis of the column lattice classify_f builds
    calls = count_calls(monkeypatch, normal_forms, "_hermite_basis")
    assert is_pws(WORKED_V)[0]
    assert calls["_hermite_basis"] == 1


def test_is_pws_requires_f_matrix():
    with pytest.raises(DomainError):
        is_pws(Mat([[1, 0], [0, 1]]))  # not positively spanning


def test_cl_generators_worked():
    assert cl_generators(WORKED_Q) == Mat([[1, 0, 0, 0], [-1, 1, 0, 0]])


def test_cl_generators_rank_one():
    row = cl_generators(Mat([[1, 1, 1]]))
    assert sum(row.row(0)) == 1


def test_cl_generators_inverts_q():
    rng = random.Random(702)
    done = 0
    while done < 15:
        m = rng.randint(3, 6)
        r = rng.randint(1, m - 1)
        Q = rand_full_row_rank(rng, r, m)
        from galekit import hnf
        res = hnf(Q.transpose())
        expected = Mat([[int(i == j) for j in range(r)] for i in range(m)])
        if res.H != expected:
            continue
        gens = cl_generators(Q)
        assert Q @ gens.transpose() == Mat.identity(r)
        done += 1


def test_cl_generators_rejects_cotorsion():
    with pytest.raises(DomainError):
        cl_generators(Mat([[2, 0], [0, 2]]))


def test_weil_class_examples():
    assert weil_class(WORKED_Q, (0, 1, 0, 0)) == (1, 1)
    assert weil_class(WORKED_Q, (0, 0, 0, 0)) == (0, 0)
    assert weil_class(WORKED_Q, (0, 0, 0, 1)) == (0, 2)


def test_picard_basis_worked():
    assert picard_basis(WORKED_Q, _worked_fan()) == Mat([[2, 0], [0, 2]])


def test_picard_basis_smooth():
    # product of two projective lines: unimodular cone data, Pic = Cl
    Q = Mat([[1, 1, 0, 0], [0, 0, 1, 1]])
    V = gale_dual(Q)
    fan = enumerate_SF(V)[0]
    assert picard_basis(Q, fan) == Mat.identity(2)


def test_picard_basis_noproj_box_oracle():
    V = gale_dual(NOPROJ_Q)
    fans = enumerate_SF(V)
    fan = fans[0]
    B = picard_basis(NOPROJ_Q, fan)
    lat = Lattice.from_matrix(B)
    member_lats = []
    for cone in fan.maximal_cones:
        idx = tuple(j for j in range(1, 7) if j not in cone.gens)
        sub = NOPROJ_Q.take_cols([i - 1 for i in idx])
        member_lats.append(Lattice.from_rows(sub.col_tuples(), 3))
    for v in box_vectors(3, 3):
        expected = all(v in L for L in member_lats)
        assert (v in lat) == expected


def test_cartier_basis_worked():
    B = Mat([[2, 0], [0, 2]])
    U = cl_generators_full(WORKED_Q)
    C = cartier_basis(B, U)
    assert C == Mat([[2, 0, 0, 0], [-2, 2, 0, 0], [1, -1, 1, 0], [0, 0, 2, -1]])
    bt = B.transpose()
    prod = WORKED_Q @ C.transpose()
    assert prod == Mat([[2, 0, 0, 0], [0, 2, 0, 0]])


def test_cartier_basis_smooth_is_transform():
    Q = Mat([[1, 1, 0, 0], [0, 0, 1, 1]])
    U = cl_generators_full(Q)
    assert cartier_basis(Mat.identity(2), U) == U


def test_delta_sigma_worked():
    assert delta_sigma(WORKED_Q, _worked_fan()) == 2


def test_delta_sigma_smooth():
    Q = Mat([[1, 1, 0, 0], [0, 0, 1, 1]])
    fan = enumerate_SF(gale_dual(Q))[0]
    assert delta_sigma(Q, fan) == 1


def test_delta_divides_picard_index_noproj():
    V = gale_dual(NOPROJ_Q)
    for fan in enumerate_SF(V):
        delta = delta_sigma(NOPROJ_Q, fan)
        from galekit import det_exact
        index = abs(det_exact(picard_basis(NOPROJ_Q, fan)))
        assert index % delta == 0


def test_cartier_index_worked():
    fan = _worked_fan()
    values = [cartier_index(WORKED_V, fan, tuple(int(t == j) for t in range(4)))
              for j in range(4)]
    assert values == [2, 2, 2, 1]


def test_cartier_index_zero_divisor():
    assert cartier_index(WORKED_V, _worked_fan(), (0, 0, 0, 0)) == 1


def test_cartier_index_basis_rows():
    fan = _worked_fan()
    B = picard_basis(WORKED_Q, fan)
    C = cartier_basis(B, cl_generators_full(WORKED_Q))
    for i in range(C.rows):
        assert cartier_index(WORKED_V, fan, C.row(i)) == 1


def test_cartier_index_with_class_group_torsion():
    # the per-cone linear condition never uses freeness of the class group
    fans = enumerate_SF(TORSION_V)
    assert len(fans) == 1
    vals = [cartier_index(TORSION_V, fans[0],
                          tuple(int(t == j) for t in range(3)))
            for j in range(3)]
    assert vals == [2, 2, 2]


def test_cartier_index_scaling_law():
    import math
    fan = _worked_fan()
    a = (1, 0, 0, 0)
    c = cartier_index(WORKED_V, fan, a)
    for k in range(1, 7):
        scaled = tuple(k * x for x in a)
        assert cartier_index(WORKED_V, fan, scaled) == c // math.gcd(k, c)


def test_full_report_worked_example():
    rep = full_report(Q=WORKED_Q)
    assert rep.n == 2 and rep.r == 2
    assert rep.cl == QuotientStructure(2, ())
    assert rep.is_pws
    assert rep.cl_generators == Mat([[1, 0, 0, 0], [-1, 1, 0, 0]])
    assert rep.picard_basis == Mat([[2, 0], [0, 2]])
    assert rep.cartier_basis == Mat([[2, 0, 0, 0], [-2, 2, 0, 0],
                                     [1, -1, 1, 0], [0, 0, 2, -1]])
    assert rep.delta_sigma == 2
    assert rep.cartier_indices == (2, 2, 2, 1)


def test_full_report_from_fan_matrix():
    rep = full_report(V=WORKED_V)
    assert rep.picard_basis == Mat([[2, 0], [0, 2]])


@pytest.mark.parametrize("source", ["Q", "V"])
def test_full_report_derives_each_object_once(monkeypatch, source):
    gale_calls = count_calls(monkeypatch, gale, "gale_dual")
    fw_calls = count_calls(monkeypatch, fw, "classify_w")
    toric_calls = count_calls(monkeypatch, toric, "is_pws", "cl_generators_full")
    if source == "Q":
        rep = full_report(Q=WORKED_Q)
    else:
        rep = full_report(V=WORKED_V)
    assert rep.picard_basis == Mat([[2, 0], [0, 2]])
    assert gale_calls["gale_dual"] == 1
    assert fw_calls["classify_w"] == 1
    assert toric_calls["is_pws"] == 1
    assert toric_calls["cl_generators_full"] == 1


def test_full_report_reads_free_class_group(monkeypatch):
    # is_pws has shown Cl torsion-free, so Cl = Z^r needs no class_group
    # pass (one hnf, one snf and one rank at the parent)
    nf_calls = count_calls(monkeypatch, normal_forms, "hnf", "snf")
    rank_calls = count_rank_calls(monkeypatch)
    rep = full_report(Q=WORKED_Q)
    assert rep.cl == QuotientStructure(2, ())
    assert nf_calls["snf"] <= 1
    assert nf_calls["hnf"] <= 28
    assert rank_calls["rank"] <= 2


def test_full_report_reads_indices_off_picard_basis(monkeypatch):
    # one r x r solve in Picard coordinates serves every divisor, and the
    # reducedness test takes one hnf per column-deleted weight matrix
    calls = count_calls(monkeypatch, matrix, "solve")
    nf_calls = count_calls(monkeypatch, normal_forms, "hnf")
    rep = full_report(Q=WORKED_Q)
    assert rep.cartier_indices == (2, 2, 2, 1)
    assert calls["solve"] == 1
    assert nf_calls["hnf"] <= 24


def test_full_report_picard_coordinates_are_an_invariant(monkeypatch):
    # the Picard basis is square of full rank, so the solve always succeeds
    monkeypatch.setattr(toric, "solve", lambda A, B: None)
    with pytest.raises(GaleKitError, match="no Picard coordinates "
                       r"\(internal invariant\)") as info:
        full_report(Q=WORKED_Q)
    assert not isinstance(info.value, DomainError)


def _wps_q(rng, m):
    while True:
        Q = Mat([[rng.randint(1, 9) for _ in range(m)]])
        if classify_w(Q).is_w_matrix and is_w_reduced(Q):
            return Q


def _reduced_q(rng, r):
    while True:
        m = rng.randint(r + 2, r + 4)
        Q = Mat([[rng.randint(0, 3) for _ in range(m)] for _ in range(r)])
        if classify_w(Q).is_w_matrix:
            return w_reduce(Q)


def _wps_cones(rays):
    """The maximal cones of a weighted projective space: all rays but one."""
    return [tuple(j for j in rays if j != i) for i in rays]


def _product_cones(a, b):
    return [c1 + c2 for c1 in _wps_cones(range(1, a + 1))
            for c2 in _wps_cones(range(a + 1, a + b + 1))]


# The large named cases: weighted projective spaces with n + r = 14 and 20,
# P(1,2,3,5,7,11,13) x P(1,1,2,3,5,7,9), and a product of two weighted P^9.
LARGE_WEIGHTS = [
    ([1, 1, 2, 3, 5, 7, 11, 13, 1, 1, 1, 1, 1, 1],),
    ([1, 1, 2, 3, 5, 7, 11, 13, 17, 19, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],),
    ([1, 2, 3, 5, 7, 11, 13], [1, 1, 2, 3, 5, 7, 9]),
    ([1, 1, 2, 3, 5, 7, 11, 13, 17, 19], [1, 1, 1, 2, 3, 4, 5, 7, 9, 11]),
]


def _large_case(weights):
    if len(weights) == 1:
        return Mat([weights[0]]), _wps_cones(range(1, len(weights[0]) + 1))
    w1, w2 = weights
    a, b = len(w1), len(w2)
    return Mat([w1 + [0] * b, [0] * a + w2]), _product_cones(a, b)


def test_full_report_indices_match_fan_side_oracle():
    # seeded WPS, products of two WPS and random reduced Q (r = 1..3), over
    # every fan the configuration admits, then the large named cases
    rng = random.Random(706)
    cases = [("wps", _wps_q(rng, rng.randint(3, 7))) for _ in range(60)]
    for _ in range(50):
        q1, q2 = _wps_q(rng, rng.randint(2, 4)), _wps_q(rng, rng.randint(2, 4))
        a, b = q1.cols, q2.cols
        cases.append(("product", Mat([q1.row(0) + (0,) * b, (0,) * a + q2.row(0)])))
    cases += [(f"r{r}", _reduced_q(rng, r))
              for r, count in ((1, 25), (2, 25), (3, 12)) for _ in range(count)]
    reports = dict.fromkeys(("wps", "product", "r1", "r2", "r3"), 0)
    for family, Q in cases:
        V = gale_dual(Q)
        divisors = Mat.identity(Q.cols).row_tuples()
        for fan in enumerate_SF(V):
            rep = full_report(Q=Q, fan=fan)
            assert rep.cartier_indices == cartier_indices_oracle(V, fan, divisors)
            reports[family] += 1
    assert min(reports.values()) >= 25, reports
    assert sum(reports.values()) >= 200
    for weights in LARGE_WEIGHTS:
        Q, cones = _large_case(weights)
        V = gale_dual(Q)
        fan = fan_from_cones(V, cones)
        rep = full_report(Q=Q, fan=fan)
        assert rep.cartier_indices == cartier_indices_oracle(
            V, fan, Mat.identity(Q.cols).row_tuples())


def test_full_report_q_path_torsion_is_an_invariant(monkeypatch):
    # the Gale dual of a W-matrix spans a saturated lattice, so its class
    # group has no torsion; a failed is_pws there is an internal error
    monkeypatch.setattr(toric, "is_pws", lambda V: (False, {}))
    with pytest.raises(GaleKitError, match="class-group torsion "
                       r"\(internal invariant\)") as info:
        full_report(Q=WORKED_Q)
    assert not isinstance(info.value, DomainError)


def test_full_report_p2():
    rep = full_report(V=P2_V)
    assert rep.cl == QuotientStructure(1, ())
    assert rep.picard_basis == Mat([[1]])
    assert rep.delta_sigma == 1
    assert rep.cartier_indices == (1, 1, 1)


def test_full_report_noproj_all_fans():
    from galekit import det_exact
    V = gale_dual(NOPROJ_Q)
    fans = enumerate_SF(V)
    assert len(fans) == 8
    for k in range(1, 9):
        rep = full_report(Q=NOPROJ_Q, fan_index=k)
        assert rep.is_pws
        assert rep.cl == QuotientStructure(3, ())
        index = abs(det_exact(rep.picard_basis))
        assert index % rep.delta_sigma == 0
        assert all(c >= 1 for c in rep.cartier_indices)


def test_full_report_rejects_unreduced():
    with pytest.raises(DomainError):
        full_report(Q=Mat([[1, 2, 0, 0], [0, 0, 3, 5]]))


def test_full_report_rejects_torsion_fan_matrix():
    with pytest.raises(DomainError):
        full_report(V=TORSION_V)


def test_full_report_needs_fan_choice():
    with pytest.raises(DomainError):
        full_report(Q=NOPROJ_Q)


def test_full_report_explicit_fan():
    fan = fan_from_cones(WORKED_V, [(1, 3), (2, 3), (2, 4), (1, 4)])
    rep = full_report(Q=WORKED_Q, fan=fan)
    assert rep.delta_sigma == 2


def test_cartier_lattice_index_equals_picard_index():
    from galekit import det_exact, quotient_structure
    rep = full_report(Q=WORKED_Q)
    idx = quotient_structure(4, Lattice.from_matrix(rep.cartier_basis))
    assert idx.torsion_order == abs(det_exact(rep.picard_basis)) == 4


def test_full_report_weighted_projective_112():
    # classical rank-1 sanity: weights (1,1,2)
    rep = full_report(Q=Mat([[1, 1, 2]]))
    assert rep.cl == QuotientStructure(1, ())
    assert rep.picard_basis == Mat([[2]])
    assert rep.delta_sigma == 2
    assert rep.cartier_indices == (2, 2, 1)


def test_full_report_smooth_products():
    # P1 x P2: six unimodular cones, Picard equals the class group
    V = Mat([[1, -1, 0, 0, 0], [0, 0, 1, 0, -1], [0, 0, 0, 1, -1]])
    fans = enumerate_SF(V)
    assert len(fans) == 1 and len(fans[0].maximal_cones) == 6
    rep = full_report(V=V)
    assert rep.picard_basis == Mat.identity(2)
    assert rep.delta_sigma == 1
    assert rep.cartier_indices == (1, 1, 1, 1, 1)


def test_enumerate_four_dimensional_cross():
    rows = []
    for i in range(4):
        row = [0] * 8
        row[2 * i], row[2 * i + 1] = 1, -1
        rows.append(row)
    fans = enumerate_SF(Mat(rows))
    assert len(fans) == 1
    assert len(fans[0].maximal_cones) == 16


def test_complementary_minor_identities_cf():
    # |det V^I| = |det Q_I| over all complementary index pairs when the
    # column lattice of V is all of Z^n
    from itertools import combinations
    from galekit import det_exact, submatrix_cols
    V = WORKED_V
    Q = gale_dual(V)
    r = Q.rows
    for I in combinations(range(1, 5), r):
        lhs = abs(det_exact(submatrix_cols(V, I, complement=True)))
        rhs = abs(det_exact(submatrix_cols(Q, I)))
        assert lhs == rhs
