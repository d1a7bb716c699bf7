import math
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from galekit import (
    Cone,
    DomainError,
    Fan,
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
    det_exact,
    enumerate_SF,
    fan_from_cones,
    full_report,
    gale_dual,
    gcd_max_minors,
    is_fan,
    is_pws,
    is_support_complete,
    is_w_reduced,
    picard_basis,
    torsion_via_Tn,
    w_reduce,
    weil_class,
)
from galekit import fw, gale, lattices, matrix, normal_forms, toric
from galekit import fans as fans_module
from conftest import (
    box_vectors,
    cartier_indices_oracle,
    count_calls,
    count_rank_calls,
    picard_basis_oracle,
    rand_full_row_rank,
    solve_oracle,
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


def test_torsion_via_Tn_reads_the_rank_off_its_column_lattice(monkeypatch):
    rank_calls = count_rank_calls(monkeypatch)
    assert torsion_via_Tn(TORSION_V) == QuotientStructure(0, (2,))
    with pytest.raises(DomainError, match="^torsion_via_Tn requires full row rank$"):
        torsion_via_Tn(Mat([[1, 2, 3], [2, 4, 6]]))
    assert rank_calls["rank"] == 0


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
    # T_n is the Hermite basis of the column lattice classify_f builds: one
    # lattice, whose rows come from one row insertion
    built = Counter()
    from_rows, insert = Lattice.from_rows.__func__, lattices._hermite_insert

    def counted(cls, *args):
        built["from_rows"] += 1
        return from_rows(cls, *args)

    def inserted(*args):
        built["_hermite_insert"] += 1
        return insert(*args)

    monkeypatch.setattr(Lattice, "from_rows", classmethod(counted))
    monkeypatch.setattr(lattices, "_hermite_insert", inserted)
    assert is_pws(WORKED_V)[0]
    assert built == {"from_rows": 1, "_hermite_insert": 1}


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


def test_weil_class_stores_entries_as_mat_does():
    # a class coordinate with denominator 1 is an int, as in a Mat, even when
    # another coefficient is a proper Fraction
    cls = weil_class(WORKED_Q, (Fraction(1, 2), 0, 0, 0))
    assert cls == (Fraction(1, 2), 0)
    assert type(cls[0]) is Fraction and type(cls[1]) is int
    cls = weil_class(WORKED_Q, (Fraction(1, 2), Fraction(1, 2), 0, 0))
    assert cls == (1, Fraction(1, 2)) and type(cls[0]) is int
    assert cls == (Mat([[Fraction(1, 2), Fraction(1, 2), 0, 0]])
                   @ WORKED_Q.transpose()).row_tuples()[0]


@pytest.mark.parametrize("entry", [1.5, "x", True], ids=["float", "str", "bool"])
def test_divisor_coefficients_take_mat_entries_only(entry):
    # weil_class and cartier_index check a divisor's coefficients as Mat
    # checks entries, and still take Fractions
    with pytest.raises(TypeError) as expected:
        Mat([[entry]])
    fan = _worked_fan()
    for call in (lambda a: weil_class(WORKED_Q, a),
                 lambda a: cartier_index(WORKED_V, fan, a)):
        with pytest.raises(TypeError) as err:
            call((entry, 0, 0, 0))
        assert str(err.value) == str(expected.value)
    half = (Fraction(1, 2), 0, 0, 0)
    assert weil_class(WORKED_Q, half) == (Fraction(1, 2), 0)
    assert weil_class(WORKED_Q, (Fraction(4, 2), 0, 0, 0)) == (2, 0)
    assert cartier_index(WORKED_V, fan, half) == 4


def test_picard_basis_worked():
    assert picard_basis(WORKED_Q, _worked_fan()) == Mat([[2, 0], [0, 2]])


def test_picard_basis_refuses_a_weight_matrix_not_of_pws_type():
    # Q = (2 2 2) has the Gale dual of P^2, but its columns span 2Z: the
    # same refusal as delta_sigma and cl_generators
    fan = fan_from_cones(Mat([[1, 0, -1], [0, 1, -1]]), [(1, 2), (1, 3), (2, 3)])
    Q = Mat([[2, 2, 2]])
    for call in (picard_basis, delta_sigma):
        with pytest.raises(DomainError, match=re.escape(
                "weight matrix is not of PWS type: HNF(Q^T) is not (I | 0)")):
            call(Q, fan)
    with pytest.raises(DomainError, match="not of PWS type"):
        cl_generators(Q)
    assert picard_basis(Mat([[1, 1, 1]]), fan) == Mat([[1]])


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


def test_delta_sigma_takes_one_left_kernel(monkeypatch):
    # one hnf(Q^T): its rows of U past the rank are the Gale dual that the
    # fan is checked against, and U itself is U_Q
    calls = count_calls(monkeypatch, normal_forms, "_left_kernel", "hnf")
    assert delta_sigma(WORKED_Q, _worked_fan()) == 2
    assert calls["_left_kernel"] == 1
    assert calls["hnf"] == 1


@pytest.mark.parametrize("Q, fan, message", [
    # the Gale dual's checks first, then the fan's, then the PWS check
    (Mat([[Fraction(1, 2), 1, 0, 0], [0, 1, 1, 2]]), Fan(WORKED_V, (Cone((1,)),)),
     "gale_dual requires an integer matrix"),
    (Mat([[1, 1, 0, 0], [2, 2, 0, 0]]), Fan(WORKED_V, (Cone((1,)),)),
     "gale_dual requires full row rank"),
    (Mat([[1, 0], [0, 1]]), Fan(WORKED_V, (Cone((1,)),)),
     "gale_dual requires more columns than rows"),
    (Mat([[2, 2, 4]]), Fan(Mat([[1, 1, -1], [0, 2, -1]]), (Cone((1,)),)),
     "maximal cones must have exactly n generators"),
    (Mat([[2, 2, 4]]), fan_from_cones(Mat([[1, 1, -1], [0, 2, -1]]),
                                      [[1, 2], [1, 3], [2, 3]]),
     "weight matrix is not of PWS type: HNF(Q^T) is not (I | 0)"),
])
def test_delta_sigma_errors_in_order(Q, fan, message):
    with pytest.raises(DomainError, match=re.escape(message) + "$"):
        delta_sigma(Q, fan)


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


def test_delta_sigma_is_lcm_of_complementary_dets():
    # delta_Sigma is the lcm of the last Bareiss pivots of the per-cone
    # table; the definition takes |det| of each complementary weight
    # submatrix
    V = gale_dual(NOPROJ_Q)
    for fan in enumerate_SF(V):
        dets = [abs(det_exact(NOPROJ_Q.take_cols(
                    [j - 1 for j in range(1, 7) if j not in cone.gens])))
                for cone in fan.maximal_cones]
        assert delta_sigma(NOPROJ_Q, fan) == math.lcm(*dets)


def test_picard_basis_refuses_a_singular_block():
    # the single cone (1, 2) leaves the block Q^{3,4} = [[0, 0], [1, 2]]
    fan = Fan(V=WORKED_V, maximal_cones=(Cone(gens=(1, 2)),))
    with pytest.raises(GaleKitError, match="^Picard lattice is not of full "
                       "rank") as info:
        toric._picard_basis(WORKED_Q, fan)
    assert not isinstance(info.value, DomainError)


def test_picard_substitution_remainder_is_an_invariant(monkeypatch):
    # delta H^-1 is integral for the H the fold returns; a pivot that does
    # not divide delta (3 against delta = 2) leaves a remainder
    monkeypatch.setattr(normal_forms, "_hermite_mod", lambda gens, D, k: [[3, 0], [0, 1]])
    with pytest.raises(GaleKitError, match=r"substitution left a remainder "
                       r"\(internal invariant\)$") as info:
        toric._picard_basis(WORKED_Q, _worked_fan())
    assert not isinstance(info.value, DomainError)


def _picard_cases():
    """(family, Q, fan) over every fan that ``enumerate_SF`` finds on 60
    seeded configurations (n = 2..4, n+2 to n+4 columns, entries in
    [-3, 3]; V may have class-group torsion, since the Picard pass reads
    only Q and the cones), then seeded WPS and products of two WPS with
    their known fans."""
    rng = random.Random(2207)
    configs = 0
    while configs < 60:
        n = rng.randint(2, 4)
        m = n + rng.randint(2, 4)
        V = Mat([[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)])
        if V.rank() < n:
            continue
        try:
            fans = enumerate_SF(V)
        except DomainError:
            continue
        if not fans:
            continue
        configs += 1
        Q = gale_dual(V)
        family = "enumerated" if toric._columns_span(V) else "torsion"
        for fan in fans:
            yield family, Q, fan
    for _ in range(30):
        Q = _wps_q(rng, rng.randint(3, 7))
        yield "wps", Q, fan_from_cones(gale_dual(Q), _wps_cones(range(1, Q.cols + 1)))
    for _ in range(30):
        q1, q2 = _wps_q(rng, rng.randint(2, 4)), _wps_q(rng, rng.randint(2, 4))
        a, b = q1.cols, q2.cols
        Q = Mat([q1.row(0) + (0,) * b, (0,) * a + q2.row(0)])
        yield "product", Q, fan_from_cones(gale_dual(Q), _product_cones(a, b))


def test_picard_basis_matches_the_intersection_fold():
    # the table-and-fold route against the pairwise intersection fold it
    # replaced: the same Hermite basis and the same delta, entry for entry
    seen = Counter()
    for family, Q, fan in _picard_cases():
        basis, delta = toric._picard_basis(Q, fan)
        want_basis, want_delta = picard_basis_oracle(Q, fan)
        assert basis == want_basis and delta == want_delta, (Q, fan)
        assert type(delta) is int
        assert all(type(x) is int for row in basis.row_tuples() for x in row)
        seen[family] += 1
    assert seen["enumerated"] + seen["torsion"] >= 1000, seen
    assert seen["torsion"] >= 100 and seen["wps"] == seen["product"] == 30, seen


def test_picard_rows_lie_in_every_block_and_contain_delta_multiples():
    # checks of the definition that use no intersection: every Picard row
    # is in the column lattice of each complementary block, and delta e_i
    # has integral Picard coordinates for every i (on every third case, to
    # keep the run of the rational solves short)
    for count, (_, Q, fan) in enumerate(_picard_cases()):
        if count % 3:
            continue
        basis, delta = toric._picard_basis(Q, fan)
        r = Q.rows
        for cone in fan.maximal_cones:
            block = Q.take_cols([j for j in range(Q.cols) if j + 1 not in cone.gens])
            coords = solve_oracle(block, basis.transpose())
            assert coords is not None and coords.is_integral, (Q, fan)
        coords = solve_oracle(basis.transpose(), Mat.identity(r).scale(delta))
        assert coords is not None and coords.is_integral, (Q, fan)


def test_picard_pass_takes_no_lattice_intersection(monkeypatch):
    # full_report, picard_basis and delta_sigma read Pic off the per-cone
    # table and one fold modulo delta: no pairwise intersection is taken
    calls = count_calls(monkeypatch, lattices, "lattice_intersection",
                        "_intersect_pair")
    fan = _worked_fan()
    assert full_report(Q=WORKED_Q).picard_basis == Mat([[2, 0], [0, 2]])
    assert picard_basis(WORKED_Q, fan) == Mat([[2, 0], [0, 2]])
    assert delta_sigma(WORKED_Q, fan) == 2
    for fan in enumerate_SF(gale_dual(NOPROJ_Q)):
        full_report(Q=NOPROJ_Q, fan=fan)
    assert not calls, calls


def test_report_path_selects_no_columns(monkeypatch):
    # the per-cone blocks and the column-deleted Q^i of the reducedness
    # test are read off the rows and columns of Q, not built by
    # submatrix_cols (on P2 x P2, 9 cones and 6 columns, that made 33
    # calls here, 15 of them in full_report)
    Q = Mat([[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1]])
    fan = fan_from_cones(gale_dual(Q), _product_cones(3, 3))
    calls = count_calls(monkeypatch, matrix, "submatrix_cols")
    rep = full_report(Q=Q, fan=fan)
    assert picard_basis(Q, fan) == rep.picard_basis == Mat.identity(2)
    assert delta_sigma(Q, fan) == rep.delta_sigma == 1
    assert calls["submatrix_cols"] == 0


def test_full_report_takes_one_left_kernel(monkeypatch):
    # classify_w reads ker(Q) off the rows of hnf(Q^T).U past the rank
    calls = count_calls(monkeypatch, normal_forms, "_left_kernel", "hnf")
    assert full_report(Q=WORKED_Q).picard_basis == Mat([[2, 0], [0, 2]])
    assert calls["_left_kernel"] == 1
    assert calls["hnf"] == 1


WORKED_CONES = [(1, 3), (1, 4), (2, 3), (2, 4)]


def _hand_fan(*cones):
    """A Fan on WORKED_V built by hand, past ``fan_from_cones``."""
    return Fan(WORKED_V, tuple(Cone(c) for c in cones))


def test_full_report_checks_each_given_cone_once(monkeypatch):
    # fan_from_cones checks the index sets it is given and _check_fan does
    # not check them again; a Fan of int generators takes no check at all,
    # and is_fan and is_support_complete check each cone they are given once
    fan = _worked_fan()
    calls = count_calls(monkeypatch, matrix, "check_index_set")
    assert full_report(Q=WORKED_Q, fan=WORKED_CONES).picard_basis == Mat([[2, 0], [0, 2]])
    assert calls["check_index_set"] == 4
    full_report(Q=WORKED_Q, fan=fan)
    picard_basis(WORKED_Q, fan)
    assert calls["check_index_set"] == 4
    assert is_fan(WORKED_V, WORKED_CONES) and is_support_complete(WORKED_V, fan)
    assert calls["check_index_set"] == 12


@pytest.mark.parametrize("call, message", [
    (lambda: full_report(Q=WORKED_Q, fan=[(1, 3), (1, 5), (2, 3), (2, 4)]),
     "index 5 out of range 1..4"),
    (lambda: full_report(Q=WORKED_Q, fan=[(0, 3), (1, 4), (2, 3), (2, 4)]),
     "index 0 out of range 1..4"),
    (lambda: full_report(Q=WORKED_Q, fan=[(1, 3), (), (2, 3), (2, 4)]),
     "index set must not be empty"),
    (lambda: full_report(Q=WORKED_Q, fan=[(True, 3), (1, 4), (2, 3), (2, 4)]),
     "index True is not an integer"),
    (lambda: full_report(Q=WORKED_Q, fan=_hand_fan((1.0, 3), (1, 4), (2, 3), (2, 4))),
     "index 1.0 is not an integer"),
    (lambda: full_report(Q=WORKED_Q, fan=_hand_fan((1, 3), (1, 5), (2, 3), (2, 4))),
     "invalid fan: not every ray is used by a maximal cone"),
    (lambda: full_report(Q=WORKED_Q, fan=_hand_fan((1, 3), (), (2, 3), (2, 4))),
     "maximal cones must have exactly n generators"),
    (lambda: picard_basis(WORKED_Q, _hand_fan((1, 3), (1, 4), (True, 3), (2, 4))),
     "index True is not an integer"),
    (lambda: delta_sigma(WORKED_Q, _hand_fan((1, 3), (1, 4), (2, 3), (0, 4))),
     "invalid fan: not every ray is used by a maximal cone"),
    (lambda: cartier_index(WORKED_V, _hand_fan((1, 3), (1, 4), (2, 3), (2, 4.0)),
                           (1, 0, 0, 0)),
     "index 4.0 is not an integer"),
    (lambda: is_fan(WORKED_V, [(1, 3), (1, 5)]), "index 5 out of range 1..4"),
    (lambda: is_fan(WORKED_V, [(1, 3), ()]), "index set must not be empty"),
    (lambda: is_fan(WORKED_V, [(3, 1.0)]), "index 1.0 is not an integer"),
    (lambda: is_support_complete(WORKED_V, _hand_fan((1, 3), (0, 4))),
     "index 0 out of range 1..4"),
    (lambda: is_support_complete(WORKED_V, _hand_fan((1, 3), (False, 4))),
     "index False is not an integer"),
    (lambda: fan_from_cones(WORKED_V, [(1, 3), (4, 5)]), "index 5 out of range 1..4"),
    # cone index sets reach the per-object entries through fan_from_cones
    (lambda: picard_basis(WORKED_Q, [(1, 3), (1, 5), (2, 3), (2, 4)]),
     "index 5 out of range 1..4"),
    (lambda: delta_sigma(WORKED_Q, [(1, 3), (1, 4), (2, 3), (0, 4)]),
     "index 0 out of range 1..4"),
    (lambda: cartier_index(WORKED_V, [(1, 3), (1, 4), (2, 3), (2, 2)], (1, 0, 0, 0)),
     "cone generators must be strictly increasing"),
    (lambda: is_support_complete(WORKED_V, [(1, 3), ()]), "index set must not be empty"),
    (lambda: picard_basis(WORKED_Q, [(1, 3), (2, 3), (2, 4)]),
     "invalid fan: support does not cover the column cone (interior facet "
     "{1} of cone {1, 3} lies on no other cone)"),
    # a fan index or a cap is an int too: 1.5 once reached list indexing as
    # a TypeError, True took fan 1, and a cap of None a comparison
    (lambda: full_report(V=gale_dual(NOPROJ_Q), fan_index=1.5),
     "fan index 1.5 is not an integer"),
    (lambda: full_report(Q=NOPROJ_Q, fan_index=True), "fan index True is not an integer"),
    (lambda: enumerate_SF(WORKED_V, cap=None), "cap None is not an integer"),
    (lambda: enumerate_SF(WORKED_V, cap=False), "cap False is not an integer"),
])
def test_every_entry_refuses_a_malformed_index_set(call, message):
    with pytest.raises(DomainError, match=re.escape(message) + "$"):
        call()


def test_per_object_entries_take_cone_index_sets():
    # picard_basis, delta_sigma, cartier_index and is_support_complete answer
    # for cone index sets, in any order, as for the Fan built on them
    cases = [(WORKED_Q, gale_dual(WORKED_Q)), (NOPROJ_Q, gale_dual(NOPROJ_Q)),
             (None, TORSION_V)]
    seen = 0
    for Q, V in cases:
        for fan in enumerate_SF(V):
            cones = [list(reversed(c)) for c in reversed(fan.cone_sets())]
            if Q is not None:
                assert picard_basis(Q, cones) == picard_basis(Q, fan)
                assert delta_sigma(Q, cones) == delta_sigma(Q, fan)
            for a in Mat.identity(V.cols).row_tuples():
                assert cartier_index(V, cones, a) == cartier_index(V, fan, a)
            assert is_support_complete(V, cones) and is_support_complete(V, fan)
            part = cones[1:]
            assert (is_support_complete(V, part)
                    == is_support_complete(V, fan_from_cones(V, part)) is False)
            seen += 1
    assert seen == 1 + len(enumerate_SF(gale_dual(NOPROJ_Q))) + 1


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


def test_cartier_index_of_a_rational_fan_matrix():
    # V/2 has the cones of V and half its rays: the table runs on the integer
    # rows 2 (V/2) = V and multiplies the scale back into d m, so every ray
    # divisor is Cartier (dropping the scale would give V's (2, 2, 2, 1))
    half = Mat([[Fraction(x, 2) for x in row] for row in WORKED_V.row_tuples()])
    fan = fan_from_cones(half, [cone.gens for cone in _worked_fan().maximal_cones])
    values = [cartier_index(half, fan, tuple(int(t == j) for t in range(4)))
              for j in range(4)]
    assert values == [1, 1, 1, 1]


def test_cartier_index_on_p2_mod_mu3():
    # P^2 / mu_3: three cones of index 3, no ray divisor Cartier below 3
    V = Mat([[1, 1, -2], [0, 3, -3]])
    fans = enumerate_SF(V)
    assert len(fans) == 1
    assert [cartier_index(V, fans[0], tuple(int(t == j) for t in range(3)))
            for j in range(3)] == [3, 3, 3]


def test_cartier_index_matches_one_solve_per_cone():
    # every fan enumerated on 60 seeded V (torsion V included), each ray
    # divisor, three seeded integer divisors and one rational divisor,
    # against one Fraction solve per cone
    rng = random.Random(2811)
    configs = torsion = 0
    while configs < 60:
        n = rng.randint(2, 4)
        m = n + rng.randint(1, 3)
        V = Mat([[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)])
        if V.rank() < n:
            continue
        try:
            fans = enumerate_SF(V)
        except DomainError:
            continue
        if not fans:
            continue
        configs += 1
        torsion += not toric._columns_span(V)
        divisors = [tuple(int(t == j) for t in range(m)) for j in range(m)]
        divisors += [tuple(rng.randint(-6, 6) for _ in range(m)) for _ in range(3)]
        divisors.append(tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                              for _ in range(m)))
        for fan in fans:
            assert (tuple(cartier_index(V, fan, a) for a in divisors)
                    == cartier_indices_oracle(V, fan, divisors))
    assert torsion >= 10


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
    # from Q, the Gale dual is the kernel classify_w computes for clause c,
    # and its torsion-free class group is read off its column lattice: no
    # is_pws, so no second LP and no Smith pass.  From V, is_pws is the
    # input check and classify_w(Q) the invariant, one LP each; the column
    # lattice of a PWS is Z^n, every Hermite pivot 1, so no Smith pass either
    gale_calls = count_calls(monkeypatch, gale, "gale_dual")
    fw_calls = count_calls(monkeypatch, fw, "_classify_w")
    toric_calls = count_calls(monkeypatch, toric, "is_pws", "_pws_transform")
    lp_calls = count_calls(monkeypatch, matrix, "_nonneg_solve")
    smith_calls = count_calls(monkeypatch, normal_forms, "_smith")
    table_calls = count_calls(monkeypatch, fans_module, "_Circuits")
    if source == "Q":
        rep = full_report(Q=WORKED_Q)
    else:
        rep = full_report(V=WORKED_V)
    assert rep.picard_basis == Mat([[2, 0], [0, 2]])
    assert gale_calls["gale_dual"] == (source == "V")
    assert fw_calls["_classify_w"] == 1
    assert toric_calls["is_pws"] == (source == "V")
    assert toric_calls["_pws_transform"] == 1
    assert lp_calls["_nonneg_solve"] == (1 if source == "Q" else 2)
    assert smith_calls["_smith"] == 0
    assert table_calls["_Circuits"] == 1


def test_full_report_builds_one_circuit_table(monkeypatch):
    # one table per call, whatever ran before on the same V: an enumerated
    # fan is not validated again, and a fan passed in is validated with one
    fan = _worked_fan()
    calls = count_calls(monkeypatch, fans_module, "_Circuits")
    for kwargs in [{"Q": WORKED_Q}, {"V": WORKED_V}, {"V": WORKED_V},
                   {"Q": WORKED_Q, "fan": fan}, {"V": WORKED_V, "fan": fan},
                   {"V": WORKED_V, "fan": fan.cone_sets()}]:
        calls.clear()
        assert full_report(**kwargs).picard_basis == Mat([[2, 0], [0, 2]])
        assert calls["_Circuits"] == 1, kwargs


def test_check_fan_builds_no_lattice_on_its_own_matrix(monkeypatch):
    # a fan built on V itself is owned by Mat equality alone; a fan on
    # another basis of the same row lattice costs one Hermite basis each
    built = Counter()
    init = Lattice.__init__

    def counted(self, *args):
        built["Lattice"] += 1
        init(self, *args)

    monkeypatch.setattr(Lattice, "__init__", counted)
    fan = _worked_fan()
    fans_module._check_fan(WORKED_V, fan)
    fans_module._check_fan(WORKED_V, fan_from_cones(WORKED_V, fan.cone_sets()))
    assert built["Lattice"] == 0
    fans_module._check_fan(Mat([WORKED_V.row(1), WORKED_V.row(0)]), fan)
    assert built["Lattice"] == 2


def test_fan_on_another_basis_of_the_row_lattice():
    # enumerate_SF(V) with V not in Hermite form gives fans on V, while the
    # Q-side calls check them against gale_dual(Q): same row lattice, so
    # the same fan, and the same answers as the cone-list route
    V = Mat([[0, 1, 1, -1], [1, 0, -1, 0]])
    Q = gale_dual(V)
    dual = gale_dual(Q)
    assert dual != V
    for fan in enumerate_SF(V):
        same = fan_from_cones(dual, fan.cone_sets())
        assert picard_basis(Q, fan) == picard_basis(Q, same)
        assert delta_sigma(Q, fan) == delta_sigma(Q, same)
        assert full_report(Q=Q, fan=fan) == full_report(Q=Q, fan=fan.cone_sets())
        for a in Mat.identity(4).row_tuples():
            assert cartier_index(dual, fan, a) == cartier_index(V, fan, a)
        # a different row lattice (second row tripled) still owns no fan
        foreign = fan_from_cones(Mat([[0, 1, 1, -1], [3, 0, -3, 0]]),
                                 fan.cone_sets())
        for call in (lambda: picard_basis(Q, foreign),
                     lambda: delta_sigma(Q, foreign),
                     lambda: cartier_index(V, foreign, (1, 0, 0, 0)),
                     lambda: full_report(Q=Q, fan=foreign)):
            with pytest.raises(DomainError, match="^fan does not belong to "
                               "the given matrix$"):
                call()


def test_full_report_refuses_a_fan_and_a_fan_index():
    cones = _worked_fan().cone_sets()
    for index in (1, 99):
        with pytest.raises(DomainError, match="not both"):
            full_report(Q=WORKED_Q, fan=cones, fan_index=index)


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


def test_full_report_reads_delta_off_the_picard_pass(monkeypatch):
    # delta_Sigma comes off the Picard pass: the four maximal cones of the
    # worked fan add no determinant to the 8 the rest of the report takes
    counts = {"det": 0}
    det = Mat.det

    def counted(self):
        counts["det"] += 1
        return det(self)

    monkeypatch.setattr(Mat, "det", counted)
    rep = full_report(Q=WORKED_Q)
    assert rep.delta_sigma == 2
    assert counts["det"] <= 8


def test_full_report_reads_indices_off_picard_basis(monkeypatch):
    # one table block of b^T, (d, d (b^T)^-1), serves every divisor with no
    # solve, and the reducedness test takes one hnf per column-deleted
    # weight matrix
    calls = count_calls(monkeypatch, matrix, "solve")
    nf_calls = count_calls(monkeypatch, normal_forms, "hnf")
    blocks = []
    table = toric._cone_table

    def recorded(rows, cone_blocks):
        blocks.append(len(cone_blocks))
        return table(rows, cone_blocks)

    monkeypatch.setattr(toric, "_cone_table", recorded)
    rep = full_report(Q=WORKED_Q)
    assert rep.cartier_indices == (2, 2, 2, 1)
    assert calls["solve"] == 0
    # the Picard pass over the four maximal cones, then one block of b^T
    assert blocks == [4, 1]
    assert nf_calls["hnf"] <= 24


def test_full_report_picard_coordinates_are_an_invariant(monkeypatch):
    # the Picard basis is square of full rank, so its table block is never
    # singular; a singular one is an internal invariant, not a bad input
    table = toric._cone_table

    def singular_coordinates(rows, cone_blocks):
        if len(cone_blocks) == 1:  # the worked fan has four maximal cones
            rows = [[0] * len(row) for row in rows]
        return table(rows, cone_blocks)

    monkeypatch.setattr(toric, "_cone_table", singular_coordinates)
    with pytest.raises(GaleKitError, match="Picard lattice is not of full rank "
                       r".*\(internal invariant\)") as info:
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


def test_full_report_tall_fan_check_sweeps_the_kernel(monkeypatch):
    # P^9 x P^9 with its fan: V is 18 x 20, so the fan check sweeps the 2
    # rows of V's kernel for the circuit table, not its 18 rows
    swept = []
    minors = fans_module._minors
    monkeypatch.setattr(fans_module, "_minors",
                        lambda rows, bits: swept.append(len(rows)) or minors(rows, bits))
    Q = Mat([[1] * 10 + [0] * 10, [0] * 10 + [1] * 10])
    rep = full_report(Q=Q, fan=_product_cones(10, 10))
    assert swept == [2]
    assert (rep.n, rep.r, rep.delta_sigma) == (18, 2, 1)
    assert rep.cartier_indices == (1,) * 20


def test_full_report_q_path_torsion_is_an_invariant(monkeypatch):
    # the Gale dual of a W-matrix spans a saturated lattice, so its columns
    # span Z^n and its class group has no torsion; a failure there is an
    # internal error
    monkeypatch.setattr(toric, "_columns_span", lambda V: False)
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


def test_check_fan_names_the_first_conflicting_pair_and_its_circuit():
    # v1 = v3 + 2 v4 lies inside cone(3, 4), which cone(1, 3) cuts through
    fan = fan_from_cones(WORKED_V, [(1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    with pytest.raises(DomainError, match=re.escape(
            "invalid fan: cones {1, 3} and {3, 4} do not meet along a common "
            "face (circuit Z+ = {1}, Z- = {3, 4})") + "$"):
        cartier_index(WORKED_V, fan, (1, 0, 0, 0))


def test_check_fan_names_an_unmatched_interior_facet():
    fan = fan_from_cones(WORKED_V, [(1, 3), (2, 3), (2, 4)])
    with pytest.raises(DomainError, match=re.escape(
            "invalid fan: support does not cover the column cone (interior "
            "facet {1} of cone {1, 3} lies on no other cone)") + "$"):
        full_report(Q=WORKED_Q, fan=fan)


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
