"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every comparison is exact (integers and rationals); the only tolerances are
the stated wall-clock bounds.  Run with ``pytest -s tests/test_acceptance.py``
to see the per-criterion lines.
"""

import random
import time
from itertools import combinations

from galekit import (
    GaleDualPair,
    Lattice,
    Mat,
    cartier_index,
    classify_f,
    classify_w,
    det_duality_check,
    enumerate_SF,
    full_report,
    gale_dual,
    gcd_max_minors,
    hnf,
    i_reduce,
    is_f_complete,
    is_w_positive,
    lattice_intersection,
    quotient_iso_check,
    quotient_structure,
    snf,
    torsion_via_Tn,
    class_group,
)
from conftest import (
    box_vectors,
    check_hnf_result,
    minors_gcd_oracle,
    rand_full_row_rank,
    rand_mat,
)

WORKED_Q = Mat([[1, 1, 0, 0], [0, 1, 1, 2]])
WORKED_V = Mat([[1, -1, 1, 0], [0, 0, 2, -1]])


CRITERION_LINES: list[str] = []


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
    CRITERION_LINES.append(line)
    print(line)
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_worked_example_pipeline():
    t0 = time.perf_counter()
    res = hnf(WORKED_Q.transpose())
    ok = res.U == Mat([[1, 0, 0, 0], [-1, 1, 0, 0],
                       [1, -1, 1, 0], [0, 0, 2, -1]])
    V = gale_dual(WORKED_Q)
    ok &= Lattice.from_matrix(V) == Lattice.from_matrix(WORKED_V)
    fans = enumerate_SF(V)
    ok &= len(fans) == 1
    ok &= set(fans[0].cone_sets()) == {(1, 3), (2, 3), (2, 4), (1, 4)}
    rep = full_report(Q=WORKED_Q)
    ok &= rep.cl_generators == Mat([[1, 0, 0, 0], [-1, 1, 0, 0]])
    ok &= rep.picard_basis == Mat([[2, 0], [0, 2]])
    ok &= rep.cartier_basis == Mat([[2, 0, 0, 0], [-2, 2, 0, 0],
                                    [1, -1, 1, 0], [0, 0, 2, -1]])
    ok &= rep.delta_sigma == 2
    ok &= rep.cartier_indices == (2, 2, 2, 1)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    _report(1, ok, f"worked-example pipeline exact, {elapsed:.3f}s < 1s")


def test_criterion_2_reduction_chain():
    t0 = time.perf_counter()
    Q = Mat([[1, 2, 0, 0], [0, 0, 3, 5]])

    def latt_eq(A, B):
        return Lattice.from_matrix(A) == Lattice.from_matrix(B)

    q1 = i_reduce(Q, 1)
    ok = latt_eq(q1, Mat([[2, 2, 3, 5], [-1, -1, 0, 0]]))
    q13 = i_reduce(i_reduce(q1, 2), 3)
    ok &= latt_eq(q13, Mat([[2, 2, 15, 5], [-1, -1, -6, -2]]))
    q134 = i_reduce(q13, 4)
    ok &= latt_eq(q134, Mat([[2, 2, 15, 15], [-1, -1, -7, -7]]))
    ok &= gale_dual(q134) == Mat([[1, -1, 0, 0], [0, 0, 1, -1]])
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    _report(2, ok, f"stepwise weight reduction exact, {elapsed:.3f}s < 1s")


def test_criterion_3_fan_counts():
    fans_p2 = enumerate_SF(Mat([[1, 0, -1], [0, 1, -1]]))
    ok = len(fans_p2) == 1

    fans_4 = enumerate_SF(Mat([[1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 1]]))
    ok &= {f.cone_sets() for f in fans_4} == {((1, 2, 3), (2, 3, 4)),
                                              ((1, 2, 4), (1, 3, 4))}

    V6 = Mat([[1, 0, 0, 0, -1, 1], [0, 1, 0, -1, -1, 2], [0, 0, 1, -1, 0, 1]])
    t0 = time.perf_counter()
    fans_6 = enumerate_SF(V6)
    elapsed = time.perf_counter() - t0
    ok &= len(fans_6) == 8
    ok &= elapsed < 30.0
    _report(3, ok, f"fan counts 1/2/8 exact, 8-fan case {elapsed:.3f}s < 30s")


def test_criterion_4_gale_duality_properties():
    rng = random.Random(20160104)
    failures = 0
    instances = 0
    while instances < 200:
        m = rng.randint(3, 7)
        n = rng.randint(1, m - 1)
        V = rand_full_row_rank(rng, n, m, -5, 5)
        Q = gale_dual(V)
        instances += 1
        zero = Mat([[0] * n for _ in range(m - n)])
        if Q @ V.transpose() != zero:
            failures += 1
            continue
        pair = GaleDualPair(V, Q)
        for size in range(m + 1):
            for I in combinations(range(1, m + 1), size):
                _, _, equal = quotient_iso_check(pair, I)
                if not equal:
                    failures += 1
                if size == n:
                    _, _, ok = det_duality_check(pair, I)
                    if not ok:
                        failures += 1
    ok = failures == 0 and instances >= 200
    _report(4, ok, f"{instances} instances, all subsets checked, "
                   f"{failures} failures")


def test_criterion_5_fw_duality_properties():
    rng = random.Random(20160105)
    failures = 0
    instances = 0
    while instances < 200:
        m = rng.randint(3, 7)
        n = rng.randint(1, m - 1)
        A = rand_full_row_rank(rng, n, m, -5, 5)
        if any(not any(A.col(j)) for j in range(m)):
            continue
        instances += 1
        G = gale_dual(A)
        f_side = is_f_complete(A)
        if any(not any(G.col(j)) for j in range(m)):
            # zero dual column certifies a non-spanning configuration
            if f_side:
                failures += 1
        else:
            w_side, witness = is_w_positive(G)
            if f_side != w_side:
                failures += 1
            if w_side and (witness is None or not all(x > 0 for x in witness)
                           or witness not in Lattice.from_matrix(G)):
                failures += 1
        if classify_f(A).is_f_matrix != classify_w(G).is_w_matrix:
            failures += 1
        if classify_w(A).is_w_matrix and not classify_f(G).is_cf_matrix:
            failures += 1
    ok = failures == 0 and instances >= 200
    _report(5, ok, f"{instances} instances of the spanning/positivity "
                   f"duality, {failures} failures")


def test_criterion_6_normal_form_oracles():
    rng = random.Random(20160106)
    failures = 0
    for _ in range(500):
        A = rand_mat(rng, rng.randint(1, 5), rng.randint(1, 6), -9, 9)
        if not check_hnf_result(A, hnf(A)):
            failures += 1
    snf_checked = 0
    for _ in range(200):
        m, n = rng.randint(1, 5), rng.randint(1, 6)
        A = rand_mat(rng, m, n, -6, 6)
        res = snf(A)
        if res.alpha @ A @ res.beta != res.S:
            failures += 1
        prod = 1
        for j, c in enumerate(res.factors, start=1):
            prod *= c
            if prod != minors_gcd_oracle(A, j):
                failures += 1
        snf_checked += 1
    ok = failures == 0 and snf_checked >= 200
    _report(6, ok, f"500 Hermite clause checks + {snf_checked} Smith "
                   f"minor-gcd checks, {failures} failures")


def test_criterion_7_torsion_cross_checks():
    rng = random.Random(20160107)
    failures = 0
    for _ in range(200):
        m = rng.randint(2, 7)
        n = rng.randint(1, m - 1)
        V = rand_full_row_rank(rng, n, m, -5, 5)
        cl = class_group(V)
        if torsion_via_Tn(V).torsion_factors != cl.torsion_factors:
            failures += 1
        if gcd_max_minors(V) != cl.torsion_order:
            failures += 1
    _report(7, failures == 0, f"200 torsion cross-checks, {failures} failures")


def test_criterion_8_intersection_box_oracle():
    rng = random.Random(20160108)
    failures = 0
    box = list(box_vectors(3, 4))
    for _ in range(100):
        k1, k2 = rng.randint(1, 3), rng.randint(1, 3)
        L1 = Lattice.from_matrix(rand_mat(rng, k1, 3, -4, 4))
        L2 = Lattice.from_matrix(rand_mat(rng, k2, 3, -4, 4))
        inter = lattice_intersection([L1, L2])
        for v in box:
            if (v in inter) != (v in L1 and v in L2):
                failures += 1
                break
    _report(8, failures == 0,
            f"100 intersections vs box enumeration, {failures} failures")
