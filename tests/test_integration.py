"""Cross-module randomized consistency checks."""

import math
import random

from galekit import (
    DomainError,
    Lattice,
    Mat,
    cartier_index,
    classify_f,
    classify_w,
    det_exact,
    enumerate_SF,
    f_reduce,
    full_report,
    gale_dual,
    is_row_echelon,
    is_w_reduced,
    lattice_intersection,
    positive_row_echelon,
    positivize,
    quotient_structure,
    w_reduce,
)
from conftest import box_vectors, rand_f_matrix, rand_mat, rand_unimodular


def test_echelon_fuzz_with_zero_columns_and_dependent_rows():
    rng = random.Random(801)
    done = 0
    while done < 60:
        d, m = rng.randint(1, 4), rng.randint(1, 5)
        base = [[rng.randint(0, 3) for _ in range(m)] for _ in range(d)]
        if rng.random() < 0.4 and m > 1:
            col = rng.randrange(m)
            for row in base:
                row[col] = 0
        if rng.random() < 0.3 and d > 1:
            base[-1] = [2 * x for x in base[0]]
        A = rand_unimodular(rng, d) @ Mat(base)
        E, alpha, beta = positive_row_echelon(A)
        assert alpha @ A @ beta == E
        assert abs(det_exact(alpha)) == 1
        assert all(x >= 0 for row in E.row_tuples() for x in row)
        assert is_row_echelon(E)
        assert Lattice.from_matrix(E @ beta.inverse()) == Lattice.from_matrix(A)
        done += 1


def test_positivize_fuzz():
    rng = random.Random(802)
    done = 0
    while done < 15:
        n = rng.choice([1, 2])
        s = rng.randint(n + 2, n + 3)
        V = rand_f_matrix(rng, n, s)
        if V is None:
            continue
        Q = gale_dual(V)
        if not classify_w(Q).is_w_matrix:
            continue
        scr = rand_unimodular(rng, Q.rows) @ Q
        out = positivize(scr)
        assert all(x >= 0 for row in out.row_tuples() for x in row)
        assert all(x > 0 for x in out.row(0))
        assert Lattice.from_matrix(out) == Lattice.from_matrix(Q)
        done += 1


def test_reduction_pipeline_fuzz():
    rng = random.Random(803)
    done = 0
    while done < 10:
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
        out = w_reduce(Q)
        assert is_w_reduced(out)
        # reduction must leave the Gale dual's columns primitive
        W = gale_dual(out)
        assert all(math.gcd(*[row[j] for row in W.row_tuples()]) == 1
                   if W.rows > 1 else abs(W[0, j]) == 1
                   for j in range(W.cols))
        done += 1


def test_full_report_fuzz_random_pws():
    rng = random.Random(804)
    done = 0
    while done < 8:
        n = rng.choice([1, 2])
        s = rng.randint(n + 1, n + 3)
        V = rand_f_matrix(rng, n, s)
        if V is None or not classify_f(V).is_cf_matrix:
            continue
        red, gcds = f_reduce(V)
        if any(d != 1 for d in gcds):
            continue
        Q = gale_dual(V)
        if not classify_w(Q).is_w_matrix or not is_w_reduced(Q):
            continue
        try:
            fans = enumerate_SF(V)
        except DomainError:
            continue
        for k in range(1, len(fans) + 1):
            rep = full_report(Q=Q, fan_index=k)
            r, m = rep.r, V.cols
            assert rep.is_pws and rep.cl.free_rank == r
            assert Q @ rep.cl_generators.transpose() == Mat.identity(r)
            index = abs(det_exact(rep.picard_basis))
            assert index % rep.delta_sigma == 0
            qs = quotient_structure(m, Lattice.from_matrix(rep.cartier_basis))
            assert qs.torsion_order == index
            fan = fans[k - 1]
            # the Picard-coordinate indices against the fan-side public call
            for j in range(m):
                e_j = tuple(int(t == j) for t in range(m))
                assert rep.cartier_indices[j] == cartier_index(V, fan, e_j)
            for i in range(rep.cartier_basis.rows):
                assert cartier_index(V, fan, rep.cartier_basis.row(i)) == 1
            # scaling law on the first ray divisor
            e1 = tuple(int(t == 0) for t in range(m))
            c1 = rep.cartier_indices[0]
            for mult in (2, 3, 4):
                scaled = tuple(mult * x for x in e1)
                assert cartier_index(V, fan, scaled) == c1 // math.gcd(mult, c1)
        done += 1


def test_triple_intersection_box_oracle():
    rng = random.Random(805)
    box = list(box_vectors(3, 3))
    for _ in range(15):
        lats = [Lattice.from_matrix(rand_mat(rng, rng.randint(1, 3), 3, -3, 3))
                for _ in range(3)]
        inter = lattice_intersection(lats)
        for v in box:
            assert (v in inter) == all(v in L for L in lats)


def test_rational_lattice_intersection():
    from fractions import Fraction
    L1 = Lattice.from_matrix(Mat([[Fraction(1, 2), 0], [0, 1]]))
    L2 = Lattice.from_matrix(Mat([[1, 0], [0, Fraction(1, 3)]]))
    assert lattice_intersection([L1, L2]) == Lattice.from_matrix(Mat.identity(2))
