"""sympy as an independent oracle for the normal forms and the Gale dual.

sympy's Hermite form follows Cohen's column convention (pivots in the last
coordinates): HNF(A^T)^T with its rows and columns reversed is the row
Hermite form of A with its columns reversed, the convention of ``hnf``.
"""

import random

import pytest

from galekit import Mat, gale_dual, hnf, snf

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import (  # noqa: E402
    hermite_normal_form,
    smith_normal_form,
)


def _rand_rows(rng, lo=-20, hi=20):
    """A seeded integer matrix, dependent last row in 40 % of the cases."""
    while True:
        r, c = rng.randint(1, 5), rng.randint(1, 7)
        A = [[rng.randint(lo, hi) for _ in range(c)] for _ in range(r)]
        if r >= 2 and rng.random() < 0.4:
            A[-1] = [x - 3 * y for x, y in zip(A[0], A[1])]
        if any(map(any, A)):
            return A


def test_hnf_matches_sympy():
    rng = random.Random(501)
    for _ in range(200):
        A = _rand_rows(rng)
        res = hnf(Mat([row[::-1] for row in A]))
        ours = [list(res.H.row(i)) for i in range(res.rank)]
        theirs = hermite_normal_form(sympy.Matrix(A).T).T.tolist()
        assert ours == [row[::-1] for row in theirs[::-1]]


def test_snf_factors_match_sympy():
    rng = random.Random(502)
    for _ in range(200):
        A = _rand_rows(rng)
        D = smith_normal_form(sympy.Matrix(A), domain=sympy.ZZ)
        diag = tuple(abs(int(D[i, i])) for i in range(min(D.shape)) if D[i, i])
        assert snf(Mat(A)).factors == diag


def test_gale_dual_row_lattice_is_sympy_integer_nullspace():
    """L_r(G) = ker(A) ∩ Z^m: G lies in sympy's nullspace, has its
    dimension, and is saturated (every Smith factor of G is 1)."""
    rng = random.Random(503)
    done = 0
    while done < 150:
        d, e = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[rng.randint(-9, 9) for _ in range(d + e)] for _ in range(d)]
        A = sympy.Matrix(rows)
        if A.rank() < d:
            continue
        null = A.nullspace()
        G = gale_dual(Mat(rows))
        Gs = sympy.Matrix(G.row_tuples())
        assert G.rows == len(null) == e
        assert A * Gs.T == sympy.zeros(d, e)
        assert sympy.Matrix.hstack(*null, Gs.T).rank() == e
        D = smith_normal_form(Gs, domain=sympy.ZZ)
        assert all(abs(D[i, i]) == 1 for i in range(e))
        done += 1
