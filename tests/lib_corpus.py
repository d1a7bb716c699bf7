"""Seeded differential corpus of the library: one output digest per group.

Every name that ``galekit/__init__.py`` exports is an entry here, or is
produced by one (``PRODUCED_BY``).  Call ``k`` of an entry draws its input
from ``random.Random(f"lib:{entry}:{k}")``: the paper's examples, weighted
projective spaces and their products, and small random integer and rational
matrices, with inputs that break a precondition among them.  The inputs are
built here with the standard library alone, so a change to one library
function moves only the groups of the entries that read it.

A call leaves one record per part of its output, in one of three families:

* ``value``: the canonical parts, equal for every correct implementation:
  H and its pivots, S and the factors, Gale duals, verdicts and violated
  clauses, sorted fans, the report's invariants (Cl, Picard basis,
  delta_Sigma, Cartier indices), and ``hnf``'s U when A has full row rank.
* ``choice``: one valid choice among many: ``hnf``'s U for a tall or
  rank-deficient A, ``snf``'s alpha and beta, ``positive_row_echelon``,
  positivity witnesses, ``positivize``, ``w_reduce`` and ``i_reduce``, and
  ``cl_generators``, ``cl_generators_full`` and ``cartier_basis``, which
  read the first rows of U_Q.
* ``errors``: the type and message of every ``GaleKitError`` raised, and
  of the ``TypeError`` that refuses an entry of the wrong type.

A group is one (entry, family) pair, named ``entry/family``; its digest is
the sha256 of its records as one JSON list.  ``tests/data/digests.json``
keeps one digest per group; ``test_lib_digests.py`` recomputes them and
names every group that moved, so a change by design shows which parts it
moved and a change meant to keep every output moves none.

    PYTHONPATH=src python3 tests/lib_corpus.py            # print the moved groups
    PYTHONPATH=src python3 tests/lib_corpus.py --write    # store the digests
    PYTHONPATH=src python3 tests/lib_corpus.py --group hnf/value   # one digest
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import galekit as gk

DIGEST_FILE = Path(__file__).resolve().parent / "data" / "digests.json"
CALLS = 100  # calls per entry unless the entry says otherwise

# exported names that no call takes as its entry point: the entry that
# produces or raises them (GaleKitError as the base of the other two)
PRODUCED_BY = {
    "DomainError": "check_index_set", "GaleKitError": "check_index_set",
    "ParseError": "parse_matrix", "HnfResult": "hnf", "SnfResult": "snf",
    "WMatrixReport": "classify_w", "FMatrixReport": "classify_f",
    "Fan": "fan_from_cones", "ToricReport": "full_report",
}

# weight matrices: the worked example, the 8-fan Q6, P2, P(1,2,3), P1 x P1,
# P(1,2,3,5), P(1,1,2), a non-reduced P(1,2,2), weights with cotorsion,
# a zero column, a negative weight, a repeated row and a rational entry
WEIGHTS = [
    [[1, 1, 0, 0], [0, 1, 1, 2]],
    [[1, 1, 0, 0, 1, 0], [0, 1, 1, 1, 0, 0], [0, 0, 0, 1, 1, 1]],
    [[1, 1, 1]], [[1, 2, 3]], [[1, 1, 0, 0], [0, 0, 1, 1]], [[1, 2, 3, 5]],
    [[1, 1, 2]], [[1, 2, 2]], [[2, 2, 2]], [[2, 4, 6]], [[1, 1, 0]],
    [[1, -1, 1]], [[1, 1, 1], [2, 2, 2]], [[Fraction(1, 2), 1, 1]],
]
# fan matrices: the worked example's Gale dual, the 8-fan V6, P2, P1 x P1,
# a V with class-group torsion, a V that spans no full cone, and a row
FANS = [
    [[1, -1, 1, 0], [0, 0, 2, -1]],
    [[1, 0, 0, 0, -1, 1], [0, 1, 0, -1, -1, 2], [0, 0, 1, -1, 0, 1]],
    [[1, 0, -1], [0, 1, -1]], [[1, 0, -1, 0], [0, 1, 0, -1]],
    [[1, 0, -1], [0, 2, -2]], [[1, 1, 1], [0, 1, 2]], [[1, 1]],
]
# the fans of FANS[0], FANS[2], FANS[3] and FANS[4], by index
FAN_CONES = {0: [[1, 3], [2, 3], [2, 4], [1, 4]], 2: [[1, 2], [2, 3], [1, 3]],
             3: [[1, 2], [2, 3], [3, 4], [1, 4]], 4: [[1, 2], [2, 3], [1, 3]]}
# the Gale pairs (V, Q) among them: worked, V6/Q6, P2, P1 x P1, torsion
PAIRS = [(FANS[0], WEIGHTS[0]), (FANS[1], WEIGHTS[1]), (FANS[2], WEIGHTS[2]),
         (FANS[3], WEIGHTS[4]), (FANS[4], WEIGHTS[2])]
# edge matrices: zero, 1 x 1, identity, rank-deficient, tall
EDGES = [[[0, 0], [0, 0]], [[2]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
         [[1, 2], [2, 4]], [[1, 2], [3, 4], [5, 6]]]


# ---------------------------------------------------------------------------
# inputs

def _ints(rng: random.Random, rows: int, cols: int, bound: int = 3) -> list:
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def _rational(rng: random.Random, rows: int, cols: int) -> list:
    mat = _ints(rng, rows, cols)
    mat[rng.randrange(rows)][rng.randrange(cols)] = Fraction(
        rng.choice([-3, -1, 1, 5]), rng.choice([2, 3, 4]))
    return mat


def _matrix(rng: random.Random, wide: bool = False) -> list:
    """Any small matrix: an edge case, the examples, or random entries up to
    3 or up to 1000, one in ten with a rational entry."""
    roll = rng.random()
    if roll < 0.15:
        return rng.choice(EDGES)
    if roll < 0.3:
        return rng.choice(WEIGHTS[:7] + FANS[:4])
    rows = rng.randint(1, 4)
    cols = rng.randint(rows if wide else 1, rows + 3)
    if roll < 0.4:
        return _rational(rng, rows, cols)
    return _ints(rng, rows, cols, rng.choice([1, 3, 3, 1000]))


def _wps(rng: random.Random, size: int) -> tuple[list, list, list]:
    """(Q, V, cones) of a well-formed weighted projective space
    P(1, q_1, ..., q_n), any n of whose weights are coprime: V is [-q | I],
    whose only fan takes every n columns as a cone."""
    q = [1]
    while len(q) < size:
        w = rng.randint(1, 5)
        if all(math.gcd(w, *q[:i], *q[i + 1:]) == 1 for i in range(len(q))):
            q.append(w)
    n = size - 1
    V = [[-q[i + 1]] + [int(i == j) for j in range(n)] for i in range(n)]
    cones = [list(c) for c in itertools.combinations(range(1, size + 1), n)]
    return [q], V, cones


def _product(a: tuple, b: tuple) -> tuple[list, list, list]:
    """(Q, V, cones) of the product of two (Q, V, cones) triples."""
    (qa, va, ca), (qb, vb, cb) = a, b
    sa, sb = len(qa[0]), len(qb[0])
    Q = [row + [0] * sb for row in qa] + [[0] * sa + row for row in qb]
    V = [row + [0] * sb for row in va] + [[0] * sa + row for row in vb]
    cones = [x + [sa + g for g in y] for x in ca for y in cb]
    return Q, V, cones


def _space(rng: random.Random) -> tuple[list, list, list]:
    """(Q, V, cones) of a PWS with a known fan: the paper's examples, a
    weighted projective space of 3 to 5 rays, or a product of two of 2 or 3."""
    roll = rng.random()
    if roll < 0.25:
        i = rng.choice([0, 0, 2, 3])
        V, Q = PAIRS[i]
        return Q, V, FAN_CONES[i]
    if roll < 0.6:
        return _wps(rng, rng.randint(3, 5))
    return _product(_wps(rng, rng.randint(2, 3)), _wps(rng, rng.randint(2, 3)))


def _index_set(rng: random.Random, m: int) -> list:
    """A 1-based index set of m columns, sometimes malformed."""
    roll = rng.random()
    if roll < 0.1:
        return rng.choice([[1.5], [True], ["1"], [0], [m + 1], [2, 1], [1, 1]])
    return sorted(rng.sample(range(1, m + 1), rng.randint(0, m)))


def _wrong_fan(rng: random.Random, cones: list, m: int) -> list:
    """The cones with one change: one dropped, one added, or one replaced."""
    cones = [list(c) for c in cones]
    roll = rng.random()
    if roll < 0.3 and len(cones) > 1:
        cones.pop(rng.randrange(len(cones)))
    elif roll < 0.6:
        cones.append(sorted(rng.sample(range(1, m + 1), len(cones[0]))))
    else:
        cones[rng.randrange(len(cones))] = sorted(
            rng.sample(range(1, m + 1), rng.randint(1, len(cones[0]))))
    return cones


def _lattice(rng: random.Random, m: int) -> gk.Lattice:
    rows = _ints(rng, rng.randint(0, m), m, rng.choice([2, 9]))
    if rows and rng.random() < 0.2:
        rows[0][0] = Fraction(1, rng.choice([2, 3]))
    return gk.Lattice.from_rows(rows, m)


# ---------------------------------------------------------------------------
# entries: each call returns {family: record}

ENTRIES: dict = {}


def entry(name: str, calls: int = CALLS):
    def register(run):
        ENTRIES[name] = (calls, run)
        return run
    return register


@entry("Mat")
def _mat(rng):
    roll = rng.random()
    if roll < 0.15:
        return {"value": repr(gk.Mat(rng.choice(
            [[], [[]], [[1, 2], [3]], [[True]], [["1"]], [[1.5]]])))}
    A = gk.Mat(_matrix(rng))
    op = rng.choice(["det", "rank", "inverse", "transpose", "matmul", "scale",
                     "int_scaled", "take_cols", "identity", "from_cols"])
    if op == "det":
        out = A.det()
    elif op == "rank":
        out = A.rank()
    elif op == "inverse":
        out = A.inverse()
    elif op == "transpose":
        out = A.transpose()
    elif op == "matmul":
        out = A @ gk.Mat(_matrix(rng))
    elif op == "scale":
        out = A.scale(rng.choice([2, -1, Fraction(1, 2)]))
    elif op == "int_scaled":
        out = A.int_scaled()
    elif op == "take_cols":
        out = A.take_cols(rng.sample(range(A.cols), rng.randint(1, A.cols)))
    elif op == "identity":
        out = gk.Mat.identity(rng.randint(1, 4))
    else:
        out = gk.Mat.from_cols(A.row_tuples())
    return {"value": [op, A, out, A.shape, A.is_integral, A == out, str(A)]}


@entry("check_index_set")
def _check_index_set(rng):
    m = rng.randint(1, 6)
    idx = _index_set(rng, m)
    allow = rng.random() < 0.7
    return {"value": [idx, m, allow, gk.check_index_set(idx, m, allow_empty=allow)]}


@entry("det_exact")
def _det(rng):
    size = rng.randint(1, 4)
    A = (_rational(rng, size, size) if rng.random() < 0.2
         else _ints(rng, size, size + (rng.random() < 0.1), rng.choice([2, 1000])))
    return {"value": [A, gk.det_exact(gk.Mat(A))]}


@entry("rank_exact")
def _rank(rng):
    A = _matrix(rng)
    return {"value": [A, gk.rank_exact(gk.Mat(A))]}


@entry("submatrix_cols")
def _submatrix(rng):
    A = gk.Mat(_matrix(rng))
    idx, comp = _index_set(rng, A.cols), rng.random() < 0.5
    return {"value": [A, idx, comp, gk.submatrix_cols(A, idx, complement=comp)]}


@entry("parse_matrix")
def _parse(rng):
    text = rng.choice(["1 2\n3 4\n", "# c\n1 -2/4 # x\n\n3 0\n", "", "# only\n",
                       "1 2\n3\n", "1/0 2\n", "1.5 2\n", "x 1\n", "+3 -0\n",
                       "1 2/1\n"])
    return {"value": [text, gk.parse_matrix(text)]}


@entry("format_matrix", calls=40)
def _format(rng):
    A = gk.Mat(_matrix(rng))
    return {"value": [A, gk.format_matrix(A)]}


@entry("hnf")
def _hnf(rng):
    A = gk.Mat(_matrix(rng))
    res = gk.hnf(A)
    full_row_rank = res.rank == A.rows
    out = {"value": [A, res.H, res.pivot_map, res.rank,
                     res.U if full_row_rank else None]}
    if not full_row_rank:
        out["choice"] = [A, res.U]
    return out


@entry("snf")
def _snf(rng):
    A = gk.Mat(_matrix(rng))
    res = gk.snf(A)
    return {"value": [A, res.S, res.factors], "choice": [res.alpha, res.beta]}


@entry("left_kernel_rows")
def _left_kernel(rng):
    A = gk.Mat(_matrix(rng))
    return {"value": [A, gk.left_kernel_rows(A)]}


@entry("positive_row_echelon")
def _positive_echelon(rng):
    A = gk.Mat(rng.choice(WEIGHTS) if rng.random() < 0.5 else _matrix(rng))
    return {"choice": [A, gk.positive_row_echelon(A)]}


@entry("is_row_echelon", calls=40)
def _is_echelon(rng):
    A = gk.Mat(rng.choice([[[1, 2], [0, 3]], [[0, 1], [1, 0]], [[1, 1], [0, 0]],
                           [[0, 0], [1, 0]]]) if rng.random() < 0.5 else _matrix(rng))
    return {"value": [A, gk.is_row_echelon(A)]}


@entry("Lattice")
def _lattice_entry(rng):
    m = rng.randint(1, 5)
    roll = rng.random()
    if roll < 0.15:
        return {"value": repr(gk.Lattice.from_rows(
            rng.choice([[], [[1, 2], [3]], [[1, True]], [[1, 2]]]),
            rng.choice([None, 1.5, True, 0, 3])))}
    L = gk.Lattice.from_matrix(gk.Mat(_matrix(rng))) if roll < 0.3 else _lattice(rng, m)
    m = L.ambient_dim
    vec = rng.choice([[rng.randint(-4, 4) for _ in range(m)],
                      list(L.basis[0]) if L.rank else [0] * m,
                      [Fraction(1, 2)] * m, [1] * (m + 1)])
    return {"value": [repr(L), L.rank, L.is_integral, L.basis_matrix(),
                      vec, L.coordinates(vec), vec in L, L == gk.Lattice.zero(m)]}


@entry("QuotientStructure", calls=40)
def _quotient_entry(rng):
    q = gk.QuotientStructure(rng.randint(-1, 3), tuple(rng.choice(
        [(), (2,), (2, 4), (4, 2), (1,), (0,), (3, 6, 12)])))
    return {"value": [q, q.torsion_order, q.is_free, q.is_trivial]}


@entry("dual_lattice")
def _dual(rng):
    L = _lattice(rng, rng.randint(1, 4))
    return {"value": [L, gk.dual_lattice(L)]}


@entry("gcd_max_minors")
def _gcd_minors(rng):
    A = gk.Mat(rng.choice(FANS + WEIGHTS) if rng.random() < 0.4 else _matrix(rng, wide=True))
    return {"value": [A, gk.gcd_max_minors(A)]}


@entry("has_cotorsion")
def _cotorsion(rng):
    m = rng.randint(1, 5)
    L = _lattice(rng, m)
    ambient = rng.choice([m, m, m, m + 1, 1.5, True])
    return {"value": [L, ambient, gk.has_cotorsion(ambient, L)]}


@entry("lattice_intersection")
def _intersection(rng):
    m = rng.randint(1, 5)
    lats = [_lattice(rng, m) for _ in range(rng.randint(0, 3))]
    if lats and rng.random() < 0.1:
        lats.append(gk.Lattice.zero(m + 1))
    return {"value": [lats, gk.lattice_intersection(lats)]}


@entry("quotient_structure")
def _quotient(rng):
    m = rng.randint(1, 5)
    L = _lattice(rng, m)
    ambient = rng.choice([m, m, m, m + 1, 1.5, True])
    return {"value": [L, ambient, gk.quotient_structure(ambient, L)]}


@entry("transverse")
def _transverse(rng):
    A = gk.Mat(_matrix(rng, wide=True))
    return {"value": [A, gk.transverse(A)]}


@entry("gale_dual")
def _gale(rng):
    A = gk.Mat(rng.choice(FANS + WEIGHTS) if rng.random() < 0.4 else _matrix(rng, wide=True))
    return {"value": [A, gk.gale_dual(A)]}


@entry("double_gale")
def _double_gale(rng):
    A = gk.Mat(rng.choice(FANS + WEIGHTS) if rng.random() < 0.4 else _matrix(rng, wide=True))
    return {"value": [A, gk.double_gale(A)]}


def _pair(rng):
    if rng.random() < 0.5:
        V, Q = rng.choice(PAIRS)
    else:
        Q, V, _ = _space(rng)
    if rng.random() < 0.15:
        V, Q = rng.choice([(V, WEIGHTS[2]), (FANS[4], Q), ([[1, 0]], [[0, 1]]),
                           (V, [row[:] for row in Q] + Q), (_rational(rng, 1, 3), Q)])
    return gk.GaleDualPair(gk.Mat(V), gk.Mat(Q))


@entry("GaleDualPair")
def _pair_entry(rng):
    pair = _pair(rng)
    return {"value": [pair.V, pair.Q, pair.n, pair.r]}


@entry("quotient_iso_check")
def _iso(rng):
    pair = _pair(rng)
    idx = _index_set(rng, pair.V.cols)
    return {"value": [pair.V, idx, gk.quotient_iso_check(pair, idx)]}


@entry("det_duality_check")
def _det_duality(rng):
    pair = _pair(rng)
    n, m = pair.V.rows, pair.V.cols
    idx = (sorted(rng.sample(range(1, m + 1), n)) if rng.random() < 0.8
           else _index_set(rng, m))
    return {"value": [pair.V, idx, gk.det_duality_check(pair, idx)]}


@entry("solve_left_factor")
def _left_factor(rng):
    Q = gk.Mat(rng.choice(WEIGHTS) if rng.random() < 0.5 else _matrix(rng))
    alpha = _ints(rng, rng.randint(1, 3), Q.rows, 2)
    A = gk.Mat(alpha) @ Q if rng.random() < 0.6 else gk.Mat(_ints(rng, 2, Q.cols + (rng.random() < 0.1)))
    out = gk.solve_left_factor(A, Q)
    family = "value" if gk.rank_exact(Q) == Q.rows else "choice"
    return {family: [A, Q, out]}


def _weights(rng):
    roll = rng.random()
    if roll < 0.4:
        return gk.Mat(rng.choice(WEIGHTS))
    if roll < 0.7:
        return gk.Mat(_space(rng)[0])
    return gk.Mat(_ints(rng, rng.randint(1, 2), rng.randint(2, 5), 2))


def _fan_matrix(rng):
    roll = rng.random()
    if roll < 0.4:
        return gk.Mat(rng.choice(FANS))
    if roll < 0.7:
        return gk.Mat(_space(rng)[1])
    return gk.Mat(_ints(rng, rng.randint(1, 3), rng.randint(2, 6), 2))


@entry("classify_f")
def _classify_f(rng):
    V = _fan_matrix(rng)
    return {"value": [V, gk.classify_f(V)]}


@entry("classify_w")
def _classify_w(rng):
    Q = _weights(rng)
    rep = gk.classify_w(Q)
    return {"value": [Q, rep.is_w_matrix, rep.violated], "choice": [Q, rep.positive_witness]}


@entry("is_f_complete")
def _f_complete(rng):
    V = _fan_matrix(rng)
    return {"value": [V, gk.is_f_complete(V)]}


@entry("is_w_positive")
def _w_positive(rng):
    Q = _weights(rng)
    ok, witness = gk.is_w_positive(Q)
    return {"value": [Q, ok], "choice": [Q, witness]}


@entry("is_w_reduced")
def _w_reduced(rng):
    Q = _weights(rng)
    return {"value": [Q, gk.is_w_reduced(Q)]}


@entry("f_reduce")
def _f_reduce(rng):
    V = _fan_matrix(rng)
    if rng.random() < 0.3:
        V = gk.Mat([[x * (2 if j % 2 else 1) for j, x in enumerate(row)]
                    for row in V.row_tuples()])
    return {"value": [V, gk.f_reduce(V)]}


@entry("i_reduce")
def _i_reduce(rng):
    Q = _weights(rng)
    i = rng.choice([1, 2, Q.cols, Q.cols + 1, 0])
    return {"choice": [Q, i, gk.i_reduce(Q, i)]}


@entry("w_reduce")
def _w_reduce(rng):
    Q = _weights(rng)
    return {"choice": [Q, gk.w_reduce(Q)]}


@entry("positivize")
def _positivize(rng):
    Q = _weights(rng)
    return {"choice": [Q, gk.positivize(Q)]}


@entry("Cone", calls=20)
def _cone(rng):
    gens = tuple(rng.sample(range(1, 6), rng.randint(0, 3)))
    return {"value": gk.Cone(gens)}


@entry("fan_from_cones", calls=60)
def _fan_from_cones(rng):
    Q, V, cones = _space(rng)
    V = gk.Mat(V)
    if rng.random() < 0.3:
        cones = rng.choice([None, [[]], [[0, 1]], [[1, 1.5]], [[1, len(Q[0]) + 1]]])
    return {"value": [V, gk.fan_from_cones(V, cones)]}


@entry("cone_contains")
def _cone_contains(rng):
    V = _fan_matrix(rng)
    cone = _index_set(rng, V.cols)
    if rng.random() < 0.3:
        cone = gk.Cone(tuple(c for c in cone if isinstance(c, int) and 0 < c <= V.cols))
    x = [rng.randint(-2, 2) for _ in range(V.rows + (rng.random() < 0.05))]
    if x and rng.random() < 0.1:
        x[0] = Fraction(1, 2)
    interior = rng.random() < 0.4
    return {"value": [V, cone, x, interior, gk.cone_contains(V, cone, x, interior=interior)]}


def _enumerable(rng):
    """A fan matrix small enough to enumerate, or one the search refuses."""
    roll = rng.random()
    if roll < 0.35:
        return gk.Mat(rng.choice(FANS))
    if roll < 0.7:
        return gk.Mat(_space(rng)[1])
    if roll < 0.8:
        return gk.Mat(rng.choice([[[1, 0, 2, -1], [0, 1, 0, -1]], [[1, 0, 0, -1], [0, 1, 0, -1]],
                                  [[1, 2, -1], [2, 4, -2]], [[1, 0, -1], [0, 1, -1]]]))
    return gk.Mat(_ints(rng, rng.randint(2, 3), rng.randint(4, 6), 2))


@entry("enumerate_SF", calls=80)
def _enumerate(rng):
    V = _enumerable(rng)
    cap = rng.choice([10, 10, 10, 4, None, True, 1.5]) if rng.random() < 0.2 else 10
    return {"value": [V, cap, gk.enumerate_SF(V, cap=cap)]}


@entry("is_divisorially_detected", calls=40)
def _detected(rng):
    V = _enumerable(rng)
    return {"value": [V, gk.is_divisorially_detected(V)]}


@entry("is_fan")
def _is_fan(rng):
    Q, V, cones = _space(rng)
    if rng.random() < 0.6:
        cones = _wrong_fan(rng, cones, len(V[0]))
    return {"value": [V, cones, gk.is_fan(gk.Mat(V), cones)]}


@entry("is_support_complete")
def _support(rng):
    Q, V, cones = _space(rng)
    if rng.random() < 0.6:
        cones = _wrong_fan(rng, cones, len(V[0]))
    fan = gk.fan_from_cones(gk.Mat(V), cones) if rng.random() < 0.3 else cones
    return {"value": [V, cones, gk.is_support_complete(gk.Mat(V), fan)]}


@entry("class_group")
def _class_group(rng):
    V = _fan_matrix(rng)
    return {"value": [V, gk.class_group(V)]}


@entry("torsion_via_Tn")
def _torsion(rng):
    V = _fan_matrix(rng)
    return {"value": [V, gk.torsion_via_Tn(V)]}


@entry("is_pws")
def _is_pws(rng):
    V = _fan_matrix(rng)
    return {"value": [V, gk.is_pws(V)]}


@entry("cl_generators")
def _cl_generators(rng):
    Q = _weights(rng)
    return {"choice": [Q, gk.cl_generators(Q)]}


@entry("cl_generators_full")
def _cl_generators_full(rng):
    Q = _weights(rng)
    return {"choice": [Q, gk.cl_generators_full(Q)]}


@entry("weil_class", calls=60)
def _weil(rng):
    Q = _weights(rng)
    a = [rng.randint(-2, 3) for _ in range(Q.cols + (rng.random() < 0.1))]
    if rng.random() < 0.15:
        a[0] = rng.choice([Fraction(1, 2), 1.5])
    return {"value": [Q, a, gk.weil_class(Q, a)]}


def _space_fan(rng):
    """(Q, V, fan) of a PWS with its fan, one in four broken somehow."""
    Q, V, cones = _space(rng)
    roll = rng.random()
    if roll < 0.1:
        cones = _wrong_fan(rng, cones, len(V[0]))
    elif roll < 0.15:
        cones = rng.choice([None, [[1, 1.5]], [[0, 1]]])
    elif roll < 0.25:
        Q = rng.choice([[[2, 2, 2]], [[2, 4, 6]], [[1, 1, 0]], [[Fraction(1, 2), 1, 1]]])
        V, cones = FANS[2], FAN_CONES[2]
    return gk.Mat(Q), gk.Mat(V), cones


@entry("picard_basis")
def _picard(rng):
    Q, V, cones = _space_fan(rng)
    return {"value": [Q, cones, gk.picard_basis(Q, cones)]}


@entry("delta_sigma")
def _delta(rng):
    Q, V, cones = _space_fan(rng)
    return {"value": [Q, cones, gk.delta_sigma(Q, cones)]}


@entry("cartier_basis", calls=60)
def _cartier_basis(rng):
    Q, V, cones = _space_fan(rng)
    B = gk.picard_basis(Q, cones)
    U = gk.cl_generators_full(Q)
    if rng.random() < 0.2:
        B, U = rng.choice([(gk.Mat([[1, 0]]), U), (B, gk.Mat([[1, 0], [0, 1]])),
                           (B, gk.Mat([[1]]))])
    return {"choice": [B, U, gk.cartier_basis(B, U)]}


@entry("cartier_index")
def _cartier_index(rng):
    if rng.random() < 0.2:
        V, cones = gk.Mat(FANS[4]), FAN_CONES[4]  # class-group torsion
    else:
        _, V, cones = _space_fan(rng)
    a = [rng.randint(-2, 3) for _ in range(V.cols + (rng.random() < 0.05))]
    if rng.random() < 0.1:
        a[0] = Fraction(1, rng.choice([2, 3]))
    return {"value": [V, cones, a, gk.cartier_index(V, cones, a)]}


@entry("full_report", calls=200)
def _full_report(rng):
    Q, V, cones = _space_fan(rng)
    kind = rng.random()
    kwargs = {}
    if kind < 0.4:
        kwargs["fan"] = cones
    elif kind < 0.5:
        kwargs["fan_index"] = rng.choice([1, 2, 0, 1.5, True])
    elif kind < 0.55:
        kwargs.update(fan=cones, fan_index=1)
    elif kind < 0.6:
        kwargs["cap"] = rng.choice([3, None])
    roll = rng.random()
    if roll < 0.4:
        kwargs["Q"] = Q
    elif roll < 0.85:
        kwargs["V"] = V
    elif roll < 0.95:
        kwargs["V"] = gk.Mat(rng.choice(FANS[4:]))  # torsion, not complete, 1 x 2
    elif roll < 0.98:
        kwargs.update(Q=Q, V=V)
    rep = gk.full_report(**kwargs)
    return {"value": [sorted(kwargs), rep.n, rep.r, rep.cl, rep.is_pws,
                      rep.picard_basis, rep.delta_sigma, rep.cartier_indices],
            "choice": [rep.cl_generators, rep.cartier_basis]}


# ---------------------------------------------------------------------------
# records and digests

def _canon(x):
    """A JSON value for an output: numbers as decimal strings, matrices as
    their rows, results as their fields."""
    if isinstance(x, bool) or x is None or isinstance(x, str):
        return x
    if isinstance(x, (int, Fraction)):
        return str(x)
    if isinstance(x, float):
        return repr(x)
    if isinstance(x, gk.Mat):
        return {"Mat": [[str(v) for v in row] for row in x.row_tuples()]}
    if isinstance(x, gk.Fan):
        return {"Fan": [list(c.gens) for c in x.maximal_cones]}
    if isinstance(x, gk.Lattice):
        return {"Lattice": [x.ambient_dim, _canon(x.basis)]}
    if isinstance(x, gk.QuotientStructure):
        return {"Z": x.free_rank, "torsion": _canon(x.torsion_factors)}
    if isinstance(x, gk.Cone):
        return {"Cone": _canon(x.gens)}
    if isinstance(x, gk.FMatrixReport):
        return {"F": [x.is_f_matrix, x.is_cf_matrix, list(x.violated)]}
    if isinstance(x, dict):
        return {str(k): _canon(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_canon(v) for v in x]
    raise TypeError(f"no canonical form for {type(x).__name__}")


def entry_records(name: str) -> dict[str, list]:
    """The records of every call on entry ``name``, by family."""
    calls, run = ENTRIES[name]
    out: dict[str, list] = {}
    for k in range(calls):
        rng = random.Random(f"lib:{name}:{k}")
        try:
            parts = run(rng)
        except (gk.GaleKitError, TypeError) as exc:  # a message is an output too
            parts = {"errors": [type(exc).__name__, str(exc)]}
        for family, record in parts.items():
            out.setdefault(family, []).append([k, _canon(record)])
    return out


def digest(records: list) -> str:
    text = json.dumps(records, ensure_ascii=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def entry_digests(name: str) -> dict[str, str]:
    return {f"{name}/{family}": digest(records)
            for family, records in entry_records(name).items()}


def current_digests() -> dict[str, str]:
    out = {}
    for name in ENTRIES:
        out.update(entry_digests(name))
    return out


def stored_digests() -> dict[str, str]:
    return json.loads(DIGEST_FILE.read_text())["digests"]


def moved_groups(current: dict[str, str], stored: dict[str, str]) -> list[str]:
    """Groups whose digest differs, including groups present on one side
    only, in the order of ``current`` and then of ``stored``."""
    names = list(current) + [g for g in stored if g not in current]
    return [g for g in names if current.get(g) != stored.get(g)]


def _python() -> str:
    return "{}.{}".format(*sys.version_info[:2])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true",
                        help=f"store the current digests in {DIGEST_FILE.name}")
    parser.add_argument("--group", help="print this group's current digest and nothing else")
    args = parser.parse_args(argv)
    if args.group:
        name = args.group.split("/")[0]
        if name not in ENTRIES:
            parser.error(f"no entry {name!r}")
        print(entry_digests(name).get(args.group, "absent"))
        return 0
    current = current_digests()
    if args.write:
        DIGEST_FILE.write_text(json.dumps({"python": _python(), "digests": current},
                                          indent=1) + "\n")
        print(f"wrote {len(current)} digests to {DIGEST_FILE}")
        return 0
    moved = moved_groups(current, stored_digests())
    print("moved: " + (" ".join(moved) if moved else "none"))
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
