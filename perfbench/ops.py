"""What each corpus instance runs, and how its output is checked.

``run`` is the only code inside the timed region.  Checking happens after
the timer stops: the digest of every output's canonical parts (those every
correct answer shares, see ``canonical``) is compared with the digest
recorded at the reference commit (``pool.json``), and ``verify`` adds checks
that do not rely on those digests: the paper's anchor values, theorems
relating the outputs, and the defining identities of the parts with more
than one correct value, computed here with plain Python arithmetic.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import fields, is_dataclass
from fractions import Fraction

DOMAIN_ERROR = "DomainError"

# Worked-example values of the paper (acceptance criterion 1).
WORKED_REPORT = {
    "cl_generators": [[1, 0, 0, 0], [-1, 1, 0, 0]],
    "picard_basis": [[2, 0], [0, 2]],
    "cartier_basis": [[2, 0, 0, 0], [-2, 2, 0, 0], [1, -1, 1, 0], [0, 0, 2, -1]],
    "delta_sigma": 2,
    "cartier_indices": (2, 2, 2, 1),
}
# Fan counts of acceptance criterion 3, checked once per run.
FAN_COUNT_ANCHORS = [
    ([[1, 0, -1], [0, 1, -1]], 1),
    ([[1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 1]], 2),
]
V6_FANS = 8


def prepare(gk, kind: str, inputs: dict) -> tuple:
    """Library objects for an instance; built before the timer starts."""
    if kind in ("fans", "fw_candidate"):
        return (gk.Mat(inputs["V"]),)
    if kind == "report":
        return gk.Mat(inputs["Q"]), inputs["fan"]
    if kind == "w_reduce":
        return (gk.Mat(inputs["Q"]),)
    if kind == "lattice":
        return gk.Mat(inputs["A"]), gk.Mat(inputs["B"])
    raise ValueError(f"unknown kind {kind!r}")


def _fw_candidate(gk, V):
    f = gk.classify_f(V)
    Q = gk.gale_dual(V)
    return f, Q, gk.classify_w(Q)


def _w_reduce(gk, Q):
    R = gk.w_reduce(Q)
    return R, gk.positivize(R)


def _lattice(gk, A, B):
    LA = gk.Lattice.from_matrix(A)
    return (gk.hnf(A), gk.snf(A), gk.gale_dual(A),
            gk.lattice_intersection([LA, gk.Lattice.from_matrix(B)]),
            gk.quotient_structure(A.cols, LA))


OPS = {
    "fans": lambda gk, V: gk.enumerate_SF(V),
    "report": lambda gk, Q, fan: gk.full_report(Q=Q, fan=fan),
    "fw_candidate": _fw_candidate,
    "w_reduce": _w_reduce,
    "lattice": _lattice,
}


def run(gk, kind: str, args: tuple):
    """Run one instance; a DomainError is an output like any other and is
    right exactly when the reference recorded one."""
    try:
        return OPS[kind](gk, *args)
    except gk.DomainError:
        return DOMAIN_ERROR


def canon(obj):
    """JSON-ready form of a library result, identical for equal results."""
    name = type(obj).__name__
    if name == "Mat":
        return canon(obj.row_tuples())
    if name == "Lattice":
        return {"ambient": obj.ambient_dim, "basis": canon(obj.basis)}
    if is_dataclass(obj):
        return {f.name: canon(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {key: canon(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canon(x) for x in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    raise TypeError(f"cannot canonicalize {name}")


def hermite(rows) -> list:
    """Row Hermite form of the lattice spanned by integer rows: the one
    basis of that lattice that any correct output shares, whichever basis
    the library returned."""
    m = [list(r) for r in rows if any(r)]
    out, width = [], len(m[0]) if m else 0
    for j in range(width):
        while True:
            live = [r for r in m if r[j]]
            if len(live) <= 1:
                break
            piv = min(live, key=lambda r: abs(r[j]))
            for r in live:
                if r is not piv:
                    q = r[j] // piv[j]
                    r[:] = [x - q * y for x, y in zip(r, piv)]
            m = [r for r in m if any(r)]
        if live:
            piv = live[0]
            if piv[j] < 0:
                piv[:] = [-x for x in piv]
            m.remove(piv)
            for r in out:
                q = r[j] // piv[j]
                r[:] = [x - q * y for x, y in zip(r, piv)]
            out.append(piv)
    return out


def in_lattice(vec, basis: list) -> bool:
    """Whether an integer vector lies in the lattice of a Hermite basis."""
    v = list(vec)
    for row in basis:
        j = next(i for i, x in enumerate(row) if x)
        if v[j] % row[j]:
            return False
        q = v[j] // row[j]
        v = [x - q * y for x, y in zip(v, row)]
    return not any(v)


def _rows(mat) -> list:
    return [list(r) for r in mat.row_tuples()]


def canonical(kind: str, out):
    """The parts of an output that every correct answer shares.  Parts with
    more than one correct value (transforms, bases of a lattice, positivity
    witnesses, the order of the fans) are left out or replaced by the
    Hermite basis of the lattice they span; ``verify`` checks them instead."""
    if isinstance(out, str):
        return out
    if kind == "fans":
        return sorted(fan.cone_sets() for fan in out)
    if kind == "report":
        return {"n": out.n, "r": out.r, "cl": canon(out.cl), "is_pws": out.is_pws,
                "picard": hermite(out.picard_basis.row_tuples()),
                "cartier": hermite(out.cartier_basis.row_tuples()),
                "delta_sigma": out.delta_sigma, "cartier_indices": out.cartier_indices}
    if kind == "fw_candidate":
        f, Q, w = out
        return {"f": canon(f), "Q": hermite(Q.row_tuples()),
                "w": [w.is_w_matrix, w.violated]}
    if kind == "w_reduce":
        R, P = out
        return {"R": hermite(R.row_tuples()), "P": hermite(P.row_tuples())}
    if kind == "lattice":
        h, s, q, inter, quo = out
        return {"H": _rows(h.H), "pivots": h.pivot_map, "S": _rows(s.S),
                "factors": s.factors, "Q": hermite(q.row_tuples()),
                "intersection": [inter.ambient_dim, hermite(inter.basis)],
                "quotient": canon(quo)}
    raise ValueError(f"unknown kind {kind!r}")


def digest(kind: str, output) -> str:
    """Hash of the canonical parts of an output."""
    data = json.dumps(canon(canonical(kind, output)), separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(data.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# independent checks

def _matmul(a: list, b: list) -> list:
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def _transpose(a) -> list:
    return [list(c) for c in zip(*a)]


def _det(rows) -> Fraction:
    """Determinant by rational Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    n, det = len(m), Fraction(1)
    for j in range(n):
        piv = next((i for i in range(j, n) if m[i][j]), None)
        if piv is None:
            return Fraction(0)
        if piv != j:
            m[j], m[piv] = m[piv], m[j]
            det = -det
        det *= m[j][j]
        for i in range(j + 1, n):
            if m[i][j]:
                c = m[i][j] / m[j][j]
                m[i] = [x - c * y for x, y in zip(m[i], m[j])]
    return det


def _is_hermite(h: list, pivots: tuple) -> bool:
    """Row Hermite form: nonzero rows on top with strictly increasing
    positive pivots, zeros below each pivot, reduced entries above it."""
    rank = len(pivots)
    if any(any(row) for row in h[rank:]):
        return False
    prev = 0
    for i, p in enumerate(pivots):
        row = h[i]
        if p <= prev or any(row[:p - 1]) or row[p - 1] <= 0:
            return False
        if any(not 0 <= h[t][p - 1] < row[p - 1] for t in range(i)):
            return False
        if any(h[t][p - 1] for t in range(i + 1, len(h))):
            return False
        prev = p
    return True


def _check_lattice(args, out) -> list:
    A, _ = args
    a = _rows(A)
    h, s, q, _, quo = out
    H, U = _rows(h.H), _rows(h.U)
    problems = []
    if _matmul(U, a) != H or abs(_det(U)) != 1 or not _is_hermite(H, h.pivot_map):
        problems.append("hnf: U*A = H with |det U| = 1 in Hermite form fails")
    S = _rows(s.S)
    alpha, beta = _rows(s.alpha), _rows(s.beta)
    diag = [S[i][i] for i in range(min(len(S), len(S[0])))]
    off = any(S[i][j] for i in range(len(S)) for j in range(len(S[0])) if i != j)
    nz = [d for d in diag if d]
    chain = all(d > 0 for d in nz) and all(b % a == 0 for a, b in zip(nz, nz[1:]))
    if (_matmul(_matmul(alpha, a), beta) != S or off or not chain
            or abs(_det(alpha)) != 1 or abs(_det(beta)) != 1):
        problems.append("snf: alpha*A*beta = S diagonal chain with unimodular transforms fails")
    Qr = _rows(q)
    if len(Qr) != len(a[0]) - len(a) or any(any(row) for row in _matmul(Qr, _transpose(a))):
        problems.append("gale_dual: Q*A^T = 0 with n+r-n rows fails")
    if quo.free_rank != len(a[0]) - h.rank:
        problems.append("quotient_structure: free rank differs from m - rank")
    return problems


def verify(family: str, kind: str, args: tuple, out) -> list:
    """Digest-independent problems with one output (empty when fine)."""
    if isinstance(out, str):
        return []
    if kind == "fans":
        V = args[0]
        s = V.cols
        problems = []
        if family == "V6" and len(out) != V6_FANS:
            problems.append(f"V6 has {len(out)} fans, expected {V6_FANS}")
        # a complete simplicial fan in R^3 on all s rays triangulates the
        # sphere: 2s - 4 cones (Euler), every ray used
        for fan in out:
            cones = fan.cone_sets()
            if len(cones) != 2 * s - 4 or {g for c in cones for g in c} != set(range(1, s + 1)):
                problems.append("fan is not a triangulated sphere on all rays")
                break
        if len({fan.cone_sets() for fan in out}) != len(out):
            problems.append("duplicate fans")
        return problems
    if kind == "report":
        Q, fan = args
        problems = []
        if family == "worked" and any(canon(getattr(out, k)) != canon(v)
                                      for k, v in WORKED_REPORT.items()):
            problems.append("worked example differs from the paper's values")
        if not out.is_pws or out.cl.torsion_factors or out.cl.free_rank != Q.rows:
            problems.append("class group of a PWS must be free of rank r")
        if fan is not None:
            # delta is the lcm over maximal cones of |det| of the
            # complementary weight columns
            rows = Q.row_tuples()
            m = Q.cols
            delta = 1
            for cone in fan:
                idx = [j for j in range(m) if j + 1 not in cone]
                delta = math.lcm(delta, int(abs(_det([[row[j] for j in idx] for row in rows]))))
            if out.delta_sigma != delta:
                problems.append("delta_sigma differs from the lcm of complementary minors")
        if any(out.delta_sigma % k for k in out.cartier_indices):
            problems.append("a Cartier index does not divide delta_sigma")
        identity = [[int(i == j) for j in range(Q.rows)] for i in range(Q.rows)]
        if _matmul(_rows(Q), _transpose(_rows(out.cl_generators))) != identity:
            problems.append("class-group generators do not invert Q")
        return problems
    if kind == "fw_candidate":
        V = args[0]
        f, Q, w = out
        problems = []
        product = _matmul(Q.row_tuples(), _transpose(V.row_tuples()))
        if Q.rows != V.cols - V.rows or any(any(row) for row in product):
            problems.append("gale_dual: Q*V^T = 0 fails")
        if f.is_f_matrix != w.is_w_matrix:
            problems.append("F-matrix and W-matrix verdicts of a Gale pair differ")
        basis = hermite(Q.row_tuples())
        support = [j for j in range(Q.cols) if any(row[j] for row in basis)]
        witness = w.positive_witness
        if ("c" in w.violated or not basis) != (witness is None):
            problems.append("classify_w: a positive witness exactly when clause c holds fails")
        elif witness is not None and (not in_lattice(witness, basis)
                                      or any(witness[j] <= 0 for j in support)):
            problems.append("classify_w: witness is not positive in the row lattice of Q")
        return problems
    if kind == "w_reduce":
        R, P = out
        rows = P.row_tuples()
        if any(x < 0 for row in rows for x in row) or any(x <= 0 for x in rows[0]):
            return ["positivize output is not nonnegative with a positive first row"]
        if hermite(rows) != hermite(R.row_tuples()):
            return ["positivize changed the row lattice"]
        return []
    if kind == "lattice":
        return _check_lattice(args, out)
    raise ValueError(f"unknown kind {kind!r}")


def check_anchors(gk) -> list:
    """Fan-count anchors of the paper, run once per run outside the timer."""
    problems = []
    for V, count in FAN_COUNT_ANCHORS:
        got = len(gk.enumerate_SF(gk.Mat(V)))
        if got != count:
            problems.append(f"fan count {got}, expected {count}")
    return problems
