"""Divisor-level invariants of a Q-factorial complete toric variety given by
a fan matrix V, a weight matrix Q and a choice of simplicial fan.

The class group is the quotient of the ray-divisor lattice by the row
lattice of V; its free part is identified with Z^r through the generators
read off the Hermite transform of Q^T.  In that identification the Picard
subgroup is the intersection of the column lattices of the complementary
weight submatrices over all maximal cones, Cartier divisors are spanned by
an explicit block product, and the Cartier index of a divisor a is the order
of Q a in Z^r / Pic, read off its coordinates in the Picard basis.
``full_report`` validates its input once and derives each object once; the
public per-object functions validate the fan, then call the same cores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .matrix import (
    DomainError,
    GaleKitError,
    Mat,
    block_diag,
    det_exact,
    mat_vec,
    solve,
    submatrix_cols,
)
from .normal_forms import hnf
from .lattices import (
    Lattice,
    QuotientStructure,
    lattice_intersection,
    quotient_structure,
)
from .gale import gale_dual
from .fw import _classify_f, _is_w_reduced, classify_w
from .fans import Fan, _support_complete, enumerate_SF, fan_from_cones, is_fan


@dataclass(frozen=True)
class ToricReport:
    n: int
    r: int
    cl: QuotientStructure
    is_pws: bool
    cl_generators: Mat
    picard_basis: Mat
    cartier_basis: Mat
    delta_sigma: int
    cartier_indices: tuple[int, ...]


def class_group(V: Mat) -> QuotientStructure:
    """Isomorphism type of Z^(n+r) / (row lattice of V)."""
    L = Lattice.from_matrix(V)
    if L.rank < V.rows:
        raise DomainError("class_group requires full row rank")
    return quotient_structure(V.cols, L)


def torsion_via_Tn(V: Mat) -> QuotientStructure:
    """Torsion of the class group through the upper block of HNF(V^T)."""
    if V.rank() < V.rows:
        raise DomainError("torsion_via_Tn requires full row rank")
    return _upper_block(Lattice.from_matrix(V.transpose()))[1]


def _upper_block(col_lat: Lattice) -> tuple:
    """(T_n, Z^n / T_n), T_n the nonzero rows of HNF(V^T), from the column
    lattice of a V of full row rank n."""
    q = quotient_structure(col_lat.ambient_dim, col_lat)
    if q.free_rank:
        raise GaleKitError("upper HNF block of V^T is singular (unreachable)")
    return col_lat.basis_matrix(), q


def is_pws(V: Mat) -> tuple[bool, dict[str, bool]]:
    """Evaluate the four torsion-freeness conditions and require agreement:
    trivial torsion, identity HNF block and coprime maximal minors (|det T_n|
    = 1), all read off one HNF(V^T) = [T_n; 0], and a full column lattice
    (clause e of ``classify_f``, read off the same Hermite basis T_n)."""
    rep, col_lat = _classify_f(V)
    if not rep.is_f_matrix:
        raise DomainError("is_pws requires an F-matrix "
                          f"(violated clauses: {','.join(rep.violated)})")
    top, torsion = _upper_block(col_lat)
    cond = {
        "torsion_trivial": torsion.is_trivial,
        "hnf_identity_block": top == Mat.identity(V.rows),
        "column_lattice_full": "e" not in rep.violated,
        "coprime_minors": abs(top.det()) == 1,
    }
    values = set(cond.values())
    if len(values) > 1:
        raise GaleKitError(f"PWS conditions disagree: {cond} (internal invariant)")
    return values.pop(), cond


def cl_generators_full(Q: Mat) -> Mat:
    """The whole Hermite transform U_Q (class-group generators on top, a fan
    matrix below)."""
    r = Q.rows
    res = hnf(Q.transpose())
    expected = Mat([[int(i == j) for j in range(r)] for i in range(Q.cols)])
    if res.H != expected:
        raise DomainError("weight matrix is not of PWS type: "
                          "HNF(Q^T) is not (I | 0)")
    return res.U


def cl_generators(Q: Mat) -> Mat:
    """Rows expressing free generators of the class group in ray divisors:
    the upper r rows of the transform U with U @ Q^T in Hermite form."""
    full = cl_generators_full(Q)
    return Mat([full.row(i) for i in range(Q.rows)])


def weil_class(Q: Mat, a: Sequence[int]) -> tuple:
    """Class of the divisor with ray coefficients a, in the fixed basis."""
    return mat_vec(Q, a)


def _index_sets(fan: Fan) -> list[tuple[int, ...]]:
    m = fan.V.cols
    out = []
    for cone in fan.maximal_cones:
        chosen = set(cone.gens)
        out.append(tuple(j for j in range(1, m + 1) if j not in chosen))
    return out


def _check_fan(V: Mat, fan: Fan) -> None:
    if fan.V != V:
        raise DomainError("fan does not belong to the given matrix")
    if not fan.maximal_cones:
        raise DomainError("fan has no maximal cones")
    if any(len(c.gens) != V.rows for c in fan.maximal_cones):
        raise DomainError("maximal cones must have exactly n generators")
    used = {g for c in fan.maximal_cones for g in c.gens}
    if used != set(range(1, V.cols + 1)):
        raise DomainError("invalid fan: not every ray is used by a maximal cone")
    if not is_fan(V, fan.maximal_cones):
        raise DomainError("invalid fan: cones do not meet along faces")
    if not _support_complete(V, fan.cone_sets()):
        raise DomainError("invalid fan: support does not cover the column cone")


def picard_basis(Q: Mat, fan: Fan) -> Mat:
    """Basis (rows) of the Picard subgroup inside Z^r: intersection of the
    column lattices of the complementary weight submatrices."""
    _check_fan(gale_dual(Q), fan)
    return _picard_basis(Q, fan)


def _picard_basis(Q: Mat, fan: Fan) -> Mat:
    lattices = []
    for idx in _index_sets(fan):
        qi = submatrix_cols(Q, idx)
        lattices.append(Lattice.from_rows(qi.col_tuples(), Q.rows))
    inter = lattice_intersection(lattices)
    basis = inter.basis_matrix()
    if basis is None or inter.rank != Q.rows:
        raise GaleKitError("Picard lattice is not of full rank (unreachable "
                           "for simplicial complete fans)")
    if not basis.is_integral:
        raise GaleKitError("Picard basis is not integral (internal invariant)")
    return basis


def cartier_basis(B: Mat, U_Q: Mat) -> Mat:
    """Rows spanning the Cartier subgroup inside the ray-divisor lattice:
    blockdiag(B, I_n) @ U_Q."""
    r = B.rows
    if B.cols != r:
        raise DomainError("Picard basis must be square")
    total = U_Q.rows
    if U_Q.cols != total or total <= r:
        raise DomainError("transform must be square of size n + r with n >= 1")
    return block_diag(B, Mat.identity(total - r)) @ U_Q


def delta_sigma(Q: Mat, fan: Fan) -> int:
    """lcm of |det| of the complementary weight submatrices over all maximal
    cones; multiplies every ray divisor into a Cartier divisor."""
    _check_fan(gale_dual(Q), fan)
    cb = cartier_basis(_picard_basis(Q, fan), cl_generators_full(Q))
    return _delta_sigma(Q, fan, cb)


def _delta_sigma(Q: Mat, fan: Fan, cb: Mat) -> int:
    """delta_sigma, checked against the Cartier basis cb of the same fan."""
    value = 1
    for idx in _index_sets(fan):
        d = abs(det_exact(submatrix_cols(Q, idx)))
        if d == 0:
            raise DomainError("degenerate maximal cone: complementary "
                              "weight submatrix is singular")
        value = value * d // math.gcd(value, d)
    lat = Lattice.from_matrix(cb)
    for j in range(Q.cols):
        vec = tuple(value * int(t == j) for t in range(Q.cols))
        if vec not in lat:
            raise GaleKitError("delta_sigma multiple is not Cartier "
                               "(internal invariant)")
    return value


def cartier_index(V: Mat, fan: Fan, a: Sequence[int]) -> int:
    """Least k >= 1 such that k*a gives integral per-cone linear data, read
    on the fan side (V may have class-group torsion): for each maximal cone
    the square system m . v_j = a_j (j in the cone) has a unique rational
    solution; k is the lcm over cones of the denominators in those solutions.
    """
    if len(a) != V.cols:
        raise DomainError("divisor coefficient length mismatch")
    _check_fan(V, fan)
    k = 1
    for cone in fan.maximal_cones:
        sub = V.take_cols([g - 1 for g in cone.gens])
        sol = solve(sub.transpose(), Mat([[a[g - 1]] for g in cone.gens]))
        if sol is None:
            raise DomainError("degenerate cone in cartier_index")
        k = math.lcm(k, *(x.denominator for x in sol.col(0)))
    return k


def full_report(Q: "Mat | None" = None, V: "Mat | None" = None,
                fan: "Fan | Sequence[Sequence[int]] | None" = None,
                fan_index: "int | None" = None, cap: int = 10) -> ToricReport:
    """Aggregate report for a poly weighted space given either a reduced
    weight matrix Q or a torsion-free fan matrix V, plus a fan choice.

    The fan may be passed explicitly (Fan or cone index sets) or selected by
    1-based ``fan_index`` among the enumerated fans; when the configuration
    admits a single fan it is chosen automatically.

    Validation and every derivation happen once.  A torsion-free V has a
    saturated row lattice, so it serves as the Gale dual of its own Q.  The
    Cartier index of e_j is the order of Q_j in Z^r / Pic: the lcm of the
    denominators of its Picard coordinates (one r x r solve for all j).
    """
    if (Q is None) == (V is None):
        raise DomainError("provide exactly one of Q or V")
    if Q is not None:
        wrep = classify_w(Q)
        if not wrep.is_w_matrix:
            raise DomainError("input is not a W-matrix "
                              f"(violated clauses: {','.join(wrep.violated)})")
        V = gale_dual(Q)
        if not _is_w_reduced(Q, V):
            raise DomainError("weight matrix is not reduced; "
                              "run reduce-w and retry")
        if not is_pws(V)[0]:
            raise GaleKitError("Gale dual of a W-matrix has class-group "
                               "torsion (internal invariant)")
    else:
        if not is_pws(V)[0]:
            raise DomainError("fan matrix has class-group torsion: only "
                              "torsion-free (CF) fan matrices are supported here")
        Q = gale_dual(V)
        if not classify_w(Q).is_w_matrix:
            raise GaleKitError("Gale dual of an F-matrix is not a W-matrix "
                               "(internal invariant)")
        if not _is_w_reduced(Q, V):
            raise DomainError("derived weight matrix is not reduced; "
                              "run reduce-w and retry")

    if fan is None:
        fans = enumerate_SF(V, cap=cap)
        if fan_index is None:
            if len(fans) != 1:
                raise DomainError(f"{len(fans)} fans available; select one "
                                  "with a 1-based fan index")
            chosen = fans[0]
        else:
            if not 1 <= fan_index <= len(fans):
                raise DomainError(f"fan index {fan_index} out of range "
                                  f"1..{len(fans)}")
            chosen = fans[fan_index - 1]
    elif isinstance(fan, Fan):
        chosen = fan
    else:
        chosen = fan_from_cones(V, fan)
    _check_fan(V, chosen)

    n, r = V.rows, Q.rows
    cl = QuotientStructure(r)  # is_pws: Cl is torsion-free, so Cl = Z^r
    u_full = cl_generators_full(Q)
    gens = Mat([u_full.row(i) for i in range(r)])
    b = _picard_basis(Q, chosen)
    c = cartier_basis(b, u_full)
    delta = _delta_sigma(Q, chosen, c)
    coords = solve(b.transpose(), Q)
    if coords is None:
        raise GaleKitError("Weil classes have no Picard coordinates "
                           "(internal invariant)")
    indices = tuple(math.lcm(*(x.denominator for x in col))
                    for col in coords.col_tuples())

    _assert_report_invariants(Q, V, gens, b, c, delta)
    return ToricReport(n=n, r=r, cl=cl, is_pws=True, cl_generators=gens,
                       picard_basis=b, cartier_basis=c, delta_sigma=delta,
                       cartier_indices=indices)


def _assert_report_invariants(Q: Mat, V: Mat, gens: Mat, b: Mat, c: Mat,
                              delta: int) -> None:
    r, n = Q.rows, V.rows
    ident = Mat.identity(r)
    if Q @ gens.transpose() != ident:
        raise GaleKitError("class-group generators do not invert Q "
                           "(internal invariant)")
    prod = Q @ c.transpose()
    expect = [[0] * (n + r) for _ in range(r)]
    bt = b.transpose()
    for i in range(r):
        for j in range(r):
            expect[i][j] = bt[i, j]
    if prod != Mat(expect):
        raise GaleKitError("Cartier rows do not map onto the Picard basis "
                           "(internal invariant)")
    index = abs(det_exact(b))
    if abs(det_exact(c)) != index:
        raise GaleKitError("Cartier index does not match Picard index "
                           "(internal invariant)")
    if index % delta:
        raise GaleKitError("delta does not divide the Picard index "
                           "(internal invariant)")
