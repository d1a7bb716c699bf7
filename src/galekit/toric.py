"""Divisor-level invariants of a Q-factorial complete toric variety given by
a fan matrix V, a weight matrix Q and a choice of simplicial fan.

The class group is the quotient of the ray-divisor lattice by the row
lattice of V; its free part is identified with Z^r through the generators
read off the Hermite transform of Q^T.  In that identification the Picard
subgroup is the intersection of the column lattices of the complementary
weight submatrices over all maximal cones, Cartier divisors are spanned by
an explicit block product, and the Cartier index of a divisor a is the order
of Q a in Z^r / Pic, read off its coordinates in the Picard basis.  One
per-cone table, d = det and d times the inverse of each square block, gives
every determinant and inverse here: on the weight blocks Q^I, delta_Sigma,
the lcm of the |d|, and Pic, the dual of the sum of the inverses modulo
delta_Sigma; on the fan blocks V_sigma, ``cartier_index``, which also serves
V with class-group torsion; on the Picard basis b, the Cartier indices and
|det b|; on the Cartier basis c, |det c| and that delta_Sigma e_j is Cartier.
``full_report`` validates its input once and derives each object once (one
``hnf(Q^T)`` gives U_Q and ``classify_w``'s kernel, from Q the dual V, whose
class group is read off its column lattice; only a fan passed in is checked);
the public per-object functions validate the fan, then call the same cores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from typing import Sequence

from .matrix import (
    DomainError,
    GaleKitError,
    Mat,
    _block_inverse,
    _int_row,
    _norm_entry,
    _norm_rows,
    _outside,
)
from .normal_forms import HnfResult, _hermite_insert, _inverse_columns, hnf
from .lattices import Lattice, QuotientStructure, quotient_structure
from .gale import _gale_dual, gale_dual
from .fw import _classify_f, _classify_w, _is_w_reduced
from .fans import DEFAULT_CAP, Fan, _given_fan, _select_fan


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
    col_lat = Lattice.from_matrix(V.transpose())
    if col_lat.rank < V.rows:  # the column lattice has the rank of V
        raise DomainError("torsion_via_Tn requires full row rank")
    return _upper_block(col_lat)[1]


def _upper_block(col_lat: Lattice) -> tuple:
    """(T_n, Z^n / T_n), T_n the nonzero rows of HNF(V^T), from the column
    lattice of a V of full row rank n."""
    q = quotient_structure(col_lat.ambient_dim, col_lat)
    if q.free_rank:
        raise GaleKitError("upper HNF block of V^T is singular (internal invariant)")
    return col_lat.basis_matrix(), q


def _columns_span(V: Mat) -> bool:
    """Whether the columns of V span Z^n, i.e. HNF(V^T) = [I; 0]: for V of
    full row rank n, the class group Z^(n+r) / L_r(V) is torsion-free."""
    col_lat = Lattice.from_rows(V.col_tuples(), V.rows)
    return col_lat.basis == Mat.identity(V.rows).row_tuples()


def is_pws(V: Mat) -> tuple[bool, dict[str, bool]]:
    """Evaluate the four torsion-freeness conditions and require agreement:
    trivial torsion, identity HNF block and coprime maximal minors (|det T_n|
    = 1, the product of the pivots of the triangular T_n), all read off one
    HNF(V^T) = [T_n; 0], and a full column lattice (clause e of
    ``classify_f``, read off the same Hermite basis T_n)."""
    return _pws_conditions(V, "is_pws requires an F-matrix")


def _pws_conditions(V: Mat, refusal: str) -> tuple[bool, dict[str, bool]]:
    """``is_pws``, refusing a V that is not an F-matrix with ``refusal``."""
    rep, col_lat = _classify_f(V)
    if not rep.is_f_matrix:
        raise DomainError(f"{refusal} (violated clauses: {','.join(rep.violated)})")
    top, torsion = _upper_block(col_lat)
    cond = {
        "torsion_trivial": torsion.is_trivial,
        "hnf_identity_block": top == Mat.identity(V.rows),
        "column_lattice_full": "e" not in rep.violated,
        "coprime_minors": math.prod(top[i, i] for i in range(V.rows)) == 1,
    }
    values = set(cond.values())
    if len(values) > 1:
        raise GaleKitError(f"PWS conditions disagree: {cond} (internal invariant)")
    return values.pop(), cond


def cl_generators_full(Q: Mat) -> Mat:
    """The whole Hermite transform U_Q (class-group generators on top, a fan
    matrix below)."""
    return _pws_transform(hnf(Q.transpose()), Q.rows)


_NOT_PWS = "weight matrix is not of PWS type: HNF(Q^T) is not (I | 0)"


def _pws_transform(res: HnfResult, r: int) -> Mat:
    """U_Q from res = ``hnf(Q^T)`` for a Q with r rows, whose H must be
    (I | 0)^T."""
    expected = Mat([[int(i == j) for j in range(r)] for i in range(res.H.rows)])
    if res.H != expected:
        raise DomainError(_NOT_PWS)
    return res.U


def cl_generators(Q: Mat) -> Mat:
    """Rows expressing free generators of the class group in ray divisors:
    the upper r rows of the transform U with U @ Q^T in Hermite form."""
    full = cl_generators_full(Q)
    return Mat([full.row(i) for i in range(Q.rows)])


def weil_class(Q: Mat, a: Sequence[int]) -> tuple:
    """Class of the divisor with ray coefficients a, in the fixed basis; the
    coefficients are checked, and the class entries stored, as ``Mat``'s
    entries are (an integral entry is an int)."""
    a = _norm_rows([a])[0][0]
    if len(a) != Q.cols:
        raise DomainError("vector length mismatch")
    return tuple(_norm_entry(sum(map(mul, row, a))) for row in Q.row_tuples())


def _checked_pws(Q: Mat, fan: "Fan | Sequence[Sequence[int]]") -> tuple[Fan, Mat]:
    """(fan, U_Q) for a Q of PWS type and a fan given for its Gale dual,
    from one ``hnf(Q^T)``: the Gale dual's checks, then the fan's, then
    the PWS test of Q."""
    qt = hnf(Q.transpose())  # its rows of U past the rank are ker(Q)
    fan = _given_fan(_gale_dual(Q, list(qt.U.row_tuples()[qt.rank:])), fan)
    return fan, _pws_transform(qt, Q.rows)


def picard_basis(Q: Mat, fan: "Fan | Sequence[Sequence[int]]") -> Mat:
    """Basis (rows) of the Picard subgroup inside Z^r, the intersection of
    the complementary blocks' column lattices, read off their inverses, for
    a Q of PWS type."""
    return _picard_basis(Q, _checked_pws(Q, fan)[0])[0]


def _cone_table(rows: Sequence[Sequence[int]], blocks: Sequence[Sequence[int]],
                ) -> list[tuple[int, list[list[int]]]]:
    """Per block of 0-based columns, (d = +-det M, d M^-1) for the square
    integer matrix M = ``rows`` on those columns (``_block_inverse``, as for
    ``Mat.inverse``).  The weight side passes Q and each cone's complement,
    the fan side V and each cone; by Gale duality a block is singular on one
    side exactly when it is on the other.  The Picard basis b (as b^T) and
    the Cartier basis c are one block each."""
    table = [_block_inverse(rows, block) for block in blocks]
    if None in table:
        raise GaleKitError("Picard lattice is not of full rank on a "
                           "simplicial complete fan (internal invariant)")
    return table


def _picard_basis(Q: Mat, fan: Fan) -> tuple[Mat, int]:
    """(Picard basis, delta_sigma = lcm |det Q^I|).  delta Pic* contains
    delta Z^r and is the sum of the row lattices of delta (Q^I)^-1, so Pic
    is spanned by the integral vectors y with delta (Q^I)^-1 y = 0 mod
    delta for every cone (``_inverse_columns``)."""
    r = Q.rows
    table = _cone_table(Q.row_tuples(), [
        _outside(cone.gens, Q.cols) for cone in fan.maximal_cones])
    delta = math.lcm(*(d for d, _ in table))
    ys = _inverse_columns([[delta // d * x for x in row] for d, adj in table
                           for row in adj], delta, r)
    return Mat(_hermite_insert(ys, r)[0]), delta


def cartier_basis(B: Mat, U_Q: Mat) -> Mat:
    """Rows spanning the Cartier subgroup inside the ray-divisor lattice:
    blockdiag(B, I_n) @ U_Q, that is B times the first r rows of U_Q,
    followed by its other rows."""
    r = B.rows
    if B.cols != r:
        raise DomainError("Picard basis must be square")
    rows = U_Q.row_tuples()
    if U_Q.cols != len(rows) or len(rows) <= r:
        raise DomainError("transform must be square of size n + r with n >= 1")
    return Mat((B @ Mat(rows[:r])).row_tuples() + rows[r:])


def delta_sigma(Q: Mat, fan: "Fan | Sequence[Sequence[int]]") -> int:
    """lcm of |det| of the complementary weight submatrices over all maximal
    cones; multiplies every ray divisor into a Cartier divisor."""
    fan, u_full = _checked_pws(Q, fan)
    b, delta = _picard_basis(Q, fan)
    _check_delta_sigma(delta, cartier_basis(b, u_full))
    return delta


def _check_delta_sigma(delta: int, c: Mat) -> int:
    """+-det c, once delta times every ray divisor is shown to lie in the row
    lattice of the Cartier basis c: delta c^-1 is integral, that is delta x
    = 0 mod d for every entry x of c's table entry (d, d c^-1).  A singular c
    (impossible for a Picard basis and a unimodular U_Q) raises the table's
    internal invariant."""
    (d, adj), = _cone_table(c.row_tuples(), [range(c.cols)])
    if any(delta * x % d for row in adj for x in row):
        raise GaleKitError("delta_sigma multiple is not Cartier "
                           "(internal invariant)")
    return d


def cartier_index(V: Mat, fan: "Fan | Sequence[Sequence[int]]",
                  a: Sequence[int]) -> int:
    """Least k >= 1 such that k*a gives integral per-cone linear data, read
    on the fan side (V may have class-group torsion): for each maximal cone
    the square system m . v_j = a_j (j in the cone) has a unique rational
    solution; k is the lcm over cones of the denominators in those solutions.
    The coefficients are checked as ``Mat``'s entries are.
    """
    return _cartier_index(V, _given_fan(V, fan), _norm_rows([a])[0][0])


def _cartier_index(V: Mat, fan: Fan, a: Sequence[int]) -> int:
    """``cartier_index`` on a fan known to be valid, such as one that
    ``enumerate_SF`` returned.  Per cone the solution is
    m = a_sigma V_sigma^-1.  The table runs on the integer rows D V, D the
    lcm of V's denominators, and gives (d, d (D V_sigma)^-1), so
    d m = D sum_i a_(g_i) (d (D V_sigma)^-1)_i and the denominators of m
    have lcm |d| / gcd(d, d m); a rational a is scaled to integers by the
    lcm e of its denominators, which multiplies d."""
    if len(a) != V.cols:
        raise DomainError("divisor coefficient length mismatch")
    scale, rows = V.int_scaled()
    e, a = _int_row(a)
    cones = [[g - 1 for g in cone.gens] for cone in fan.maximal_cones]
    k = 1
    for cone, (d, adj) in zip(cones, _cone_table(rows, cones)):
        dm = [scale * sum(a[j] * x for j, x in zip(cone, col)) for col in zip(*adj)]
        k = math.lcm(k, abs(d * e) // math.gcd(d * e, *dm))
    return k


def full_report(Q: "Mat | None" = None, V: "Mat | None" = None,
                fan: "Fan | Sequence[Sequence[int]] | None" = None,
                fan_index: "int | None" = None,
                cap: int = DEFAULT_CAP) -> ToricReport:
    """Aggregate report for a poly weighted space given either a reduced
    weight matrix Q or a torsion-free fan matrix V, plus a fan choice.

    The fan may be passed explicitly (Fan or cone index sets, on any fan
    matrix with the row lattice of V) or selected by 1-based ``fan_index``
    among the enumerated fans, not both; a configuration with a single fan
    needs neither (``fans._select_fan``).

    Validation and every derivation happen once.  A torsion-free V has a
    saturated row lattice, so it serves as the Gale dual of its own Q.  Both
    inputs share one W-matrix check of Q: a DomainError from Q, an internal
    invariant from V.  An enumerated fan is valid by construction; a fan
    passed in is checked.  The Cartier index of e_j is the order of Q_j in
    Z^r / Pic: the lcm of the denominators of its Picard coordinates
    x_j = (b^T)^-1 Q_j, which is |d| / gcd(d, d x_j) for the one-block
    ``_cone_table`` entry (d, d (b^T)^-1) of the Picard basis b.
    """
    if (Q is None) == (V is None):
        raise DomainError("provide exactly one of Q or V")
    derived = Q is None
    if derived:  # worded as the W-matrix check of Q is
        if not _pws_conditions(V, "input is not an F-matrix")[0]:
            raise DomainError("fan matrix has class-group torsion: only "
                              "torsion-free (CF) fan matrices are supported here")
        Q = gale_dual(V)
    qt = hnf(Q.transpose())  # its rows of U past the rank are ker(Q)
    wrep, kernel = _classify_w(Q, list(qt.U.row_tuples()[qt.rank:]))
    if not wrep.is_w_matrix:
        if derived:
            raise GaleKitError("Gale dual of an F-matrix is not a W-matrix "
                               "(internal invariant)")
        raise DomainError("input is not a W-matrix "
                          f"(violated clauses: {','.join(wrep.violated)})")
    if not derived:
        V = Mat(kernel)  # the Gale dual of Q, read off clause c's kernel
        if not _columns_span(V):
            raise GaleKitError("Gale dual of a W-matrix has class-group "
                               "torsion (internal invariant)")
    if not _is_w_reduced(Q, V):
        raise DomainError(("derived " if derived else "") + "weight matrix "
                          "is not reduced; run reduce-w and retry")
    chosen = _select_fan(V, fan, fan_index, cap)

    n, r = V.rows, Q.rows
    cl = QuotientStructure(r)  # Cl is torsion-free, so Cl = Z^r
    u_full = _pws_transform(qt, r)
    gens = Mat([u_full.row(i) for i in range(r)])
    b, delta = _picard_basis(Q, chosen)
    c = cartier_basis(b, u_full)
    c_det = _check_delta_sigma(delta, c)
    (d, adj), = _cone_table(b.col_tuples(), [range(r)])
    indices = tuple(abs(d) // math.gcd(d, *(sum(map(mul, row, q)) for row in adj))
                    for q in Q.col_tuples())

    _assert_report_invariants(Q, V, gens, b, c, delta, abs(d), abs(c_det))
    return ToricReport(n=n, r=r, cl=cl, is_pws=True, cl_generators=gens,
                       picard_basis=b, cartier_basis=c, delta_sigma=delta,
                       cartier_indices=indices)


def _assert_report_invariants(Q: Mat, V: Mat, gens: Mat, b: Mat, c: Mat,
                              delta: int, index: int, c_index: int) -> None:
    """index = |det b| and c_index = |det c|, off their table entries."""
    if Q @ gens.transpose() != Mat.identity(Q.rows):
        raise GaleKitError("class-group generators do not invert Q "
                           "(internal invariant)")
    if Q @ c.transpose() != Mat([col + (0,) * V.rows for col in b.col_tuples()]):
        raise GaleKitError("Cartier rows do not map onto the Picard basis "
                           "(internal invariant)")
    if c_index != index:
        raise GaleKitError("Cartier index does not match Picard index "
                           "(internal invariant)")
    if index % delta:
        raise GaleKitError("delta does not divide the Picard index "
                           "(internal invariant)")
