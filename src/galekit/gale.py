"""Gale duality for integer matrices.

The Gale dual of a full-row-rank d x (d+e) integer matrix A is an integer
e x (d+e) matrix whose row lattice is exactly the kernel of A (as a map on
column vectors).  It is well defined up to left unimodular multiplication;
we return the Hermite-canonical choice, so identical inputs always produce
identical duals and comparisons against other conventions are row-lattice
comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass

from .matrix import (
    DomainError, GaleKitError, Mat, check_index_set, det_exact, solve, submatrix_cols)
from .lattices import (
    Lattice,
    QuotientStructure,
    gcd_max_minors,
    quotient_structure,
)
from .normal_forms import left_kernel_rows


def gale_dual(A: Mat) -> Mat:
    """Canonical Gale dual: Hermite basis of ker(A) as rows.  The rank of A
    is read off the same elimination: cols minus the kernel's dimension."""
    return _gale_dual(A)


def _gale_dual(A: Mat, kernel: "list[tuple] | None" = None) -> Mat:
    """``gale_dual(A)``.  A caller that holds the Hermite basis of ker(A)
    (the rows of ``hnf(A^T).U`` past the rank) passes it as ``kernel``."""
    if not A.is_integral:
        raise DomainError("gale_dual requires an integer matrix")
    kern = left_kernel_rows(A.transpose()) if kernel is None else kernel
    if A.cols - len(kern) < A.rows:
        raise DomainError("gale_dual requires full row rank")
    if A.cols <= A.rows:
        raise DomainError("gale_dual requires more columns than rows")
    return Mat(kern)


def double_gale(A: Mat) -> Mat:
    """Gale dual applied twice; row-lattice-equal to A iff A has no cotorsion."""
    return gale_dual(gale_dual(A))


@dataclass(frozen=True)
class GaleDualPair:
    """A fan/weight matrix pair (V, Q) with L_r(Q) = ker(V), validated once
    at construction; the duality checks below take it as their input."""

    V: Mat
    Q: Mat

    def __post_init__(self):
        v, q = self.V, self.Q
        if not (v.is_integral and q.is_integral):
            raise DomainError("invalid pair: matrices must be integral")
        if v.cols != q.cols:
            raise DomainError("invalid pair: column counts differ")
        n, r = v.rows, q.rows
        if n + r != v.cols:
            raise DomainError("invalid pair: shapes are not n x (n+r) and r x (n+r)")
        kern = left_kernel_rows(v.transpose())
        q_lattice = Lattice.from_matrix(q)
        if v.cols - len(kern) != n or q_lattice.rank != r:
            raise DomainError("invalid pair: rank deficiency")
        if q_lattice != Lattice.from_rows(kern, v.cols):
            raise DomainError("invalid pair: rows of Q do not span ker(V)")

    @property
    def n(self) -> int:
        return self.V.rows

    @property
    def r(self) -> int:
        return self.Q.rows


def solve_left_factor(A: Mat, Q: Mat) -> "Mat | None":
    """alpha with A = alpha @ Q and integer entries, if one exists."""
    if A.cols != Q.cols:
        raise DomainError("column counts differ")
    x = solve(Q.transpose(), A.transpose())
    if x is None:
        return None
    alpha = x.transpose()
    return alpha if alpha.is_integral else None


def quotient_iso_check(pair: GaleDualPair, I,
                       ) -> tuple[QuotientStructure, QuotientStructure, bool]:
    """Both sides of the subgroup-quotient isomorphism attached to an index
    set I: Z^(n+r-k)/L_r(Q^I) on the left, L_c(V)/L_c(V_I) on the right."""
    V, Q = pair.V, pair.Q
    m = V.cols
    idx = check_index_set(I, m)
    k = len(idx)

    if k == m:
        left = QuotientStructure(0, ())
    else:
        qi = submatrix_cols(Q, idx, complement=True) if k else Q
        left = quotient_structure(m - k, Lattice.from_matrix(qi))

    col_lattice = Lattice.from_rows(V.col_tuples(), V.rows)
    rho = col_lattice.rank
    if k == 0:
        right = QuotientStructure(rho, ())
    else:
        coord_rows = []
        for i in idx:
            coords = col_lattice.coordinates(V.col(i - 1))
            if coords is None:
                raise GaleKitError("column not in its own column lattice "
                                   "(internal invariant)")
            coord_rows.append(coords)
        right = quotient_structure(rho, Lattice.from_rows(coord_rows, rho))

    return left, right, left == right


def det_duality_check(pair: GaleDualPair, I) -> tuple[int, int, bool]:
    """[Z^n : L_c(V)] * |det Q^I| versus |det V_I| for |I| = n."""
    V, Q = pair.V, pair.Q
    idx = check_index_set(I, V.cols)
    if len(idx) != V.rows:
        raise DomainError(f"index set must have size n = {V.rows}")
    index = gcd_max_minors(V)
    lhs = index * abs(det_exact(submatrix_cols(Q, idx, complement=True)))
    rhs = abs(det_exact(submatrix_cols(V, idx)))
    return lhs, rhs, lhs == rhs
