"""Classification and reduction of candidate fan matrices (F) and weight
matrices (W).

F-side clauses: full rank, columns positively spanning the ambient space,
no zero columns, no repeated ray directions; the C refinement asks the
column lattice to be all of Z^n.  W-side clauses: full rank, no cotorsion,
a nonnegative row-lattice basis, no zero columns, no unit vectors and no
mixed-sign 2-sparse vectors in the row lattice.

Every feasibility question (positive spanning, cone membership, strictly
positive lattice vectors) is one linear program {x >= 0 : A x = b}, decided
by an exact phase-1 simplex with Bland's rule on a fraction-free integer
tableau (``matrix._nonneg_solve``).  A feasible answer comes with its point
x, an infeasible one with a Farkas certificate w (w A >= 0, w b < 0), and
both are re-checked exactly; no floating point and no tolerance anywhere.
Witnesses are one valid choice, not canonical ones.  ``positivize`` starts
from the strictly positive witness that ``classify_w`` already found.
Repeated ray directions (F clause d) are equal primitive columns; clause f
of the W-side is read off the Gale dual of the row lattice: it is violated
exactly when two of its columns have the same primitive vector (both zero
or positively proportional).
"""

from __future__ import annotations

from dataclasses import dataclass

from .matrix import (
    DomainError,
    GaleKitError,
    Mat,
    _nonneg_solve,
    solve,
    submatrix_cols,
    vec_gcd,
)
from .normal_forms import (
    basis_with_positive_first_row,
    left_kernel_rows,
    snf,
    strictly_positive_row_vector,
)
from .lattices import Lattice, _gcd_maximal_minors, has_cotorsion
from .gale import gale_dual


@dataclass(frozen=True)
class WMatrixReport:
    is_w_matrix: bool
    violated: tuple[str, ...]
    positive_witness: "tuple[int, ...] | None"


@dataclass(frozen=True)
class FMatrixReport:
    is_f_matrix: bool
    is_cf_matrix: bool
    violated: tuple[str, ...]


def _nonneg_combination(cols: list[tuple], target: tuple) -> "list | None":
    """Exact coefficients c >= 0 with sum(c_i * cols_i) = target, or None."""
    if not any(target):
        return [0] * len(cols)
    if not cols:
        return None
    x, _ = _nonneg_solve(list(zip(*cols)), target)
    return x


def is_f_complete(A: Mat) -> bool:
    """Do the columns of A positively span the whole ambient space?

    Criterion (Stiemke): full row rank and a linear relation A y = 0 with
    y > 0, i.e. some u >= 0 with A u = -A 1, decided by one exact simplex.
    """
    if not A.is_integral:
        raise DomainError("is_f_complete requires an integer matrix")
    if A.rank() < A.rows:
        return False
    rows = A.row_tuples()
    return _nonneg_solve(rows, [-sum(row) for row in rows])[0] is not None


def is_w_positive(A: Mat) -> tuple[bool, "tuple[int, ...] | None"]:
    """Whether the row lattice of A has a nonnegative basis, with a strictly
    positive witness vector when it does.

    Requires every column nonzero (the strict-positivity criterion breaks
    down otherwise).
    """
    if not A.is_integral:
        raise DomainError("is_w_positive requires an integer matrix")
    for j in range(A.cols):
        if not any(A.col(j)):
            raise DomainError(f"column {j + 1} is zero: criterion inapplicable")
    lat = Lattice.from_matrix(A)
    found = strictly_positive_row_vector([list(r) for r in lat.basis],
                                         list(range(A.cols)))
    if found is None:
        return False, None
    return True, found[0]


def classify_f(V: Mat) -> FMatrixReport:
    """Clause-by-clause candidate-fan-matrix check (a: rank, b: positive
    spanning, c: nonzero columns, d: distinct ray directions, e: full
    column lattice)."""
    return _classify_f(V)[0]


def _classify_f(V: Mat) -> tuple[FMatrixReport, Lattice]:
    """``classify_f(V)`` and the column lattice of V it was read off."""
    if not V.is_integral:
        raise DomainError("classify_f requires an integer matrix")
    n = V.rows
    cols = list(V.col_tuples())
    col_lat = Lattice.from_rows(cols, n)
    violated = []
    if col_lat.rank != n:  # the column lattice has the rank of V
        violated.append("a")
    if not is_f_complete(V):
        violated.append("b")
    if any(not any(c) for c in cols):
        violated.append("c")
    if _has_proportional_columns(cols):
        violated.append("d")
    if col_lat.basis != Mat.identity(n).row_tuples():
        violated.append("e")
    is_f = all(c not in violated for c in "abcd")
    return FMatrixReport(is_f_matrix=is_f,
                         is_cf_matrix=is_f and "e" not in violated,
                         violated=tuple(violated)), col_lat


def classify_w(Q: Mat) -> WMatrixReport:
    """Clause-by-clause candidate-weight-matrix check (a: rank, b: no
    cotorsion, c: W-positive, d: nonzero columns, e: no unit vectors,
    f: no mixed-sign 2-sparse vectors in the row lattice)."""
    if not Q.is_integral:
        raise DomainError("classify_w requires an integer matrix")
    r, m = Q.shape
    violated = []
    lat = Lattice.from_matrix(Q)
    if lat.rank != r:  # the Hermite basis has the rank of Q
        violated.append("a")
    if has_cotorsion(m, lat):
        violated.append("b")

    witness = None
    if lat.rank:
        support = [j for j in range(m) if any(row[j] for row in lat.basis)]
        found = strictly_positive_row_vector([list(row) for row in lat.basis], support)
        if found is None:
            violated.append("c")
        else:
            witness = found[0]
    # rank 0: the empty basis is vacuously positive, clause c passes

    if any(not any(Q.col(j)) for j in range(m)):
        violated.append("d")

    unit = False
    for j in range(m):
        e = tuple(int(t == j) for t in range(m))
        if e in lat:
            unit = True
    if unit:
        violated.append("e")

    if _has_mixed_sign_plane_vector(lat):
        violated.append("f")

    is_w = not violated
    return WMatrixReport(is_w_matrix=is_w, violated=tuple(violated),
                         positive_witness=witness)


def _primitive(c: tuple) -> tuple:
    """c divided by the gcd of its entries (a zero vector stays zero)."""
    g = vec_gcd(c)
    return tuple(x // g for x in c) if g else tuple(c)


def _has_proportional_columns(cols: list[tuple]) -> bool:
    """Clause d: two nonzero integer columns with the same primitive vector
    (positively proportional)."""
    prim = [_primitive(c) for c in cols if any(c)]
    return len(set(prim)) < len(prim)


def _has_mixed_sign_plane_vector(lat: Lattice) -> bool:
    """Clause f, read off the Gale dual.

    With K a basis of the orthogonal complement of L (its columns are the
    Gale dual of L), L meets the plane span(e_i, e_j) in {(a, b) :
    a K_i + b K_j = 0}.  That holds a vector with a * b < 0 iff K_i and K_j
    are both zero or positively proportional, i.e. have the same primitive
    vector.
    """
    if lat.rank == 0:
        return False
    kern = left_kernel_rows(lat.basis_matrix().transpose())
    cols = list(zip(*kern)) if kern else [()] * lat.ambient_dim
    prim = [_primitive(c) for c in cols]
    return len(set(prim)) < len(prim)


def _require_w_matrix(Q: Mat, caller: str) -> WMatrixReport:
    rep = classify_w(Q)
    if not rep.is_w_matrix:
        raise DomainError(f"{caller} requires a W-matrix "
                          f"(violated clauses: {','.join(rep.violated)})")
    return rep


def positivize(Q: Mat) -> Mat:
    """An entrywise nonnegative matrix with the same row lattice as the
    W-matrix Q and a strictly positive first row.

    Procedure: the positive witness of ``classify_w`` is > 0 on every column
    and lies in the row lattice; divided by its gcd it is a primitive c,
    still in the lattice (Q has no cotorsion).  Lift c, move it to the
    first row by a unimodular change of basis, then add multiples of it to
    the remaining rows.
    """
    c = list(_primitive(_require_w_matrix(Q, "positivize").positive_witness))
    lam = solve(Q.transpose(), Mat([[x] for x in c]))
    if lam is None or not lam.is_integral:
        raise GaleKitError("positive witness does not lift into the "
                           "row lattice (no-cotorsion violation)")
    lam_row = tuple(lam.col(0))
    rows, _ = basis_with_positive_first_row(Q.to_lists(), c, lam_row,
                                            list(range(Q.cols)))
    return Mat(rows)


# ---------------------------------------------------------------------------
# reduction

def f_reduce(V: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Divide each column by its gcd; returns the reduced matrix and the gcds."""
    rep = classify_f(V)
    if not rep.is_f_matrix:
        raise DomainError("f_reduce requires an F-matrix "
                          f"(violated clauses: {','.join(rep.violated)})")
    gcds = tuple(vec_gcd(V.col(j)) for j in range(V.cols))
    reduced = Mat([[row[j] // gcds[j] for j in range(V.cols)]
                   for row in V.row_tuples()])
    return reduced, gcds


def i_reduce(Q: Mat, i: int) -> Mat:
    """One reduction step at 1-based column i of a W-matrix.

    Removes the column-i gcd of the Gale dual: diagonalize Q with the i-th
    column deleted, then rescale the i-th column up and the last row down by
    that gcd.  A no-op when the gcd is already 1.
    """
    if not 1 <= i <= Q.cols:
        raise DomainError(f"column index {i} out of range")
    _require_w_matrix(Q, "i_reduce")
    d = vec_gcd(gale_dual(Q).col(i - 1))
    return Q if d == 1 else _rescale(Q, i, d)


def _rescale(Q: Mat, i: int, d: int) -> Mat:
    """The i-reduction of a W-matrix Q whose Gale dual has gcd d > 1 in
    column i."""
    alpha = snf(submatrix_cols(Q, (i,), complement=True)).alpha
    rows = (alpha @ Q).to_lists()
    for row in rows:
        row[i - 1] *= d
    if any(x % d for x in rows[-1]):
        raise GaleKitError("last row not divisible in i-reduction "
                           "(cyclic-quotient theorem violation)")
    rows[-1] = [x // d for x in rows[-1]]
    return Mat(rows)


def w_reduce(Q: Mat) -> Mat:
    """Full weight-matrix reduction: i-reductions for i = 1..n+r in order,
    reading each column gcd off the current Gale dual.  Q is validated once
    (each step maps a W-matrix to a W-matrix), and the dual is recomputed
    only after a step that rescales; the other steps leave Q unchanged."""
    _require_w_matrix(Q, "w_reduce")
    cur, V = Q, gale_dual(Q)
    for i in range(1, Q.cols + 1):
        d = vec_gcd(V.col(i - 1))
        if d > 1:
            cur = _rescale(cur, i, d)
            if i < Q.cols:
                V = gale_dual(cur)
    return cur


def is_w_reduced(Q: Mat) -> bool:
    """True iff every column-deleted row lattice of Q is saturated.

    Computed both directly (coprime maximal minors of each Q^i) and through
    the Gale dual's column gcds; the two must agree.
    """
    _require_w_matrix(Q, "is_w_reduced")
    return _is_w_reduced(Q, gale_dual(Q))


def _is_w_reduced(Q: Mat, V: Mat) -> bool:
    """is_w_reduced for a W-matrix Q, given a matrix V whose row lattice is
    ker(Q) (column gcds do not depend on the basis chosen).  Each Q^i has
    rank r (else some c e_i, c != 0, and so e_i lie in L_r(Q), against
    clause e), so L_r(Q^i) is saturated iff its maximal minors are coprime."""
    m = Q.cols
    try:
        direct = all(_gcd_maximal_minors(submatrix_cols(Q, (i,), complement=True)) == 1
                     for i in range(1, m + 1))
    except DomainError:
        raise GaleKitError("column-deleted weight matrix is rank-deficient "
                           "(internal invariant)") from None
    via_dual = all(vec_gcd(V.col(j)) == 1 for j in range(m))
    if direct != via_dual:
        raise GaleKitError("reducedness criteria disagree (internal invariant)")
    return direct
