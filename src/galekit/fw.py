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
Witnesses are one valid choice, not canonical ones.  ``classify_w`` reads
clauses c, e and f off one kernel K = {x : Q x = 0} (for a W-matrix the
Gale dual, which the reductions and ``full_report`` reuse: Q is reduced
exactly when its dual has primitive columns, so ``w_reduce`` divides every
column of the dual by its gcd and takes the Gale dual back, and
``i_reduce`` column i alone).  Clause c is decided on the shorter side of the
Gale pair: L holds a vector > 0 on its support S iff (Stiemke) the columns
of K on S have a strictly positive relation, the LP of ``is_f_complete``,
iff (Gordan) no x >= 0 with sum 1 has B_S x = 0 for the Hermite basis B
of L, whose Farkas certificate gives the vector; the LP with fewer rows
runs (``normal_forms._positive_span_vector``).  With cotorsion the vector
is lifted from the saturation into L by one integer elimination
(``_lift_into_rows``).  ``positivize`` lifts the witness the same way, to
its coefficients over the rows of Q, and rebases on them as
``positive_row_echelon`` does.
e_j can lie in L only if column j of K is zero; clause f fails exactly when
two columns of K have the same primitive vector.  Repeated ray directions
(F clause d) are equal primitive columns among the nonzero ones; one
repeated-direction test answers both clauses.  F clause b takes the rank of V
off the column lattice that clauses a and e read, then one Stiemke LP.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Sequence

from .matrix import (
    DomainError,
    GaleKitError,
    Mat,
    check_index_set,
    vec_gcd,
)
from .normal_forms import (
    _left_kernel,
    _lift_into_rows,
    _positive_relation,
    _positive_span_vector,
    basis_with_positive_first_row,
    left_kernel_rows,
)
from .lattices import Lattice, _gcd_maximal_minors, has_cotorsion


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


def is_f_complete(A: Mat) -> bool:
    """Do the columns of A positively span the whole ambient space?

    Criterion (Stiemke): full row rank and a linear relation A y = 0 with
    y > 0, i.e. some u >= 0 with A u = -A 1, decided by one exact simplex.
    """
    if not A.is_integral:
        raise DomainError("is_f_complete requires an integer matrix")
    return _is_f_complete(A.row_tuples(), A.rank())


def _is_f_complete(rows: Sequence[Sequence[int]], rank: int) -> bool:
    """``is_f_complete`` for the integer ``rows`` of a matrix of the given
    rank: full row rank, then one Stiemke LP."""
    return rank == len(rows) and _positive_relation(rows) is not None


def is_w_positive(A: Mat) -> tuple[bool, "tuple[int, ...] | None"]:
    """Whether the row lattice of A has a nonnegative basis, with a strictly
    positive witness vector when it does (W-clause c).  Requires every
    column nonzero (the strict-positivity criterion breaks down otherwise)."""
    if not A.is_integral:
        raise DomainError("is_w_positive requires an integer matrix")
    for j in range(A.cols):
        if not any(A.col(j)):
            raise DomainError(f"column {j + 1} is zero: criterion inapplicable")
    witness = classify_w(A).positive_witness
    return witness is not None, witness


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
    if not _is_f_complete(V.row_tuples(), col_lat.rank):
        violated.append("b")
    if any(not any(c) for c in cols):
        violated.append("c")
    if _has_repeated_direction([c for c in cols if any(c)]):
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
    return _classify_w(Q)[0]


def _classify_w(Q: Mat, kernel: "list[tuple] | None" = None
                ) -> tuple[WMatrixReport, list[tuple]]:
    """``classify_w(Q)`` and the kernel it was read off: the Hermite basis
    of {x in Z^m : Q x = 0}, which for a W-matrix is ``gale_dual(Q)``.  A
    caller that holds that basis (the rows of ``hnf(Q^T).U`` past the rank)
    passes it as ``kernel``."""
    if not Q.is_integral:
        raise DomainError("classify_w requires an integer matrix")
    r, m = Q.shape
    violated = []
    lat = Lattice.from_matrix(Q)
    if lat.rank != r:  # the Hermite basis has the rank of Q
        violated.append("a")
    if has_cotorsion(m, lat):
        violated.append("b")

    if kernel is None:
        kernel = left_kernel_rows(Q.transpose())
    witness = None
    if lat.rank:  # rank 0: the empty basis is vacuously positive
        y = _positive_span_vector(lat.basis, kernel)
        if y is None:
            violated.append("c")
        else:
            if "b" in violated:  # y lies in the saturation of L: lift it
                y = _lift_into_rows(lat.basis, y)[0]
            witness = tuple(y)
            if witness not in lat or any((v > 0) != any(col) for v, col
                                         in zip(witness, zip(*lat.basis))):
                raise GaleKitError("positive witness is not > 0 exactly on the "
                                   "support of L, or not in L (internal invariant)")
    cols = list(zip(*kernel)) if kernel else [()] * m

    if any(not any(Q.col(j)) for j in range(m)):
        violated.append("d")

    # e_j lies in the rational span of L exactly when column j of K is zero
    if any(not any(col) and tuple(int(t == j) for t in range(m)) in lat
           for j, col in enumerate(cols)):
        violated.append("e")

    # clause f: L meets the plane span(e_i, e_j) in {(a, b) : a K_i + b K_j
    # = 0}, which holds a vector with a * b < 0 iff the columns K_i and K_j
    # of the kernel are both zero or positively proportional
    if _has_repeated_direction(cols):
        violated.append("f")

    is_w = not violated
    return WMatrixReport(is_w_matrix=is_w, violated=tuple(violated),
                         positive_witness=witness), kernel


def _primitive(c: tuple) -> tuple:
    """c divided by the gcd of its entries (a zero vector stays zero)."""
    g = vec_gcd(c)
    return tuple(x // g for x in c) if g else tuple(c)


def _has_repeated_direction(cols: list[tuple]) -> bool:
    """Two of the integer columns have the same primitive vector: both zero
    or positively proportional."""
    prim = [_primitive(c) for c in cols]
    return len(set(prim)) < len(prim)


def _require_w_matrix(Q: Mat, caller: str) -> tuple[WMatrixReport, list[tuple]]:
    rep, kernel = _classify_w(Q)
    if not rep.is_w_matrix:
        raise DomainError(f"{caller} requires a W-matrix "
                          f"(violated clauses: {','.join(rep.violated)})")
    return rep, kernel


def positivize(Q: Mat) -> Mat:
    """An entrywise nonnegative matrix with the same row lattice as the
    W-matrix Q and a strictly positive first row.

    Procedure (the rebase of ``positive_row_echelon``): the positive witness
    of ``classify_w`` is > 0 on every column and lies in the row lattice.
    Lift it to its coefficients lam over the rows of Q, move lam/gcd(lam)
    to the first row by a unimodular change of basis, then add multiples
    of that row to the remaining rows.  The new first row is the witness
    divided by its gcd, since gcd(lam) = gcd(witness) in a lattice without
    cotorsion.
    """
    witness = _require_w_matrix(Q, "positivize")[0].positive_witness
    rows = Q.to_lists()
    c, lam = _lift_into_rows(rows, witness)
    if c != witness:
        raise GaleKitError("positive witness does not lift into the row "
                           "lattice: no-cotorsion violation (internal invariant)")
    return Mat(basis_with_positive_first_row(rows, c, lam))


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
    """One reduction step at 1-based column i of a W-matrix: the W-matrix
    whose Gale dual is that of Q with column i divided by its gcd, as the
    Hermite basis of its row lattice.  Q itself when the gcd is already 1."""
    check_index_set((i,), Q.cols)
    return _gale_reduce(Q, _require_w_matrix(Q, "i_reduce")[1], (i - 1,))


def w_reduce(Q: Mat) -> Mat:
    """Full weight-matrix reduction: the W-matrix whose Gale dual is that of
    Q with every column divided by its gcd (primitive columns), as the
    Hermite basis of its row lattice.  Q itself when Q is already reduced."""
    return _gale_reduce(Q, _require_w_matrix(Q, "w_reduce")[1], range(Q.cols))


def _gale_reduce(Q: Mat, V: list[tuple], cols: Sequence[int]) -> Mat:
    """The reduction of the W-matrix Q at the 0-based columns ``cols``,
    given its Gale dual V (Hermite basis rows): divide each of those
    columns of V by its gcd d_j and take the Gale dual back, the Hermite
    basis of {x : V' x = 0}.  Q itself when every d_j is 1.

    V q = 0 for each row q of Q, so q with column j multiplied by d_j lies
    in that kernel; the check reduces it to zero against the pivots of the
    echelon basis (a pivot it does not divide leaves a remainder that no
    later row clears)."""
    dual_cols = list(zip(*V))
    gcds = [1] * Q.cols
    for j in cols:
        gcds[j] = vec_gcd(dual_cols[j])
    if all(d == 1 for d in gcds):
        return Q
    rows = _left_kernel([[x // d for x in col] for col, d in zip(dual_cols, gcds)])
    pivots = [next(j for j, x in enumerate(row) if x) for row in rows]
    for q in Q.row_tuples():
        x = list(map(mul, q, gcds))
        for row, p in zip(rows, pivots):
            x = [a - x[p] // row[p] * b for a, b in zip(x, row)]
        if any(x) or len(rows) != Q.rows:
            raise GaleKitError("rescaled rows of Q do not lie in the reduced "
                               "row lattice (internal invariant)")
    return Mat(rows)


def is_w_reduced(Q: Mat) -> bool:
    """True iff every column-deleted row lattice of Q is saturated.

    Computed both directly (coprime maximal minors of each Q^i) and through
    the Gale dual's column gcds; the two must agree.
    """
    return _is_w_reduced(Q, Mat(_require_w_matrix(Q, "is_w_reduced")[1]))


def _is_w_reduced(Q: Mat, V: Mat) -> bool:
    """is_w_reduced for a W-matrix Q, given a matrix V whose row lattice is
    ker(Q) (column gcds do not depend on the basis chosen).  Each Q^i has
    rank r (else some c e_i, c != 0, and so e_i lie in L_r(Q), against
    clause e), so L_r(Q^i) is saturated iff its maximal minors are coprime."""
    m, cols = Q.cols, Q.col_tuples()
    try:
        direct = all(_gcd_maximal_minors(cols[:i] + cols[i + 1:], Q.rows) == 1
                     for i in range(m))
    except DomainError:
        raise GaleKitError("column-deleted weight matrix is rank-deficient "
                           "(internal invariant)") from None
    via_dual = all(vec_gcd(V.col(j)) == 1 for j in range(m))
    if direct != via_dual:
        raise GaleKitError("reducedness criteria disagree (internal invariant)")
    return direct
