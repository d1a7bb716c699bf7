"""Hermite and Smith normal forms with transforms, and positive row echelon.

``hnf`` works on integer or rational matrices (rational input is cleared by
the lcm of denominators, reduced, and scaled back; the transform stays
integral).  ``snf`` is integer-only.  ``positive_row_echelon`` turns any
matrix whose row lattice admits a nonnegative basis into an entrywise
nonnegative row echelon form, via unimodular row operations and a column
permutation.

The transforms live in the rows being reduced.  A d x m matrix A is held as
one block [[A, I_d], [I_m, 0]]: a row step on the top d rows updates alpha
with A, and a column step on the left m columns, applied to every row,
updates beta with A.  The reduced matrix alpha @ A @ beta, alpha and beta
are sliced off the block at the end.  ``_hnf_int`` reduces the first n
columns (floor quotients) and carries the rest: ``hnf`` and
``left_kernel_rows`` read U off [A | I]; Hermite bases carry nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .matrix import (
    DomainError,
    GaleKitError,
    Mat,
    _nonneg_solve,
    block_diag,
    xgcd,
)


@dataclass(frozen=True)
class HnfResult:
    """H = U @ A with U unimodular; pivot_map is the 1-based pivot column of
    each nonzero row of H."""

    H: Mat
    U: Mat
    pivot_map: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.pivot_map)


@dataclass(frozen=True)
class SnfResult:
    """alpha @ A @ beta = S diagonal with positive invariant factors in a
    divisibility chain."""

    S: Mat
    alpha: Mat
    beta: Mat
    factors: tuple[int, ...]


def _block(mat: list[list[int]]) -> list[list[int]]:
    """The block [[A, I_d], [I_m, 0]] of the d x m matrix A = ``mat``; the
    zero block is not stored."""
    d, m = len(mat), len(mat[0])
    return ([row + [int(i == j) for j in range(d)] for i, row in enumerate(mat)]
            + [[int(i == j) for j in range(m)] for i in range(m)])


def _unblock(blk: list[list[int]], d: int, m: int) -> tuple[Mat, Mat, Mat]:
    """(reduced A, alpha, beta) sliced off a block built by ``_block``."""
    return (Mat([row[:m] for row in blk[:d]]), Mat([row[m:] for row in blk[:d]]),
            Mat(blk[d:]))


def _hnf_int(rows: list[list[int]], n: int) -> list[int]:
    """Row HNF of the first n columns of an integer matrix, in place,
    carrying the later columns; returns the pivot columns.

    Scan order is fixed: leftmost column first, smallest nonzero pivot,
    floor quotients below it, smallest nonnegative remainders above.
    """
    m = len(rows)
    p = 0
    pivots: list[int] = []
    for j in range(n):
        if p == m:
            break
        while True:
            nz = [i for i in range(p, m) if rows[i][j]]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(rows[i][j]), i))
            if i0 != p:
                rows[p], rows[i0] = rows[i0], rows[p]
            if rows[p][j] < 0:
                rows[p] = [-x for x in rows[p]]
            top = rows[p]
            a = top[j]
            clean = True
            for i in range(p + 1, m):
                b = rows[i][j]
                if b:
                    q = b // a  # nonzero: a is the smallest |entry|
                    rows[i] = [x - q * y for x, y in zip(rows[i], top)]
                    if rows[i][j]:
                        clean = False
            if clean:
                break
        top = rows[p]
        a = top[j]
        if a:
            for i in range(p):
                q = rows[i][j] // a
                if q:
                    rows[i] = [x - q * y for x, y in zip(rows[i], top)]
            pivots.append(j)
            p += 1
    return pivots


def _hnf_rows(A: Mat) -> tuple[int, list[list[int]], list[int]]:
    """(d, [H | U], pivots) with H = U @ (d A) in Hermite form, d the lcm
    of A's denominators; the rows of U spanning the left kernel are put in
    Hermite form as well, which makes U deterministic."""
    m, n = A.shape
    d, work = A.int_scaled()
    aug = [row + [int(i == j) for j in range(m)] for i, row in enumerate(work)]
    pivots = _hnf_int(aug, n)
    p = len(pivots)
    kern = [row[n:] for row in aug[p:]]
    _hnf_int(kern, m)
    aug[p:] = [[0] * n + row for row in kern]
    return d, aug, pivots


def hnf(A: Mat) -> HnfResult:
    """Hermite normal form H = U @ A (row style, pivots top-left)."""
    n = A.cols
    d, aug, pivots = _hnf_rows(A)
    if d == 1:
        h = Mat([row[:n] for row in aug])
    else:
        h = Mat([[Fraction(x, d) for x in row[:n]] for row in aug])
    return HnfResult(H=h, U=Mat([row[n:] for row in aug]),
                     pivot_map=tuple(j + 1 for j in pivots))


def _hermite_basis(A: Mat) -> tuple[tuple, tuple[int, ...]]:
    """The nonzero rows of ``hnf(A).H`` and their 0-based pivot columns,
    from one pass without a transform."""
    d, work = A.int_scaled()
    pivots = tuple(_hnf_int(work, A.cols))
    rows = work[:len(pivots)]
    if d > 1:
        rows = [[Fraction(x, d) if x % d else x // d for x in row] for row in rows]
    return tuple(map(tuple, rows)), pivots


def left_kernel_rows(A: Mat) -> list[tuple]:
    """Canonical basis rows of {x : x @ A = 0}, the rows of ``hnf(A).U``
    past the rank; empty list if A has full row rank."""
    n = A.cols
    _, aug, pivots = _hnf_rows(A)
    return [tuple(row[n:]) for row in aug[len(pivots):]]


# ---------------------------------------------------------------------------
# Smith normal form

def _swap_cols(m, i, j):
    for row in m:
        row[i], row[j] = row[j], row[i]


def _col_sub(m, j, k, q):
    # column j -= q * column k
    if q:
        for row in m:
            row[j] -= q * row[k]


def snf(A: Mat) -> SnfResult:
    if not A.is_integral:
        raise DomainError("snf requires an integer matrix")
    d, m = A.shape
    blk = _block(A.to_lists())

    def fix_sign(i: int) -> None:
        if blk[i][i] < 0:
            blk[i] = [-x for x in blk[i]]

    def clear_at(t: int) -> None:
        # assumes blk[t][t] != 0; clears row t and column t
        while True:
            fix_sign(t)
            a = blk[t][t]
            restart = False
            for i in range(d):
                if i != t and blk[i][t]:
                    q = blk[i][t] // a
                    if q:
                        blk[i] = [x - q * y for x, y in zip(blk[i], blk[t])]
                    if blk[i][t]:
                        blk[i], blk[t] = blk[t], blk[i]
                        restart = True
                        break
            if restart:
                continue
            for j in range(m):
                if j != t and blk[t][j]:
                    _col_sub(blk, j, t, blk[t][j] // a)
                    if blk[t][j]:
                        _swap_cols(blk, j, t)
                        restart = True
                        break
            if not restart:
                break

    t = 0
    limit = min(d, m)
    while t < limit:
        best = None
        for i in range(t, d):
            for j in range(t, m):
                v = blk[i][j]
                if v and (best is None or abs(v) < abs(blk[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        if best[0] != t:
            blk[best[0]], blk[t] = blk[t], blk[best[0]]
        if best[1] != t:
            _swap_cols(blk, best[1], t)
        clear_at(t)
        t += 1

    for i in range(t):
        fix_sign(i)
    # enforce the divisibility chain c_i | c_{i+1}
    i = 0
    while i + 1 < t:
        a, b = blk[i][i], blk[i + 1][i + 1]
        if b % a:
            for row in blk:
                row[i] += row[i + 1]
            clear_at(i)
            fix_sign(i)
            fix_sign(i + 1)
            i = max(i - 1, 0)
        else:
            i += 1

    S, alpha, beta = _unblock(blk, d, m)
    factors = tuple(blk[i][i] for i in range(t))
    return SnfResult(S=S, alpha=alpha, beta=beta, factors=factors)


# ---------------------------------------------------------------------------
# positivity helpers on row lattices

def strictly_positive_row_vector(basis: Sequence[Sequence[int]],
                                 support: Sequence[int],
                                 ) -> "tuple[tuple[int, ...], tuple[int, ...]] | None":
    """An integer combination of the basis rows that is > 0 on every support
    column, together with its coefficient vector, or None.

    Feasibility of ``lam @ B_S >= 1`` (lam free) is one exact phase-1
    simplex: lam = p - q with p, q >= 0 and a slack per support column.  An
    infeasible system comes with a checked Farkas certificate; a feasible
    lam is scaled by the lcm of its denominators.  The vector returned is
    one valid witness, not a canonical one.
    """
    k = len(basis)
    cols = list(support)
    if k == 0 or not cols:
        return None
    rows = [[basis[i][j] for i in range(k)] + [-basis[i][j] for i in range(k)]
            + [-int(t == s) for t in range(len(cols))]
            for s, j in enumerate(cols)]
    x, _ = _nonneg_solve(rows, [1] * len(cols))
    if x is None:
        return None
    lam = [Fraction(p - q) for p, q in zip(x[:k], x[k:2 * k])]
    denom = math.lcm(*(v.denominator for v in lam))
    lam_int = tuple(int(v * denom) for v in lam)
    vec = tuple(sum(l * row[j] for l, row in zip(lam_int, basis))
                for j in range(len(basis[0])))
    return vec, lam_int


def basis_with_positive_first_row(basis: Sequence[Sequence[int]],
                                  c: Sequence[int],
                                  lam: Sequence[int],
                                  support: Sequence[int],
                                  ) -> tuple[list[list[int]], Mat]:
    """Rebase so that the first row is c/gcd(lam) and all rows are >= 0.

    c = lam @ basis must hold.  Returns (new_rows, T) with new_rows = T @ basis
    and T unimodular.
    """
    k, n = len(basis), len(basis[0])
    lam_col = Mat([[x] for x in lam])
    res = hnf(lam_col)
    alpha = res.U
    t_mat = alpha.inverse().transpose()
    if not t_mat.is_integral:
        raise GaleKitError("unimodular inverse produced non-integer entries")
    # T @ [basis | I_k] = [T @ basis | T]: each row carries its row of T
    rows = [row + list(t) for row, t in zip((t_mat @ Mat(basis)).to_lists(),
                                             t_mat.row_tuples())]
    first = rows[0]
    if any(first[j] <= 0 for j in support):
        raise GaleKitError("rebased first row is not strictly positive on support")
    for i in range(1, k):
        # smallest integer multiple of the first row making this row >= 0
        mult = math.ceil(max((Fraction(-rows[i][j], first[j]) for j in support),
                             default=Fraction(0)))
        if mult:
            rows[i] = [x + mult * y for x, y in zip(rows[i], first)]
    return [row[:n] for row in rows], Mat([row[n:] for row in rows])


def positive_row_basis(basis: Sequence[Sequence[int]]) -> tuple[list[list[int]], Mat]:
    """A nonnegative basis of the row lattice of ``basis`` plus its transform.

    Raises DomainError when the lattice admits no such basis (i.e. the input
    is not W-positive).
    """
    cols = len(basis[0])
    support = [j for j in range(cols) if any(row[j] for row in basis)]
    found = strictly_positive_row_vector(basis, support)
    if found is None:
        raise DomainError("row lattice has no strictly positive vector: "
                          "matrix is not W-positive")
    c, lam = found
    return basis_with_positive_first_row(basis, c, lam, support)


# ---------------------------------------------------------------------------
# positive row echelon form

def _perm_cols(mat, perm_target, order):
    # reorder columns order -> positions perm_target..; applied to all rows
    if order == list(range(perm_target, perm_target + len(order))):
        return
    for row in mat:
        row[perm_target:perm_target + len(order)] = [row[j] for j in order]


def _clear_first_column(blk, r0, c0, d, m) -> None:
    """Zero out window column c0 below its first row, keeping entries >= 0."""
    if d <= 1:
        return
    last = r0 + d - 1

    def sort_key(j):
        den = blk[last][j]
        if den == 0:
            return (0, Fraction(0), j)
        return (1, -Fraction(blk[last - 1][j], den), j)

    _perm_cols(blk, c0, sorted(range(c0, c0 + m), key=sort_key))

    if blk[last][c0] != 0:
        a, b = blk[last - 1][c0], blk[last][c0]
        g, x, y = xgcd(a, b)
        row_hi = [x * u + y * v for u, v in zip(blk[last - 1], blk[last])]
        row_lo = [(-b // g) * u + (a // g) * v
                  for u, v in zip(blk[last - 1], blk[last])]
        blk[last - 1], blk[last] = row_hi, row_lo
        mult = 0
        for j in range(c0, c0 + m):
            if blk[last][j] > 0 and blk[last - 1][j] < 0:
                mult = max(mult, math.ceil(Fraction(-blk[last - 1][j], blk[last][j])))
        if mult:
            blk[last - 1] = [u + mult * v for u, v in zip(blk[last - 1], blk[last])]

    j0 = 0
    while j0 < m and blk[last][c0 + j0] == 0:
        j0 += 1
    if any(blk[last][c0 + t] <= 0 for t in range(j0, m)):
        raise GaleKitError("last window row is not positive right of its "
                           "zeros (internal invariant)")

    _clear_first_column(blk, r0, c0, d - 1, j0)

    # recursion may have left negatives right of the truncation; the last row
    # is zero there-left and positive there-right, so it can repair them
    for i in range(r0, last):
        mult = 0
        for j in range(c0 + j0, c0 + m):
            if blk[i][j] < 0:
                mult = max(mult, math.ceil(Fraction(-blk[i][j], blk[last][j])))
        if mult:
            blk[i] = [u + mult * v for u, v in zip(blk[i], blk[last])]


def positive_row_echelon(A: Mat) -> tuple[Mat, Mat, Mat]:
    """(E, alpha, beta) with E = alpha @ A @ beta, E >= 0 in row echelon form,
    alpha unimodular and beta a permutation matrix.

    Raises DomainError when the row lattice of A is not W-positive.
    """
    if not A.is_integral:
        raise DomainError("positive_row_echelon requires an integer matrix")
    d, m = A.shape
    blk = _block(A.to_lists())

    if any(x < 0 for row in A.row_tuples() for x in row):
        res = hnf(A)
        r = res.rank
        basis = [list(res.H.row(i)) for i in range(r)]
        pos_rows, t_mat = positive_row_basis(basis)
        trans = block_diag(t_mat, Mat.identity(d - r)) if r < d else t_mat
        mat = pos_rows + [[0] * m for _ in range(d - r)]
        blk[:d] = [row + list(u) for row, u in zip(mat, (trans @ res.U).row_tuples())]

    r0 = c0 = 0
    rows_left, cols_left = d, m
    while rows_left > 0 and cols_left > 0:
        _clear_first_column(blk, r0, c0, rows_left, cols_left)
        if blk[r0][c0] > 0:
            r0 += 1
            rows_left -= 1
        c0 += 1
        cols_left -= 1

    return _unblock(blk, d, m)


def is_row_echelon(A: Mat) -> bool:
    """Echelon predicate: zero rows at the bottom, leading entries strictly
    moving right."""
    lead = -1
    seen_zero = False
    for i in range(A.rows):
        row = A.row(i)
        j = next((c for c, x in enumerate(row) if x != 0), None)
        if j is None:
            seen_zero = True
            continue
        if seen_zero or j <= lead:
            return False
        lead = j
    return True
