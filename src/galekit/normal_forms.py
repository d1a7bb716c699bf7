"""Hermite and Smith normal forms with transforms, and positive row echelon.

``hnf`` works on integer or rational matrices (rational input is cleared by
the lcm of denominators, reduced, and scaled back; the transform stays
integral).  ``snf`` is integer-only.  ``positive_row_echelon`` turns any
matrix whose row lattice admits a nonnegative basis into an entrywise
nonnegative row echelon form, via unimodular row operations and a column
permutation.

The transforms live in the rows being reduced, and each caller passes only
the rows it reads.  For ``snf`` a d x m matrix A is held as one block
[[A, I_d], [I_m, 0]]: a row step on the top d rows updates alpha with A,
and a column step on the left m columns, applied to every row, updates beta
with A.  The reduced matrix alpha @ A @ beta, alpha and beta are sliced off
the block at the end.  The Smith form, ``_smith``, starts with one Hermite
pass by row insertion over the top rows and splits off its unit pivots: a
pivot 1 has the column e_i, so column steps clear its row i, changing only
that row and beta's row at the pivot column.  Those rows and columns move to
the front as invariant factors 1, and only the residual, the rows whose
pivot exceeds 1 on the other columns, takes Kannan and Bachem's alternation
of Hermite passes: one over the top rows, one over the transposed left
columns (whose carried part is beta^T), until the block is diagonal, then
one 2 x 2 gcd step per pair of diagonal entries that breaks the
divisibility chain.  ``quotient_structure`` reads the unit pivots off a
lattice's stored Hermite rows and hands ``_smith`` the bare residual alone.

Every Hermite basis of the lattice spanned by given rows comes from row
insertion, ``_hermite_insert`` (Kannan and Bachem, SIAM J. Comput. 1979;
Cohen, *A Course in Computational Algebraic Number Theory*, §2.4): each
row is reduced against a basis kept reduced, by one subtraction where one
of its entry and the pivot divides the other and one extended-gcd step
otherwise.  ``Lattice`` (on the integer rows D L, D the lcm of the
denominators), the maximal-minor gcd and the Smith loop use it on bare
rows, and ``hnf`` on [A | I] for every shape of A.  H and its pivots are
unique, and a full-row-rank A has one U with U A = H; for a tall or
rank-deficient A the first rank(A) rows of U are the unimodular choice the
insertion order makes, not a canonical one.

Left kernels take no row insertion.  ``left_kernel_rows`` reads an integer
kernel basis off one forward Bareiss elimination of A^T and a back
substitution on its non-pivot columns, saturates it with a column fold
taken modulo the last pivot, and puts it in Hermite form with one reducing
substitution; ``hnf`` takes the rows of U past the rank from the same
routine.  The fold and the substitution are one routine,
``_inverse_columns``: a basis of {y : G y = 0 mod D}, which ``toric``'s
Picard basis calls too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from .matrix import (
    DomainError,
    GaleKitError,
    Mat,
    _back_substitute,
    _eliminate,
    _nonneg_solve,
    vec_gcd,
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


def _identity_rows(k: int) -> list[list[int]]:
    """The rows of I_k, each one ``[0] * k`` list with a single 1."""
    rows = [[0] * k for _ in range(k)]
    for i, row in enumerate(rows):
        row[i] = 1
    return rows


def _with_identity(mat: list[list[int]]) -> list[list[int]]:
    """The rows [A | I_d] of the d x m matrix A = ``mat``."""
    return [row + e for row, e in zip(mat, _identity_rows(len(mat)))]


def _block(mat: list[list[int]]) -> list[list[int]]:
    """The block [[A, I_d], [I_m, 0]] of the d x m matrix A = ``mat``; the
    zero block is not stored."""
    return _with_identity(mat) + _identity_rows(len(mat[0]))


def _unblock(blk: list[list[int]], d: int, m: int) -> tuple[Mat, Mat, Mat]:
    """(reduced A, alpha, beta) sliced off a block built by ``_block``."""
    return (Mat([row[:m] for row in blk[:d]]), Mat([row[m:] for row in blk[:d]]),
            Mat(blk[d:]))


def _hermite_insert(rows: Sequence[Sequence[int]], n: int) -> tuple[list, list[int]]:
    """(Hermite basis, 0-based pivot columns) of the lattice spanned by the
    integer rows, reduced on their first n columns and carrying any later
    ones.  A row that vanishes on the first n columns but not on the later
    ones follows the basis, in the order met, so every row given is
    accounted for and the rows returned are a unimodular image of them;
    all-zero rows are dropped.  It is galekit's one Hermite reduction:
    ``hnf`` runs it on [A | I], and every other Hermite basis, the Smith
    loop's passes included, on bare rows.

    Each row r is inserted into a basis kept reduced (Kannan and Bachem).
    It meets the pivot rows p in pivot order, at its leading column j, with
    pivot a and entry b: where a divides b, r loses b/a times p; where b
    divides a, r becomes the pivot row (made positive) and p, less a/b
    times r, goes on in its place; otherwise one unimodular 2 x 2 step with
    g = u a + v b makes p the row u p + v r and r the row (a/g) r - (b/g) p,
    zero at j.  A row that reaches a column with no pivot becomes a pivot
    row there, made positive.  A pivot row that is new or changed is
    reduced against the later pivots; the rows above the pivots are reduced
    into [0, pivot) in one top-down pass at the end, which at the sizes
    galekit builds costs less than reducing them after every step.  The
    input rows are never changed.
    """
    basis: list = []
    rest: list = []
    pivots = [n]  # the pivot columns, ending in n as a sentinel
    for r in rows:
        k = start = 0  # r is zero before column start; pivots[k] >= start
        while True:
            c = pivots[k]
            if c > start and any(r[start:c]):
                j = start
                while not r[j]:
                    j += 1
                p = r if r[j] > 0 else [-x for x in r]
                basis.insert(k, p)
                pivots.insert(k, j)
                r = None
            elif c == n:
                if any(r):
                    rest.append(r)
                break
            else:
                start = c + 1
                b = r[c]
                if not b:
                    k += 1
                    continue
                p = basis[k]
                a = p[c]
                q, rem = divmod(b, a)
                if not rem:
                    r = [y - q * x for x, y in zip(p, r)]
                    k += 1
                    continue
                q, rem = divmod(a, b)
                if not rem:
                    p, r = (r if b > 0 else [-x for x in r],
                            [x - q * y for x, y in zip(p, r)])
                else:
                    g, u, v = xgcd(a, b)
                    s, t = a // g, b // g
                    p, r = ([u * x + v * y for x, y in zip(p, r)],
                            [s * y - t * x for x, y in zip(p, r)])
            for l in range(k + 1, len(basis)):
                h = basis[l]
                col = pivots[l]
                q = p[col] // h[col]
                if q:
                    p = [x - q * y for x, y in zip(p, h)]
            basis[k] = p
            if r is None:
                break
            k += 1
    pivots.pop()
    for k in range(1, len(pivots)):
        p = basis[k]
        col = pivots[k]
        a = p[col]
        for i in range(k):
            q = basis[i][col] // a
            if q:
                basis[i] = [x - q * y for x, y in zip(basis[i], p)]
    return basis + rest, pivots


def _hermite_mod(gens: list[list[int]], D: int, k: int) -> list[list[int]]:
    """An upper triangular basis of the lattice spanned by ``gens`` (rows of
    length k) and D Z^k (Cohen, Alg. 2.4.8, with the modulus fixed at D).

    Column j folds every row that is nonzero there, and then D e_j, into
    the row p with the least nonzero |entry| a.  A row whose entry b is a
    multiple of a loses b/a times p; any other takes one unimodular 2 x 2
    step with g = u a + v b: p becomes u p + v r and r becomes
    (a/g) r - (b/g) p, zero in column j.  Zero rows are dropped.  Every
    entry is kept mod D, which is exact because D e_l stays in the lattice
    for every l, so the growth of the carried rows is bounded.  Every
    column has a pivot, a divisor of D, and every other entry lies in
    [0, D); the rows above a pivot are not reduced, since
    ``_inverse_columns`` reduces the columns it finds as it back-substitutes.
    """
    rows = [r for r in ([x % D for x in g] for g in gens) if any(r)]
    basis = []
    for j in range(k):
        piv = None
        others = []
        rest = []
        for r in rows:
            b = r[j]
            if not b:
                rest.append(r)
            elif piv is None:
                piv, a = r, b
            elif b < a:
                others.append(piv)
                piv, a = r, b
            else:
                others.append(r)
        e = [0] * k
        e[j] = D
        if piv is None:
            piv = e
        else:
            others.append(e)
        a = piv[j]
        for r in others:
            b = r[j]
            if not b % a:
                q = b // a
                r = [(y - q * x) % D for x, y in zip(piv, r)]
            else:
                g, u, v = xgcd(a, b)
                s, t = a // g, b // g
                r, piv = ([(s * y - t * x) % D for x, y in zip(piv, r)],
                          [(u * x + v * y) % D for x, y in zip(piv, r)])
                a = g
            if any(r):
                rest.append(r)
        basis.append(piv)
        rows = rest
    return basis


def _inverse_columns(gens: list[list[int]], D: int, k: int) -> list[list[int]]:
    """A basis of {y in Z^k : G y = 0 mod D}, G = ``gens`` (rows of length
    k): the columns of D H^-1, H the upper triangular basis of G Z^k + D Z^k
    that ``_hermite_mod`` gives, or the identity when D = 1.  Column s
    solves H z = D e_s from row s up and is zero past s; each z[l] above the
    diagonal is reduced modulo column l's diagonal entry, which subtracts a
    multiple of column l.  Every division is exact."""
    if D == 1:
        return _identity_rows(k)
    herm = _hermite_mod(gens, D, k)
    ys: list[list[int]] = []
    for s in range(k):
        z = [0] * k
        z[s] = D
        for l in range(s, -1, -1):
            h = herm[l]
            q, r = divmod(z[l] - sum(map(mul, h[l + 1:s + 1], z[l + 1:s + 1])), h[l])
            if r:
                raise GaleKitError("back substitution left a remainder "
                                   "(internal invariant)")
            z[l] = q % ys[l][l] if l < s else q
        ys.append(z)
    return ys


def _left_kernel(rows: list[list[int]]) -> list[tuple]:
    """The Hermite basis of {x in Z^m : x A = 0} for the integer m x n
    matrix A = ``rows``.

    Indices here count the rows of A last first.  One forward Bareiss
    elimination of A^T picks the rightmost row basis R of A as its pivots;
    back substitution on the other indices C gives T, dp times the reduced
    row echelon form there, dp the last pivot.  Each c in C names the
    kernel vector dp e_c - sum_i T[i][c] e_{R_i}.  A kernel vector x
    is fixed by y = x_C, and is integral exactly when G y = 0 mod D, with
    G = (T[i][c]) over c in C and D = |dp|; ``_inverse_columns`` gives
    a basis of those y.  C is the leftmost basis of the kernel's
    matroid, the dual of the row matroid of A, so in A's own order C holds
    the kernel's Hermite pivots, and those columns, reduced into
    [0, pivot) by ``_inverse_columns``, are in echelon form over them;
    then x_R = -G y / dp, an exact division.
    """
    m = len(rows)
    work = [list(col) for col in zip(*reversed(rows))]
    pivots, dp = _eliminate(work, m)
    chosen = set(pivots)
    free = [c for c in range(m) if c not in chosen]
    gmat = _back_substitute(work, pivots, dp, free)
    out = []
    for z in reversed(_inverse_columns(gmat, abs(dp), len(free))):
        x = [0] * m
        for c, y in zip(free, z):
            x[c] = y
        for c, grow in zip(pivots, gmat):
            q, r = divmod(-sum(map(mul, grow, z)), dp)
            if r:
                raise GaleKitError("kernel row is not integral (internal invariant)")
            x[c] = q
        out.append(tuple(reversed(x)))
    return out


def hnf(A: Mat) -> HnfResult:
    """Hermite normal form H = U @ A (row style, pivots top-left), by row
    insertion on [A | I] for every shape of A.

    If every row becomes a pivot, A has full row rank and U is the only
    matrix with U A = H.  Otherwise the first rank rows of U are one
    unimodular choice, not a canonical one, and the rows past the rank are
    the Hermite basis of the left kernel, from ``_left_kernel``."""
    m, n = A.shape
    d, work = A.int_scaled()
    aug, pivots = _hermite_insert(_with_identity(work), n)
    p = len(pivots)
    if p < m:
        aug[p:] = [[0] * n + list(row) for row in _left_kernel(work)]
    if d == 1:
        h = Mat([row[:n] for row in aug])
    else:
        h = Mat([[Fraction(x, d) for x in row[:n]] for row in aug])
    return HnfResult(H=h, U=Mat([row[n:] for row in aug]),
                     pivot_map=tuple(j + 1 for j in pivots))


def left_kernel_rows(A: Mat) -> list[tuple]:
    """Canonical basis rows of {x : x @ A = 0}, the rows of ``hnf(A).U``
    past the rank; empty list if A has full row rank."""
    return _left_kernel(A.int_scaled()[1])


# ---------------------------------------------------------------------------
# Smith normal form

def _split_units(top: Sequence[Sequence[int]], pivots: Sequence[int], m: int,
                 ) -> tuple[list, list[int], list]:
    """(units, keep, rest) for a Hermite basis ``top`` on its first m columns
    with its 0-based ``pivots``, followed by any rows that vanish there:
    units pairs each pivot column whose pivot is 1 with its row, keep lists
    the other columns of the first m, and rest holds the other rows, in
    order.  Column c of a unit pivot is e_i of the basis (the entries above
    the pivot are reduced into [0, 1)), so every rest row is 0 there."""
    units, rest = [], []
    for row, c in zip(top, pivots):
        if row[c] == 1:
            units.append((c, row))
        else:
            rest.append(row)
    rest += top[len(pivots):]
    taken = {c for c, _ in units}
    return units, [j for j in range(m) if j not in taken], rest


def _smith(rows: list[list[int]], d: int, m: int) -> tuple[int, ...]:
    """Smith-reduce the top-left d x m block of ``rows`` in place and return
    its invariant factors.

    Row steps act on the top d rows, whole rows; column steps act on the
    first m columns of every row given.  So the top rows carry whatever sits
    right of column m (alpha, in the block of ``_block``) and the rows below
    carry the column steps (beta); a caller passes only the rows it reads:
    the whole block for ``snf``, the bare residual rows for
    ``quotient_structure``.  Each step is decided by the top-left block alone.

    A first row Hermite pass, by ``_hermite_insert``, splits off the u unit
    pivots (``_split_units``).  The column of a pivot 1 is e_i of the top
    block, so the column steps col_j -= H[i][j] col_c that clear its row i
    change no other top row, and of the rows below only those nonzero at c
    (beta's row c alone, its column c still e_c).  The unit rows and their
    columns move to the front, and the factors are (1,) * u followed by
    those of the residual: the other top rows on the other columns, on which
    ``_smith`` recurses, carrying the rest of every row.

    With no unit pivot, Kannan and Bachem's alternation: a row Hermite pass
    of the top rows and a row Hermite pass of the transposed left m columns,
    both by ``_hermite_insert``, repeat until the block is diagonal (each
    pair of passes leaves the leading pivot a proper divisor of the last
    one, or its row and column clear).  Then each pair of diagonal entries
    a, b with a before b and a not dividing b takes one 2 x 2 step: column
    a += column b, one unimodular row step to g = gcd(a, b), one column step
    to clear the rest, which leaves g and lcm(a, b) on the diagonal.
    """
    width = len(rows[0])
    top, pivots = _hermite_insert(rows[:d], m)
    units, keep, rest = _split_units(top, pivots, m)
    if units:
        u = len(units)
        below = rows[d:]
        for c, h in units:
            for row in below:
                x = row[c]
                if x:
                    row[:m] = [y - x * z for y, z in zip(row[:m], h)]
                    row[c] = x
        res = ([[row[j] for j in keep] + row[m:] for row in rest]
               + [[0] * (width - u) for _ in range(d - u - len(rest))]
               + [[row[j] for j in keep] + row[m:] for row in below])
        factors = _smith(res, d - u, m - u) if u < min(d, m) else ()
        lead = [[0] * m + h[m:] for _, h in units]
        for i, row in enumerate(lead):
            row[i] = 1
        rows[:d] = lead + [[0] * u + row for row in res[:d - u]]
        front = [c for c, _ in units]
        for row, r in zip(below, res[d - u:]):
            row[:] = [row[c] for c in front] + r
        return (1,) * u + factors
    while True:
        rows[:d] = top + [[0] * width for _ in range(d - len(top))]
        if all(not any(row[i + 1:m]) for i, row in enumerate(top[:len(pivots)])):
            break
        cols, pivots = _hermite_insert(list(zip(*rows))[:m], d)
        cols += [[0] * len(rows) for _ in range(m - len(cols))]
        for row, col in zip(rows, zip(*cols)):
            row[:m] = col
        if all(not any(col[i + 1:d]) for i, col in enumerate(cols[:len(pivots)])):
            break
        top, pivots = _hermite_insert(rows[:d], m)
    t = len(pivots)
    for i in range(t):
        for j in range(i + 1, t):
            a, b = rows[i][i], rows[j][j]
            if b % a:
                g, u, v = xgcd(a, b)
                for row in rows:
                    row[i] += row[j]
                p, r = rows[i], rows[j]
                rows[i] = [u * x + v * y for x, y in zip(p, r)]
                rows[j] = [a // g * y - b // g * x for x, y in zip(p, r)]
                q = v * b // g
                for row in rows:
                    row[j] -= q * row[i]
    return tuple(rows[i][i] for i in range(t))


def snf(A: Mat) -> SnfResult:
    """Smith normal form S = alpha @ A @ beta of an integer matrix, with
    alpha and beta unimodular.  S and its invariant factors are unique;
    alpha and beta are one unimodular pair that reaches S, not a canonical
    one."""
    if not A.is_integral:
        raise DomainError("snf requires an integer matrix")
    d, m = A.shape
    blk = _block(A.to_lists())
    factors = _smith(blk, d, m)
    S, alpha, beta = _unblock(blk, d, m)
    return SnfResult(S=S, alpha=alpha, beta=beta, factors=factors)


# ---------------------------------------------------------------------------
# positivity helpers on row lattices

def _positive_span_vector(basis: Sequence[Sequence[int]],
                          kernel: "Sequence[Sequence[int]] | None" = None,
                          ) -> "list[int] | None":
    """A primitive integer y in the rational row space of ``basis``, > 0 on
    the support S of its rows and 0 off it, or None.  The Hermite basis of
    the orthogonal complement (the Gale dual; ``kernel`` when the caller
    holds it) has |S| - rho rows nonzero on S for rho independent rows of
    ``basis``, since each j off S is a pivot whose row is e_j.  By Stiemke
    and Gordan this is one exact simplex on either side of the pair, run on
    the shorter one: Gordan's LP on the rows of ``basis`` plus a row of ones
    when rho + 1 < |S| - rho, Stiemke's LP on those kernel rows otherwise,
    so the kernel is computed only on that side.  y lies in the saturation
    of the row lattice, not necessarily in the lattice."""
    m = len(basis[0])
    support = [j for j in range(m) if any(row[j] for row in basis)]
    rho = len(basis)
    if rho + 1 < len(support) - rho:
        return _weight_side_vector(basis, support)
    if kernel is None:
        kernel = _left_kernel(list(zip(*basis)))
    rows = [sub for sub in ([row[j] for j in support] for row in kernel) if any(sub)]
    return _kernel_side_vector(rows, support, m)


def _weight_side_vector(basis: Sequence[Sequence[int]],
                        support: Sequence[int]) -> "list[int] | None":
    """Gordan's LP on the rows of ``basis``: [B_S; 1 ... 1] x = (0, ..., 0, 1)
    has a solution x >= 0 iff no vector of the row space is > 0 on S.
    Otherwise its checked Farkas certificate (lam, t) has t < 0, so
    lam @ B_S >= -t > 0, and y = lam @ B over its gcd (0 off S)."""
    rows = [[row[j] for j in support] for row in basis]
    rows.append([1] * len(support))
    w = _nonneg_solve(rows, [0] * len(basis) + [1])[1]
    if w is None:
        return None
    y = [sum(map(mul, w, col)) for col in zip(*basis)]  # zip drops t
    g = vec_gcd(y)
    return [v // g for v in y]


def _kernel_side_vector(rows: Sequence[Sequence[int]], support: Sequence[int],
                        m: int) -> "list[int] | None":
    """Stiemke's LP on the kernel rows restricted to S (``rows``, the
    nonzero ones): y is their positive relation on S, 0 off it; with no
    such rows, y = 1 on S."""
    z = _positive_relation(rows) if rows else [1] * len(support)
    if z is None:
        return None
    y = [0] * m
    for j, v in zip(support, z):
        y[j] = v
    return y


def _positive_relation(rows: Sequence[Sequence[int]]) -> "list[int] | None":
    """A primitive integer z > 0 with ``rows`` z = 0, or None: one exact
    simplex for u >= 0 with rows u = -rows 1, z = 1 + u scaled by the lcm D
    of its denominators.  The basic u is 0 somewhere (the columns it uses
    are independent, those of ``rows`` are not), so D is an entry of z, and
    an entry whose denominator holds a prime power of D is prime to it."""
    u = _nonneg_solve(rows, [-sum(row) for row in rows])[0]
    if u is None:
        return None
    denom = math.lcm(*(x.denominator for x in u))
    return [(x.numerator + x.denominator) * (denom // x.denominator) for x in u]


def _lift_into_rows(basis: Sequence[Sequence[int]], y: Sequence[int],
                    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(c, lam) with c = lam @ basis = d y and lam integral, for the least
    d >= 1: one Bareiss elimination of [basis^T | y] and a back
    substitution on y's column give D lam, D the last pivot, and d lam is
    D lam divided by +-gcd(D, D lam).  The rows of ``basis`` are
    independent, so lam is unique."""
    k = len(basis)
    work = [list(col) + [v] for col, v in zip(zip(*basis), y)]
    pivots, dp = _eliminate(work, k)
    if len(pivots) < k or any(row[k] for row in work[k:]):
        raise GaleKitError("positive vector is not in the row space of "
                           "independent rows (internal invariant)")
    dlam = [row[0] for row in _back_substitute(work, pivots, dp, [k])]
    g = math.gcd(dp, *dlam) * (1 if dp > 0 else -1)
    return tuple(dp // g * v for v in y), tuple(x // g for x in dlam)


def basis_with_positive_first_row(rows: Sequence[Sequence[int]],
                                  c: Sequence[int], lam: Sequence[int],
                                  ) -> list[list[int]]:
    """T @ rows for the unimodular T that makes the first row c/gcd(lam)
    and every row >= 0 (on the support of c, where c must be > 0; the rows
    vanish off it), for c = lam @ rows on the first len(c) columns; any
    columns past those are carried.

    With U lam = (gcd lam, 0, ..., 0), U the first insertion row of [lam | I]
    over lam's left kernel, [U^T | rows] has Hermite form [I | T @ rows].
    Then each later row gains the least multiple of the first row that
    makes it >= 0."""
    k = len(rows)
    support = [j for j, v in enumerate(c) if v]
    col = [[x] for x in lam]
    u_rows = [_hermite_insert(_with_identity(col), 1)[0][0][1:], *_left_kernel(col)]
    herm = _hermite_insert([list(u) + list(row) for u, row
                            in zip(zip(*u_rows), rows)], k)[0]
    if [row[:k] for row in herm] != _identity_rows(k):
        raise GaleKitError("transform is not unimodular (internal invariant)")
    rows = [row[k:] for row in herm]
    first = rows[0]
    if any(first[j] <= 0 for j in support):
        raise GaleKitError("rebased first row is not strictly positive on "
                           "support (internal invariant)")
    for i in range(1, k):
        # smallest integer multiple of the first row making this row >= 0
        mult = max((-(rows[i][j] // first[j]) for j in support), default=0)
        if mult:
            rows[i] = [x + mult * y for x, y in zip(rows[i], first)]
    return rows


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
                mult = max(mult, -(blk[last - 1][j] // blk[last][j]))
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
                mult = max(mult, -(blk[i][j] // blk[last][j]))
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
        basis = res.H.row_tuples()[:r]
        y = _positive_span_vector(basis)
        if y is None:
            raise DomainError("row lattice has no strictly positive vector: "
                              "matrix is not W-positive")
        blk[:d] = [list(h) + list(u) for h, u in zip(res.H.row_tuples(), res.U.row_tuples())]
        blk[:r] = basis_with_positive_first_row(blk[:r], *_lift_into_rows(basis, y))

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
