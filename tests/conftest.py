"""Shared generators and independent oracles for the test suite.

Oracles here deliberately avoid the library's own fast paths: determinants
by cofactor expansion, ranks by naive rational elimination, minor gcds by
direct enumeration, feasibility by scanning square subsystems (and
W-positivity also by the row-space LP the library used before it moved to
the Gale dual), linear systems by a ``Fraction`` Gauss-Jordan tableau,
fraction-free elimination by a full Gauss-Jordan pass and by full-width
Bareiss rows, extended gcds by Euclid's loop, normal forms with
their transforms in separate lists, Cartier indices by one linear system
per maximal cone on the fan side, pairwise lattice intersections by the
kernel of the stack [B1; -B2] in operand order, weight-matrix reductions by
one Smith form of Q without column i per rescaled column, the positivity
rebase by one ``solve`` for its lift and the rational inverse of its
unimodular transform.  They are the reference implementations the
production code is checked against.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations
import math
from operator import mul
import random
import sys
from typing import Sequence

from galekit import (
    DomainError, GaleKitError, Lattice, Mat, SnfResult, hnf, left_kernel_rows)
from galekit.fans import Cone, Fan, _Circuits, _bits, _conflicts, _holders, _mask
from galekit.matrix import (
    _bareiss_det,
    _eliminate,
    _nonneg_solve,
    _norm_entry,
    _pivot,
    block_diag,
    solve,
)
from galekit.normal_forms import _positive_span_vector


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance criterion PASS/FAIL lines in the run summary."""
    try:
        from test_acceptance import CRITERION_LINES
    except ImportError:
        return
    if CRITERION_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)


def count_calls(monkeypatch, module, *names) -> Counter:
    """Count calls to the named functions of ``module``, wherever a galekit
    module binds them (``from .x import y`` makes a binding per importer)."""
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        fn = getattr(module, name)
        wrapper = counted(name, fn)
        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] == "galekit" and getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, wrapper)
    return counts


def count_rank_calls(monkeypatch) -> Counter:
    """Count calls to ``Mat.rank``."""
    counts = Counter()
    rank = Mat.rank

    def wrapper(self):
        counts["rank"] += 1
        return rank(self)

    monkeypatch.setattr(Mat, "rank", wrapper)
    return counts


def rand_mat(rng: random.Random, m: int, n: int, lo: int = -5, hi: int = 5) -> Mat:
    return Mat([[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)])


def rand_full_row_rank(rng: random.Random, m: int, n: int,
                       lo: int = -5, hi: int = 5) -> Mat:
    while True:
        A = rand_mat(rng, m, n, lo, hi)
        if A.rank() == m:
            return A


def rand_unimodular(rng: random.Random, n: int, steps: int = 12) -> Mat:
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        op = rng.randrange(3)
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if op == 0 and i != j:
            rows[i], rows[j] = rows[j], rows[i]
        elif op == 1:
            rows[i] = [-x for x in rows[i]]
        elif i != j:
            q = rng.randint(-3, 3)
            rows[i] = [x + q * y for x, y in zip(rows[i], rows[j])]
    return Mat(rows)


def cofactor_det(A: Mat):
    """Reference determinant by first-row cofactor expansion."""
    n = A.rows
    if n == 1:
        return A[0, 0]
    total = 0
    cols = list(range(n))
    for j in range(n):
        minor = Mat([[A[i, c] for c in cols if c != j] for i in range(1, n)])
        total += (-1) ** j * A[0, j] * cofactor_det(minor)
    return total


def gauss_rank(A: Mat) -> int:
    """Reference rank by plain rational Gaussian elimination."""
    rows = [[Fraction(x) for x in A.row(i)] for i in range(A.rows)]
    rank = 0
    for j in range(A.cols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][j]:
                c = rows[i][j] / rows[rank][j]
                rows[i] = [x - c * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def xgcd_oracle(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) >= 0 and g == a*x + b*y: Euclid's loop
    with floor quotients, as ``matrix.xgcd`` ran it on every pair before it
    read the cofactors off ``math.gcd`` and ``pow``."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def forward_elimination_oracle(m: list[list[int]], ncols: int) -> tuple[list[int], int]:
    """Fraction-free forward elimination (Bareiss) on the first ncols
    columns, as ``matrix._eliminate`` ran it before it updated rows in
    place on the live columns only: every row below a pivot is rebuilt
    over its full width as (p * row - row[j] * prow) // d."""
    pivots: list[int] = []
    d = 1
    nrows = len(m)
    for j in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if m[i][j]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        prow = m[r]
        p = prow[j]
        for i in range(r + 1, nrows):
            row = m[i]
            q = row[j]
            m[i] = [(p * x - q * y) // d for x, y in zip(row, prow)]
        d = p
        pivots.append(j)
    return pivots, d


def eliminate_oracle(m: list[list[int]], ncols: int) -> tuple[list[int], int]:
    """Fraction-free Gauss-Jordan on the first ncols columns (in place).

    Returns (pivots, d), the pivot columns and the last pivot: rows
    0..len(pivots)-1 are then d times the reduced row echelon form and the
    other rows vanish on the first ncols columns."""
    pivots: list[int] = []
    d = 1
    nrows = len(m)
    for j in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if m[i][j]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        _pivot(m, r, j, d)
        d = m[r][j]
        pivots.append(j)
    return pivots, d


def solve_oracle(A: Mat, B: Mat) -> "Mat | None":
    """A particular exact solution X of A @ X = B, or None if inconsistent.

    Free variables are set to zero, which makes the answer deterministic.
    """
    if A.rows != B.rows:
        raise DomainError("solve: row mismatch")
    m, n = A.shape
    k = B.cols
    aug = [[Fraction(x) for x in A.row(i)] + [Fraction(x) for x in B.row(i)]
           for i in range(m)]
    piv_cols = []
    r = 0
    for j in range(n):
        piv = next((i for i in range(r, m) if aug[i][j]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        a = aug[r][j]
        aug[r] = [x / a for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][j]:
                c = aug[i][j]
                aug[i] = [x - c * y for x, y in zip(aug[i], aug[r])]
        piv_cols.append(j)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if any(aug[i][n:]):
            return None
    sol = [[0] * k for _ in range(n)]
    for idx, j in enumerate(piv_cols):
        sol[j] = [_norm_entry(x) for x in aug[idx][n:]]
    return Mat(sol)


def minors_gcd_oracle(A: Mat, k: int) -> int:
    """gcd of all k x k minors by direct enumeration (0 when all vanish)."""
    g = 0
    for rsel in combinations(range(A.rows), k):
        for csel in combinations(range(A.cols), k):
            sub = Mat([[A[i, j] for j in csel] for i in rsel])
            g = math.gcd(g, abs(cofactor_det(sub)))
    return g


def hnf_clauses_hold(H: Mat, pivot_map) -> bool:
    """The row-style Hermite conditions on H with the given pivot columns."""
    r = len(pivot_map)
    pivots0 = [p - 1 for p in pivot_map]
    if any(a >= b for a, b in zip(pivots0, pivots0[1:])):
        return False
    for i in range(r):
        p = pivots0[i]
        # integer pivots are >= 1; rational ones only need positivity
        if H[i, p] <= 0:
            return False
        if isinstance(H[i, p], int) and H.is_integral and H[i, p] < 1:
            return False
        if any(H[i, j] != 0 for j in range(p)):
            return False
    for i in range(r):
        for k in range(i + 1, r):
            pk = pivots0[k]
            if not (0 <= H[i, pk] < H[k, pk]):
                return False
    for i in range(r, H.rows):
        if any(H.row(i)):
            return False
    return True


def check_hnf_result(A: Mat, res) -> bool:
    from galekit import det_exact
    if res.U @ A != res.H:
        return False
    if abs(det_exact(res.U)) != 1:
        return False
    return hnf_clauses_hold(res.H, res.pivot_map)


def box_vectors(dim: int, bound: int):
    """All integer vectors with coordinates in [-bound, bound]."""
    def rec(prefix):
        if len(prefix) == dim:
            yield tuple(prefix)
            return
        for v in range(-bound, bound + 1):
            yield from rec(prefix + [v])
    yield from rec([])


def rand_f_matrix(rng: random.Random, n: int, s: int, tries: int = 400,
                  lo: int = -3, hi: int = 3):
    """Rejection-sample an F-matrix (full rank, positively spanning, nonzero
    pairwise non-proportional columns); None when unlucky."""
    from galekit import classify_f
    for _ in range(tries):
        A = rand_mat(rng, n, s, lo, hi)
        if A.rank() != n:
            continue
        if classify_f(A).is_f_matrix:
            return A
    return None


def _primitive(vec) -> tuple:
    denom = 1
    for v in vec:
        denom = math.lcm(denom, Fraction(v).denominator)
    ints = [int(v * denom) for v in vec]
    g = 0
    for v in ints:
        g = math.gcd(g, v)
    return tuple(v // g for v in ints) if g else tuple(ints)


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


class ConeGeom:
    """Exact H-description of a simplicial cone on 1-based columns of V:
    coefficient functionals and the equalities cutting out its span."""

    def __init__(self, V: Mat, gens):
        self.gens = tuple(gens)
        sub = V.take_cols([g - 1 for g in self.gens])
        gram = sub.transpose() @ sub
        self.coeff = gram.inverse() @ sub.transpose()
        self.span_eq = left_kernel_rows(sub)

    def contains(self, x) -> bool:
        return (all(_dot(e, x) == 0 for e in self.span_eq)
                and all(_dot(w, x) >= 0 for w in self.coeff.row_tuples()))


def proper_intersection(V: Mat, ca: ConeGeom, cb: ConeGeom) -> bool:
    """Reference pair test: whether cone(A) ∩ cone(B) equals the cone on the
    shared generators, decided by enumerating the extreme rays of the
    intersection (a pointed cone) and testing them for membership."""
    shared = tuple(sorted(set(ca.gens) & set(cb.gens)))
    n = V.rows
    eqs = [tuple(e) for e in ca.span_eq] + [tuple(e) for e in cb.span_eq]
    ineqs = ([_primitive(w) for w in ca.coeff.row_tuples()]
             + [_primitive(w) for w in cb.coeff.row_tuples()])
    eq_rank = Mat(eqs).rank() if eqs else 0
    need = n - 1 - eq_rank
    if need < 0:
        return True
    shared_geom = ConeGeom(V, shared) if shared else None
    seen = set()
    for pick in combinations(range(len(ineqs)), need):
        rows = eqs + [ineqs[t] for t in pick]
        if rows:
            kern = left_kernel_rows(Mat(rows).transpose())
        else:
            kern = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        if len(kern) != 1:
            continue
        z = _primitive(kern[0])
        for cand in (z, tuple(-v for v in z)):
            if cand in seen:
                continue
            seen.add(cand)
            if (ca.contains(cand) and cb.contains(cand)
                    and not (shared_geom and shared_geom.contains(cand))):
                return False
    return True


def support_complete_oracle(V: Mat, cones) -> bool:
    """Reference support certificate for full-dimensional cones on a
    full-rank V: every facet is shared by two cones or its hyperplane (normal
    from the left kernel) has every column weakly on one side."""
    n = V.rows
    if any(len(c) != n for c in cones):
        return False
    counts = {}
    for c in cones:
        for drop in c:
            facet = tuple(g for g in c if g != drop)
            counts[facet] = counts.get(facet, 0) + 1
    for facet, cnt in counts.items():
        if cnt == 2:
            continue
        if cnt > 2:
            return False
        if facet:
            u = left_kernel_rows(V.take_cols([g - 1 for g in facet]))[0]
        else:
            u = (1,)
        sides = [_dot(u, V.col(j)) for j in range(V.cols)]
        if any(x > 0 for x in sides) and any(x < 0 for x in sides):
            return False
    return True


# ---------------------------------------------------------------------------
# the circuit table that the Laplace sweep replaced: one Bareiss determinant
# per basis

def chirotope_oracle(V: Mat) -> tuple[dict[int, int], tuple[tuple[int, int], ...]]:
    """(chi, circuits) of ``_Circuits(V)``, chi in lexicographic order, with
    the maximal minors on the row basis taken one ``_bareiss_det`` each.
    The row basis is the table's: the echelon rows of one ``_eliminate`` of
    V's integer rows."""
    _, rows = V.int_scaled()
    pivots, _ = _eliminate(rows, V.cols)
    basis = rows[:len(pivots)]
    s, rho = V.cols, len(basis)
    chi: dict[int, int] = {}
    for sub in combinations(range(s), rho):
        d = _bareiss_det([[row[j] for j in sub] for row in basis]) if rho else 1
        if d:
            chi[_mask(sub)] = 1 if d > 0 else -1
    found = set()
    for sub in combinations(range(s), rho + 1):
        m = _mask(sub)
        pos = neg = 0
        for i, j in enumerate(sub):
            sign = chi.get(m ^ 1 << j, 0)
            if sign:
                if (sign > 0) == (i % 2 == 0):
                    pos |= 1 << j
                else:
                    neg |= 1 << j
        if pos | neg:
            found.add((pos, neg))
            found.add((neg, pos))
    return chi, tuple(sorted(found))


# ---------------------------------------------------------------------------
# the fan search that the all-rays candidate rule and the demand order replaced:
# candidates drop only bases with a ray strictly inside, the search always
# extends the least open facet, and complete leaves that miss a ray are
# discarded

def enumerate_SF_oracle(V: Mat, cap: int = 10) -> list[Fan]:
    """All simplicial fans whose rays are exactly the columns of V and whose
    support is the cone spanned by all columns, in a deterministic order.

    Refuses configurations with more than ``cap`` rays, zero columns,
    repeated ray directions, or rank-deficient V.
    """
    if not V.is_integral:
        raise DomainError("enumerate_SF requires an integer matrix")
    n, s = V.shape
    if s > cap:
        raise DomainError(f"ray count {s} exceeds cap {cap}")
    for j in range(s):
        if not any(V.col(j)):
            raise DomainError(f"degenerate configuration: column {j + 1} is zero")
    table = _Circuits(V)
    # circuits v_i - c v_j = 0, c > 0; the least names the first pair (i, j)
    same_ray = [(p, q) for p, q in table.circuits
                if p < q and p.bit_count() == q.bit_count() == 1]
    if same_ray:
        i, j = (b.bit_length() for b in min(same_ray))
        raise DomainError("degenerate configuration: columns "
                          f"{i} and {j} span the same ray")
    if table.rank < n:
        raise DomainError("degenerate configuration: rank-deficient matrix")

    blocked = {p for p, q in table.circuits if q.bit_count() == 1}
    cands = [m for m in (_mask(pick) for pick in combinations(range(s), n))
             if m in table.chi and m not in blocked]

    conflicts = _conflicts(table, _holders(cands, s), (1 << len(cands)) - 1)

    # interior facets of each candidate, with the side of the dropped ray
    inner: list[list[tuple[int, int]]] = []
    by_facet: dict[int, list[tuple[int, int]]] = {}
    for i, m in enumerate(cands):
        faces = []
        for j in _bits(m):
            facet = m ^ 1 << j
            if not table.is_boundary(facet):
                side = table.side(facet, j)
                faces.append((facet, side))
                by_facet.setdefault(facet, []).append((i, side))
        inner.append(faces)

    # unmatched interior facet -> side its missing neighbour must lie on
    open_facets: dict[int, int] = {}

    def toggle(i: int, sign: int) -> None:
        # adding a cone (sign -1) opens its unmatched facets and closes the
        # rest; removing it (sign +1) undoes exactly that.  A cone that
        # passed the conflict test lies opposite every open facet it shares,
        # since two cones on one side of a common facet overlap, so no facet
        # is ever covered from one side twice.
        for facet, side in inner[i]:
            if facet in open_facets:
                del open_facets[facet]
            else:
                open_facets[facet] = sign * side

    full = (1 << s) - 1
    path: list[int] = []  # the candidates chosen, in the order pushed
    results: list[tuple[int, ...]] = []

    def dfs(root: int, chosen: int, used: int) -> None:
        if not open_facets:
            if used == full:
                results.append(tuple(sorted(path)))
            return
        facet = min(open_facets)
        need = open_facets[facet]
        # a chosen cone on this facet lies on the other side, so the side
        # test also skips it
        for i, side in by_facet[facet]:
            if i <= root or side != need or conflicts[i] & chosen:
                continue
            toggle(i, -1)
            path.append(i)
            dfs(root, chosen | 1 << i, used | cands[i])
            path.pop()
            toggle(i, 1)

    for root, m in enumerate(cands):
        if not m & 1:
            # a fan on every ray is found from its least cone, which holds
            # column 1; the candidates holding it come first
            break
        toggle(root, -1)
        path.append(root)
        dfs(root, 1 << root, m)
        path.pop()
        toggle(root, 1)

    # candidates are in lexicographic order, so index tuples sort like fans
    cones = [Cone(gens=tuple(j + 1 for j in _bits(m))) for m in cands]
    return [Fan(V=V, maximal_cones=tuple(cones[i] for i in fset))
            for fset in sorted(set(results))]


# ---------------------------------------------------------------------------
# square-subsystem scans: the feasibility routines the exact simplex replaced

def nonneg_combination_oracle(cols, target):
    """Coefficients c >= 0 with sum(c_i * cols_i) = target, or None, found by
    scanning the square subsystems on rank-many columns (Caratheodory)."""
    if not any(target):
        return [0] * len(cols)
    if not cols:
        return None
    mat = Mat.from_cols(cols)
    rho = gauss_rank(mat)
    if rho == 0:
        return None
    tgt = Mat([[x] for x in target])
    for pick in combinations(range(len(cols)), rho):
        sub = mat.take_cols(pick)
        if gauss_rank(sub) < rho:
            continue
        sol = solve_oracle(sub, tgt)
        if sol is None:
            continue
        vals = [sol[i, 0] for i in range(rho)]
        if any(v < 0 for v in vals):
            continue
        out = [0] * len(cols)
        for slot, v in zip(pick, vals):
            out[slot] = v
        return out
    return None


def is_f_complete_oracle(A: Mat) -> bool:
    """Full rank and, for each column v, -v a nonnegative combination of the
    other columns."""
    if gauss_rank(A) < A.rows:
        return False
    cols = list(A.col_tuples())
    return all(
        nonneg_combination_oracle(cols[:i] + cols[i + 1:], tuple(-x for x in v))
        is not None
        for i, v in enumerate(cols))


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

    This was the library's W-clause c until that clause moved to the
    smaller Stiemke LP on the Gale dual; it stays as an oracle.
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


def strictly_positive_row_vector_oracle(basis, support):
    """(vec, lam) with vec = lam @ basis > 0 on the support, or None, by
    solving every square subsystem of lam @ B_S = 1 at equality."""
    k = len(basis)
    cols = list(support)
    if k == 0 or not cols:
        return None
    bmat = Mat(basis)
    sub = bmat.take_cols(cols)
    ones = Mat([[1]] * k)
    for pick in combinations(range(len(cols)), k):
        square = sub.take_cols(pick)
        if gauss_rank(square) < k:
            continue
        lam = solve_oracle(square.transpose(), ones)
        if lam is None:
            continue
        lam_row = tuple(lam.col(0))
        if any(sum(l * sub[i, j] for i, l in enumerate(lam_row)) < 1
               for j in range(len(cols))):
            continue
        denom = math.lcm(*(Fraction(x).denominator for x in lam_row))
        lam_int = tuple(int(x * denom) for x in lam_row)
        vec = tuple(sum(l * basis[i][j] for i, l in enumerate(lam_int))
                    for j in range(bmat.cols))
        return vec, lam_int
    return None


def proportional_columns_oracle(cols) -> bool:
    """Clause d by a rank test per column pair: two nonzero columns of rank
    1 together with a positive dot product."""
    for i in range(len(cols)):
        for j in range(i + 1, len(cols)):
            u, w = cols[i], cols[j]
            if any(u) and any(w) and Mat([u, w]).rank() == 1 and _dot(u, w) > 0:
                return True
    return False


def mixed_sign_plane_oracle(lat) -> bool:
    """Clause f by one left kernel per coordinate plane: does the lattice
    meet some span(e_i, e_j) in a vector with opposite-sign entries?"""
    m = lat.ambient_dim
    if lat.rank == 0:
        return False
    basis = lat.basis_matrix()
    for i in range(m):
        for j in range(i + 1, m):
            rest = [c for c in range(m) if c not in (i, j)]
            if rest:
                kern = left_kernel_rows(basis.take_cols(rest))
                plane = [tuple(sum(k[t] * basis[t, c] for t in range(lat.rank))
                               for c in range(m)) for k in kern]
            else:
                plane = [tuple(row) for row in lat.basis]
            plane = [p for p in plane if any(p)]
            if not plane:
                continue
            if Mat(plane).rank() >= 2 or plane[0][i] * plane[0][j] < 0:
                return True
    return False


def intersection_oracle(lattices):
    """The dual-of-sum-of-duals construction of lattice intersections:
    intersect the rational spans, restrict every lattice to the common
    span, stack the transverse duals, Hermite-reduce once and dualize
    back."""
    from galekit import transverse

    ambient = lattices[0].ambient_dim
    if len(lattices) == 1:
        return lattices[0]
    if any(L.rank == 0 for L in lattices):
        return Lattice.zero(ambient)

    def combine(kern, rows):
        return [tuple(sum(k[i] * rows[i][j] for i in range(len(rows)))
                      for j in range(ambient)) for k in kern]

    span = list(lattices[0].basis)
    for L in lattices[1:]:
        stacked = Mat(span + [tuple(-x for x in r) for r in L.basis])
        span = [v for v in combine(left_kernel_rows(stacked), span) if any(v)]
        if not span:
            return Lattice.zero(ambient)
    comp = left_kernel_rows(Mat(span).transpose())
    duals = []
    for L in lattices:
        if L.rank != len(span) and comp:
            basis = L.basis_matrix()
            kern = left_kernel_rows(basis @ Mat(comp).transpose())
            L = Lattice.from_rows(combine(kern, L.basis), ambient)
        duals.append(transverse(L.basis_matrix()))
    res = hnf(Mat([row for D in duals for row in D.row_tuples()]))
    sum_basis = Mat([res.H.row(i) for i in range(res.rank)])
    return Lattice.from_matrix(transverse(sum_basis))


def intersect_pair_oracle(L1: Lattice, L2: Lattice) -> Lattice:
    """L1 ∩ L2 from one integer left kernel of the stacked bases.

    Canonical bases have independent rows, so the integer rows (u, v) of
    the kernel of [B1; -B2] are exactly the pairs with u B1 = v B2, and
    (u, v) -> u B1 maps them onto L1 ∩ L2.

    The route ``lattices._intersect_pair`` took before it stacked the
    first operand's basis last, reversed.
    """
    b1 = L1.basis
    kern = left_kernel_rows(Mat(list(b1) + [tuple(-x for x in r) for r in L2.basis]))
    cols = tuple(zip(*b1))  # map(mul, u, col) stops at the end of u's B1 part
    rows = [[sum(map(mul, u, col)) for col in cols] for u in kern]
    return Lattice.from_rows(rows, L1.ambient_dim)


def hnf_int_oracle(mat):
    """Row HNF with transform kept in a second list of rows, each row
    operation applied to the matrix and to the transform in turn, by the
    Euclid scan ``hnf`` used for a tall or rank-deficient matrix before row
    insertion replaced it.  Kept as the oracle of H, the pivots and the
    rows of U past the rank (the Hermite basis of the left kernel); the
    first rank rows of U are canonical only for a full-row-rank matrix."""
    mat = [list(r) for r in mat]
    m, n = len(mat), len(mat[0])
    u = [[int(i == j) for j in range(m)] for i in range(m)]

    def sub(rows, i, k, q):
        if q:
            rows[i] = [x - q * y for x, y in zip(rows[i], rows[k])]

    p = 0
    pivots = []
    for j in range(n):
        if p == m:
            break
        while True:
            nz = [i for i in range(p, m) if mat[i][j]]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(mat[i][j]), i))
            if i0 != p:
                mat[p], mat[i0] = mat[i0], mat[p]
                u[p], u[i0] = u[i0], u[p]
            if mat[p][j] < 0:
                mat[p] = [-x for x in mat[p]]
                u[p] = [-x for x in u[p]]
            a = mat[p][j]
            clean = True
            for i in range(p + 1, m):
                if mat[i][j]:
                    q = mat[i][j] // a
                    sub(mat, i, p, q)
                    sub(u, i, p, q)
                    if mat[i][j]:
                        clean = False
            if clean:
                break
        if mat[p][j]:
            a = mat[p][j]
            for i in range(p):
                q = mat[i][j] // a
                sub(mat, i, p, q)
                sub(u, i, p, q)
            pivots.append(j)
            p += 1
    if p < m:
        u[p:] = hnf_int_oracle(u[p:])[0]
    return mat, u, pivots


# ---------------------------------------------------------------------------
# The column fold that computed every transform-free Hermite basis before
# ``normal_forms._hermite_insert`` (row insertion) replaced it, kept as it
# was; its modular branch lives on as ``normal_forms._hermite_mod``.

def hermite_fold_oracle(rows: Sequence[Sequence[int]], n: int, D: int = 0,
                        ) -> tuple[list, list[int]]:
    """(Hermite basis, 0-based pivot columns) of the lattice spanned by the
    integer rows of width n; with D > 0, (upper triangular basis, every
    column) of the lattice spanned by the rows and D Z^n (Cohen, Alg. 2.4.8,
    with the modulus fixed at D).

    Column j folds every row r that is nonzero there (and then D e_j) into
    the row p with the least nonzero |entry| a.  A row whose entry b is a
    multiple of a loses b/a times p; any other takes one unimodular 2 x 2
    step with g = u a + v b: p becomes u p + v r and r becomes
    (a/g) r - (b/g) p, zero in column j.  Zero rows are dropped.  Without a
    modulus p is made positive and the rows above it are reduced into
    [0, a); with one every entry is reduced mod D, which is exact because
    D e_l stays in the lattice for every l, and the rows above are left as
    they are.  The input rows are never changed.
    """
    if D:
        rows = [[x % D for x in r] for r in rows]
    rows = [r for r in rows if any(r)]
    basis: list = []
    pivots: list[int] = []
    for j in range(n):
        piv = None
        a = 0
        others = []
        rest = []
        for r in rows:
            b = r[j]
            if not b:
                rest.append(r)
            elif piv is None:
                piv, a = r, abs(b)
            elif abs(b) < a:
                others.append(piv)
                piv, a = r, abs(b)
            else:
                others.append(r)
        if D:
            e = [0] * n
            e[j] = D
            if piv is None:
                piv = e
            else:
                others.append(e)
        elif piv is None:
            continue
        a = piv[j]
        for r in others:
            b = r[j]
            if not b % a:
                q = b // a
                r = ([(y - q * x) % D for x, y in zip(piv, r)] if D
                     else [y - q * x for x, y in zip(piv, r)])
            else:
                g, u, v = xgcd_oracle(a, b)
                s, t = a // g, b // g
                if D:
                    r, piv = ([(s * y - t * x) % D for x, y in zip(piv, r)],
                              [(u * x + v * y) % D for x, y in zip(piv, r)])
                else:
                    r, piv = ([s * y - t * x for x, y in zip(piv, r)],
                              [u * x + v * y for x, y in zip(piv, r)])
                a = g
            if any(r):
                rest.append(r)
        if not D:
            if a < 0:
                piv = [-x for x in piv]
                a = -a
            for i, h in enumerate(basis):
                q = h[j] // a
                if q:
                    basis[i] = [x - q * y for x, y in zip(h, piv)]
        basis.append(piv)
        pivots.append(j)
        rows = rest
    return basis, pivots


# ---------------------------------------------------------------------------
# Smith form and positive row echelon form with the transforms kept in
# separate lists of rows, every row and column step applied to the matrix
# and to its transform in turn: the two-list versions of
# ``normal_forms.snf`` and ``normal_forms.positive_row_echelon``.

def _row_sub(m: list[list[int]], i: int, k: int, q: int) -> None:
    if q:
        mi, mk = m[i], m[k]
        m[i] = [x - q * y for x, y in zip(mi, mk)]


def _swap_rows(m, i, j):
    m[i], m[j] = m[j], m[i]


def _swap_cols(m, i, j):
    for row in m:
        row[i], row[j] = row[j], row[i]


def _col_sub(m, j, k, q):
    # column j -= q * column k
    if q:
        for row in m:
            row[j] -= q * row[k]


def snf_oracle(A: Mat) -> SnfResult:
    if not A.is_integral:
        raise DomainError("snf requires an integer matrix")
    mat = A.to_lists()
    d, m = A.shape
    left = [[int(i == j) for j in range(d)] for i in range(d)]
    right = [[int(i == j) for j in range(m)] for i in range(m)]

    def clear_at(t: int) -> None:
        # assumes mat[t][t] != 0; clears row t and column t
        while True:
            if mat[t][t] < 0:
                mat[t] = [-x for x in mat[t]]
                left[t] = [-x for x in left[t]]
            a = mat[t][t]
            restart = False
            for i in range(d):
                if i != t and mat[i][t]:
                    q = mat[i][t] // a
                    _row_sub(mat, i, t, q)
                    _row_sub(left, i, t, q)
                    if mat[i][t]:
                        _swap_rows(mat, i, t)
                        _swap_rows(left, i, t)
                        restart = True
                        break
            if restart:
                continue
            for j in range(m):
                if j != t and mat[t][j]:
                    q = mat[t][j] // a
                    _col_sub(mat, j, t, q)
                    _col_sub(right, j, t, q)
                    if mat[t][j]:
                        _swap_cols(mat, j, t)
                        _swap_cols(right, j, t)
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
                v = mat[i][j]
                if v and (best is None or abs(v) < abs(mat[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        if best[0] != t:
            _swap_rows(mat, best[0], t)
            _swap_rows(left, best[0], t)
        if best[1] != t:
            _swap_cols(mat, best[1], t)
            _swap_cols(right, best[1], t)
        clear_at(t)
        t += 1

    k = t

    def fix_sign(i: int) -> None:
        if mat[i][i] < 0:
            mat[i] = [-x for x in mat[i]]
            left[i] = [-x for x in left[i]]

    for i in range(k):
        fix_sign(i)
    # enforce the divisibility chain c_i | c_{i+1}
    i = 0
    while i + 1 < k:
        a, b = mat[i][i], mat[i + 1][i + 1]
        if b % a:
            for row in mat:
                row[i] += row[i + 1]
            for row in right:
                row[i] += row[i + 1]
            clear_at(i)
            fix_sign(i)
            fix_sign(i + 1)
            i = max(i - 1, 0)
        else:
            i += 1

    factors = tuple(mat[i][i] for i in range(k))
    return SnfResult(S=Mat(mat), alpha=Mat(left), beta=Mat(right), factors=factors)


def lift_into_rows_oracle(basis: Sequence[Sequence[int]], y: Sequence[int],
                          ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(c, lam) with c = lam @ basis = d y and lam integral, for the least
    d >= 1: one ``solve`` for the rational coefficients of y, whose
    denominators are then cleared."""
    lam = solve(Mat(basis).transpose(), Mat([[v] for v in y]))
    if lam is None:
        raise GaleKitError("positive vector is not in the row space")
    lam = lam.col(0)
    d = math.lcm(*(x.denominator for x in lam))
    return tuple(d * v for v in y), tuple(int(x * d) for x in lam)


def _basis_with_positive_first_row(basis: Sequence[Sequence[int]],
                                   c: Sequence[int],
                                   lam: Sequence[int],
                                   support: Sequence[int],
                                   ) -> tuple[list[list[int]], Mat]:
    """Rebase so that the first row is c/gcd(lam) and all rows are >= 0.

    c = lam @ basis must hold.  Returns (new_rows, T) with new_rows = T @ basis
    and T unimodular.
    """
    k = len(basis)
    lam_col = Mat([[x] for x in lam])
    res = hnf(lam_col)
    alpha = res.U
    t_mat = alpha.inverse().transpose()
    if not t_mat.is_integral:
        raise GaleKitError("unimodular inverse produced non-integer entries")
    rows = (t_mat @ Mat(basis)).to_lists()
    first = rows[0]
    if any(first[j] <= 0 for j in support):
        raise GaleKitError("rebased first row is not strictly positive on support")
    t_rows = t_mat.to_lists()
    for i in range(1, k):
        # smallest integer multiple of the first row making this row >= 0
        mult = math.ceil(max((Fraction(-rows[i][j], first[j]) for j in support),
                             default=Fraction(0)))
        if mult:
            rows[i] = [x + mult * y for x, y in zip(rows[i], first)]
            t_rows[i] = [x + mult * y for x, y in zip(t_rows[i], t_rows[0])]
    return rows, Mat(t_rows)


def _positive_row_basis(basis: Sequence[Sequence[int]]) -> tuple[list[list[int]], Mat]:
    """A nonnegative basis of the row lattice of ``basis`` plus its transform.

    Raises DomainError when the lattice admits no such basis (i.e. the input
    is not W-positive).
    """
    # the witness is the library's own, so both layouts rebase the same row
    y = _positive_span_vector(basis, left_kernel_rows(Mat(basis).transpose()))
    if y is None:
        raise DomainError("row lattice has no strictly positive vector: "
                          "matrix is not W-positive")
    c, lam = lift_into_rows_oracle(basis, y)
    support = [j for j, v in enumerate(c) if v]
    return _basis_with_positive_first_row(basis, c, lam, support)


def _perm_cols(mat, perm_target, order):
    # reorder columns order -> positions perm_target..; applied to all rows
    for row in mat:
        seg = [row[j] for j in order]
        for off, val in enumerate(seg):
            row[perm_target + off] = val


def _apply_col_order(mat: list[list], right: list[list[int]],
                     c0: int, order: list[int]) -> None:
    if order == list(range(c0, c0 + len(order))):
        return
    _perm_cols(mat, c0, order)
    _perm_cols(right, c0, order)


def _clear_first_column(mat, left, right, r0, c0, d, m) -> None:
    """Zero out window column c0 below its first row, keeping entries >= 0."""
    if d <= 1:
        return
    last = r0 + d - 1

    def sort_key(j):
        den = mat[last][j]
        if den == 0:
            return (0, Fraction(0), j)
        return (1, -Fraction(mat[last - 1][j], den), j)

    order = sorted(range(c0, c0 + m), key=sort_key)
    _apply_col_order(mat, right, c0, order)

    if mat[last][c0] != 0:
        a, b = mat[last - 1][c0], mat[last][c0]
        g, x, y = xgcd_oracle(a, b)
        row_hi = [x * u + y * v for u, v in zip(mat[last - 1], mat[last])]
        row_lo = [(-b // g) * u + (a // g) * v
                  for u, v in zip(mat[last - 1], mat[last])]
        mat[last - 1], mat[last] = row_hi, row_lo
        lhi = [x * u + y * v for u, v in zip(left[last - 1], left[last])]
        llo = [(-b // g) * u + (a // g) * v
               for u, v in zip(left[last - 1], left[last])]
        left[last - 1], left[last] = lhi, llo
        mult = 0
        for j in range(c0, c0 + m):
            if mat[last][j] > 0 and mat[last - 1][j] < 0:
                mult = max(mult, math.ceil(Fraction(-mat[last - 1][j], mat[last][j])))
        if mult:
            mat[last - 1] = [u + mult * v for u, v in zip(mat[last - 1], mat[last])]
            left[last - 1] = [u + mult * v for u, v in zip(left[last - 1], left[last])]

    j0 = 0
    while j0 < m and mat[last][c0 + j0] == 0:
        j0 += 1
    assert all(mat[last][c0 + t] > 0 for t in range(j0, m))

    _clear_first_column(mat, left, right, r0, c0, d - 1, j0)

    # recursion may have left negatives right of the truncation; the last row
    # is zero there-left and positive there-right, so it can repair them
    for i in range(r0, last):
        mult = 0
        for j in range(c0 + j0, c0 + m):
            if mat[i][j] < 0:
                mult = max(mult, math.ceil(Fraction(-mat[i][j], mat[last][j])))
        if mult:
            mat[i] = [u + mult * v for u, v in zip(mat[i], mat[last])]
            left[i] = [u + mult * v for u, v in zip(left[i], left[last])]


def positive_row_echelon_oracle(A: Mat) -> tuple[Mat, Mat, Mat]:
    """(E, alpha, beta) with E = alpha @ A @ beta, E >= 0 in row echelon form,
    alpha unimodular and beta a permutation matrix.

    Raises DomainError when the row lattice of A is not W-positive.
    """
    if not A.is_integral:
        raise DomainError("positive_row_echelon requires an integer matrix")
    d, m = A.shape
    mat = A.to_lists()
    left = [[int(i == j) for j in range(d)] for i in range(d)]
    right = [[int(i == j) for j in range(m)] for i in range(m)]

    if any(x < 0 for row in mat for x in row):
        res = hnf(A)
        r = res.rank
        basis = [list(res.H.row(i)) for i in range(r)]
        pos_rows, t_mat = _positive_row_basis(basis)
        trans = block_diag(t_mat, Mat.identity(d - r)) if r < d else t_mat
        full = trans @ res.U
        mat = pos_rows + [[0] * m for _ in range(d - r)]
        left = full.to_lists()

    r0 = c0 = 0
    rows_left, cols_left = d, m
    while rows_left > 0 and cols_left > 0:
        _clear_first_column(mat, left, right, r0, c0, rows_left, cols_left)
        if mat[r0][c0] > 0:
            r0 += 1
            rows_left -= 1
        c0 += 1
        cols_left -= 1

    return Mat(mat), Mat(left), Mat(right)


def cartier_indices_oracle(V: Mat, fan: Fan, divisors: Sequence) -> tuple[int, ...]:
    """cartier_index of each divisor: one solve per maximal cone, with one
    right-hand side column per divisor."""
    ks = [1] * len(divisors)
    for cone in fan.maximal_cones:
        sub = V.take_cols([g - 1 for g in cone.gens])
        rhs = Mat([[a[g - 1] for a in divisors] for g in cone.gens])
        sol = solve(sub.transpose(), rhs)
        if sol is None:
            raise DomainError("degenerate cone in cartier_index")
        for row in sol.row_tuples():
            ks = [math.lcm(k, Fraction(x).denominator) for k, x in zip(ks, row)]
    return tuple(ks)


def picard_basis_oracle(Q: Mat, fan: Fan) -> tuple[Mat, int]:
    """(Picard basis, delta_sigma) by the pairwise intersection fold that
    ``toric._picard_basis`` used before it read the lattice modulo delta:
    one ``Lattice`` per complementary weight block, |Sigma| - 1 calls of
    ``lattice_intersection``'s pairwise step, and delta as the lcm of the
    products of the blocks' Hermite pivots."""
    from galekit import lattice_intersection
    from galekit.matrix import submatrix_cols

    lattices = []
    for cone in fan.maximal_cones:
        qi = submatrix_cols(Q, cone.gens, complement=True)
        lattices.append(Lattice.from_rows(qi.col_tuples(), Q.rows))
    inter = lattice_intersection(lattices)
    basis = inter.basis_matrix()
    if basis is None or inter.rank != Q.rows:
        raise GaleKitError("Picard lattice is not of full rank (unreachable "
                           "for simplicial complete fans)")
    if not basis.is_integral:
        raise GaleKitError("Picard basis is not integral (internal invariant)")
    delta = math.lcm(*(math.prod(row[i] for i, row in enumerate(lat.basis))
                       for lat in lattices))
    return basis, delta


def i_reduce_oracle(Q: Mat, i: int) -> Mat:
    """``fw.i_reduce`` by the Smith route it used before the reductions took
    the Gale dual of the rescaled kernel: one Smith form of Q with column i
    deleted (``_rescale``)."""
    from galekit.fw import _require_w_matrix
    from galekit.matrix import vec_gcd

    if not 1 <= i <= Q.cols:
        raise DomainError(f"column index {i} out of range")
    kernel = _require_w_matrix(Q, "i_reduce")[1]
    d = vec_gcd([row[i - 1] for row in kernel])
    return Q if d == 1 else _rescale(Q, kernel, i, d)[0]


def _rescale(Q: Mat, V: list[tuple], i: int, d: int) -> tuple[Mat, list[tuple]]:
    """The i-reduction of a W-matrix Q whose Gale dual V (Hermite basis rows)
    has gcd d > 1 in column i, and the Gale dual of the result: V with
    column i divided by d, still in Hermite form."""
    from galekit.matrix import submatrix_cols
    from galekit.normal_forms import _smith, _with_identity

    # alpha of the Smith form of Q with column i deleted: [A | I] carries it
    A = submatrix_cols(Q, (i,), complement=True)
    top = _with_identity(A.to_lists())
    _smith(top, A.rows, A.cols)
    alpha = Mat([row[A.cols:] for row in top])
    rows = (alpha @ Q).to_lists()
    for row in rows:
        row[i - 1] *= d
    if any(x % d for x in rows[-1]):
        raise GaleKitError("last row not divisible in i-reduction "
                           "(cyclic-quotient theorem violation)")
    rows[-1] = [x // d for x in rows[-1]]
    dual = [(*row[:i - 1], row[i - 1] // d, *row[i:]) for row in V]
    return Mat(rows), dual


def w_reduce_oracle(Q: Mat) -> Mat:
    """``fw.w_reduce`` by the Smith route: i-reductions for i = 1..n+r in
    order, reading each column gcd off the Gale dual carried through the
    rescalings."""
    from galekit.fw import _require_w_matrix
    from galekit.matrix import vec_gcd

    cur, V = Q, _require_w_matrix(Q, "w_reduce")[1]
    for i in range(1, Q.cols + 1):
        d = vec_gcd([row[i - 1] for row in V])
        if d > 1:
            cur, V = _rescale(cur, V, i, d)
    return cur
