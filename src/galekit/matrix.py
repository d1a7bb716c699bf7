"""Exact dense matrices over the integers and rationals.

Entries are Python ints or ``fractions.Fraction`` values (lowest terms,
positive denominator), so arithmetic never overflows and no floating point
appears anywhere.  Matrices are immutable values: every transform returns a
new matrix.  Construction scans the entry types once and sends the entries
through ``_norm_entry`` only when one of them is not a plain ``int``.

Rank, ``solve``, ``inverse`` and the phase-1 simplex share one
fraction-free (Bareiss) Gauss-Jordan pivot step on integer rows; ``solve``
reads X off the pivot rows over one common denominator.  Determinants keep
their own Bareiss loop, cheaper on the small minors of the circuit table.

Text format shared by the CLI and tests: one row per line, entries
whitespace-separated, rationals written ``p/q``, integers plain; blank lines
and ``#`` comments are ignored.  All externally visible column/row indices
are 1-based; in-memory access is 0-based.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import chain
from typing import Iterable, Sequence


class GaleKitError(Exception):
    """Base class for all galekit errors."""


class DomainError(GaleKitError):
    """A documented precondition was violated."""


class ParseError(GaleKitError):
    """Malformed matrix or vector text."""


def _norm_entry(x):
    if isinstance(x, bool):
        raise TypeError("bool is not a valid matrix entry")
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    raise TypeError(f"matrix entries must be int or Fraction, got {type(x).__name__}")


def _norm_rows(rows: Iterable[Iterable]) -> tuple:
    """The rows as tuples of ``_norm_entry`` values, after one type scan."""
    data = tuple(map(tuple, rows))
    if not {int}.issuperset(map(type, chain.from_iterable(data))):
        data = tuple(tuple(map(_norm_entry, row)) for row in data)
    return data


def _as_int(x):
    # exact conversion; x must have denominator 1
    if isinstance(x, int):
        return x
    if x.denominator != 1:
        raise ValueError(f"{x} is not an integer")
    return x.numerator


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and g == a*x + b*y."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


class Mat:
    """Immutable dense matrix with exact entries."""

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[Iterable]):
        data = _norm_rows(rows)
        if not data or not data[0]:
            raise DomainError("matrix must have at least one row and one column")
        width = len(data[0])
        if any(len(r) != width for r in data):
            raise DomainError("ragged rows in matrix")
        self._rows = data

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls([[int(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def from_cols(cls, cols: Sequence[Sequence]) -> "Mat":
        return cls(list(zip(*cols)))

    @property
    def rows(self) -> int:
        return len(self._rows)

    @property
    def cols(self) -> int:
        return len(self._rows[0])

    @property
    def shape(self) -> tuple[int, int]:
        return len(self._rows), len(self._rows[0])

    def __getitem__(self, ij):
        i, j = ij
        return self._rows[i][j]

    def row(self, i: int) -> tuple:
        return self._rows[i]

    def col(self, j: int) -> tuple:
        return tuple(r[j] for r in self._rows)

    def row_tuples(self) -> tuple:
        return self._rows

    def col_tuples(self) -> tuple:
        return tuple(zip(*self._rows))

    def to_lists(self) -> list[list]:
        return [list(r) for r in self._rows]

    def transpose(self) -> "Mat":
        return Mat(zip(*self._rows))

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise DomainError(
                f"shape mismatch in product: {self.shape} @ {other.shape}")
        bt = other.col_tuples()
        return Mat([[sum(a * b for a, b in zip(row, col)) for col in bt]
                    for row in self._rows])

    def scale(self, k) -> "Mat":
        return Mat([[k * x for x in row] for row in self._rows])

    def __neg__(self) -> "Mat":
        return self.scale(-1)

    def __eq__(self, other):
        return isinstance(other, Mat) and self._rows == other._rows

    def __hash__(self):
        return hash(self._rows)

    def __repr__(self):
        return f"Mat({[list(r) for r in self._rows]!r})"

    def __str__(self):
        return format_matrix(self)

    @property
    def is_integral(self) -> bool:
        return all(isinstance(x, int) for row in self._rows for x in row)

    def denominator_lcm(self) -> int:
        return math.lcm(*(x.denominator for row in self._rows for x in row
                          if isinstance(x, Fraction)))

    def int_scaled(self) -> tuple[int, list[list[int]]]:
        """(D, D*self as int lists); D is the lcm of all denominators."""
        d = self.denominator_lcm()
        if d == 1:
            return 1, [list(r) for r in self._rows]
        return d, [[_as_int(x * d) for x in row] for row in self._rows]

    def take_rows(self, idx0: Sequence[int]) -> "Mat":
        return Mat([self._rows[i] for i in idx0])

    def take_cols(self, idx0: Sequence[int]) -> "Mat":
        return Mat([[row[j] for j in idx0] for row in self._rows])

    def det(self):
        if self.rows != self.cols:
            raise DomainError("determinant requires a square matrix")
        d, m = self.int_scaled()
        value = _bareiss_det(m)
        if d == 1:
            return value
        return _norm_entry(Fraction(value, d ** self.rows))

    def rank(self) -> int:
        _, m = self.int_scaled()
        return len(_eliminate(m, self.cols)[0])

    def inverse(self) -> "Mat":
        if self.rows != self.cols:
            raise DomainError("inverse requires a square matrix")
        # a square A X = I has a solution exactly when A is nonsingular
        sol = solve(self, Mat.identity(self.rows))
        if sol is None:
            raise DomainError("matrix is singular")
        return sol


def _bareiss_det(m: list[list[int]]) -> int:
    """Fraction-free determinant of an integer matrix (consumes its input)."""
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if m[i][k]), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _pivot(m: list[list[int]], r: int, j: int, d: int) -> None:
    """Fraction-free Gauss-Jordan step on row r, column j (in place): every
    other row becomes (p * row - row[j] * m[r]) // d with p = m[r][j] and d
    the previous pivot, an exact division (Bareiss)."""
    prow = m[r]
    p = prow[j]
    for i, row in enumerate(m):
        if i != r:
            q = row[j]
            m[i] = [(p * x - q * y) // d for x, y in zip(row, prow)]


def _eliminate(m: list[list[int]], ncols: int) -> tuple[list[int], int]:
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


def _int_row(row: Sequence) -> tuple[int, list[int]]:
    """(k, k * row as ints); k is the lcm of the row's denominators."""
    k = math.lcm(*(x.denominator for x in row if isinstance(x, Fraction)))
    return k, [_as_int(x * k) for x in row]


def solve(A: Mat, B: Mat) -> "Mat | None":
    """A particular exact solution X of A @ X = B, or None if inconsistent.

    Free variables are set to zero, which makes the answer deterministic.
    """
    if A.rows != B.rows:
        raise DomainError("solve: row mismatch")
    n, k = A.cols, B.cols
    m = [_int_row(a + b)[1] for a, b in zip(A.row_tuples(), B.row_tuples())]
    pivots, d = _eliminate(m, n)
    if any(any(row[n:]) for row in m[len(pivots):]):
        return None
    sol = [[0] * k for _ in range(n)]
    for row, j in zip(m, pivots):
        sol[j] = [Fraction(x, d) if x % d else x // d for x in row[n:]]
    return Mat(sol)


# ---------------------------------------------------------------------------
# exact feasibility of A x = b, x >= 0

def _phase1(a: list[list[int]], b: list[int]) -> tuple:
    """Phase-1 simplex on an integer system, with Bland's rule.

    Minimises the sum of one artificial variable per row over
    [a | I] (x, s) = b, x, s >= 0 (rows with b_i < 0 are negated first).
    The tableau is kept fraction-free: it stores D * B^-1 [a | I | b] and,
    as its last row, the reduced-cost row times D, D = det B > 0; each
    pivot is the shared Bareiss step ``_pivot``.  Returns (x, None) when the
    optimum is 0, and otherwise (None, w), where w is the dual optimum
    negated, read off the artificial columns' reduced costs: w a >= 0 and
    w b < 0.  Unchecked.
    """
    m, n = len(a), len(a[0])
    sign = [-1 if bi < 0 else 1 for bi in b]
    tab = []
    for i in range(m):
        row = [sign[i] * x for x in a[i]] + [0] * m + [sign[i] * b[i]]
        row[n + i] = 1
        tab.append(row)
    cost = [-sum(col) for col in zip(*tab)]
    cost[n:n + m] = [0] * m
    tab.append(cost)
    basic = [n + i for i in range(m)]
    d = 1
    while True:
        enter = next((j for j in range(n + m) if tab[m][j] < 0), None)
        if enter is None:
            break
        leave = None
        for i in range(m):
            p = tab[i][enter]
            if p <= 0:
                continue
            if leave is None:
                leave = i
                continue
            # ratio rhs/p against the best so far; ties go to the lower index
            lhs = tab[i][-1] * tab[leave][enter]
            rhs = tab[leave][-1] * p
            if lhs < rhs or (lhs == rhs and basic[i] < basic[leave]):
                leave = i
        if leave is None:
            raise GaleKitError("phase-1 simplex unbounded (internal invariant)")
        _pivot(tab, leave, enter, d)
        d = tab[leave][enter]
        basic[leave] = enter
    if tab[m][-1] == 0:
        x = [0] * n
        for i, j in enumerate(basic):
            if j < n:
                x[j] = _norm_entry(Fraction(tab[i][-1], d))
        return x, None
    return None, [sign[i] * (tab[m][n + i] - d) for i in range(m)]


def _nonneg_solve(A: Sequence[Sequence], b: Sequence) -> tuple:
    """Exact feasibility of {x : A x = b, x >= 0} for rational A (given as
    rows) and b.

    Returns (x, None) with x >= 0 and A x = b, or (None, w) with a Farkas
    certificate w A >= 0, w b < 0 that no such x exists.  Either answer is
    re-checked exactly before it is returned; a failed check raises
    GaleKitError.  The x found is one basic solution, not a canonical one.
    """
    mult, rows, rhs = [], [], []
    for row, bi in zip(A, b):
        k, ints = _int_row((*row, bi))
        mult.append(k)
        rows.append(ints[:-1])
        rhs.append(ints[-1])
    x, w = _phase1(rows, rhs)
    if w is None:
        if any(v < 0 for v in x) or any(dot(row, x) != bi for row, bi in zip(A, b)):
            raise GaleKitError("simplex point fails A x = b, x >= 0 "
                               "(internal invariant)")
        return x, None
    w = [wi * k for wi, k in zip(w, mult)]
    g = vec_gcd(w)
    if g:
        w = [wi // g for wi in w]
    if any(dot(w, col) < 0 for col in zip(*A)) or dot(w, b) >= 0:
        raise GaleKitError("Farkas certificate fails w A >= 0, w b < 0 "
                           "(internal invariant)")
    return None, w


def block_diag(*mats: Mat) -> Mat:
    total_r = sum(m.rows for m in mats)
    total_c = sum(m.cols for m in mats)
    out = [[0] * total_c for _ in range(total_r)]
    r0 = c0 = 0
    for m in mats:
        for i in range(m.rows):
            for j in range(m.cols):
                out[r0 + i][c0 + j] = m[i, j]
        r0 += m.rows
        c0 += m.cols
    return Mat(out)


def dot(u: Sequence, v: Sequence):
    return sum(a * b for a, b in zip(u, v))


def mat_vec(A: Mat, v: Sequence) -> tuple:
    """A applied to a column vector."""
    if len(v) != A.cols:
        raise DomainError("vector length mismatch")
    return tuple(dot(row, v) for row in A.row_tuples())


def vec_gcd(v: Sequence[int]) -> int:
    g = 0
    for x in v:
        g = math.gcd(g, x)
    return g


# ---------------------------------------------------------------------------
# module-level operations

def det_exact(A: Mat):
    """Exact determinant of a square matrix (fraction-free on integers)."""
    return A.det()


def rank_exact(A: Mat) -> int:
    """Rank over the rationals."""
    return A.rank()


def check_index_set(I: Iterable[int], ncols: int, allow_empty: bool = True) -> tuple[int, ...]:
    """Validate a 1-based strictly increasing column index set."""
    t = tuple(I)
    if not allow_empty and not t:
        raise DomainError("index set must not be empty")
    for x in t:
        if not isinstance(x, int) or isinstance(x, bool):
            raise DomainError(f"index {x!r} is not an integer")
        if not 1 <= x <= ncols:
            raise DomainError(f"index {x} out of range 1..{ncols}")
    if any(a >= b for a, b in zip(t, t[1:])):
        raise DomainError("index set must be strictly increasing")
    return t


def submatrix_cols(A: Mat, I: Iterable[int], complement: bool = False) -> Mat:
    """Columns of A selected by the 1-based index set I (or its complement)."""
    t = check_index_set(I, A.cols)
    chosen = set(t)
    if complement:
        idx0 = [j for j in range(A.cols) if j + 1 not in chosen]
    else:
        idx0 = [x - 1 for x in t]
    if not idx0:
        raise DomainError("column selection is empty")
    return A.take_cols(idx0)


# ---------------------------------------------------------------------------
# text format

_ENTRY_RE = re.compile(r"[+-]?\d+(?:/\d+)?$")


def parse_entry(tok: str):
    if not _ENTRY_RE.match(tok):
        raise ParseError(f"bad matrix entry {tok!r}")
    try:
        f = Fraction(tok)
    except ZeroDivisionError:
        raise ParseError(f"bad matrix entry {tok!r}: zero denominator") from None
    return _norm_entry(f)


def parse_matrix(text: str) -> Mat:
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        rows.append([parse_entry(tok) for tok in line.split()])
    if not rows:
        raise ParseError("no matrix rows in input")
    try:
        return Mat(rows)
    except DomainError as exc:
        raise ParseError(str(exc)) from None


def format_matrix(A: Mat) -> str:
    return "\n".join(" ".join(str(x) for x in row) for row in A.row_tuples())
