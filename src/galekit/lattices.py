"""Discrete subgroups of Q^m: canonical bases, duality, intersections,
quotient structures.

A lattice L is stored as the least d >= 1 with d L integral and the
integer Hermite rows of d L.  Its canonical basis, the (rational) Hermite
form of any generating set with zero rows dropped, is those rows over d, so
equal lattices have identical representations and equality is structural.
Intersections come from integer left kernels: the kernel of two stacked
bases, met at the scale lcm(d1, d2), is the set of pairs of coordinates that
name the same vector.  The stack is [-B2; reversed(B1)]: ``_left_kernel``
eliminates the rows last first, so its first Bareiss steps meet B1's Hermite
rows in pivot order.  Their pivots are mostly 1, and a column with pivot 1
has zeros above it, so those steps keep d = 1 and skip most rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import mul
from typing import Iterable, Sequence

from .matrix import DomainError, Mat, _norm_rows, _require_int
# ``hnf`` stays bound here: perfbench/selftest.py checks its traced binding.
from .normal_forms import _hermite_insert, _left_kernel, _smith, _split_units, hnf  # noqa: F401


@dataclass(frozen=True)
class QuotientStructure:
    """Isomorphism type of a finitely generated abelian group:
    Z^free_rank (+) Z/c_1 (+) ... with c_i | c_{i+1}, all c_i > 1."""

    free_rank: int
    torsion_factors: tuple[int, ...] = ()

    def __post_init__(self):
        _require_int(self.free_rank, "free rank")
        for c in self.torsion_factors:
            _require_int(c, "torsion factor")
        if self.free_rank < 0:
            raise DomainError("negative free rank")
        if any(c <= 1 for c in self.torsion_factors):  # before any division by c
            raise DomainError("torsion factors must exceed 1")
        for a, b in zip(self.torsion_factors, self.torsion_factors[1:]):
            if b % a:
                raise DomainError("torsion factors must form a divisibility chain")

    @property
    def torsion_order(self) -> int:
        return math.prod(self.torsion_factors)

    @property
    def is_free(self) -> bool:
        return not self.torsion_factors

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion_factors


def _coefficients(rows: Sequence[Sequence[int]], pivots: Sequence[int],
                  x: Sequence[int]) -> "tuple[int, ...] | None":
    """Integer c with c @ rows = x, or None: x is reduced by ``divmod`` against
    the echelon integer ``rows``, led by their 0-based ``pivots``, and a pivot
    that does not divide leaves a remainder that no later row clears."""
    coeffs = []
    for row, p in zip(rows, pivots):
        q, rem = divmod(x[p], row[p])
        if rem:
            return None
        coeffs.append(q)
        if q:
            x = [a - q * b for a, b in zip(x, row)]
    return None if any(x) else tuple(coeffs)


class Lattice:
    """A discrete subgroup L of Q^m: d, the integer Hermite rows of d L and
    their pivots, made only by ``Lattice(m, int rows of width m, den >= 1)``;
    the basis is the rows over d, the same tuples when d = 1."""

    __slots__ = ("_ambient", "_d", "_rows", "_pivots", "_basis")

    def __init__(self, ambient_dim: int, rows: Sequence[Sequence[int]], den: int):
        hermite, pivots = _hermite_insert(rows, ambient_dim)
        g = math.gcd(den, *chain.from_iterable(hermite))
        if g > 1:
            hermite = [[x // g for x in row] for row in hermite]
        d = den // g  # the least d with d L integral
        self._ambient, self._d, self._pivots = ambient_dim, d, tuple(pivots)
        self._rows = tuple(map(tuple, hermite))
        self._basis = self._rows if d == 1 else tuple(
            tuple(Fraction(x, d) if x % d else x // d for x in row) for row in self._rows)

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence], ambient_dim: "int | None" = None) -> "Lattice":
        """One entry scan checks the generators and finds the lcm D of their
        denominators; the integer rows of D L go to the constructor."""
        rows, den = _norm_rows(rows)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise DomainError("ragged generator rows")
            if ambient_dim is None:
                ambient_dim = width
            elif ambient_dim != width:
                raise DomainError("generator width does not match ambient dimension")
        elif ambient_dim is None:
            raise DomainError("ambient dimension required for an empty generator set")
        _require_int(ambient_dim, "ambient dimension")
        if ambient_dim < 1:
            raise DomainError("ambient dimension must be positive")
        if den > 1:
            rows = [[x.numerator * (den // x.denominator) for x in row] for row in rows]
        return cls(ambient_dim, rows, den)

    @classmethod
    def from_matrix(cls, A: Mat) -> "Lattice":
        """Reads the Mat's stored denominator: no second entry scan."""
        den, rows = A.int_scaled()
        return cls(A.cols, rows, den)

    @classmethod
    def zero(cls, ambient_dim: int) -> "Lattice":
        return cls.from_rows([], ambient_dim)

    @property
    def ambient_dim(self) -> int:
        return self._ambient

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def basis(self) -> tuple:
        return self._basis

    def basis_matrix(self) -> "Mat | None":
        return Mat(self._basis) if self._basis else None

    @property
    def is_integral(self) -> bool:
        return self._d == 1

    def coordinates(self, vec: Sequence) -> "tuple | None":
        """Integer coefficients of vec in the canonical basis, or None: the
        entries of vec are checked as ``Mat``'s are (ints and Fractions only);
        d * vec must be integral and is reduced against the stored integer
        rows of d L (``_coefficients``)."""
        if len(vec) != self._ambient:
            raise DomainError("vector length does not match ambient dimension")
        vec, d = _norm_rows([vec])[0][0], self._d
        if any(d % v.denominator for v in vec):
            return None
        return _coefficients(self._rows, self._pivots,
                             [v.numerator * (d // v.denominator) for v in vec])

    def __contains__(self, vec) -> bool:
        return self.coordinates(vec) is not None

    def __eq__(self, other):
        return (isinstance(other, Lattice) and self._ambient == other._ambient
                and self._d == other._d and self._rows == other._rows)

    def __hash__(self):
        return hash((self._ambient, self._d, self._rows))

    def __repr__(self):
        return f"Lattice(ambient={self._ambient}, basis={[list(r) for r in self._basis]})"


# ---------------------------------------------------------------------------

def transverse(A: Mat) -> Mat:
    """(A A^T)^(-1) A; defined for full row rank; its rows span the dual of
    the row lattice of A."""
    gram = A @ A.transpose()
    try:
        inv = gram.inverse()
    except DomainError:
        raise DomainError("transverse requires full row rank") from None
    return inv @ A


def dual_lattice(L: Lattice) -> Lattice:
    """Dual subgroup inside the rational span of L."""
    if L.rank == 0:
        return L
    return Lattice.from_matrix(transverse(L.basis_matrix()))


def _intersect_pair(L1: Lattice, L2: Lattice) -> Lattice:
    """L1 ∩ L2 from one integer left kernel of the stacked bases.

    The operands meet at the scale D = lcm(d1, d2): the stored rows stack as
    [-(D/d2) H2; reversed((D/d1) H1)], D [-B2; reversed(B1)] for the
    canonical bases, whose rows are independent.  So the integer kernel rows
    (u, v) are exactly the pairs with u B2 = v reversed(B1), and the rows
    u H2 over d2 span L1 ∩ L2.  ``_left_kernel`` eliminates the rows last
    first, so its first Bareiss steps meet H1's pivots, mostly 1, in order
    and keep d = 1.  Met from its last row, a basis would make its last and
    largest pivot the first d, which multiplies every later step.
    """
    h2, scale = L2._rows, math.lcm(L1._d, L2._d)
    s1, s2 = scale // L1._d, -(scale // L2._d)
    kern = _left_kernel([[s2 * x for x in r] for r in h2]
                        + [[s1 * x for x in r] for r in reversed(L1._rows)])
    cols = tuple(zip(*h2))  # map(mul, u, col) stops at the end of u's H2 part
    return Lattice(L1.ambient_dim, [[sum(map(mul, u, col)) for col in cols] for u in kern],
                   L2._d)


def lattice_intersection(lattices: Sequence[Lattice]) -> Lattice:
    """Intersection of finitely many lattices with a common ambient space.

    A pairwise fold: each step intersects the running result with the next
    lattice through one integer left kernel of their stacked bases, met at
    the scale lcm(d1, d2) (Cohen, *A Course in Computational Algebraic
    Number Theory*, §2.4), the running result's stacked last, reversed, so
    that the kernel's elimination, which runs last first, meets its Hermite
    pivots first (``_intersect_pair``).  The result is zero as soon as an
    operand or a partial intersection is.
    """
    lattices = list(lattices)
    if not lattices:
        raise DomainError("lattice_intersection of an empty collection")
    ambient = lattices[0].ambient_dim
    if any(L.ambient_dim != ambient for L in lattices):
        raise DomainError("mismatched ambient dimensions")
    out = lattices[0]
    for L in lattices[1:]:
        if out.rank == 0 or L.rank == 0:
            return Lattice.zero(ambient)
        out = _intersect_pair(out, L)
    return out


def _check_quotient(ambient_dim: int, L: Lattice, caller: str) -> None:
    _require_int(ambient_dim, "ambient dimension")
    if L.ambient_dim != ambient_dim:
        raise DomainError("ambient dimension mismatch")
    if not L.is_integral:
        raise DomainError(f"{caller} requires an integer lattice")


def quotient_structure(ambient_dim: int, L: Lattice) -> QuotientStructure:
    """Isomorphism type of Z^m / L for an integer lattice L in Z^m.

    The stored Hermite rows need no row pass.  Each pivot 1 is an invariant
    factor 1, and its column is zero off its row (``_split_units``); the
    torsion is that of the residual, the rows with a pivot above 1 on the
    other columns, which alone goes to ``_smith``, bare."""
    _check_quotient(ambient_dim, L, "quotient_structure")
    _, keep, rest = _split_units(L._rows, L._pivots, ambient_dim)
    factors = (_smith([[row[j] for j in keep] for row in rest], len(rest), len(keep))
               if rest else ())
    return QuotientStructure(ambient_dim - L.rank, tuple(c for c in factors if c > 1))


def _gcd_maximal_minors(cols: Iterable[Sequence[int]], n: int) -> int:
    """gcd of all maximal minors of a full-row-rank integer matrix with n
    rows, given by its columns: |det| of the Hermite basis of the columns,
    which is triangular with positive diagonal, so the product of its pivots."""
    top = _hermite_insert(cols, n)[0]
    if len(top) < n:
        raise DomainError("rank-deficient input")
    return math.prod(row[i] for i, row in enumerate(top))


def gcd_max_minors(A: Mat) -> int:
    """gcd of the n x n minors of an integer n x (n+r) matrix of rank n."""
    if not A.is_integral:
        raise DomainError("gcd_max_minors requires an integer matrix")
    return _gcd_maximal_minors(A.col_tuples(), A.rows)


def has_cotorsion(ambient_dim: int, L: Lattice) -> bool:
    """True iff Z^m / L has nontrivial torsion."""
    _check_quotient(ambient_dim, L, "has_cotorsion")
    return _gcd_maximal_minors(zip(*L._rows), L.rank) != 1
