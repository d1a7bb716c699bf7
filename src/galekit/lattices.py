"""Discrete subgroups of Q^m: canonical bases, duality, intersections,
quotient structures.

A lattice is stored by its canonical basis: the (rational) Hermite form of
any generating set with zero rows dropped.  Equal lattices therefore have
identical representations, so equality is plain structural equality.
Intersections come from integer left kernels: the kernel of two stacked
bases is the set of pairs of coordinates that name the same vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .matrix import DomainError, Mat, _norm_rows
# ``hnf`` stays bound here: perfbench/selftest.py checks its traced binding.
from .normal_forms import _hermite_basis, hnf, left_kernel_rows, snf  # noqa: F401


@dataclass(frozen=True)
class QuotientStructure:
    """Isomorphism type of a finitely generated abelian group:
    Z^free_rank (+) Z/c_1 (+) ... with c_i | c_{i+1}, all c_i > 1."""

    free_rank: int
    torsion_factors: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise DomainError("negative free rank")
        for a, b in zip(self.torsion_factors, self.torsion_factors[1:]):
            if b % a:
                raise DomainError("torsion factors must form a divisibility chain")
        if any(c <= 1 for c in self.torsion_factors):
            raise DomainError("torsion factors must exceed 1")

    @property
    def torsion_order(self) -> int:
        return math.prod(self.torsion_factors)

    @property
    def is_free(self) -> bool:
        return not self.torsion_factors

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion_factors


class Lattice:
    """A discrete subgroup of Q^m, held in canonical (Hermite) form."""

    __slots__ = ("_ambient", "_basis", "_pivots", "_scaled")

    def __init__(self, ambient_dim: int, canonical_rows: tuple, pivots: tuple):
        self._ambient = ambient_dim
        self._basis = canonical_rows
        self._pivots = pivots
        self._scaled = None  # (d, d * basis as ints), built on first use

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence], ambient_dim: "int | None" = None) -> "Lattice":
        rows = _norm_rows(rows)
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
        if ambient_dim < 1:
            raise DomainError("ambient dimension must be positive")
        nonzero = [r for r in rows if any(r)]
        if not nonzero:
            return cls(ambient_dim, (), ())
        return cls(ambient_dim, *_hermite_basis(Mat(nonzero)))

    @classmethod
    def from_matrix(cls, A: Mat) -> "Lattice":
        return cls.from_rows(A.row_tuples(), A.cols)

    @classmethod
    def zero(cls, ambient_dim: int) -> "Lattice":
        return cls.from_rows([], ambient_dim)

    @classmethod
    def standard(cls, ambient_dim: int) -> "Lattice":
        return cls.from_matrix(Mat.identity(ambient_dim))

    @property
    def ambient_dim(self) -> int:
        return self._ambient

    @property
    def rank(self) -> int:
        return len(self._basis)

    @property
    def basis(self) -> tuple:
        return self._basis

    def basis_matrix(self) -> "Mat | None":
        return Mat(self._basis) if self._basis else None

    @property
    def is_integral(self) -> bool:
        return all(isinstance(x, int) for row in self._basis for x in row)

    def coordinates(self, vec: Sequence) -> "tuple | None":
        """Integer coefficients of vec in the canonical basis, or None: with d
        the lcm of the basis denominators, d * vec must be integral and is
        back-substituted against the integer rows d * basis by ``divmod``."""
        if len(vec) != self._ambient:
            raise DomainError("vector length does not match ambient dimension")
        if self._scaled is None:
            d = math.lcm(*(x.denominator for row in self._basis for x in row))
            self._scaled = d, [[x.numerator * (d // x.denominator) for x in row]
                               for row in self._basis]
        d, rows = self._scaled
        if any(d % v.denominator for v in vec):
            return None
        x = [v.numerator * (d // v.denominator) for v in vec]
        coeffs = []
        for row, p in zip(rows, self._pivots):
            q, rem = divmod(x[p], row[p])
            if rem:
                return None
            coeffs.append(q)
            if q:
                x = [a - q * b for a, b in zip(x, row)]
        if any(x):
            return None
        return tuple(coeffs)

    def __contains__(self, vec) -> bool:
        return self.coordinates(vec) is not None

    def __eq__(self, other):
        return (isinstance(other, Lattice)
                and self._ambient == other._ambient
                and self._basis == other._basis)

    def __hash__(self):
        return hash((self._ambient, self._basis))

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

    Canonical bases have independent rows, so the integer rows (u, v) of
    the kernel of [B1; -B2] are exactly the pairs with u B1 = v B2, and
    (u, v) -> u B1 maps them onto L1 ∩ L2.
    """
    b1 = L1.basis
    kern = left_kernel_rows(Mat(list(b1) + [tuple(-x for x in r) for r in L2.basis]))
    rows = [tuple(sum(c * row[j] for c, row in zip(k, b1) if c)
                  for j in range(L1.ambient_dim)) for k in kern]
    return Lattice.from_rows(rows, L1.ambient_dim)


def lattice_intersection(lattices: Sequence[Lattice]) -> Lattice:
    """Intersection of finitely many lattices with a common ambient space.

    A pairwise fold: each step intersects the running result with the next
    lattice through one integer left kernel of their stacked canonical
    bases (Cohen, *A Course in Computational Algebraic Number Theory*,
    §2.4).  Rational bases need no special care, since the Hermite passes
    clear denominators.  The result is zero as soon as an operand or a partial
    intersection is.
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


def quotient_structure(ambient_dim: int, L: Lattice) -> QuotientStructure:
    """Isomorphism type of Z^m / L for an integer lattice L in Z^m."""
    if L.ambient_dim != ambient_dim:
        raise DomainError("ambient dimension mismatch")
    if not L.is_integral:
        raise DomainError("quotient_structure requires an integer lattice")
    if L.rank == 0:
        return QuotientStructure(ambient_dim, ())
    res = snf(L.basis_matrix())
    torsion = tuple(c for c in res.factors if c > 1)
    return QuotientStructure(ambient_dim - len(res.factors), torsion)


def _gcd_maximal_minors(B: Mat) -> int:
    """gcd of all maximal minors of a full-row-rank matrix, via the upper
    block of the Hermite form of the transpose."""
    top, _ = _hermite_basis(B.transpose())
    if len(top) < B.rows:
        raise DomainError("rank-deficient input")
    return abs(Mat(top).det())


def gcd_max_minors(A: Mat) -> int:
    """gcd of the n x n minors of an integer n x (n+r) matrix of rank n."""
    if not A.is_integral:
        raise DomainError("gcd_max_minors requires an integer matrix")
    return _gcd_maximal_minors(A)


def has_cotorsion(ambient_dim: int, L: Lattice) -> bool:
    """True iff Z^m / L has nontrivial torsion."""
    if L.ambient_dim != ambient_dim:
        raise DomainError("ambient dimension mismatch")
    if not L.is_integral:
        raise DomainError("has_cotorsion requires an integer lattice")
    if L.rank == 0:
        return False
    return _gcd_maximal_minors(L.basis_matrix()) != 1
