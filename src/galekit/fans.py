"""Exact cone geometry, fan validity, and enumeration of all simplicial fans
with a prescribed ray set and support.

Cones are index sets (1-based) into the columns of an ambient matrix V.
Every combinatorial question about cones on V is answered from one table of
V's oriented matroid, built once per V: the signs of the maximal minors of
V restricted to a row basis (the chirotope) and the oriented circuits, the
sign patterns of the minimal linear dependences among the columns.  Each
circuit Z is stored in both orientations as a pair (Z+, Z-) of bitmasks,
bit j-1 standing for column j.  Rank-deficient V and cones of any dimension
are covered, since a row basis has the same dependences as V.  Only point
membership is asked outside the table (``cone_contains``).

* A cone is simplicial iff it contains the support of no circuit.
* Two simplicial cones s, t intersect in a common face iff no circuit has
  Z+ inside s and Z- inside t (De Loera, Rambau, Santos, *Triangulations*,
  2010, ch. 4).  A collection of maximal simplicial cones is a fan when
  every pair passes this test.
* Ray k lies strictly inside the full-dimensional cone on a basis B iff
  (B, {k}) is an oriented circuit.
* Column j lies on the side of the hyperplane spanned by a facet F given by
  the sign of the minor on the columns (F, j).

Enumeration strategy: candidate maximal cones are the bases containing no
further ray strictly inside.  One pass over the circuits gives every
candidate the bitmask of the candidates it conflicts with (``is_fan`` makes
the same pass over its cones).  A depth-first search, rooted at each
candidate that holds column 1, grows partial fans through unmatched
interior facets.  Each node adds the facets of its new
cone to the set of unmatched ones handed down from its parent, a candidate
is admitted when its conflict mask misses the cones already chosen, and a
complete fan is read off the candidates on the search path.  Support
coverage is certified combinatorially: every facet of the final collection
is either shared by exactly two maximal cones or spans a supporting
hyperplane of the whole configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Sequence

from .matrix import (
    DomainError,
    Mat,
    _back_substitute,
    _bareiss_det,
    _eliminate,
    _int_row,
    _nonneg_solve,
    _norm_rows,
    check_index_set,
)


@dataclass(frozen=True, order=True)
class Cone:
    """A simplicial cone given by 1-based column indices of V."""

    gens: tuple[int, ...]

    def __post_init__(self):
        if any(a >= b for a, b in zip(self.gens, self.gens[1:])):
            raise DomainError("cone generators must be strictly increasing")


@dataclass(frozen=True)
class Fan:
    V: Mat
    maximal_cones: tuple[Cone, ...]

    def cone_sets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(c.gens for c in self.maximal_cones)


def fan_from_cones(V: Mat, cones: Iterable[Sequence[int]]) -> Fan:
    parsed = tuple(sorted(Cone(gens=tuple(sorted(c))) for c in cones))
    for c in parsed:
        check_index_set(c.gens, V.cols, allow_empty=False)
    return Fan(V=V, maximal_cones=parsed)


# ---------------------------------------------------------------------------
# membership

def cone_contains(V: Mat, cone: "Cone | Sequence[int]", x: Sequence,
                  interior: bool = False) -> bool:
    """Exact membership of x in the cone on the given columns of V, by one
    feasibility test {c >= 0 : V_cone c = x}.  With interior=True, of the
    relative interior (all c_i > 0) of a simplicial cone, by one elimination
    of [V_cone | x], which gives its rank, and a back substitution on the x
    column alone, which gives the coefficients of x."""
    gens = cone.gens if isinstance(cone, Cone) else tuple(cone)
    gens = check_index_set(sorted(gens), V.cols)
    if len(x) != V.rows:
        raise DomainError("point dimension mismatch")
    (x,) = _norm_rows([x])
    if not gens:
        return not any(x)  # the zero cone; it is its own relative interior
    rows = [[row[g - 1] for g in gens] for row in V.row_tuples()]
    if not interior:
        return _nonneg_solve(rows, x)[0] is not None
    k = len(gens)
    m = [_int_row((*row, xi))[1] for row, xi in zip(rows, x)]
    pivots, d = _eliminate(m, k)
    if len(pivots) < k:
        raise DomainError("interior test requires a simplicial cone")
    if any(row[k] for row in m[k:]):
        return False  # x is outside the span of the cone
    # d c_i: c_i > 0 exactly when it and d agree in sign
    return all(row[0] * d > 0 for row in _back_substitute(m, pivots, d, (k,)))


# ---------------------------------------------------------------------------
# the oriented-circuit table

def _mask(idx0: Iterable[int]) -> int:
    m = 0
    for j in idx0:
        m |= 1 << j
    return m


def _bits(m: int) -> list[int]:
    out = []  # one step per set bit: m & -m is the lowest one
    while m:
        out.append((m & -m).bit_length() - 1)
        m &= m - 1
    return out


class _Circuits:
    """Chirotope and oriented circuits of the columns of V.

    ``chi`` maps the bitmask of each basis (rank-many independent columns)
    to the sign of its minor on a fixed row basis; ``circuits`` holds every
    oriented circuit in both orientations as sorted (positive, negative)
    bitmask pairs.  The circuit of a rank+1 subset S = (s_0 < ... < s_rank)
    of rank ``rank`` is the sign vector of its kernel, (-1)^i chi(S - s_i).
    ``_conflicts`` pair-tests many cones in one pass over ``circuits``.
    """

    def __init__(self, V: Mat):
        _, rows = V.int_scaled()
        # pivot columns of V^T: each row of V independent of those before it
        pivots, _ = _eliminate([list(c) for c in zip(*rows)], len(rows))
        basis = [rows[i] for i in pivots]
        s, rho = V.cols, len(basis)
        self.rank = rho
        self.cols = s
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
        self.chi = chi
        self.circuits = tuple(sorted(found))
        self._boundary: dict[int, bool] = {}

    def independent(self, cone: int) -> bool:
        return not any((p | q) & ~cone == 0 for p, q in self.circuits)

    def side(self, facet: int, j: int) -> int:
        """Sign of column j (0-based) against the hyperplane spanned by the
        facet: the minor on the facet's columns followed by column j."""
        sign = self.chi.get(facet | 1 << j, 0)
        return -sign if (facet >> j).bit_count() % 2 else sign

    def is_boundary(self, facet: int) -> bool:
        """Whether every column sits weakly on one side of the facet."""
        if facet not in self._boundary:
            sides = {self.side(facet, j) for j in range(self.cols)}
            self._boundary[facet] = not (1 in sides and -1 in sides)
        return self._boundary[facet]


@lru_cache(maxsize=1)
def _circuit_table(V: Mat) -> _Circuits:
    # one entry: consecutive calls on one V (enumerate a fan, then validate
    # it with is_fan and the support check) share a single table
    return _Circuits(V)


def _conflicts(table: _Circuits, masks: Sequence[int]) -> list[int]:
    """conflicts[i]: bitmask of the simplicial cones in ``masks`` that do not
    meet cone i in a common face, i.e. hold Z- of a circuit whose Z+ cone i
    holds.  One pass over the circuits: with the cones holding each column
    as a bitmask, a circuit costs one AND per column."""
    holders = [0] * table.cols
    for i, m in enumerate(masks):
        for j in _bits(m):
            holders[j] |= 1 << i
    every = (1 << len(masks)) - 1
    conflicts = [0] * len(masks)
    for p, q in table.circuits:
        first = every
        for j in _bits(p):
            first &= holders[j]
        if not first:
            continue
        second = every
        for j in _bits(q):
            second &= holders[j]
        if second:
            for i in _bits(first):
                conflicts[i] |= second
    return conflicts


# ---------------------------------------------------------------------------
# fan validity and support

def is_fan(V: Mat, maximal_cones: Iterable["Cone | Sequence[int]"]) -> bool:
    """Do the given simplicial cones pairwise intersect in common faces?

    The circuit table is built on the columns the cones use: a circuit of V
    supported on those columns is a circuit of V restricted to them.
    """
    cones = []
    for c in maximal_cones:
        gens = c.gens if isinstance(c, Cone) else tuple(sorted(c))
        cones.append(check_index_set(gens, V.cols, allow_empty=False))
    used = sorted({g - 1 for gens in cones for g in gens})
    if not used:
        return True
    if len(used) == V.cols:
        table = _circuit_table(V)
    else:
        table = _Circuits(V.take_cols(used))
    pos = {j: t for t, j in enumerate(used)}
    masks = set()
    for gens in cones:
        mask = _mask(pos[g - 1] for g in gens)
        if not table.independent(mask):
            raise DomainError(f"cone {gens} is not simplicial")
        masks.add(mask)
    return not any(_conflicts(table, sorted(masks)))


def _support_complete(V: Mat, cones: Sequence[Sequence[int]]) -> bool:
    """is_support_complete for cones already known to form a fan."""
    table = _circuit_table(V)
    if any(len(c) != table.rank for c in cones):
        return False
    counts: dict[int, int] = {}
    # a cone listed twice is still one cone
    for mask in {_mask(g - 1 for g in c) for c in cones}:
        for j in _bits(mask):
            facet = mask ^ 1 << j
            counts[facet] = counts.get(facet, 0) + 1
    return all(cnt == 2 or (cnt == 1 and table.is_boundary(facet))
               for facet, cnt in counts.items())


def is_support_complete(V: Mat, fan: Fan) -> bool:
    """Does the union of the maximal cones equal the cone on all columns?

    Certified combinatorially: every facet of a maximal cone is either
    shared by exactly two cones or lies on a supporting hyperplane of the
    whole column configuration.
    """
    cones = fan.cone_sets()
    if not cones:
        return False
    if not is_fan(V, cones):
        raise DomainError("invalid fan")
    return _support_complete(V, cones)


# ---------------------------------------------------------------------------
# enumeration

def enumerate_SF(V: Mat, cap: int = 10) -> list[Fan]:
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
    table = _circuit_table(V)
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

    conflicts = _conflicts(table, cands)

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


def is_divisorially_detected(V: Mat, cap: int = 10) -> bool:
    """Whether the configuration admits exactly one simplicial fan."""
    return len(enumerate_SF(V, cap=cap)) == 1
