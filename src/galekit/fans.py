"""Exact cone geometry, fan validity, and enumeration of all simplicial fans
with a prescribed ray set and support.

Cones are index sets (1-based) into the columns of an ambient matrix V.
Every combinatorial question about cones on V is answered from one table of
V's oriented matroid, built once per call and passed on, never cached: the
signs of the maximal minors of the echelon rows of one elimination of V
(the chirotope, from one Laplace sweep, each minor from those one row
smaller, down those rows or down the kernel basis read off them when that
is shorter) and the oriented circuits, the sign patterns of the minimal
linear dependences among the columns.  Each circuit Z is stored in both
orientations as a pair (Z+, Z-) of bitmasks, bit j-1 standing for column j.
Rank-deficient V and cones of any dimension are covered, since a row basis
has the same dependences as V.  Only point membership is asked outside the
table (``cone_contains``).

* A cone is simplicial iff it contains the support of no circuit.
* Two simplicial cones s, t intersect in a common face iff no circuit has
  Z+ inside s and Z- inside t (De Loera, Rambau, Santos, *Triangulations*,
  2010, ch. 4).  A collection of maximal simplicial cones is a fan when
  every pair passes this test.
* Ray k lies in the relative interior of the cone on an independent set S
  iff (S, {k}) is an oriented circuit.
* Column j lies on the side of the hyperplane spanned by a facet F given by
  the sign of the minor on the columns (F, j).

Enumeration strategy.  Candidate maximal cones are the bases B that hold
no further ray, not even on a face: B is dropped when a circuit (Z+, {k})
has Z+ inside B, i.e. v_k lies in the relative interior of the face
cone(Z+) of cone(B).  Such a B is in no fan on every ray, since the ray of
v_k would meet cone(B) in a face of dimension >= 2 and not in a common face
(dimension 1 is a repeated ray, refused).  Conversely a collection of
candidates whose support is the cone on all columns holds each v_k in some
cone, hence as a generator, so every complete fan the search reaches uses
every ray.  Candidates stay indices into the bases, so the filter and the
one pass over the circuits that gives every candidate the bitmask of the
candidates it conflicts with share one table of the bases holding each column.

Validation (``is_fan``, ``is_support_complete``, ``_check_fan``) makes the
same pass over the cones given and one count of their facets; each returns
the DomainError naming its first offender, or None.

A demand is an unmatched interior facet together with the side its missing
neighbour must lie on.  Every demand a candidate can open or meet is ranked
once by (number of candidates meeting it, facet, side), and a depth-first
search, rooted at each candidate that holds column 1, fills the open demand
of least rank first; a demand no candidate meets ranks first and ends its
branch at once.  The rule depends only on the cones chosen, and exactly one
cone of a fan meets each of its demands, so each fan is found once, from
its least cone.  A candidate is admitted unless the node's ban mask holds
it: the cones chosen, the cones they conflict with, and every candidate up
to the root.  The cone that closes the last open demand completes a fan.
Support coverage is certified combinatorially: every facet of the final
collection is either shared by exactly two maximal cones or spans a
supporting hyperplane of the whole configuration.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from math import comb
from operator import itemgetter
from typing import Iterable, Sequence

from .matrix import (
    DomainError,
    GaleKitError,
    Mat,
    _back_substitute,
    _eliminate,
    _int_row,
    _nonneg_solve,
    _norm_rows,
    check_index_set,
)
from .lattices import Lattice


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
    """Exact membership of x in the cone on the given columns of V, on the
    rows of [V_cone | x] cleared of denominators once: by one feasibility
    test {c >= 0 : V_cone c = x}, or with interior=True, of the relative
    interior (all c_i > 0) of a simplicial cone, by one elimination, which
    gives the rank, and a back substitution on the x column alone."""
    gens = cone.gens if isinstance(cone, Cone) else tuple(cone)
    gens = check_index_set(sorted(gens), V.cols)
    if len(x) != V.rows:
        raise DomainError("point dimension mismatch")
    (x,), _ = _norm_rows([x])
    if not gens:
        return not any(x)  # the zero cone; it is its own relative interior
    k = len(gens)
    m = [_int_row([*(row[g - 1] for g in gens), xi])[1]
         for row, xi in zip(V.row_tuples(), x)]
    if not interior:
        return _nonneg_solve([row[:k] for row in m], [row[k] for row in m])[0] is not None
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


def _minors(rows: Sequence[Sequence[int]], bits: Sequence[int]) -> dict[int, int]:
    """The nonzero maximal minors of the integer rows v_0, v_1, ... on the
    columns ``bits`` (one bit each), keyed by column bitmask in lexicographic
    order, from one Laplace sweep down the rows: the minor of rows 0..k on
    S = (s_0 < ... < s_k) is sum_pos (-1)^(k + pos) v_k[s_pos] M(S - s_pos),
    M the nonzero minors of rows 0..k-1.  About k C(s, k) steps per row."""
    minors = {0: 1}
    for k, r in enumerate(rows):
        get, minors, row = minors.get, {}, dict(zip(bits, r))
        for sub in combinations(bits, k + 1):
            m = sum(sub)
            d = 0  # ends as the alternating Laplace sum over S = sub
            for b in sub:
                d = row[b] * get(m ^ b, 0) - d
            if d:
                minors[m] = d
    return minors


class _Circuits:
    """Chirotope and oriented circuits of the columns of V.

    ``chi`` maps the bitmask of each basis (rank-many independent columns),
    in lexicographic order, to the sign of its minor on the echelon rows E
    of one ``_eliminate`` of V, all from one sweep (``_minors``): down E,
    or down the s - rank rows of the kernel basis K that one back
    substitution reads off E when that takes fewer steps, set-up included;
    then chi(S) = c (-1)^(sum of S) sgn K(S^c) with one sign c (Björner et
    al., *Oriented Matroids*, §3.4), read off E's triangular pivot block.
    ``circuits`` holds every oriented circuit in both orientations as sorted
    (positive, negative) bitmask pairs.  The circuit of a rank+1 subset
    S = (s_0 < ... < s_rank) of rank ``rank`` is the sign vector of its
    kernel, (-1)^i chi(S - s_i).
    ``_conflicts`` pair-tests many cones in one pass over ``circuits``.
    """

    def __init__(self, V: Mat):
        _, rows = V.int_scaled()
        piv, d = _eliminate(rows, V.cols)  # E = rows[:rho], with V's dependences
        s, rho = V.cols, len(piv)
        self.rank, self.cols = rho, s
        bits = [1 << j for j in range(s)]
        # the sweep takes k C(s, k) steps on row k; the kernel's is shorter when
        # 2 rho > s, but its set-up weighs about 2 rho^2 s steps (timed when that
        # was an elimination and a determinant, break-even near s = 8; not since)
        steps = [k * comb(s, k) for k in range(s + 1)]
        if sum(steps[:rho + 1]) <= sum(steps[:s - rho + 1]) + 2 * rho * rho * s:
            chi = {m: 1 if d > 0 else -1 for m, d in _minors(rows[:rho], bits).items()}
        else:
            # K: per free column f, -d at f and column f of d rref(E) at the pivots
            free = [j for j in range(s) if j not in piv]
            K = [[0] * s for _ in free]
            for x, f, col in zip(K, free, zip(*_back_substitute(rows, piv, d, free))):
                x[f] = -d
                for p, y in zip(piv, col):
                    x[p] = y
            minors = _minors(K, bits)
            # c = sgn(E's minor on the pivot columns P, the product of its pivot
            # entries) (-1)^(sum of P) sgn K(P^c): flip counts its negative factors
            full, odd, pm, chi = (1 << s) - 1, _mask(range(1, s, 2)), _mask(piv), {}
            flip = ((pm & odd).bit_count() + (minors[full ^ pm] < 0)
                    + sum(r[p] < 0 for r, p in zip(rows, piv)))
            # the complements of K's subsets, in reverse, are in lexicographic order
            for m, d in reversed(minors.items()):
                m ^= full
                chi[m] = -1 if ((m & odd).bit_count() + flip + (d < 0)) % 2 else 1
        found = set()
        for sub in combinations(bits, rho + 1):
            m = sum(sub)
            pos = neg = 0  # swapped after each column: s_i goes by (-1)^i chi(S - s_i)
            for b in sub:
                sign = chi.get(m ^ b)
                if sign:
                    if sign > 0:
                        pos |= b
                    else:
                        neg |= b
                pos, neg = neg, pos
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


def _holders(masks: Sequence[int], cols: int) -> list[int]:
    """holders[j]: bitmask of the masks that hold column j."""
    holders = [0] * cols
    for i, m in enumerate(masks):
        for j in _bits(m):
            holders[j] |= 1 << i
    return holders


def _conflicts(table: _Circuits, holders: Sequence[int], every: int) -> list[int]:
    """conflicts[i], i in the bitmask ``every`` of simplicial cones: bitmask
    of the cones in ``every`` that do not meet cone i in a common face, i.e.
    hold Z- of a circuit whose Z+ cone i holds.  One pass over the circuits:
    with the cones holding each column as a bitmask (``_holders``), a
    circuit costs one AND per column."""
    conflicts = [0] * every.bit_length()
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

def _index_sets(V: Mat, maximal_cones: Iterable["Cone | Sequence[int]"]
                ) -> list[tuple[int, ...]]:
    """The cones' generators as index sets, each checked against V."""
    return [check_index_set(c.gens if isinstance(c, Cone) else tuple(sorted(c)),
                            V.cols, allow_empty=False) for c in maximal_cones]


def _cone_masks(V: Mat, cones: Sequence[Sequence[int]], every_column: bool = False
                ) -> tuple["_Circuits | None", Sequence[int], list[int]]:
    """The circuit table on the columns the cones (checked index sets) use
    (on every column of V with ``every_column``), those columns (0-based,
    ascending) and the distinct cones as bitmasks over them, in the order
    given.  A circuit of V supported on those columns is a circuit of V
    restricted to them."""
    used = range(V.cols) if every_column else sorted(
        {g - 1 for gens in cones for g in gens})
    if not used:
        return None, used, []
    table = _Circuits(V if len(used) == V.cols else V.take_cols(used))
    pos = {j: t for t, j in enumerate(used)}
    masks: dict[int, None] = {}
    for gens in cones:
        mask = _mask(pos[g - 1] for g in gens)
        if not table.independent(mask):
            raise DomainError(f"cone {gens} is not simplicial")
        masks[mask] = None
    return table, used, list(masks)


def _index_set(mask: int, cols: Sequence[int]) -> str:
    return "{" + ", ".join(str(cols[b] + 1) for b in _bits(mask)) + "}"


def _conflict(table: _Circuits, used: Sequence[int], masks: Sequence[int]
              ) -> "DomainError | None":
    """None when the simplicial cones ``masks`` pairwise meet in common
    faces; else the error naming the first pair, in the order given, that
    does not, and the circuit behind it, with Z+ in the first cone and Z- in
    the second."""
    every = (1 << len(masks)) - 1
    for i, other in enumerate(_conflicts(table, _holders(masks, table.cols), every)):
        if other:
            a, b = masks[i], masks[(other & -other).bit_length() - 1]
            for p, q in table.circuits:
                if not (p & ~a or q & ~b):
                    return DomainError(
                        f"invalid fan: cones {_index_set(a, used)} and "
                        f"{_index_set(b, used)} do not meet along a common face "
                        f"(circuit Z+ = {_index_set(p, used)}, "
                        f"Z- = {_index_set(q, used)})")
            raise GaleKitError("conflicting cones with no circuit between "
                               "them (internal invariant)")
    return None


def _unmatched_facet(table: _Circuits, masks: Sequence[int]
                     ) -> "DomainError | None":
    """None when the maximal cones ``masks`` of a fan (over every column)
    cover the cone on all columns: every facet is shared by exactly two
    cones or spans a supporting hyperplane of all columns.  Else the error
    naming the first interior facet, in the order of the cones, that no
    other cone shares."""
    counts = Counter(m ^ 1 << j for m in masks for j in _bits(m))
    every = range(table.cols)
    for mask in masks:
        for j in _bits(mask):
            facet = mask ^ 1 << j
            if counts[facet] > 2:
                raise GaleKitError("a facet lies on more than two cones of a fan "
                                   "(internal invariant)")
            if counts[facet] == 1 and not table.is_boundary(facet):
                return DomainError(
                    "invalid fan: support does not cover the column cone "
                    f"(interior facet {_index_set(facet, every)} of cone "
                    f"{_index_set(mask, every)} lies on no other cone)")
    return None


def is_fan(V: Mat, maximal_cones: Iterable["Cone | Sequence[int]"]) -> bool:
    """Do the given simplicial cones pairwise intersect in common faces?"""
    table, used, masks = _cone_masks(V, _index_sets(V, maximal_cones))
    return not masks or _conflict(table, used, masks) is None


def is_support_complete(V: Mat, fan: "Fan | Iterable[Sequence[int]]") -> bool:
    """Does the union of the maximal cones equal the cone on all columns?

    Certified combinatorially: every facet of a maximal cone is either
    shared by exactly two cones or lies on a supporting hyperplane of the
    whole column configuration.
    """
    cones = (fan if isinstance(fan, Fan) else fan_from_cones(V, fan)).cone_sets()
    if not cones:
        return False
    table, used, masks = _cone_masks(V, _index_sets(V, cones), every_column=True)
    error = _conflict(table, used, masks)
    if error:
        raise error
    if any(m.bit_count() != table.rank for m in masks):
        return False
    return _unmatched_facet(table, masks) is None


def _check_fan(V: Mat, fan: Fan) -> None:
    """Raise a DomainError naming the first defect of a fan given for V, if
    it is not a complete simplicial fan on every column of V.  The fan
    belongs to V when ``fan.V`` has the row lattice of V: its cones are
    index sets, so they do not change when V is replaced by gV, g in
    GL_n(Z).  A fan built on V itself is accepted without a lattice."""
    if fan.V != V and Lattice.from_matrix(fan.V) != Lattice.from_matrix(V):
        raise DomainError("fan does not belong to the given matrix")
    if not fan.maximal_cones:
        raise DomainError("fan has no maximal cones")
    if any(len(c.gens) != V.rows for c in fan.maximal_cones):
        raise DomainError("maximal cones must have exactly n generators")
    gens = [g for c in fan.maximal_cones for g in c.gens]
    if set(gens) != set(range(1, V.cols + 1)):
        raise DomainError("invalid fan: not every ray is used by a maximal cone")
    # past the ray check only a generator's type can fail check_index_set,
    # and fan_from_cones has checked every cone it built
    cones = (fan.cone_sets() if {int}.issuperset(map(type, gens))
             else _index_sets(V, fan.maximal_cones))
    table, used, masks = _cone_masks(V, cones)
    error = _conflict(table, used, masks) or _unmatched_facet(table, masks)
    if error:
        raise error


# ---------------------------------------------------------------------------
# enumeration

DEFAULT_CAP = 10  # the largest ray count enumerated unless a caller says otherwise


def enumerate_SF(V: Mat, cap: int = DEFAULT_CAP) -> list[Fan]:
    """All simplicial fans whose rays are exactly the columns of V and whose
    support is the cone spanned by all columns, sorted by their cone lists.

    The candidate cones are the bases that hold no other column, not even
    on a face, and the search fills the unmatched facet with the fewest
    candidates first (see the module docstring).

    Refuses configurations with more than ``cap`` rays, zero columns,
    repeated ray directions, or rank-deficient V.
    """
    if not V.is_integral:
        raise DomainError("enumerate_SF requires an integer matrix")
    if not isinstance(cap, int) or isinstance(cap, bool):
        raise DomainError(f"cap {cap!r} is not an integer")
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

    bases = list(table.chi)  # V has full rank: chi's keys, in lexicographic order
    # candidates, a bitmask of indices into bases: a circuit (Z+, {k}) puts
    # v_k in the relative interior of cone(Z+), so no basis holding Z+ is a
    # cone of a fan on every ray
    holders = _holders(bases, s)
    cands = (1 << len(bases)) - 1
    for p, q in table.circuits:
        if not q & q - 1:
            held = cands
            for j in _bits(p):
                held &= holders[j]
            cands ^= held
    conflicts = _conflicts(table, holders, cands)

    # a demand (F, t): an unmatched interior facet F and the side t its
    # neighbour must lie on.  A candidate on side t of its facet F meets
    # (F, t) and opens (F, -t); demands are indexed by rank, fewest
    # candidates first
    inner: list[list[tuple[int, int]]] = [[] for _ in bases]
    meets: dict[tuple[int, int], list[int]] = {}
    for i in _bits(cands):
        m, facets = bases[i], inner[i]
        for j in _bits(m):
            facet = m ^ 1 << j
            if not table.is_boundary(facet):
                side = table.side(facet, j)
                facets.append((facet, side))
                meets.setdefault((facet, side), []).append(i)
                meets.setdefault((facet, -side), [])
    order = sorted(meets, key=lambda d: (len(meets[d]), *d))
    rank = {d: r for r, d in enumerate(order)}
    by_rank = [meets[d] for d in order]
    # per candidate, one (meet, open) pair of rank bits per interior facet:
    # adding the cone closes the demand it meets if that one is open, and
    # opens the other otherwise.  That one is never open already: the cone
    # that opened it would lie on the same side of the facet, and overlap.
    pairs = [[(1 << rank[facet, side], 1 << rank[facet, -side])
              for facet, side in facets] for facets in inner]

    banned = [c | 1 << i for i, c in enumerate(conflicts)]
    path: list[int] = []  # the candidates chosen, in the order pushed
    results: list[list[int]] = []

    def dfs(open_: int, ban: int) -> None:
        for i in by_rank[(open_ & -open_).bit_length() - 1]:
            if ban >> i & 1:
                continue
            child = open_
            for meet, opens in pairs[i]:
                if child & meet:
                    child ^= meet
                else:
                    child |= opens
            path.append(i)
            if child:
                dfs(child, ban | banned[i])
            else:
                results.append(sorted(path))
            path.pop()

    for root in _bits(cands):
        if not bases[root] & 1:
            # a fan on every ray is found from its least cone, which holds
            # column 1; the candidates holding it come first
            break
        path.append(root)
        open_ = sum(opens for _, opens in pairs[root])
        if open_:
            dfs(open_, banned[root] | (1 << root) - 1)
        else:
            results.append([root])  # its cone is the cone on all columns
        path.pop()

    # bases are in lexicographic order, so index lists sort like fans;
    # itemgetter builds each tuple at its size, but gives one index bare
    cones = {i: Cone(tuple(j + 1 for j in _bits(bases[i]))) for i in _bits(cands)}
    return [Fan(V, itemgetter(*fset)(cones) if len(fset) > 1 else (cones[fset[0]],))
            for fset in sorted(results)]


def _given_fan(V: Mat, fan: "Fan | Iterable[Sequence[int]]") -> Fan:
    """A Fan or cone index sets given for V, as a Fan checked once."""
    fan = fan if isinstance(fan, Fan) else fan_from_cones(V, fan)
    _check_fan(V, fan)
    return fan


def _select_fan(V: Mat, fan: "Fan | Iterable[Sequence[int]] | None",
                index: "int | None", cap: int) -> Fan:
    """The fan chosen for V, checked: ``fan`` (a Fan or cone index sets),
    checked once, or else the 1-based ``index``-th fan of ``enumerate_SF``,
    or its only fan when there is one.  An enumerated fan is valid by
    construction and is taken as it is."""
    if index is not None and (not isinstance(index, int) or isinstance(index, bool)):
        raise DomainError(f"fan index {index!r} is not an integer")
    if fan is not None:
        if index is not None:
            raise DomainError("give a fan or a fan index, not both")
        return _given_fan(V, fan)
    fans = enumerate_SF(V, cap=cap)
    if index is None:
        if len(fans) != 1:
            raise DomainError(f"{len(fans)} fans available; select one "
                              "with a 1-based fan index")
        return fans[0]
    if not 1 <= index <= len(fans):
        raise DomainError(f"fan index {index} out of range 1..{len(fans)}")
    return fans[index - 1]


def is_divisorially_detected(V: Mat, cap: int = DEFAULT_CAP) -> bool:
    """Whether the configuration admits exactly one simplicial fan."""
    return len(enumerate_SF(V, cap=cap)) == 1
