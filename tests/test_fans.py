import json
import random
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from galekit import (
    Cone,
    DomainError,
    Fan,
    Mat,
    classify_f,
    cone_contains,
    enumerate_SF,
    fan_from_cones,
    gale_dual,
    is_divisorially_detected,
    is_fan,
    is_support_complete,
)
from galekit import fans as fans_module
from galekit import matrix
from galekit.fans import _Circuits, _check_fan
from conftest import (
    ConeGeom,
    chirotope_oracle,
    count_calls,
    count_rank_calls,
    enumerate_SF_oracle,
    gauss_rank,
    nonneg_combination_oracle,
    proper_intersection,
    rand_f_matrix,
    rand_full_row_rank,
    rand_mat,
    solve_oracle,
    support_complete_oracle,
)

WORKED_V = Mat([[1, -1, 1, 0], [0, 0, 2, -1]])
P2_V = Mat([[1, 0, -1], [0, 1, -1]])
RAY4_V = Mat([[1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 1]])
NOPROJ_V = Mat([[1, 0, 0, 0, -1, 1],
                [0, 1, 0, -1, -1, 2],
                [0, 0, 1, -1, 0, 1]])


def test_cone_contains_interior_point():
    assert cone_contains(WORKED_V, (1, 3), (1, 1), interior=True)
    assert cone_contains(WORKED_V, (1, 3), (1, 1))


def test_cone_contains_origin_not_interior():
    assert cone_contains(WORKED_V, (1, 3), (0, 0))
    assert not cone_contains(WORKED_V, (1, 3), (0, 0), interior=True)


def test_cone_contains_outside():
    assert not cone_contains(WORKED_V, (1, 3), (-1, 0))


def test_cone_contains_rational_point():
    assert cone_contains(WORKED_V, (1, 3), (Fraction(1, 2), Fraction(1, 3)))


@pytest.mark.parametrize("point", [(1.0, 1), ("1", 1), (True, 1)])
def test_cone_contains_rejects_non_exact_points_on_both_branches(point):
    """A float, str or bool entry raises the same TypeError whether the cone
    is simplicial, not simplicial or zero."""
    three_rays = Mat([[1, 0, 1], [0, 1, 1]])
    messages = set()
    for V, cone in ((WORKED_V, (1, 3)), (three_rays, (1, 2, 3)), (three_rays, ())):
        with pytest.raises(TypeError) as err:
            cone_contains(V, cone, point)
        messages.add(str(err.value))
    assert len(messages) == 1


def test_is_fan_accepts_valid():
    assert is_fan(RAY4_V, [(1, 2, 3), (2, 3, 4)])


def test_is_fan_rejects_overlap():
    assert not is_fan(RAY4_V, [(1, 2, 3), (1, 2, 4)])


def test_is_fan_single_cone():
    assert is_fan(RAY4_V, [(1, 2, 3)])


def test_is_fan_rejects_non_simplicial():
    V = Mat([[1, 0, -1], [0, 1, -1]])
    with pytest.raises(DomainError):
        is_fan(V, [(1, 2, 3)])


def test_support_complete_worked_fan():
    fan = fan_from_cones(WORKED_V, [(1, 3), (2, 3), (2, 4), (1, 4)])
    assert is_support_complete(WORKED_V, fan)


def test_support_complete_partial_cover():
    fan = fan_from_cones(WORKED_V, [(1, 3)])
    assert not is_support_complete(WORKED_V, fan)


def test_support_complete_proper_cone():
    fan = fan_from_cones(RAY4_V, [(1, 2, 3), (2, 3, 4)])
    assert is_support_complete(RAY4_V, fan)
    half = fan_from_cones(RAY4_V, [(1, 2, 3)])
    assert not is_support_complete(RAY4_V, half)


def test_support_complete_names_the_conflict_of_a_non_fan():
    # v4 = v1 + v2 + v3 lies inside cone(1, 2, 3)
    V = Mat([[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]])
    fan = fan_from_cones(V, [(1, 2, 4), (1, 2, 3)])
    with pytest.raises(DomainError, match=re.escape(
            "invalid fan: cones {1, 2, 3} and {1, 2, 4} do not meet along a "
            "common face (circuit Z+ = {1, 2, 3}, Z- = {4})") + "$"):
        is_support_complete(V, fan)


def test_support_complete_counts_a_repeated_cone_once():
    # one quadrant listed twice is still one quadrant, not a complete fan
    assert not is_support_complete(P2_V, fan_from_cones(P2_V, [(1, 2)]))
    assert not is_support_complete(P2_V, fan_from_cones(P2_V, [(1, 2), (1, 2)]))
    assert is_support_complete(
        P2_V, fan_from_cones(P2_V, [(1, 2), (1, 3), (2, 3), (2, 3)]))


def test_enumerate_p2():
    fans = enumerate_SF(P2_V)
    assert len(fans) == 1
    assert fans[0].cone_sets() == ((1, 2), (1, 3), (2, 3))
    assert is_divisorially_detected(P2_V)


def test_enumerate_4ray():
    fans = enumerate_SF(RAY4_V)
    got = {f.cone_sets() for f in fans}
    assert got == {((1, 2, 3), (2, 3, 4)), ((1, 2, 4), (1, 3, 4))}


def test_enumerate_worked_example():
    fans = enumerate_SF(WORKED_V)
    assert len(fans) == 1
    assert fans[0].cone_sets() == ((1, 3), (1, 4), (2, 3), (2, 4))


def test_enumerate_noproj_count():
    fans = enumerate_SF(NOPROJ_V)
    assert len(fans) == 8
    listed = {(2, 4, 5), (2, 3, 5), (1, 4, 5), (1, 3, 5),
              (2, 4, 6), (2, 3, 6), (1, 4, 6), (1, 3, 6)}
    assert any(set(f.cone_sets()) == listed for f in fans)


def test_enumerate_output_is_valid():
    """Every enumerated fan is a fan on every ray with full support, and
    passes the check a fan given to ``full_report`` gets, which
    ``full_report`` does not run on the fans it enumerates: the three
    examples and 300 seeded fuzz configurations."""
    rng = random.Random(1602)
    configs = [P2_V, RAY4_V, NOPROJ_V] + [_fan_fuzz_case(rng, t) for t in range(300)]
    checked = 0
    for V in configs:
        try:
            fans = enumerate_SF(V)
        except DomainError:
            continue
        for fan in fans:
            assert is_fan(V, fan.maximal_cones)
            assert is_support_complete(V, fan)
            used = {g for c in fan.maximal_cones for g in c.gens}
            assert used == set(range(1, V.cols + 1))
            _check_fan(V, fan)
            checked += 1
    assert checked >= 900, checked


def test_enumerate_rank2_always_unique():
    rng = random.Random(601)
    done = 0
    while done < 12:
        V = rand_f_matrix(rng, 2, rng.randint(3, 5))
        if V is None:
            continue
        rep = classify_f(V)
        if not rep.is_f_matrix:
            continue
        assert len(enumerate_SF(V)) == 1
        done += 1


def test_enumerate_column_permutation_invariance():
    rng = random.Random(602)
    perm = list(range(NOPROJ_V.cols))
    rng.shuffle(perm)
    shuffled = NOPROJ_V.take_cols(perm)
    fans_a = enumerate_SF(NOPROJ_V)
    fans_b = enumerate_SF(shuffled)
    assert len(fans_a) == len(fans_b)
    relabel = {old + 1: new + 1 for new, old in enumerate(perm)}
    relabeled = {tuple(sorted(tuple(sorted(relabel[g] for g in c.gens))
                              for c in f.maximal_cones)) for f in fans_a}
    direct = {f.cone_sets() for f in fans_b}
    assert relabeled == direct


def test_enumerate_guards():
    with pytest.raises(DomainError):
        enumerate_SF(NOPROJ_V, cap=5)
    with pytest.raises(DomainError):
        enumerate_SF(Mat([[1, 0, 0], [0, 1, 0]]))  # zero column
    with pytest.raises(DomainError):
        enumerate_SF(Mat([[1, 2, -1], [0, 0, 1]]))  # repeated ray direction
    with pytest.raises(DomainError):
        enumerate_SF(Mat([[1, -1, 2], [1, -1, 2]]))  # rank-deficient


@pytest.mark.parametrize("V, pair", [
    # columns 1, 4 and 2, 3 span common rays: (1, 4) comes first, although
    # (2, 3) has the smaller second column
    (Mat([[1, 0, 0, 3, -1], [0, 1, 2, 0, -1]]), (1, 4)),
    # three columns on one ray, and a later pair on another
    (Mat([[1, 2, 3, 0, 0, -1], [0, 0, 0, 1, 5, -1]]), (1, 2)),
    # the rays come back in the other order: 2 then 5, 3 then 4
    (Mat([[0, 1, 0, 0, 2, -1], [0, 0, 1, 4, 0, -1], [1, 0, 0, 0, 0, -1]]),
     (2, 5)),
])
def test_enumerate_names_the_first_same_ray_pair(V, pair):
    i, j = pair
    with pytest.raises(DomainError, match=f"^degenerate configuration: columns "
                       f"{i} and {j} span the same ray$"):
        enumerate_SF(V)


def test_enumerate_matches_weight_side():
    # enumeration driven from the Gale dual of the worked-example weights
    V = gale_dual(Mat([[1, 1, 0, 0], [0, 1, 1, 2]]))
    assert len(enumerate_SF(V)) == 1


def test_fan_from_cones_validates_indices():
    with pytest.raises(DomainError):
        fan_from_cones(P2_V, [(1, 4)])
    fan = fan_from_cones(P2_V, [(2, 1), (1, 3), (2, 3)])
    assert fan.cone_sets() == ((1, 2), (1, 3), (2, 3))


def test_enumerate_simplex_cone():
    fans = enumerate_SF(Mat.identity(3))
    assert len(fans) == 1
    assert fans[0].cone_sets() == ((1, 2, 3),)


def test_enumerate_dimension_one():
    fans = enumerate_SF(Mat([[1, -1]]))
    assert len(fans) == 1
    assert fans[0].cone_sets() == ((1,), (2,))
    assert enumerate_SF(Mat([[3]]))[0].cone_sets() == ((1,),)


def test_is_fan_lower_dimensional_cones():
    assert is_fan(Mat.identity(2), [(1,), (2,)])
    V = Mat([[1, 0, 1], [0, 1, 1]])
    # the third ray lies inside the first cone
    assert not is_fan(V, [(1, 2), (3,)])


def _brute_force_sf(V):
    """Reference enumeration: every set of nonsingular n-subsets that meet
    pairwise properly under the vertex-enumeration oracle, kept when it uses
    every ray and passes the reference support certificate."""
    n, s = V.shape
    cones = [c for c in combinations(range(1, s + 1), n)
             if V.take_cols([g - 1 for g in c]).rank() == n]
    geoms = [ConeGeom(V, c) for c in cones]
    ok = {(a, b): proper_intersection(V, geoms[a], geoms[b])
          for a, b in combinations(range(len(cones)), 2)}
    out = []

    def grow(pick, start):
        if pick:
            chosen = [cones[k] for k in pick]
            used = {g for c in chosen for g in c}
            if used == set(range(1, s + 1)) and support_complete_oracle(V, chosen):
                out.append(tuple(chosen))
        for k in range(start, len(cones)):
            if all(ok[(a, k)] for a in pick):
                grow(pick + [k], k + 1)

    grow([], 0)
    return sorted(out)


def test_enumerate_matches_brute_force():
    rng = random.Random(603)
    cases = 0
    while cases < 6:
        n = rng.choice([2, 3])
        s = rng.randint(n + 1, 5)
        V = rand_mat(rng, n, s, -2, 2)
        try:
            fans = enumerate_SF(V)
        except DomainError:
            continue
        brute = _brute_force_sf(V)
        assert sorted(f.cone_sets() for f in fans) == brute
        cases += 1
    found = 0
    while cases < 8:
        V = rand_mat(rng, 3, 6, -2, 2)
        try:
            fans = enumerate_SF(V)
        except DomainError:
            continue
        brute = _brute_force_sf(V)
        assert sorted(f.cone_sets() for f in fans) == brute
        found += len(brute)
        cases += 1
    assert found > 0


def test_support_complete_rank_deficient_configurations():
    ray = Mat([[1], [0]])
    assert is_support_complete(ray, fan_from_cones(ray, [(1,)]))
    line = Mat([[1, -1], [0, 0]])
    assert is_support_complete(line, fan_from_cones(line, [(1,), (2,)]))
    assert not is_support_complete(line, fan_from_cones(line, [(1,)]))


def _rand_cone_case(rng):
    """(V, gens, x): a small V whose generator set is rank-deficient about
    a third of the time, and a point that is often a nonnegative or positive
    combination of the generators, sometimes scaled by a fraction."""
    n = rng.randint(1, 4)
    s = rng.randint(1, 6)
    V = rand_mat(rng, n, s, -3, 3)
    k = rng.randint(1, s)
    gens = tuple(sorted(rng.sample(range(1, s + 1), k)))
    if k >= 2 and rng.random() < 0.35:
        # make the last generator a combination of the others
        cols = [list(V.col(j)) for j in range(s)]
        a, b = rng.sample(gens[:-1], 2) if k >= 3 else (gens[0], gens[0])
        ca, cb = rng.randint(-2, 2), rng.randint(-2, 2)
        cols[gens[-1] - 1] = [ca * x + cb * y for x, y in
                              zip(cols[a - 1], cols[b - 1])]
        V = Mat.from_cols(cols)
    kind = rng.randrange(4)
    if kind == 0:
        x = [rng.randint(-3, 3) for _ in range(n)]
    else:
        lo = 1 if kind == 1 else 0
        coeffs = [rng.randint(lo, 3) for _ in gens]
        x = [sum(c * V[i, g - 1] for c, g in zip(coeffs, gens))
             for i in range(n)]
        if kind == 3 and rng.random() < 0.5:
            # nudge off the cone: most such points fall outside
            x[rng.randrange(n)] += rng.choice((-1, 1))
    if rng.random() < 0.3:
        q = Fraction(rng.randint(1, 4), rng.randint(2, 5))
        x = [q * v for v in x]
    return V, gens, x


def test_cone_contains_matches_oracles_fuzz():
    """Plain membership against the square-subsystem scan, the interior
    test against plain Gaussian elimination (rank, then coefficients)."""
    rng = random.Random(1107)
    plain = [0, 0]
    inner = [0, 0]
    refused = 0
    rational = deficient = 0
    for _ in range(1500):
        V, gens, x = _rand_cone_case(rng)
        rational += any(isinstance(v, Fraction) for v in x)
        cols = [V.col(g - 1) for g in gens]
        want = nonneg_combination_oracle(cols, tuple(x)) is not None
        got = cone_contains(V, gens, x)
        assert got == want, (V, gens, x)
        plain[got] += 1
        sub = V.take_cols([g - 1 for g in gens])
        if gauss_rank(sub) < len(gens):
            deficient += 1
            with pytest.raises(DomainError, match="^interior test requires "
                               "a simplicial cone$"):
                cone_contains(V, gens, x, interior=True)
            refused += 1
            continue
        sol = solve_oracle(sub, Mat([[v] for v in x]))
        want = sol is not None and all(c > 0 for c in sol.col(0))
        got = cone_contains(V, gens, x, interior=True)
        assert got == want, (V, gens, x)
        inner[got] += 1
    assert min(plain) >= 100 and min(inner) >= 100, (plain, inner)
    assert refused >= 100 and rational >= 100 and deficient >= 100


def test_cone_contains_asks_no_rank_and_no_solve(monkeypatch):
    ranks = count_rank_calls(monkeypatch)
    three_rays = Mat([[1, 0, 1], [0, 1, 1]])
    for interior in (False, True):
        assert cone_contains(WORKED_V, (1, 3), (1, 1), interior=interior)
        assert not cone_contains(WORKED_V, (1, 3), (-1, 0), interior=interior)
    assert cone_contains(three_rays, (1, 2, 3), (1, 1))
    with pytest.raises(DomainError):
        cone_contains(three_rays, (1, 2, 3), (1, 1), interior=True)
    assert ranks["rank"] == 0


def test_cone_contains_non_simplicial():
    V = Mat([[1, 0, 1], [0, 1, 1]])
    assert cone_contains(V, (1, 2, 3), (1, 1))
    assert not cone_contains(V, (1, 2, 3), (-1, 0))
    with pytest.raises(DomainError):
        cone_contains(V, (1, 2, 3), (1, 1), interior=True)


def test_enumerate_deterministic_across_runs():
    first = [f.cone_sets() for f in enumerate_SF(NOPROJ_V)]
    second = [f.cone_sets() for f in enumerate_SF(NOPROJ_V)]
    assert first == second
    assert first == sorted(first)


def test_enumerate_fans_cover_random_support_points():
    rng = random.Random(604)
    for V in (RAY4_V, NOPROJ_V):
        fans = enumerate_SF(V)
        for _ in range(30):
            coeffs = [rng.randint(0, 5) for _ in range(V.cols)]
            x = tuple(sum(coeffs[j] * V[i, j] for j in range(V.cols))
                      for i in range(V.rows))
            for fan in fans:
                assert any(cone_contains(V, c, x) for c in fan.maximal_cones)


def test_pair_test_matches_vertex_oracle():
    """The oriented-circuit pair test inside is_fan against the
    vertex-enumeration oracle, on cones of every dimension."""
    rng = random.Random(605)
    pairs = deficient = 0
    for trial in range(24):
        n = 2 + trial % 3
        s = rng.randint(n + 1, n + 4)
        V = rand_mat(rng, n, s, -2, 2)
        if trial % 4 == 3:
            # the last row becomes the sum of the others
            rows = V.to_lists()
            rows[-1] = [sum(col) for col in zip(*rows[:-1])]
            V = Mat(rows)
        cones = [c for d in range(1, n + 1)
                 for c in combinations(range(1, s + 1), d)
                 if V.take_cols([g - 1 for g in c]).rank() == d]
        if len(cones) < 2:
            continue
        deficient += V.rank() < n
        for _ in range(40):
            a, b = rng.sample(cones, 2)
            expected = proper_intersection(V, ConeGeom(V, a), ConeGeom(V, b))
            assert is_fan(V, [a, b]) == expected, (V, a, b)
            pairs += 1
    assert deficient >= 5
    assert pairs >= 900


def test_is_fan_on_few_columns_of_a_wide_configuration():
    """Two cones on a 5x18 V: the circuit table covers only the columns the
    cones use, and the answer agrees with the vertex-enumeration oracle."""
    rng = random.Random(606)
    V = rand_full_row_rank(rng, 5, 18, -3, 3)
    verdicts = [0, 0]
    while sum(verdicts) < 16:
        a = rng.sample(range(1, 19), 5)
        rest = [j for j in range(1, 19) if j not in a]
        b = a[:rng.randint(0, 4)] + rng.sample(rest, 5)
        b = b[:5]
        a, b = tuple(sorted(a)), tuple(sorted(b))
        if any(V.take_cols([g - 1 for g in c]).rank() < 5 for c in (a, b)):
            continue
        expected = proper_intersection(V, ConeGeom(V, a), ConeGeom(V, b))
        assert is_fan(V, [a, b]) == expected, (a, b)
        verdicts[expected] += 1
    assert min(verdicts) >= 3


def _candidate_count(V):
    """Nonsingular n-subsets of the columns with no further column strictly
    inside, counted with exact interior membership."""
    n, s = V.shape
    return sum(
        1 for c in combinations(range(1, s + 1), n)
        if V.take_cols([g - 1 for g in c]).rank() == n
        and not any(cone_contains(V, c, V.col(k - 1), interior=True)
                    for k in range(1, s + 1) if k not in c))


def test_enumerate_reproduces_golden_fan_lists():
    """Six seeded 3x9, 3x10 and 4x9 configurations with more than 64
    candidate cones, so the candidate and fan bitmasks of the search are
    wider than a machine word: the fans and their order are exactly those
    recorded in tests/data/fans_golden.json."""
    golden = json.loads((Path(__file__).parent / "data" / "fans_golden.json").read_text())
    shapes = set()
    for case in golden["cases"]:
        V = Mat(case["V"])
        assert _candidate_count(V) == case["candidates"] > 64
        got = [[list(c) for c in fan.cone_sets()] for fan in enumerate_SF(V)]
        assert got == case["fans"], case["name"]
        shapes.add(V.shape)
    assert shapes == {(3, 9), (3, 10), (4, 9)}
    assert len(golden["cases"]) >= 6


def test_is_fan_matches_pairwise_vertex_oracle_on_collections():
    """Collections of 2-6 simplicial cones of any dimension, some on
    rank-deficient V: is_fan agrees with the vertex-enumeration pair test
    applied to every pair."""
    rng = random.Random(607)
    verdicts = [0, 0]
    trial = 0
    while sum(verdicts) < 500:
        trial += 1
        n = 2 + trial % 2
        s = rng.randint(n + 1, n + 3)
        V = rand_mat(rng, n, s, -2, 2)
        if trial % 5 == 0:
            rows = V.to_lists()
            rows[-1] = [sum(col) for col in zip(*rows[:-1])]
            V = Mat(rows)
        cones = [c for d in range(1, n + 1)
                 for c in combinations(range(1, s + 1), d)
                 if V.take_cols([g - 1 for g in c]).rank() == d]
        if len(cones) < 2:
            continue
        geoms = {c: ConeGeom(V, c) for c in cones}
        pair = {}
        for _ in range(8):
            pick = rng.sample(cones, min(rng.randint(2, 6), len(cones)))
            for a, b in combinations(pick, 2):
                if (a, b) not in pair:
                    pair[a, b] = proper_intersection(V, geoms[a], geoms[b])
            expected = all(pair[a, b] for a, b in combinations(pick, 2))
            assert is_fan(V, pick) == expected, (V, pick)
            verdicts[expected] += 1
    assert min(verdicts) >= 50, verdicts


def _fan_fuzz_case(rng, trial):
    """A seeded configuration with n = 2-4 rows and entries in [-1, 1] or
    [-2, 2]; one trial in five each gets a column on the ray of another, a
    row that sums the others (rank-deficient), or a column v_a + v_b, which
    lies in the relative interior of the 2-face cone(v_a, v_b)."""
    n = 2 + trial % 3
    s = rng.randint(n + 1, n + 4)
    bound = rng.choice((1, 2))
    rows = rand_mat(rng, n, s, -bound, bound).to_lists()
    kind = trial % 5
    a, b, c = rng.sample(range(s), 3)
    if kind == 1:
        scale = rng.choice((1, 2))
        for row in rows:
            row[b] = scale * row[a]
    elif kind == 2:
        rows[-1] = [sum(col) for col in zip(*rows[:-1])]
    elif kind == 3:
        for row in rows:
            row[c] = row[a] + row[b]
    return Mat(rows)


def _face_ray_drops(V):
    """The bases with a further ray in the relative interior of a proper
    face, and none strictly inside: the all-rays rule drops them, the
    strictly-inside rule keeps them."""
    table = _Circuits(V)
    inside = {p for p, q in table.circuits if q.bit_count() == 1}
    return sum(1 for m in table.chi
               if m not in inside and any(p & ~m == 0 for p in inside))


def test_enumerate_matches_oracle_fuzz():
    """1,500 seeded configurations: the fans and their order, or the error
    message, are those of the search that kept every basis with no ray
    strictly inside and discarded the leaves that miss a ray."""
    rng = random.Random(1409)
    errors = fans = face_drops = 0
    for trial in range(1500):
        V = _fan_fuzz_case(rng, trial)
        try:
            expected = [f.cone_sets() for f in enumerate_SF_oracle(V)]
        except DomainError as exc:
            with pytest.raises(DomainError) as got:
                enumerate_SF(V)
            assert str(got.value) == str(exc), V
            errors += 1
            continue
        assert [f.cone_sets() for f in enumerate_SF(V)] == expected, V
        fans += len(expected)
        face_drops += _face_ray_drops(V) > 0
    assert errors >= 500 and fans >= 4000, (errors, fans)
    assert face_drops >= 100, face_drops


def _table_fuzz_case(rng, trial, tall=False):
    """Ranks 0 to 5 on 1 to 10 columns, or (tall) more rows than half the 6
    to 10 columns: zero and rank-one matrices, a row that is the sum of two
    others, rational entries, and plain draws."""
    n, s = rng.randint(1, 5), rng.randint(1, 10)
    if tall:
        s = rng.randint(6, 10)
        n = rng.randint(s // 2 + 1, s + 1)
    rows = rand_mat(rng, n, s, -3, 3).to_lists()
    kind = trial % 5
    if kind == 1:
        rows = [[0] * s for _ in range(n)]
    elif kind == 2:
        rows = [[rng.randint(-2, 2) * x for x in rows[0]] for _ in range(n)]
    elif kind == 3 and n > 2:
        rows[rng.randrange(n)] = [a + b for a, b in zip(rows[0], rows[1])]
    elif kind == 4:
        rows = [[Fraction(x, rng.randint(1, 6)) for x in row] for row in rows]
    return Mat(rows)


P9_P9_V = gale_dual(Mat([[1] * 10 + [0] * 10, [0] * 10 + [1] * 10]))  # 18 x 20


def test_circuit_table_matches_bareiss_oracle_fuzz(monkeypatch):
    """The sweep gives the chirotope, in the same order, and the circuits of
    one Bareiss determinant per basis of the table's echelon rows: 600
    seeded matrices, 300 tall ones, 5 x 18 and 12 x 16 configurations and
    the V of P^9 x P^9.  A table swept down the kernel builds it by one back
    substitution."""
    calls = count_calls(monkeypatch, matrix, "_back_substitute")
    rng = random.Random(2406)
    cases = [_table_fuzz_case(rng, trial) for trial in range(600)]
    cases.append(rand_mat(rng, 5, 18, -2, 2))
    cases += [_table_fuzz_case(rng, trial, tall=True) for trial in range(300)]
    cases += [rand_mat(rng, 12, 16, -2, 2), P9_P9_V]
    ranks = []
    rational = deficient = 0
    kernel = Counter()
    for V in cases:
        calls.clear()
        table = _Circuits(V)
        on_kernel = calls["_back_substitute"]
        assert on_kernel <= 1
        chi, circuits = chirotope_oracle(V)
        assert list(table.chi.items()) == list(chi.items()), V
        assert table.circuits == circuits, V
        assert table.rank == gauss_rank(V), V
        ranks.append(table.rank)
        rational += not V.is_integral
        deficient += 0 < table.rank < V.rows
        if on_kernel:
            kernel.update(cases=1, rational=not V.is_integral,
                          deficient=table.rank < V.rows)
    assert ranks.count(0) >= 100 and ranks.count(1) >= 100, ranks
    assert rational >= 100 and deficient >= 100, (rational, deficient)
    assert cases[600].shape == (5, 18) and ranks[600] == 5
    assert ranks[-2:] == [12, 18]
    assert kernel["cases"] >= 100, kernel
    assert kernel["rational"] >= 20 and kernel["deficient"] >= 20, kernel


def test_circuit_table_sweeps_the_shorter_side(monkeypatch):
    # short V: the sweep runs down its echelon rows; the 18 x 20 V of
    # P^9 x P^9 and the Gale duals of P(1,2,3,5) (3 x 4) and of
    # P(1,1,2,3,5,8) (5 x 6), which have fewer kernel rows than echelon
    # rows: down the 2 rows, or the 1 row, of their kernels.  Neither route
    # takes a determinant
    calls = count_calls(monkeypatch, matrix, "_bareiss_det")
    swept = []
    minors = fans_module._minors
    monkeypatch.setattr(fans_module, "_minors",
                        lambda rows, bits: swept.append(len(rows)) or minors(rows, bits))
    for V in (WORKED_V, NOPROJ_V, Mat([[Fraction(1, 2), 0, -1]]),
              Mat([[0, 0, 0], [0, 0, 0]])):
        _Circuits(V)
    assert swept == [2, 3, 1, 0] and calls["_bareiss_det"] == 0
    swept.clear()
    for V in (P9_P9_V, gale_dual(Mat([[1, 2, 3, 5]])),
              gale_dual(Mat([[1, 1, 2, 3, 5, 8]]))):
        _Circuits(V)
    assert swept == [2, 1, 1] and calls["_bareiss_det"] == 0


def test_circuit_table_eliminates_once_on_both_routes(monkeypatch):
    """Every table runs one ``_eliminate`` of V's rows and reads the swept
    rows, the kernel and the table's sign off it: the sweep route takes no
    back substitution, the kernel route one, and neither a determinant."""
    calls = count_calls(monkeypatch, matrix, "_eliminate", "_back_substitute",
                        "_bareiss_det")
    rng = random.Random(7)
    kernel_side = rand_mat(rng, 7, 10, -2, 2).to_lists()
    kernel_side.append([Fraction(x, 3) for x in kernel_side[0]])  # rank 7, rational
    for V, routed in ((WORKED_V, 0), (NOPROJ_V, 0), (Mat([[0, 0, 0]]), 0),
                      (P9_P9_V, 1), (Mat(kernel_side), 1), (Mat.identity(9), 1)):
        calls.clear()
        _Circuits(V)
        assert calls == Counter(_eliminate=1, _back_substitute=routed), (V, calls)


def test_enumerate_builds_column_holders_once(monkeypatch):
    # the candidate filter and the conflict pass share one holders table
    calls = count_calls(monkeypatch, fans_module, "_holders")
    for V, count in ((NOPROJ_V, 8), (P2_V, 1), (RAY4_V, 2)):
        calls.clear()
        assert len(enumerate_SF(V)) == count
        assert calls["_holders"] == 1
