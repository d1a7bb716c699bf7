"""Seeded corpus for the galekit benchmark.

Every instance is made by a stdlib-only generator from its family, its pool
index ``k`` and a draw number: the generator's random stream is
``random.Random(f"{family}:{k}:{draw}")``.  ``pool.json`` keeps, for each
pool index, the first draw that passed the family's acceptance test (some
need the library: an F-matrix, a rank or a reducedness check), the digest of
the instance's output at the reference commit, and its work: the number of
fans found for ``enumerate_SF`` (it sets the memory peak and tracks the
time), library calls counted by the tracer for the others.
``build_pool.py`` writes that file; nothing here imports galekit.

A run's ``--seed`` picks instances from each family's pool, stratified by
their recorded work (see GROUP), and deals them into rounds that follow the
workload's round template, so the same seed always yields the same rounds.
Odd and even seeds draw from disjoint halves of the pool, so a seed of the
other parity (seed 2 against seed 1) is a held-out check; seeds of one
parity share their instances and differ in their order.  Run
``python3 perfbench/corpus.py --seed N`` to print the manifest of a seed.
"""

from __future__ import annotations

import argparse
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

POOL_FILE = Path(__file__).with_name("pool.json")

V6 = [[1, 0, 0, 0, -1, 1], [0, 1, 0, -1, -1, 2], [0, 0, 1, -1, 0, 1]]
WORKED_Q = [[1, 1, 0, 0], [0, 1, 1, 2]]


def _matrix(rng: random.Random, rows: int, cols: int, lo: int, hi: int) -> list:
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def _weights(rng: random.Random, m: int, hi: int = 9) -> list:
    """Well-formed weights: any m - 1 of them are coprime, which makes the
    1 x m weight matrix reduced."""
    while True:
        q = sorted(rng.randint(1, hi) for _ in range(m))
        if all(math.gcd(*(q[:i] + q[i + 1:])) == 1 for i in range(m)):
            return q


def _wps_cones(m: int, offset: int = 0) -> list:
    """The unique fan of a weighted projective space: all m cones that omit
    one ray."""
    return [[j + offset for j in range(1, m + 1) if j != i] for i in range(1, m + 1)]


def _wps(m: int) -> Callable:
    def make(rng):
        return {"Q": [_weights(rng, m)], "fan": _wps_cones(m)}
    return make


def _wps_product(a: int, b: int) -> Callable:
    def make(rng):
        qa, qb = _weights(rng, a), _weights(rng, b)
        Q = [qa + [0] * b, [0] * a + qb]
        fan = [ca + cb for ca in _wps_cones(a) for cb in _wps_cones(b, a)]
        return {"Q": Q, "fan": fan}
    return make


def _nonreduced_w(r: int, m: int) -> Callable:
    """A candidate r x m weight matrix whose last row is congruent modulo p
    to a combination of the other rows on every column but one, so deleting
    that column leaves a lattice with cotorsion: the matrix is not reduced."""
    def make(rng):
        p = rng.choice((2, 3))
        skip = rng.randrange(m)
        rows = _matrix(rng, r - 1, m, 0, 4)
        ks = [rng.randrange(1, p) for _ in range(r - 1)]
        last = [sum(k * row[j] for k, row in zip(ks, rows)) % p + p * rng.randint(0, 1)
                for j in range(m)]
        last[skip] = rng.randint(0, 4)
        return {"Q": rows + [last]}
    return make


def _unimodular(rng: random.Random, n: int, steps: int = 8) -> list:
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        q = rng.choice((-1, 1))
        rows[i] = [x + q * y for x, y in zip(rows[i], rows[j])]
    return rows


def _nonspanning(n: int, m: int) -> Callable:
    """A candidate whose columns lie in an open half-space, so they do not
    positively span and every column fails the spanning test: a matrix with a
    positive first row, scrambled by a random unimodular matrix."""
    def make(rng):
        v = _matrix(rng, n, m, -2, 2)
        v[0] = [rng.randint(1, 2) for _ in range(m)]
        u = _unimodular(rng, n)
        return {"V": [[sum(a * b for a, b in zip(row, col)) for col in zip(*v)] for row in u]}
    return make


@dataclass(frozen=True)
class Family:
    name: str
    workload: str
    kind: str          # which operation an instance runs, see ops.py
    sizes: str
    why: str
    make: Callable     # rng -> plain inputs (lists of ints)
    fixed: bool = False  # a single instance that every round uses


def _fixed(value: dict) -> Callable:
    return lambda rng: value


FAMILIES = {f.name: f for f in [
    # fans: enumerate_SF on F-matrices
    Family("V6", "fans", "fans", "3x6",
           "the paper's 8-fan configuration, an exact anchor",
           _fixed({"V": V6}), fixed=True),
    Family("fans_3x8", "fans", "fans", "3x8, entries in [-2, 2]",
           "smallest seeded size; five per round keep the median and the tail sample "
           "on one size",
           lambda rng: {"V": _matrix(rng, 3, 8, -2, 2)}),
    Family("fans_3x9", "fans", "fans", "3x9, entries in [-2, 2]",
           "middle size",
           lambda rng: {"V": _matrix(rng, 3, 9, -2, 2)}),
    Family("fans_3x10", "fans", "fans", "3x10, entries in [-2, 2]",
           "largest size under the default cap of 10 rays",
           lambda rng: {"V": _matrix(rng, 3, 10, -2, 2)}),
    # report: full_report on reduced weight matrices with known fans
    Family("worked", "report", "report", "2x4",
           "the worked example; its single fan is chosen automatically",
           _fixed({"Q": WORKED_Q, "fan": None}), fixed=True),
    Family("wps3", "report", "report", "1x3, weights in [1, 9]",
           "weighted projective plane, r = 1, n+r = 3", _wps(3)),
    Family("wps4", "report", "report", "1x4, weights in [1, 9]",
           "weighted projective space, r = 1, n+r = 4", _wps(4)),
    Family("wps5", "report", "report", "1x5, weights in [1, 9]",
           "weighted projective space, r = 1, n+r = 5", _wps(5)),
    Family("wps6", "report", "report", "1x6, weights in [1, 9]",
           "weighted projective space, r = 1, n+r = 6", _wps(6)),
    Family("prod22", "report", "report", "2x4",
           "P1 x P1, r = 2, n+r = 4 (the only well-formed pair)", _wps_product(2, 2),
           fixed=True),
    Family("prod23", "report", "report", "2x5, weights in [1, 9]",
           "P1 x weighted plane, r = 2, n+r = 5", _wps_product(2, 3)),
    Family("prod24", "report", "report", "2x6, weights in [1, 9]",
           "P1 x weighted 3-space, r = 2, n+r = 6", _wps_product(2, 4)),
    Family("prod33", "report", "report", "2x6, weights in [1, 9]",
           "product of two weighted planes, r = 2, n+r = 6", _wps_product(3, 3)),
    # classify: F/W classification and weight reduction
    *[Family(f"span_{n}x{m}", "classify", "fw_candidate", f"{n}x{m}, entries in [-2, 2]",
             f"candidates that pass clause b (positively spanning), {why}; the "
             f"scans stop at the first witness",
             (lambda n, m: lambda rng: {"V": _matrix(rng, n, m, -2, 2)})(n, m))
      for n, m, why in [(3, 8, "small"), (4, 10, "mid-size"), (5, 12, "large")]],
    *[Family(f"nospan_{n}x{m}", "classify", "fw_candidate",
             f"{n}x{m}, first row in [1, 2], others in [-2, 2], times a unimodular matrix",
             f"candidates that fail clause b, {why}; the subset scans find no "
             f"witness and run to the end",
             _nonspanning(n, m))
      for n, m, why in [(3, 8, "small"), (4, 10, "mid-size"), (5, 12, "large"),
                        (3, 14, "the most columns")]],
    *[Family(f"wred_{r}x{m}", "classify", "w_reduce", f"{r}x{m}, entries in [0, 5]",
             f"non-reduced weight matrix, r = {r}", _nonreduced_w(r, m))
      for r, m in [(2, 9), (3, 9), (2, 11), (3, 11)]],
    # lattice: normal forms and lattice operations with growing coefficients
    *[Family(f"lat_{a}x{b}", "lattice", "lattice",
             f"two {a}x{b} matrices, entries in [-1000, 1000]",
             "few large calls whose transform entries grow past 100 bits",
             (lambda a, b: lambda rng: {"A": _matrix(rng, a, b, -1000, 1000),
                                        "B": _matrix(rng, a, b, -1000, 1000)})(a, b))
      for a, b in [(6, 10), (8, 12), (9, 14), (10, 16), (12, 20)]],
]}

# The families each round runs, in order.  The mix puts the median and the
# tail sample (the 11th-largest item time) inside one family's band of the
# sorted item times, not on the border between two families: on classify the
# 15 failing 5x12 candidates of a run are its slowest items, so the tail
# sample lies inside their band (with 10 of them it was the band's edge, and
# it moved by 18 % with the seed's parity).
ROUNDS = {
    "fans": ["V6", "fans_3x8", "fans_3x9", "fans_3x8", "fans_3x10", "fans_3x8",
             "fans_3x8", "fans_3x8"],
    "report": ["worked", "wps3", "wps5", "prod22", "wps6", "prod23", "wps4",
               "prod24", "wps5", "prod33", "wps6"],
    "classify": ["span_3x8", "nospan_3x8", "wred_2x9", "span_4x10", "nospan_4x10",
                 "nospan_5x12", "wred_3x9", "nospan_4x10", "span_5x12", "nospan_5x12",
                 "wred_2x11", "nospan_4x10", "nospan_3x14", "wred_3x11", "nospan_5x12"],
    "lattice": ["lat_6x10", "lat_8x12", "lat_9x14", "lat_10x16", "lat_12x20"],
}
WORKLOADS = tuple(ROUNDS)

# Costs within a family vary up to fifteenfold (the subset scans stop at the
# first witness), so a plain random sample of a few instances per run would
# move the metrics more than any bound allows.  Each family's pool is
# therefore ranked by its recorded work and cut into strata of GROUP = 2
# neighbours, one stratum per use of the family in a run of RUN_ROUNDS
# rounds.  The seed's parity picks one member of every stratum, alternating
# between the lighter and the heavier one from stratum to stratum so that
# both parities carry about the same work: odd and even seeds never share an
# instance, and a seed of the other parity is a held-out check.  The seed
# then shuffles the order in which the strata are visited.  A run of
# RUN_ROUNDS rounds visits every stratum exactly once, so every run sees the
# whole cost range of every family.
GROUP = 2
RUN_ROUNDS = {"fans": 3, "report": 7, "classify": 5, "lattice": 30}
RUN_SECONDS = 20  # the --seconds that RUN_ROUNDS are meant for


def run_rounds(workload: str, seconds: float) -> int:
    """Rounds of a run that measures for about ``seconds`` at the reference
    commit.  The count does not depend on the speed seen during the run, so
    every run of a seed measures the same instances, on every commit."""
    return max(1, round(RUN_ROUNDS[workload] * seconds / RUN_SECONDS))


def strata_count(family: Family) -> int:
    if family.fixed:
        return 1
    return RUN_ROUNDS[family.workload] * ROUNDS[family.workload].count(family.name)


def pool_size(family: Family) -> int:
    return 1 if family.fixed else GROUP * strata_count(family)


def generate(family: str, k: int, draw: int) -> dict:
    """Plain inputs of draw ``draw`` of pool instance ``k`` of a family."""
    return FAMILIES[family].make(random.Random(f"{family}:{k}:{draw}"))


def load_pool() -> dict:
    """{family: [(draw, digest, work), ...]} as recorded by build_pool.py."""
    with open(POOL_FILE) as fh:
        data = json.load(fh)
    return {name: [tuple(entry) for entry in entries] for name, entries in data.items()}


class Corpus:
    """The seeded rounds of one workload."""

    def __init__(self, workload: str, seed: int, pool: dict):
        if workload not in ROUNDS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.template = ROUNDS[workload]
        self.pool = pool
        rng = random.Random(f"{workload}:{seed}")
        self._chosen = {}
        for name in sorted(set(self.template)):
            entries = pool[name]
            ranked = sorted(range(len(entries)), key=lambda k: (entries[k][2], k))
            count = strata_count(FAMILIES[name])
            strata = [ranked[i * len(ranked) // count:(i + 1) * len(ranked) // count]
                      for i in range(count)]
            chosen = [stratum[(seed + i) % len(stratum)] for i, stratum in enumerate(strata)]
            rng.shuffle(chosen)
            self._chosen[name] = chosen
        self._per_round: dict = {}
        self._slot = []
        for name in self.template:
            self._slot.append(self._per_round.get(name, 0))
            self._per_round[name] = self._per_round.get(name, 0) + 1

    def round(self, i: int) -> list:
        """[(family, k), ...] for round i (0-based); rounds past RUN_ROUNDS
        repeat the instances of the first ones."""
        out = []
        for name, slot in zip(self.template, self._slot):
            chosen = self._chosen[name]
            out.append((name, chosen[(i * self._per_round[name] + slot) % len(chosen)]))
        return out

    def inputs(self, family: str, k: int) -> dict:
        return generate(family, k, self.pool[family][k][0])

    def digest(self, family: str, k: int) -> str:
        return self.pool[family][k][1]


def manifest(seed: int) -> dict:
    """Families, sizes and reasons, and the rounds of a typical run, of
    every workload."""
    pool = load_pool()
    out = {"seed": seed, "workloads": {}}
    for w in WORKLOADS:
        corpus = Corpus(w, seed, pool)
        out["workloads"][w] = {
            "families": {name: {"sizes": FAMILIES[name].sizes, "why": FAMILIES[name].why,
                                "pool": len(pool[name])}
                         for name in dict.fromkeys(ROUNDS[w])},
            "rounds": [[f"{name}#{k}" for name, k in corpus.round(i)]
                       for i in range(run_rounds(w, RUN_SECONDS))],
        }
    return out


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description="print the corpus manifest of a seed")
    ap.add_argument("--seed", type=int, required=True)
    print(json.dumps(manifest(ap.parse_args().seed), indent=1))
