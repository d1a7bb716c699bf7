"""Write pool.json: the accepted draw, reference digest and work count of
every pool instance.

For each family and pool index the generator's draws are tried in order
until one passes the family's acceptance test; that instance is then run
once under the tracer, its output must pass ``ops.verify`` and raise
nothing, and the digest of the output and the instance's work are recorded:
the number of fans found for ``enumerate_SF`` (it sets the memory peak and
tracks the time), the number of traced library calls for the others.  The
work ranks the instances for the stratified sample (see corpus.GROUP):
unlike a time, it does not depend on the machine or its load.  Run at the
commit whose outputs are the reference, from the repository root:

    python3 perfbench/build_pool.py

Per-family time statistics (traced) and clause counts go to stderr.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import galekit as gk  # noqa: E402

import corpus  # noqa: E402
import ops  # noqa: E402
import tracer  # noqa: E402


def accept(family: corpus.Family, inputs: dict) -> bool:
    if family.kind == "fans" and family.name != "V6":
        return gk.classify_f(gk.Mat(inputs["V"])).is_f_matrix
    if family.kind == "fw_candidate":
        V = gk.Mat(inputs["V"])
        spans = "b" not in gk.classify_f(V).violated
        return V.rank() == V.rows and spans == family.name.startswith("span_")
    if family.kind == "w_reduce":
        Q = gk.Mat(inputs["Q"])
        return gk.classify_w(Q).is_w_matrix and not gk.is_w_reduced(Q)
    if family.kind == "lattice":
        A = gk.Mat(inputs["A"])
        return A.rank() == A.rows
    return True


def build(family: corpus.Family) -> list:
    entries, times, notes = [], [], []
    for k in range(corpus.pool_size(family)):
        draw = 0
        while not accept(family, inputs := corpus.generate(family.name, k, draw)):
            draw += 1
        args = ops.prepare(gk, family.kind, inputs)
        tr = tracer.Tracer()
        tr.install(gk)
        try:
            t0 = time.perf_counter()
            out = ops.run(gk, family.kind, args)
            times.append(time.perf_counter() - t0)
        finally:
            tr.uninstall()
        problems = ops.verify(family.name, family.kind, args, out)
        if isinstance(out, str) or problems:
            raise SystemExit(f"{family.name}#{k}: {out if isinstance(out, str) else problems}")
        if family.kind == "fw_candidate":
            notes.append("b" in out[0].violated)
        work = len(out) if family.kind == "fans" else sum(tr.calls.values())
        entries.append([draw, ops.digest(family.kind, out), work])
    msg = (f"{family.name:10s} n={len(times):3d} min {min(times):.4f} "
           f"median {statistics.median(times):.4f} max {max(times):.4f} s")
    if notes:
        msg += f"; clause b fails on {sum(notes)}/{len(notes)}"
    print(msg, file=sys.stderr, flush=True)
    return entries


def main() -> None:
    pool = {name: build(family) for name, family in corpus.FAMILIES.items()}
    with open(corpus.POOL_FILE, "w") as fh:
        json.dump(pool, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
