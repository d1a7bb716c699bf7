"""One benchmark process for one workload: set up, measure, check, and
print one JSON line.  Started by run.py; not meant to be run by hand.

Stdout protocol: the line ``ready`` once set-up is done (import, corpus
generation and one untimed warm-up instance), then the result as one JSON
line.  With ``--setup-only`` the process exits after ``ready``.

The load is a closed loop from one client: the next instance starts when
the previous one returns.  Untraced runs go through the fixed number of
rounds that takes about ``--seconds`` at the reference commit
(``corpus.run_rounds``).  Traced runs go through round 0 alternately
without and with the tracer, TRACE_PAIRS times each.  Every time behind
an end-to-end metric, and the pass times of the traced run, are scaled to
the reference speed of the calibration kernel timed on both sides of them
(``calibrate.normalized``).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import corpus  # noqa: E402
import ops  # noqa: E402


def import_galekit():
    """galekit from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import galekit
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import galekit from {src}: {exc}")
    if Path(galekit.__file__).resolve().parent != src / "galekit":
        sys.exit(f"perfbench: galekit imported from {galekit.__file__}, not {src}")
    return galekit


class Session:
    """The seeded corpus of one workload, with prepared instances and the
    output checks."""

    def __init__(self, gk, workload: str, seed: int):
        self.gk = gk
        self.corpus = corpus.Corpus(workload, seed, corpus.load_pool())
        self._prepared: dict = {}
        self._verified: set = set()
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def instance(self, family: str, k: int) -> tuple:
        key = (family, k)
        if key not in self._prepared:
            kind = corpus.FAMILIES[family].kind
            self._prepared[key] = kind, ops.prepare(self.gk, kind, self.corpus.inputs(family, k))
        return self._prepared[key]

    def timed(self, family: str, k: int) -> tuple:
        """(seconds, output) of one instance; output is None when it raised."""
        kind, args = self.instance(family, k)
        t0 = time.perf_counter()
        try:
            out = ops.run(self.gk, kind, args)
        except Exception as exc:  # a crash is a failed item, not a failed run
            dt = time.perf_counter() - t0
            self._fail(f"{family}#{k} raised {type(exc).__name__}: {exc}")
            return dt, None
        return time.perf_counter() - t0, out

    def check(self, family: str, k: int, out) -> None:
        """Count one attempted item; the timer is stopped when this runs."""
        self.attempted += 1
        if out is None:
            return  # already counted by timed()
        kind = corpus.FAMILIES[family].kind
        if ops.digest(kind, out) != self.corpus.digest(family, k):
            self._fail(f"{family}#{k}: output differs from the reference digest")
            return
        if (family, k) not in self._verified:
            self._verified.add((family, k))
            kind, args = self.instance(family, k)
            for problem in ops.verify(family, kind, args, out):
                self._fail(f"{family}#{k}: {problem}")
                return

    def check_anchors(self) -> None:
        if self.corpus.workload == "fans":
            for problem in ops.check_anchors(self.gk):
                self._fail(problem)
            self.attempted += len(ops.FAN_COUNT_ANCHORS)

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(message)


def tail(times: list) -> tuple:
    """(value, percentile): the highest sample with at least ten samples
    above it, or the smallest sample when there are ten or fewer."""
    n = len(times)
    ranked = sorted(times)
    if n <= 10:
        return ranked[0], 0.0
    return ranked[n - 11], 100.0 * (n - 10) / n


def summary(times: list) -> dict:
    tail_s, tail_pct = tail(times)
    return {
        "items_per_s": len(times) / sum(times),
        "item_ms_p50": 1000 * statistics.median(times),
        "item_ms_tail": 1000 * tail_s,
        "tail_percentile": tail_pct,
    }


def measure(session: Session, seconds: float) -> dict:
    raw: list = []
    scaled: list = []
    cals: list = []
    rounds = corpus.run_rounds(session.corpus.workload, seconds)
    before = calibrate.sample()
    cals.append(before)
    for i in range(rounds):
        for family, k in session.corpus.round(i):
            dt, out = session.timed(family, k)
            after = calibrate.sample()
            cals.append(after)
            raw.append(dt)
            scaled.append(calibrate.normalized(dt, before, after))
            before = after
            session.check(family, k, out)
    return {
        "rounds": rounds,
        "items": len(raw),
        "measured_s": sum(raw),
        **summary(scaled),
        "raw": summary(raw),
        "calibration_ms_p50": 1000 * statistics.median(cals),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def trace_batch(session: Session, batch: list) -> tuple:
    """(tracer, seconds) of one traced pass over ``batch``; the wrappers are
    removed again before the outputs are checked."""
    import tracer as tracing

    for family, k in batch:
        session.instance(family, k)  # inputs are built before, not under, the tracer
    tr = tracing.Tracer()
    tr.install(session.gk)
    try:
        t0 = time.perf_counter()
        outs = []
        for i, (family, k) in enumerate(batch):
            tr.item = i
            outs.append(session.timed(family, k)[1])
        elapsed = time.perf_counter() - t0
    finally:
        tr.uninstall()
    for (family, k), out in zip(batch, outs):
        session.check(family, k, out)
    return tr, elapsed


TRACE_PAIRS = 3  # untraced and traced passes over round 0, alternated


def traced(session: Session, workload: str, seed: int) -> dict:
    batch = session.corpus.round(0)
    untraced, traced_s, tracers = [], [], []
    before = calibrate.sample()
    for _ in range(TRACE_PAIRS):
        t0 = time.perf_counter()
        outs = [session.timed(family, k)[1] for family, k in batch]
        elapsed = time.perf_counter() - t0
        middle = calibrate.sample()
        untraced.append(calibrate.normalized(elapsed, before, middle))
        for (family, k), out in zip(batch, outs):
            session.check(family, k, out)
        tr, elapsed = trace_batch(session, batch)
        before = calibrate.sample()
        tracers.append(tr)
        traced_s.append(calibrate.normalized(elapsed, middle, before))
    # counts are equal in every traced pass; times come from the median one
    tr = tracers[sorted(range(TRACE_PAIRS), key=traced_s.__getitem__)[TRACE_PAIRS // 2]]
    OUT_DIR.mkdir(exist_ok=True)
    tr.write(OUT_DIR / f"spans-{workload}-{seed}.bin")
    metrics = tr.metrics()
    metrics["trace.overhead_ratio"] = (statistics.median(traced_s) / statistics.median(untraced),
                                       "ratio")
    metrics["trace.untraced_s"] = (statistics.median(untraced), "s")
    return {"items": len(batch), "passes": TRACE_PAIRS, "spans": len(tr.span_start),
            "metrics": metrics}


def main(argv=None) -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    gk = import_galekit()
    session = Session(gk, args.workload, args.seed)
    first = session.corpus.round(0)
    for family, k in first:
        session.instance(family, k)
    ops.run(gk, *session.instance(*first[0]))  # warm-up, untimed
    print("ready", flush=True)
    if args.setup_only:
        return

    if args.trace:
        result = traced(session, args.workload, args.seed)
    else:
        result = measure(session, args.seconds)
    session.check_anchors()
    result.update(attempted=session.attempted, failed=session.failed,
                  problems=session.problems)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
