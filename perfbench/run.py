"""galekit benchmark.

    python3 perfbench/run.py --workload fans --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Runs each workload in its own fresh Python process (worker.py) against the
library in this checkout's ``src/``, checks every output, prints every
metric by name with its unit, and prints as its last line one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics of a separate traced run.  With ``--workload all`` every
workload runs in turn and the metric names are prefixed with the workload.
Exits 1 without a result when the worker cannot run.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import corpus  # noqa: E402

SETUP_SAMPLES = 9     # set-up-only processes per run
WORKER_TIMEOUT = 170  # seconds; a run must end within 180


class WorkerError(Exception):
    pass


def spawn(workload: str, seed: int, seconds: int, trace: int, setup_only: bool = False):
    """(set-up seconds, result) of one worker process; the set-up time runs
    from just before the process starts until it reports ``ready``."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{workload}: worker timed out") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise WorkerError(f"{workload}: worker failed with exit code {proc.returncode}")
    if setup_only:
        return setup_s, None
    lines = rest.strip().splitlines()
    if not lines:
        raise WorkerError(f"{workload}: worker printed no result")
    return setup_s, json.loads(lines[-1])


def setup_sample(workload: str, seed: int, seconds: int) -> tuple:
    """(normalized, raw) set-up seconds of one set-up-only process, scaled
    by the calibration kernel timed here just before the process starts and
    just after it ends."""
    before = calibrate.sample()
    raw = spawn(workload, seed, seconds, 0, setup_only=True)[0]
    after = calibrate.sample()
    return calibrate.normalized(raw, before, after), raw


def run_untraced(workload: str, seed: int, seconds: int) -> tuple:
    # the set-up-only processes run half before and half after the measured
    # one, so that their median spans the run's whole time window
    setups = [setup_sample(workload, seed, seconds) for _ in range(SETUP_SAMPLES // 2)]
    _, res = spawn(workload, seed, seconds, 0)
    setups += [setup_sample(workload, seed, seconds)
               for _ in range(SETUP_SAMPLES - len(setups))]
    metrics = {
        "items_per_s": (res["items_per_s"], "1/s"),
        "item_ms_p50": (res["item_ms_p50"], "ms"),
        "item_ms_tail": (res["item_ms_tail"], "ms"),
        "setup_s": (statistics.median(s for s, _ in setups), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    raw = res["raw"]
    share = res["failed"] / res["attempted"]
    notes = [
        f"{workload} seed {seed}: {res['items']} items in {res['rounds']} rounds, "
        f"{res['measured_s']:.3f} s measured; round = {describe_round(workload)}",
        f"  item_ms_tail is p{res['tail_percentile']:.1f} of {res['items']} samples "
        f"(at least 10 above it); setup_s is the median of {SETUP_SAMPLES} processes",
        f"  times are normalized to a calibration kernel time of "
        f"{1000 * calibrate.REFERENCE_S:g} ms (its median here: "
        f"{res['calibration_ms_p50']:.4f} ms); as measured: items_per_s "
        f"{raw['items_per_s']:.6g}, item_ms_p50 {raw['item_ms_p50']:.6g}, "
        f"item_ms_tail {raw['item_ms_tail']:.6g}, setup_s "
        f"{statistics.median(r for _, r in setups):.6g}",
        f"  failed_share {share:.4f} ratio ({res['failed']} of {res['attempted']} attempted)",
    ]
    return res, metrics, notes


def run_traced(workload: str, seed: int, seconds: int) -> tuple:
    _, res = spawn(workload, seed, seconds, 1)
    metrics = {name: tuple(v) for name, v in res["metrics"].items()}
    notes = [f"{workload} seed {seed}: round 0 ({res['items']} items) {res['passes']} times "
             f"untraced and traced, alternately; {res['spans']} spans in one traced pass; "
             f"counts are per round = {describe_round(workload)}",
             f"  failed_share {res['failed'] / res['attempted']:.4f} ratio "
             f"({res['failed']} of {res['attempted']} attempted)"]
    return res, metrics, notes


def describe_round(workload: str) -> str:
    counts: dict = {}
    for name in corpus.ROUNDS[workload]:
        counts[name] = counts.get(name, 0) + 1
    return ", ".join(f"{n} x " * (n > 1) + f"{name}[{corpus.FAMILIES[name].sizes.split(',')[0]}]"
                     for name, n in counts.items())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    workloads = corpus.WORKLOADS if args.workload == "all" else (args.workload,)
    prefix = args.workload == "all"
    runner = run_traced if args.trace else run_untraced
    attempted = failed = 0
    metrics: dict = {}
    try:
        for w in workloads:
            res, m, notes = runner(w, args.seed, args.seconds)
            attempted += res["attempted"]
            failed += res["failed"]
            for line in notes + [f"  problem: {p}" for p in res["problems"]]:
                print(line)
            for name, (value, unit) in m.items():
                print(f"  {name:38s} {value:14.6g} {unit}")
                metrics[f"{w}.{name}" if prefix else name] = {"value": value, "unit": unit}
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
