"""Self-tests of the benchmark itself (not of galekit).

    python3 perfbench/selftest.py

- two traced passes over the same instances give identical per-layer counts;
- an untraced run leaves every galekit function object as it was, and the
  tracer puts every original back when it is removed;
- the output checks flag outputs that were corrupted on purpose, and accept
  another correct value of a part that has more than one;
- the calibration kernel imports nothing from galekit, and a normalized
  time is the measured one scaled by the kernel's reference time over its
  time around the item.
"""

from __future__ import annotations

import ast
import dataclasses
import math
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibrate  # noqa: E402
import corpus  # noqa: E402
import ops  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402

gk = worker.import_galekit()


def bindings() -> dict:
    """Every object bound in every galekit module namespace, plus
    ``Mat.__init__``, keyed by where it is bound."""
    out = {(name, attr): obj
           for name, mod in list(sys.modules.items())
           if name == "galekit" or name.startswith("galekit.")
           for attr, obj in vars(mod).items()}
    out[("galekit.matrix.Mat", "__init__")] = gk.Mat.__init__
    return out


def counts(tr) -> dict:
    return {name: value for name, (value, unit) in tr.metrics().items() if unit != "s"}


class TracedCountsRepeat(unittest.TestCase):
    def test_two_traced_passes_agree(self):
        for workload in corpus.WORKLOADS:
            with self.subTest(workload=workload):
                session = worker.Session(gk, workload, seed=1)
                batch = session.corpus.round(0)[:2]
                first, _ = worker.trace_batch(session, batch)
                second, _ = worker.trace_batch(session, batch)
                self.assertEqual(counts(first), counts(second))
                self.assertGreater(sum(first.entries), 0)
                self.assertEqual(session.failed, 0, session.problems)


class NoWrappersWhenUntraced(unittest.TestCase):
    def test_untraced_run_keeps_originals(self):
        before = bindings()
        session = worker.Session(gk, "lattice", seed=1)
        worker.measure(session, seconds=0.001)
        after = bindings()
        self.assertEqual(before.keys(), after.keys())
        changed = [key for key in before if before[key] is not after[key]]
        self.assertEqual(changed, [])

    def test_uninstall_restores_originals(self):
        before = bindings()
        tr = tracing.Tracer()
        tr.install(gk)
        try:
            self.assertIsNot(gk.hnf, before[("galekit", "hnf")])
            self.assertIs(gk.lattices.hnf, gk.normal_forms.hnf)
        finally:
            tr.uninstall()
        after = bindings()
        self.assertEqual([key for key in before if before[key] is not after[key]], [])


class CheckerFlagsCorruption(unittest.TestCase):
    def run_first(self, workload: str, family: str):
        session = worker.Session(gk, workload, seed=1)
        k = next(k for f, k in session.corpus.round(0) if f == family)
        kind, args = session.instance(family, k)
        return session, k, kind, args, ops.run(gk, kind, args)

    def assert_flagged(self, session, family, k, kind, args, bad):
        self.assertTrue(ops.verify(family, kind, args, bad))
        session.check(family, k, bad)
        self.assertEqual(session.failed, 1)

    def test_good_outputs_pass(self):
        for workload, family in [("fans", "V6"), ("report", "worked"),
                                 ("classify", "span_3x8"), ("lattice", "lat_6x10")]:
            session, k, kind, args, out = self.run_first(workload, family)
            self.assertEqual(ops.verify(family, kind, args, out), [])
            session.check(family, k, out)
            self.assertEqual(session.failed, 0, session.problems)

    def test_lattice_hermite_form(self):
        session, k, kind, args, out = self.run_first("lattice", "lat_6x10")
        h = out[0]
        rows = [list(r) for r in h.H.row_tuples()]
        rows[0][-1] += 1
        bad = (dataclasses.replace(h, H=gk.Mat(rows)),) + out[1:]
        self.assert_flagged(session, "lat_6x10", k, kind, args, bad)

    def test_worked_example(self):
        session, k, kind, args, out = self.run_first("report", "worked")
        bad = dataclasses.replace(out, delta_sigma=3)
        self.assert_flagged(session, "worked", k, kind, args, bad)

    def test_fan_count(self):
        session, k, kind, args, out = self.run_first("fans", "V6")
        self.assert_flagged(session, "V6", k, kind, args, out[:-1])

    def test_digest_alone(self):
        # a change to a canonical part that the independent checks cannot
        # see is still caught by the recorded digest
        session, k, kind, args, out = self.run_first("classify", "span_3x8")
        f, Q, w = out
        bad = (dataclasses.replace(f, is_cf_matrix=not f.is_cf_matrix), Q, w)
        self.assertEqual(ops.verify("span_3x8", kind, args, bad), [])
        session.check("span_3x8", k, bad)
        self.assertEqual(session.failed, 1)

    def test_other_correct_witness_passes(self):
        # a witness has more than one correct value: another strictly
        # positive vector of the row lattice passes, a vector outside it fails
        session, k, kind, args, out = self.run_first("classify", "span_3x8")
        f, Q, w = out
        self.assertIsNotNone(w.positive_witness)
        top = Q.row_tuples()[0]
        other = tuple(2 * x + y for x, y in zip(w.positive_witness, top))
        if any(x <= 0 for x in other):
            other = tuple(2 * x for x in w.positive_witness)
        good = (f, Q, dataclasses.replace(w, positive_witness=other))
        session.check("span_3x8", k, good)
        self.assertEqual(session.failed, 0, session.problems)
        outside = tuple(x + (i == 0) for i, x in enumerate(other))
        bad = (f, Q, dataclasses.replace(w, positive_witness=outside))
        self.assertTrue(ops.verify("span_3x8", kind, args, bad))

    def test_other_gale_basis_passes(self):
        # the Gale dual is checked as a lattice: another basis of it passes
        session, k, kind, args, out = self.run_first("lattice", "lat_6x10")
        rows = [list(r) for r in out[2].row_tuples()]
        rows[0] = [x + y for x, y in zip(rows[0], rows[1])]
        other = out[:2] + (gk.Mat(rows),) + out[3:]
        self.assertEqual(ops.verify("lat_6x10", kind, args, other), [])
        session.check("lat_6x10", k, other)
        self.assertEqual(session.failed, 0, session.problems)


class Calibration(unittest.TestCase):
    def test_kernel_is_independent_of_galekit(self):
        # a library change must never change the time it is scaled by
        tree = ast.parse(Path(calibrate.__file__).read_text())
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names}
        imported |= {node.module for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.module}
        self.assertEqual([m for m in imported if "galekit" in m], [])
        self.assertEqual(calibrate.kernel(), calibrate.kernel())

    def test_normalized(self):
        ref = calibrate.REFERENCE_S
        self.assertAlmostEqual(calibrate.normalized(0.5, ref, ref), 0.5)
        self.assertAlmostEqual(calibrate.normalized(0.5, 2 * ref, 2 * ref), 0.25)
        self.assertAlmostEqual(calibrate.normalized(0.5, ref, 4 * ref), 0.25)
        self.assertTrue(math.isfinite(calibrate.normalized(0.1, calibrate.sample(),
                                                        calibrate.sample())))


if __name__ == "__main__":
    unittest.main()
