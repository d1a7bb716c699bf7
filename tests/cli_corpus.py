"""Seeded differential corpus of the command line: one output digest per verb.

Every verb runs in process through ``cli.main``, once plain and once with
``--json``, on inputs drawn by the stdlib-only generator below from
``random.Random(f"cli:{verb}:{k}")``.  The inputs are the paper's examples
and small random integer matrices (good input, exit 0), matrices that break a
precondition (a ``DomainError``, exit 1), and unreadable, ragged, fractional
or non-numeric files, bad option values and unknown options (parse or usage
errors, exit 2).  A few calls read the matrix from stdin, and a few set
``GALEKIT_CAP``.

Each call leaves one record: ``[GALEKIT_CAP, stdin, argv, exit code, stdout,
stderr]``, with the temporary directory that holds the input files replaced
by ``<tmp>``, so no record depends on where it ran.  A verb's digest is the
sha256 of its records as one JSON list.  ``tests/data/cli_digests.json``
keeps one digest per verb; ``test_cli_digests.py`` recomputes them and names
every verb that moved.  Usage errors are worded by ``argparse``, so the file
also records the Python version that wrote it.

    PYTHONPATH=src python3 tests/cli_corpus.py           # print the moved verbs
    PYTHONPATH=src python3 tests/cli_corpus.py --write   # store the digests
    PYTHONPATH=src python3 tests/cli_corpus.py --verb fans   # one verb's digest
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

DIGEST_FILE = Path(__file__).resolve().parent / "data" / "cli_digests.json"
CALLS_PER_VERB = 80  # each call runs plain and with --json

VERBS = ["hnf", "snf", "echelon", "gale", "dual", "intersect", "quotient",
         "minors-gcd", "check-f", "check-w", "positivize", "reduce-f",
         "reduce-w", "fans", "class-group", "pws", "report", "cartier-index"]

# weight matrices: the worked example, the 8-fan Q6, P2, P(1,2,3), P1 x P1
WEIGHTS = ["1 1 0 0\n0 1 1 2\n", "1 1 0 0 1 0\n0 1 1 1 0 0\n0 0 0 1 1 1\n",
           "1 1 1\n", "1 2 3\n", "1 1 0 0\n0 0 1 1\n"]
# fan matrices: the worked example's Gale dual, the 8-fan V6, P2, P1 x P1
FANS = ["1 -1 1 0\n0 0 2 -1\n",
        "1 0 0 0 -1 1\n0 1 0 -1 -1 2\n0 0 1 -1 0 1\n",
        "1 0 -1\n0 1 -1\n", "1 0 -1 0\n0 1 0 -1\n"]
# zero, 1 x 1, identity and rank-deficient matrices
EDGES = ["0 0\n0 0\n", "2\n", "1 0 0\n0 1 0\n0 0 1\n", "1 2\n2 4\n"]
# empty, comment-only, ragged, zero denominator, decimal and non-numeric text
BAD = ["", "# only a comment\n", "1 2\n3\n", "1/0 2\n", "1.5 2\n", "x 1\n"]
# verbs that read a fan matrix; the others mostly read weight matrices
FAN_VERBS = {"reduce-f", "fans", "class-group", "pws", "cartier-index"}
# fan files: the worked example's fan (twice as likely), a fan of P1 x P1
# and of P2, then an invalid fan and unreadable ones
FAN_FILES = ["1 3\n2 3\n2 4\n1 4\n", "1 3\n2 3\n2 4\n1 4\n", "1 2\n2 3\n3 4\n1 4\n",
             "1 2\n2 3\n1 3\n", "1 3\n2 3\n2 4\n1 4\n3 4\n", "1 2\n", "1 x\n",
             "# none\n", "0 7\n"]


def _matrix_text(rng: random.Random, preferred: list[str], share: float) -> str:
    """One matrix file's text: with probability ``share`` one of
    ``preferred``, else any kind of text."""
    if rng.random() < share:
        return rng.choice(preferred)
    kind = rng.random()
    if kind < 0.2:
        return rng.choice(WEIGHTS)
    if kind < 0.4:
        return rng.choice(FANS)
    if kind < 0.5:
        return rng.choice(EDGES)
    if kind < 0.6:
        return rng.choice(BAD)
    rows, cols = rng.randint(1, 3), rng.randint(1, 6)
    mat = [[str(rng.randint(-3, 3)) for _ in range(cols)] for _ in range(rows)]
    if kind < 0.65:
        mat[0][0] = rng.choice(["1/2", "-3/4", "2/1"])
    return "".join(" ".join(row) + "\n" for row in mat)


def _options(rng: random.Random, verb: str, text: str, write) -> list[str]:
    """Options for one call on the matrix ``text``; ``write(text)`` stores a
    fan file and returns its path."""
    opts = []
    if verb == "gale" and rng.random() < 0.5:
        opts += ["--check", "--check-size-cap", rng.choice(["-1", "0", "3", "12", "x"])]
    if verb in ("fans", "report", "cartier-index") and rng.random() < 0.3:
        opts += ["--cap", rng.choice(["-1", "0", "4", "10", "x"])]
    if verb in ("report", "cartier-index"):
        choice = rng.random()
        if choice < 0.35:
            opts += ["--fan", rng.choice(["-1", "0", "1", "1", "2", "3", "9", "y"])]
        elif choice < 0.7:
            opts += ["--fan-file", write(rng.choice(FAN_FILES))]
    if verb == "report" and rng.random() < (0.9 if text in FANS else 0.3):
        opts += ["--kind", "fan" if text in FANS else rng.choice(["fan", "weight", "both"])]
    if verb == "cartier-index" and rng.random() < 0.95:
        # a value that starts with "-" is read as an option unless joined by "="
        cols = len(text.split("\n")[0].split())
        divisor = ",".join(str(rng.randint(-2, 3)) for _ in range(cols))
        opts += ([f"--divisor={divisor}"] if rng.random() < 0.6 else
                 ["--divisor", rng.choice([divisor, "1,1,1", "0", "a,b", "1,,2"])])
    if rng.random() < 0.03:
        opts.append("--no-such-option")
    return opts


def _cases(verb: str, k: int, tmp: Path):
    """The (GALEKIT_CAP, stdin, argv) of call ``k`` on ``verb``, without
    ``--json``; input files are written under ``tmp``.  The first calls of
    every verb read the edge matrices in turn."""
    rng = random.Random(f"cli:{verb}:{k}")
    count = iter(range(10))

    def write(text: str) -> str:
        path = tmp / f"{verb}-{k}-{next(count)}.txt"
        path.write_text(text)
        return str(path)

    preferred = FANS if verb in FAN_VERBS else WEIGHTS
    share = 0.7 if verb in ("report", "cartier-index") else 0.3
    texts = [_matrix_text(rng, preferred, share)
             for _ in range(rng.randint(1, 3) if verb == "intersect" else 1)]
    if k < len(EDGES):
        texts[0] = EDGES[k]
    stdin, paths = None, [write(text) for text in texts]
    roll = rng.random()
    if roll < 0.05:
        paths[0] = str(tmp / "missing.txt")
    elif roll < 0.1 and verb != "intersect":
        stdin, paths = texts[0], ["-"]
    cap = rng.choice([None, "3", "12", "x", "-1"]) if rng.random() < 0.1 else None
    return cap, stdin, [verb, *paths, *_options(rng, verb, texts[0], write)]


def _call(main, cap, stdin, argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    saved = os.environ.pop("GALEKIT_CAP", None), sys.stdin
    if cap is not None:
        os.environ["GALEKIT_CAP"] = cap
    sys.stdin = io.StringIO(stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.environ.pop("GALEKIT_CAP", None)
        if saved[0] is not None:
            os.environ["GALEKIT_CAP"] = saved[0]
        sys.stdin = saved[1]
    return code, out.getvalue(), err.getvalue()


def verb_records(verb: str) -> list:
    """The records of every call on ``verb``, plain then ``--json``."""
    from galekit.cli import main
    records = []
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        for k in range(CALLS_PER_VERB):
            cap, stdin, argv = _cases(verb, k, tmp)
            for run in (argv, [*argv, "--json"]):
                code, out, err = _call(main, cap, stdin, run)
                record = json.dumps([cap, stdin, run, code, out, err])
                records.append(json.loads(record.replace(name, "<tmp>")))
    return records


def digest(records: list) -> str:
    text = json.dumps(records, ensure_ascii=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def current_digests() -> dict[str, str]:
    return {verb: digest(verb_records(verb)) for verb in VERBS}


def stored_digests() -> dict[str, str]:
    return json.loads(DIGEST_FILE.read_text())["digests"]


def moved_verbs(current: dict[str, str], stored: dict[str, str]) -> list[str]:
    return [verb for verb in VERBS if current.get(verb) != stored.get(verb)]


def _python() -> str:
    return "{}.{}".format(*sys.version_info[:2])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true",
                        help=f"store the current digests in {DIGEST_FILE.name}")
    parser.add_argument("--verb", choices=VERBS,
                        help="print this verb's current digest and nothing else")
    args = parser.parse_args(argv)
    if args.verb:
        print(digest(verb_records(args.verb)))
        return 0
    current = current_digests()
    if args.write:
        DIGEST_FILE.write_text(json.dumps({"python": _python(), "digests": current},
                                          indent=1) + "\n")
        print(f"wrote {len(current)} digests to {DIGEST_FILE}")
        return 0
    moved = moved_verbs(current, stored_digests())
    print("moved: " + (" ".join(moved) if moved else "none"))
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
