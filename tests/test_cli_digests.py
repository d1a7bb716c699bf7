"""The command line's outputs match the digests committed in
``tests/data/cli_digests.json``: every verb, plain and with ``--json``, on
the seeded corpus of ``cli_corpus.py``.  A verb that moved is named; run
``PYTHONPATH=src python3 tests/cli_corpus.py`` to list the moved verbs, and
``--write`` to store new digests after a change by design."""

from collections import Counter
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cli_corpus

# no corpus input makes these verbs raise a DomainError
NO_DOMAIN_ERROR = {"hnf", "dual"}


@pytest.fixture(scope="module")
def records():
    return {verb: cli_corpus.verb_records(verb) for verb in cli_corpus.VERBS}


def test_cli_digests_match(records):
    stored = json.loads(cli_corpus.DIGEST_FILE.read_text())
    current = {verb: cli_corpus.digest(recs) for verb, recs in records.items()}
    moved = cli_corpus.moved_verbs(current, stored["digests"])
    assert not moved, (f"CLI output moved for: {' '.join(moved)} (digests "
                       f"written under Python {stored['python']})")


def test_cli_corpus_reaches_every_exit_code(records):
    for verb, recs in records.items():
        codes = Counter(rec[3] for rec in recs)
        expected = {0, 2} if verb in NO_DOMAIN_ERROR else {0, 1, 2}
        assert set(codes) == expected, (verb, codes)
        assert sum(rec[2][-1] == "--json" for rec in recs) * 2 == len(recs), verb


def test_cli_digest_independent_of_hash_seed():
    # one verb rerun in a child process under another hash seed
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, cli_corpus.__file__, "--verb", "report"],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == cli_corpus.stored_digests()["report"]
