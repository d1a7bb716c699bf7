"""The library's outputs match the digests committed in
``tests/data/digests.json``: every exported name, on the seeded corpus of
``lib_corpus.py``, with canonical outputs, one-valid-choice outputs and error
messages in separate groups.  A group that moved is named; run
``PYTHONPATH=src python3 tests/lib_corpus.py`` to list the moved groups, and
``--write`` to store new digests after a change by design."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lib_corpus

INIT = Path(__file__).resolve().parent.parent / "src" / "galekit" / "__init__.py"


@pytest.fixture(scope="module")
def records():
    return {name: lib_corpus.entry_records(name) for name in lib_corpus.ENTRIES}


def test_library_digests_match(records):
    stored = json.loads(lib_corpus.DIGEST_FILE.read_text())
    current = {f"{name}/{family}": lib_corpus.digest(recs)
               for name, families in records.items() for family, recs in families.items()}
    moved = lib_corpus.moved_groups(current, stored["digests"])
    assert not moved, (f"library output moved for: {' '.join(moved)} (digests "
                       f"written under Python {stored['python']})")


def test_library_corpus_covers_every_export(records):
    exported = {alias.name for node in ast.parse(INIT.read_text()).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    entries = set(lib_corpus.ENTRIES)
    assert exported - entries == set(lib_corpus.PRODUCED_BY)
    assert entries <= exported
    assert set(lib_corpus.PRODUCED_BY.values()) <= entries
    # every entry records outputs, and most record error messages too
    assert all(families.keys() - {"errors"} for families in records.values())
    with_errors = [name for name, families in records.items() if "errors" in families]
    assert len(with_errors) >= 40, sorted(set(records) - set(with_errors))


def test_library_digest_independent_of_hash_seed():
    # one group rerun in a child process under another hash seed
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    src = str(INIT.parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, lib_corpus.__file__, "--group", "enumerate_SF/value"],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == lib_corpus.stored_digests()["enumerate_SF/value"]
