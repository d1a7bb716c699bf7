import argparse
import inspect
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from galekit import (Lattice, Mat, enumerate_SF, full_report, gale,
                     is_divisorially_detected, parse_matrix)
from galekit import cli
from galekit import fans as fans_module
from galekit.cli import main
from conftest import count_calls

WORKED_Q_TEXT = "1 1 0 0\n0 1 1 2\n"
NOPROJ_V_TEXT = ("1 0 0 0 -1 1\n"
                 "0 1 0 -1 -1 2\n"
                 "0 0 1 -1 0 1\n")
Q6_TEXT = "1 1 0 0 1 0\n0 1 1 1 0 0\n0 0 0 1 1 1\n"


@pytest.fixture
def qfile(tmp_path):
    p = tmp_path / "q.txt"
    p.write_text(WORKED_Q_TEXT)
    return str(p)


@pytest.fixture
def vfile(tmp_path):
    p = tmp_path / "v.txt"
    p.write_text("1 -1 1 0\n0 0 2 -1\n")
    return str(p)


@pytest.fixture
def noproj_file(tmp_path):
    p = tmp_path / "v6.txt"
    p.write_text(NOPROJ_V_TEXT)
    return str(p)


SRC = str(Path(__file__).resolve().parent.parent / "src")


def child_env(**extra) -> dict:
    """The environment of a ``python -m galekit`` child process: this
    checkout's ``src`` first on PYTHONPATH, so the child imports the same
    library as the tests without an install."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path, **extra)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gale_worked_example(capsys, qfile):
    code, out, _ = run_cli(capsys, "gale", qfile)
    assert code == 0
    assert out == "1 -1 1 0\n0 0 2 -1\n"


def test_gale_round_trip(capsys, vfile, tmp_path):
    code, out, _ = run_cli(capsys, "gale", vfile)
    assert code == 0
    mid = tmp_path / "mid.txt"
    mid.write_text(out)
    code, out2, _ = run_cli(capsys, "gale", str(mid))
    assert code == 0
    original = parse_matrix("1 -1 1 0\n0 0 2 -1\n")
    assert Lattice.from_matrix(parse_matrix(out2)) == Lattice.from_matrix(original)


def test_gale_check_flag(capsys, qfile):
    code, out, _ = run_cli(capsys, "gale", qfile, "--check")
    assert code == 0
    assert "check: ok" in out


def test_gale_negative_check_size_cap_is_usage_error(capsys, qfile):
    code, out, err = run_cli(capsys, "gale", qfile, "--check",
                             "--check-size-cap", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: --check-size-cap -1 is negative\n"


def test_hnf_identity(capsys, tmp_path):
    p = tmp_path / "i3.txt"
    p.write_text("1 0 0\n0 1 0\n0 0 1\n")
    code, out, _ = run_cli(capsys, "hnf", str(p))
    assert code == 0
    assert out == ("H:\n1 0 0\n0 1 0\n0 0 1\n"
                   "U:\n1 0 0\n0 1 0\n0 0 1\npivots: 1 2 3\n")


def test_hnf_golden_byte_stable(capsys, qfile):
    _, out1, _ = run_cli(capsys, "hnf", qfile)
    _, out2, _ = run_cli(capsys, "hnf", qfile)
    assert out1 == out2


def test_snf_json(capsys, tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("2 0 0\n0 3 5\n")
    code, out, _ = run_cli(capsys, "snf", str(p), "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["S"] == [["1", "0", "0"], ["0", "2", "0"]]
    assert obj["factors"] == ["1", "2"]
    assert all(isinstance(x, str) for row in obj["alpha"] for x in row)


def test_echelon(capsys, tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("0 0 3 5\n1 2 0 0\n")
    code, out, _ = run_cli(capsys, "echelon", str(p))
    assert code == 0
    assert out.startswith("E:\n3 5 0 0\n0 0 1 2\n")


def test_dual(capsys, tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("2 0\n0 2\n")
    code, out, _ = run_cli(capsys, "dual", str(p))
    assert code == 0
    assert out == "1/2 0\n0 1/2\n"


def test_intersect(capsys, tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("2 0\n0 1\n")
    b.write_text("1 0\n0 3\n")
    code, out, _ = run_cli(capsys, "intersect", str(a), str(b))
    assert code == 0
    assert out == "2 0\n0 3\n"


def test_intersect_zero_lattice(capsys, tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("1 0\n")
    b.write_text("0 1\n")
    code, out, _ = run_cli(capsys, "intersect", str(a), str(b))
    assert code == 0
    assert out == "# zero lattice\n"


def test_quotient(capsys, tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("2 0\n0 2\n")
    code, out, _ = run_cli(capsys, "quotient", str(p))
    assert code == 0
    assert out == "free_rank: 0\ntorsion: 2 2\n"


def test_minors_gcd(capsys, vfile):
    code, out, _ = run_cli(capsys, "minors-gcd", vfile)
    assert code == 0
    assert out == "1\n"


def test_check_f(capsys, vfile):
    code, out, _ = run_cli(capsys, "check-f", vfile)
    assert code == 0
    assert "f_matrix: true" in out and "cf_matrix: true" in out


def test_check_w_json(capsys, qfile):
    code, out, _ = run_cli(capsys, "check-w", qfile, "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["w_matrix"] is True
    assert all(obj["clauses"][c] for c in "abcdef")
    assert all(int(x) > 0 for x in obj["positive_witness"])


def test_positivize(capsys, tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("1 1 0 0\n-1 0 1 2\n")
    code, out, _ = run_cli(capsys, "positivize", str(p))
    assert code == 0
    M = parse_matrix(out)
    assert all(x >= 0 for row in M.row_tuples() for x in row)


def test_reduce_f(capsys, tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("2 -1 0 0\n0 0 5 -3\n")
    code, out, _ = run_cli(capsys, "reduce-f", str(p))
    assert code == 0
    assert out == "1 -1 0 0\n0 0 1 -1\ncolumn_gcds: 2 1 5 3\n"


def test_reduce_w(capsys, tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("1 2 0 0\n0 0 3 5\n")
    code, out, _ = run_cli(capsys, "reduce-w", str(p))
    assert code == 0
    reduced = parse_matrix(out)
    assert Lattice.from_matrix(reduced) == Lattice.from_matrix(
        Mat([[1, 1, 0, 0], [0, 0, 1, 1]]))


def test_fans_noproj(capsys, noproj_file):
    code, out, _ = run_cli(capsys, "fans", noproj_file)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "count: 8"
    assert len(lines) == 9


def test_fans_cap_flag(capsys, noproj_file):
    code, _, err = run_cli(capsys, "fans", noproj_file, "--cap", "3")
    assert code == 1
    assert "cap" in err


def test_fans_cap_env(capsys, noproj_file, monkeypatch):
    monkeypatch.setenv("GALEKIT_CAP", "3")
    code, _, err = run_cli(capsys, "fans", noproj_file)
    assert code == 1
    monkeypatch.setenv("GALEKIT_CAP", "12")
    code, out, _ = run_cli(capsys, "fans", noproj_file)
    assert code == 0 and out.startswith("count: 8")


def test_one_default_cap(monkeypatch):
    # the library defaults and the CLI fallback all read fans.DEFAULT_CAP
    monkeypatch.delenv("GALEKIT_CAP", raising=False)
    defaults = [inspect.signature(f).parameters["cap"].default
                for f in (enumerate_SF, is_divisorially_detected, full_report)]
    fallback = cli._cap(argparse.Namespace(cap=None))
    assert defaults + [fallback] == [fans_module.DEFAULT_CAP] * 4


def test_fans_negative_cap_is_usage_error(capsys, noproj_file):
    code, _, err = run_cli(capsys, "fans", noproj_file, "--cap", "-1")
    assert code == 2
    assert "--cap" in err


def test_fans_negative_cap_env_is_usage_error(capsys, noproj_file, monkeypatch):
    monkeypatch.setenv("GALEKIT_CAP", "-1")
    code, _, err = run_cli(capsys, "fans", noproj_file)
    assert code == 2
    assert "GALEKIT_CAP" in err


def test_fans_json_independent_of_hash_seed(noproj_file):
    outputs = []
    for seed in ("0", "1"):
        env = child_env(PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-m", "galekit", "fans", "--json", noproj_file],
            capture_output=True, env=env)
        assert proc.returncode == 0
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["count"] == "8"


def test_class_group(capsys, vfile):
    code, out, _ = run_cli(capsys, "class-group", vfile)
    assert code == 0
    assert out == "free_rank: 2\ntorsion:\n"


def test_pws(capsys, vfile):
    code, out, _ = run_cli(capsys, "pws", vfile)
    assert code == 0
    assert out.startswith("pws: true\n")


REPORT_GOLDEN = """n: 2
r: 2
class_group free_rank: 2
class_group torsion:
pws: true
cl_generators:
1 0 0 0
-1 1 0 0
picard_basis:
2 0
0 2
cartier_basis:
2 0 0 0
-2 2 0 0
1 -1 1 0
0 0 2 -1
delta_sigma: 2
cartier_indices: 2 2 2 1
"""


def test_report_worked(capsys, qfile):
    code, out, _ = run_cli(capsys, "report", qfile)
    assert code == 0
    assert out == REPORT_GOLDEN
    _, out2, _ = run_cli(capsys, "report", qfile)
    assert out == out2


def test_report_json(capsys, qfile):
    code, out, _ = run_cli(capsys, "report", qfile, "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["picard_basis"] == [["2", "0"], ["0", "2"]]
    assert obj["cartier_indices"] == ["2", "2", "2", "1"]


def test_report_fan_selection(capsys, tmp_path):
    p = tmp_path / "q6.txt"
    p.write_text(Q6_TEXT)
    code, _, err = run_cli(capsys, "report", str(p))
    assert code == 1 and "8 fans" in err
    code, out, _ = run_cli(capsys, "report", str(p), "--fan", "1")
    assert code == 0


@pytest.mark.parametrize("k", range(1, 9))
def test_report_json_golden_all_q6_fans(capsys, tmp_path, k):
    golden = json.loads((Path(__file__).parent / "data" / "report_q6.json").read_text())
    p = tmp_path / "q6.txt"
    p.write_text(Q6_TEXT)
    code, out, _ = run_cli(capsys, "report", "--json", "--fan", str(k), str(p))
    assert code == 0
    assert out == golden[str(k)]


def test_report_json_independent_of_hash_seed(tmp_path):
    p = tmp_path / "q6.txt"
    p.write_text(Q6_TEXT)
    outputs = []
    for seed in ("0", "1"):
        env = child_env(PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-m", "galekit", "report", "--json", "--fan", "3",
             str(p)], capture_output=True, env=env)
        assert proc.returncode == 0
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["delta_sigma"] == "2"


def test_report_fan_file(capsys, qfile, tmp_path, monkeypatch):
    ff = tmp_path / "fan.txt"
    ff.write_text("1 3\n2 3\n2 4\n1 4\n")
    calls = count_calls(monkeypatch, gale, "gale_dual")
    code, out, _ = run_cli(capsys, "report", qfile, "--fan-file", str(ff))
    assert code == 0
    assert "delta_sigma: 2" in out
    assert calls["gale_dual"] == 0  # V is the kernel of classify_w


def test_report_fan_file_non_w_matrix(capsys, tmp_path):
    # the same clause message with and without a fan file
    q = tmp_path / "q.txt"
    q.write_text("1 0\n0 1\n")
    ff = tmp_path / "fan.txt"
    ff.write_text("1\n2\n")
    errs = []
    for extra in ([], ["--fan-file", str(ff)]):
        code, _, err = run_cli(capsys, "report", str(q), *extra)
        assert code == 1
        errs.append(err)
    assert "input is not a W-matrix (violated clauses:" in errs[0]
    assert errs[0] == errs[1]


def test_report_kind_fan(capsys, vfile):
    code, out, _ = run_cli(capsys, "report", vfile, "--kind", "fan")
    assert code == 0
    assert "cartier_indices: 2 2 2 1" in out


def test_report_missing_fan_file(capsys, vfile, tmp_path):
    missing = str(tmp_path / "no-such-fan.txt")
    code, _, err = run_cli(capsys, "report", vfile, "--kind", "fan",
                           "--fan-file", missing)
    assert code == 2
    assert "cannot read" in err


@pytest.mark.parametrize("verb, extra", [
    ("report", ["--kind", "fan"]),
    ("cartier-index", ["--divisor", "1,0,0,0"]),
])
def test_empty_fan_file_path_cannot_be_read(capsys, vfile, verb, extra):
    # an empty path names no file; it is not taken as "no fan file"
    code, out, err = run_cli(capsys, verb, vfile, *extra, "--fan-file", "")
    assert code == 2
    assert out == ""
    assert "cannot read" in err


def test_cartier_index_cli(capsys, vfile):
    code, out, _ = run_cli(capsys, "cartier-index", vfile, "--divisor", "1,0,0,0")
    assert code == 0
    assert out == "2\n"


def test_cartier_index_fan_file(capsys, vfile, tmp_path):
    ff = tmp_path / "fan.txt"
    ff.write_text("1 3\n2 3\n2 4\n1 4\n")
    code, out, _ = run_cli(capsys, "cartier-index", vfile,
                           "--divisor", "0,0,0,1", "--fan-file", str(ff))
    assert code == 0
    assert out == "1\n"


def test_cartier_index_fan_file_names_the_conflicting_cones(capsys, vfile, tmp_path):
    ff = tmp_path / "fan.txt"
    ff.write_text("1 3\n2 3\n2 4\n1 4\n3 4\n")
    code, out, err = run_cli(capsys, "cartier-index", vfile,
                             "--divisor", "0,0,0,1", "--fan-file", str(ff))
    assert code == 1
    assert out == ""
    assert ("invalid fan: cones {1, 3} and {3, 4} do not meet along a common "
            "face (circuit Z+ = {1}, Z- = {3, 4})") in err


def test_cartier_index_builds_one_circuit_table(monkeypatch, capsys, vfile, tmp_path):
    # an enumerated fan is valid by construction and is not checked again;
    # a fan read from a file is checked, with one table
    ff = tmp_path / "fan.txt"
    ff.write_text("1 3\n2 3\n2 4\n1 4\n")
    calls = count_calls(monkeypatch, fans_module, "_Circuits")
    for extra in [(), ("--fan", "1"), ("--fan-file", str(ff))]:
        calls.clear()
        code, out, _ = run_cli(capsys, "cartier-index", vfile, "--divisor", "1,0,0,0",
                               *extra)
        assert (code, out) == (0, "2\n"), extra
        assert calls["_Circuits"] == 1, extra


FAN_VERBS = [("report", "--kind", "fan"),
             ("cartier-index", "--divisor", "1,0,0,0,0,0")]


@pytest.mark.parametrize("verb", FAN_VERBS, ids=lambda v: v[0])
def test_fan_selection_errors_read_alike(capsys, noproj_file, verb):
    # both verbs choose their fan through one selector, with one wording
    code, out, err = run_cli(capsys, verb[0], noproj_file, *verb[1:])
    assert (code, out) == (1, "")
    assert err == "error: 8 fans available; select one with a 1-based fan index\n"
    code, out, err = run_cli(capsys, verb[0], noproj_file, *verb[1:], "--fan", "9")
    assert (code, out) == (1, "")
    assert err == "error: fan index 9 out of range 1..8\n"


@pytest.mark.parametrize("verb", FAN_VERBS, ids=lambda v: v[0])
def test_fan_and_fan_file_are_exclusive(capsys, noproj_file, tmp_path, verb):
    ff = tmp_path / "fan.txt"
    ff.write_text("1 2 3\n")
    code, out, err = run_cli(capsys, verb[0], noproj_file, *verb[1:],
                             "--fan", "7", "--fan-file", str(ff))
    assert (code, out) == (2, "")
    assert "not allowed with argument --fan" in err


@pytest.mark.parametrize("verb", FAN_VERBS, ids=lambda v: v[0])
def test_bad_cap_beside_a_fan_file_is_usage_error(capsys, noproj_file, tmp_path,
                                                  monkeypatch, verb):
    # the cap is read before the fan is chosen, so a bad one is refused on
    # both verbs even when a fan file makes it moot
    ff = tmp_path / "fan.txt"
    ff.write_text("1 2 3\n")
    for env, flag in [("x", ()), ("-1", ()), (None, ("--cap", "-1"))]:
        if env is None:
            monkeypatch.delenv("GALEKIT_CAP", raising=False)
        else:
            monkeypatch.setenv("GALEKIT_CAP", env)
        code, out, err = run_cli(capsys, verb[0], noproj_file, *verb[1:],
                                 "--fan-file", str(ff), *flag)
        assert (code, out) == (2, ""), (env, flag)
        assert "GALEKIT_CAP" in err or "--cap" in err


def test_domain_error_exit_code(capsys, tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("1 2\n2 4\n")  # rank deficient
    code, _, err = run_cli(capsys, "gale", str(p))
    assert code == 1
    assert "error:" in err


def test_parse_error_exit_code(capsys, tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("1.5 2\n")
    code, _, err = run_cli(capsys, "gale", str(p))
    assert code == 2


def test_zero_denominator_is_parse_error(capsys, tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("1/0 2\n")
    code, _, err = run_cli(capsys, "gale", str(p))
    assert code == 2
    assert "1/0" in err


def test_usage_error_exit_code(capsys):
    code, _, _ = run_cli(capsys, "no-such-verb")
    assert code == 2


def test_module_entry_point(tmp_path):
    p = tmp_path / "q.txt"
    p.write_text(WORKED_Q_TEXT)
    proc = subprocess.run([sys.executable, "-m", "galekit", "gale", str(p)],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert proc.stdout == "1 -1 1 0\n0 0 2 -1\n"


def test_stdin_input(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "galekit", "minors-gcd", "-"],
                          input="1 -1 1 0\n0 0 2 -1\n",
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert proc.stdout == "1\n"


VERBS = ["hnf", "snf", "echelon", "gale", "dual", "intersect", "quotient",
         "minors-gcd", "check-f", "check-w", "positivize", "reduce-f",
         "reduce-w", "fans", "class-group", "pws", "report", "cartier-index"]


def _fuzz_matrix_text(rng) -> str:
    """Mostly a small integer matrix, a few of them the examples above;
    else ragged, empty, fractional or non-numeric text."""
    rows, cols = rng.randint(1, 3), rng.randint(1, 6)
    mat = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
    kind = rng.random()
    if kind < 0.15:
        return rng.choice([WORKED_Q_TEXT, "1 -1 1 0\n0 0 2 -1\n",
                           NOPROJ_V_TEXT, Q6_TEXT])
    if kind < 0.25:
        mat[-1].append(1)  # ragged
    elif kind < 0.3:
        return rng.choice(["", "# only a comment\n", "\n\n"])
    elif kind < 0.4:
        mat[0][0] = rng.choice(["1/2", "-3/4", "2/1", "1/0"])
    elif kind < 0.45:
        mat[0][-1] = rng.choice(["x", "1.5", "--", "1e3"])
    return "\n".join(" ".join(str(x) for x in row) for row in mat) + "\n"


def _fuzz_options(rng, verb, tmp_path, k) -> list[str]:
    opts = ["--json"] if rng.random() < 0.3 else []
    if verb == "gale" and rng.random() < 0.5:
        opts += ["--check", "--check-size-cap", rng.choice(["-1", "0", "3", "x"])]
    if verb in ("fans", "report", "cartier-index") and rng.random() < 0.3:
        opts += ["--cap", rng.choice(["-1", "0", "4", "10", "x"])]
    if verb in ("report", "cartier-index"):
        choice = rng.random()
        if choice < 0.3:
            opts += ["--fan", rng.choice(["-1", "0", "1", "2", "9", "y"])]
        elif choice < 0.6:
            fan_file = tmp_path / f"fan{k}.txt"
            fan_file.write_text(rng.choice(["1 3\n2 3\n2 4\n1 4\n", "1 2\n",
                                            "1 x\n", "# none\n", "0 7\n"]))
            opts += ["--fan-file", str(fan_file)]
    if verb == "report" and rng.random() < 0.5:
        opts += ["--kind", rng.choice(["fan", "weight", "both"])]
    if verb == "cartier-index" and rng.random() < 0.9:
        opts += ["--divisor", rng.choice(["1,0,0,0", "1,1,1", "0", "a,b", "1,,2"])]
    if rng.random() < 0.03:
        opts.append("--no-such-option")
    return opts


def test_main_builds_no_parser(capsys, monkeypatch, qfile):
    # the parser is built once, when the module is imported
    calls = count_calls(monkeypatch, cli, "build_parser")
    for _ in range(3):
        assert run_cli(capsys, "minors-gcd", qfile)[:2] == (0, "1\n")
    assert calls["build_parser"] == 0


def test_cli_fuzz_exits_0_1_or_2(capsys, tmp_path, monkeypatch):
    """Bad input never produces a traceback: 630 seeded in-process calls,
    35 per verb, on small integer matrices and on ragged, empty, fractional
    and non-numeric files, with good and bad options; every call returns
    0, 1 or 2 and each code occurs at least 20 times."""
    monkeypatch.delenv("GALEKIT_CAP", raising=False)
    rng = random.Random(1603)
    codes = Counter()
    for k in range(630):
        verb = VERBS[k % len(VERBS)]
        paths = []
        for t in range(rng.randint(1, 3) if verb == "intersect" else 1):
            path = tmp_path / f"m{k}_{t}.txt"
            path.write_text(_fuzz_matrix_text(rng))
            paths.append(str(path))
        if rng.random() < 0.03:
            paths[0] = str(tmp_path / "missing.txt")
        argv = [verb, *paths, *_fuzz_options(rng, verb, tmp_path, k)]
        try:
            code = main(argv)
        except Exception as exc:  # any escape is the failure under test
            pytest.fail(f"galekit {' '.join(argv)} raised {exc!r}")
        capsys.readouterr()
        assert code in (0, 1, 2), argv
        codes[code] += 1
    assert min(codes[c] for c in (0, 1, 2)) >= 20, codes
