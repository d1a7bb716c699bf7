"""Batch command line front end.

One verb per library operation, stable text output for scripting and golden
tests, and a ``--json`` variant where every number is emitted as a decimal
string so consumers never have to assume an integer width.

Exit status: 0 on success, 1 on domain errors (violated preconditions), 2 on
parse or usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .matrix import (
    DomainError,
    GaleKitError,
    Mat,
    ParseError,
    format_matrix,
    parse_matrix,
)
from .normal_forms import hnf, positive_row_echelon, snf
from .lattices import (
    Lattice,
    dual_lattice,
    gcd_max_minors,
    lattice_intersection,
    quotient_structure,
)
from .gale import GaleDualPair, det_duality_check, gale_dual, quotient_iso_check
from .fw import classify_f, classify_w, f_reduce, positivize, w_reduce
from .fans import DEFAULT_CAP, _select_fan, enumerate_SF
from .toric import _cartier_index, class_group, full_report, is_pws


def _json_matrix(A: Mat):
    return [[str(x) for x in row] for row in A.row_tuples()]


def _json_vector(v):
    return [str(x) for x in v]


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def _read_matrix(path: str) -> Mat:
    """The matrix in a file, or on stdin for ``-``."""
    return parse_matrix(sys.stdin.read() if path == "-" else _read_file(path))


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=None, separators=(", ", ": ")))


def _print_matrix(A: Mat, label: "str | None" = None) -> None:
    if label:
        print(f"{label}:")
    print(format_matrix(A))


def _cap(args) -> int:
    if args.cap is not None:
        if args.cap < 0:
            raise ParseError(f"--cap {args.cap} is negative")
        return args.cap
    env = os.environ.get("GALEKIT_CAP")
    if env is None:
        return DEFAULT_CAP
    try:
        cap = int(env)
    except ValueError:
        raise ParseError(f"GALEKIT_CAP={env!r} is not an integer") from None
    if cap < 0:
        raise ParseError(f"GALEKIT_CAP={env!r} is negative")
    return cap


def _quotient_lines(q) -> list[str]:
    torsion = " ".join(str(c) for c in q.torsion_factors)
    return [f"free_rank: {q.free_rank}", f"torsion: {torsion}".rstrip()]


def _json_quotient(q):
    return {"free_rank": str(q.free_rank),
            "torsion": [str(c) for c in q.torsion_factors]}


def _read_fan_file(path: str) -> list[list[int]]:
    """The cone index sets of a fan file, one cone per line (``-`` is a file
    name here, not stdin)."""
    cones = []
    for raw in _read_file(path).splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            cones.append([int(tok) for tok in line.split()])
        except ValueError:
            raise ParseError(f"bad cone line {line!r}") from None
    if not cones:
        raise ParseError(f"no cones in {path}")
    return cones


# ---------------------------------------------------------------------------
# verb handlers

def _cmd_hnf(args) -> None:
    A = _read_matrix(args.matrix)
    res = hnf(A)
    if args.json:
        _emit_json({"H": _json_matrix(res.H), "U": _json_matrix(res.U),
                    "pivots": [str(p) for p in res.pivot_map]})
        return
    _print_matrix(res.H, "H")
    _print_matrix(res.U, "U")
    print("pivots: " + " ".join(str(p) for p in res.pivot_map))


def _cmd_snf(args) -> None:
    A = _read_matrix(args.matrix)
    res = snf(A)
    if args.json:
        _emit_json({"S": _json_matrix(res.S), "alpha": _json_matrix(res.alpha),
                    "beta": _json_matrix(res.beta),
                    "factors": [str(c) for c in res.factors]})
        return
    _print_matrix(res.S, "S")
    _print_matrix(res.alpha, "alpha")
    _print_matrix(res.beta, "beta")
    print("factors: " + " ".join(str(c) for c in res.factors))


def _cmd_echelon(args) -> None:
    A = _read_matrix(args.matrix)
    E, alpha, beta = positive_row_echelon(A)
    if args.json:
        _emit_json({"E": _json_matrix(E), "alpha": _json_matrix(alpha),
                    "beta": _json_matrix(beta)})
        return
    _print_matrix(E, "E")
    _print_matrix(alpha, "alpha")
    _print_matrix(beta, "beta")


def _cmd_gale(args) -> None:
    if args.check_size_cap < 0:
        raise ParseError(f"--check-size-cap {args.check_size_cap} is negative")
    A = _read_matrix(args.matrix)
    G = gale_dual(A)
    checked = None
    if args.check:
        checked = _run_gale_checks(GaleDualPair(A, G), args.check_size_cap)
    if args.json:
        obj = {"gale": _json_matrix(G)}
        if checked is not None:
            obj["checked_subsets"] = str(checked)
        _emit_json(obj)
        return
    print(format_matrix(G))
    if checked is not None:
        print(f"check: ok ({checked} subsets)")


def _run_gale_checks(pair: GaleDualPair, size_cap: int) -> int:
    from itertools import combinations
    m = pair.V.cols
    count = 0
    for size in range(0, min(m, size_cap) + 1):
        for idx in combinations(range(1, m + 1), size):
            left, right, equal = quotient_iso_check(pair, idx)
            if not equal:
                raise GaleKitError(f"quotient mismatch at I={idx}: "
                                   f"{left} vs {right} (internal invariant)")
            if size == pair.n:
                lhs, rhs, ok = det_duality_check(pair, idx)
                if not ok:
                    raise GaleKitError(f"determinant mismatch at I={idx}: "
                                       f"{lhs} vs {rhs} (internal invariant)")
            count += 1
    return count


def _cmd_dual(args) -> None:
    A = _read_matrix(args.matrix)
    L = dual_lattice(Lattice.from_matrix(A))
    _emit_basis(L, args)


def _emit_basis(L: Lattice, args) -> None:
    if args.json:
        _emit_json({"ambient_dim": str(L.ambient_dim),
                    "basis": [_json_vector(r) for r in L.basis]})
        return
    if L.rank == 0:
        print("# zero lattice")
        return
    print(format_matrix(L.basis_matrix()))


def _cmd_intersect(args) -> None:
    mats = [_read_matrix(p) for p in args.matrices]
    L = lattice_intersection([Lattice.from_matrix(A) for A in mats])
    _emit_basis(L, args)


def _cmd_quotient(args) -> None:
    A = _read_matrix(args.matrix)
    q = quotient_structure(A.cols, Lattice.from_matrix(A))
    if args.json:
        _emit_json(_json_quotient(q))
        return
    for line in _quotient_lines(q):
        print(line)


def _cmd_minors_gcd(args) -> None:
    A = _read_matrix(args.matrix)
    value = gcd_max_minors(A)
    if args.json:
        _emit_json({"gcd": str(value)})
        return
    print(value)


def _cmd_check_f(args) -> None:
    A = _read_matrix(args.matrix)
    rep = classify_f(A)
    clauses = {c: c not in rep.violated for c in "abcde"}
    if args.json:
        _emit_json({"f_matrix": rep.is_f_matrix, "cf_matrix": rep.is_cf_matrix,
                    "clauses": clauses})
        return
    print(f"f_matrix: {str(rep.is_f_matrix).lower()}")
    print(f"cf_matrix: {str(rep.is_cf_matrix).lower()}")
    print(("violated: " + " ".join(rep.violated)).rstrip())


def _cmd_check_w(args) -> None:
    A = _read_matrix(args.matrix)
    rep = classify_w(A)
    clauses = {c: c not in rep.violated for c in "abcdef"}
    if args.json:
        obj = {"w_matrix": rep.is_w_matrix, "clauses": clauses}
        if rep.positive_witness is not None:
            obj["positive_witness"] = _json_vector(rep.positive_witness)
        _emit_json(obj)
        return
    print(f"w_matrix: {str(rep.is_w_matrix).lower()}")
    print(("violated: " + " ".join(rep.violated)).rstrip())
    if rep.positive_witness is not None:
        print("witness: " + " ".join(str(x) for x in rep.positive_witness))


def _cmd_positivize(args) -> None:
    A = _read_matrix(args.matrix)
    P = positivize(A)
    if args.json:
        _emit_json({"positivized": _json_matrix(P)})
        return
    print(format_matrix(P))


def _cmd_reduce_f(args) -> None:
    A = _read_matrix(args.matrix)
    reduced, gcds = f_reduce(A)
    if args.json:
        _emit_json({"reduced": _json_matrix(reduced),
                    "column_gcds": [str(d) for d in gcds]})
        return
    print(format_matrix(reduced))
    print("column_gcds: " + " ".join(str(d) for d in gcds))


def _cmd_reduce_w(args) -> None:
    A = _read_matrix(args.matrix)
    reduced = w_reduce(A)
    if args.json:
        _emit_json({"reduced": _json_matrix(reduced)})
        return
    print(format_matrix(reduced))


def _cmd_fans(args) -> None:
    V = _read_matrix(args.matrix)
    fans = enumerate_SF(V, cap=_cap(args))
    if args.json:
        _emit_json({"count": str(len(fans)),
                    "fans": [[[str(g) for g in cone.gens]
                              for cone in f.maximal_cones] for f in fans]})
        return
    print(f"count: {len(fans)}")
    for k, f in enumerate(fans, start=1):
        cones = " | ".join(" ".join(str(g) for g in cone.gens)
                           for cone in f.maximal_cones)
        print(f"fan {k}: {cones}")


def _cmd_class_group(args) -> None:
    V = _read_matrix(args.matrix)
    q = class_group(V)
    if args.json:
        _emit_json(_json_quotient(q))
        return
    for line in _quotient_lines(q):
        print(line)


def _cmd_pws(args) -> None:
    V = _read_matrix(args.matrix)
    flag, conditions = is_pws(V)
    if args.json:
        _emit_json({"pws": flag, "conditions": conditions})
        return
    print(f"pws: {str(flag).lower()}")
    for name, value in conditions.items():
        print(f"{name}: {str(value).lower()}")


def _cmd_report(args) -> None:
    A = _read_matrix(args.matrix)
    cap = _cap(args)  # a bad cap is refused even beside a fan file
    cones = None if args.fan_file is None else _read_fan_file(args.fan_file)
    given = {"Q" if args.kind == "weight" else "V": A}
    rep = full_report(**given, fan=cones, fan_index=args.fan, cap=cap)
    if args.json:
        _emit_json({
            "n": str(rep.n), "r": str(rep.r),
            "class_group": _json_quotient(rep.cl),
            "pws": rep.is_pws,
            "cl_generators": _json_matrix(rep.cl_generators),
            "picard_basis": _json_matrix(rep.picard_basis),
            "cartier_basis": _json_matrix(rep.cartier_basis),
            "delta_sigma": str(rep.delta_sigma),
            "cartier_indices": [str(c) for c in rep.cartier_indices],
        })
        return
    print(f"n: {rep.n}")
    print(f"r: {rep.r}")
    for line in _quotient_lines(rep.cl):
        print("class_group " + line)
    print(f"pws: {str(rep.is_pws).lower()}")
    _print_matrix(rep.cl_generators, "cl_generators")
    _print_matrix(rep.picard_basis, "picard_basis")
    _print_matrix(rep.cartier_basis, "cartier_basis")
    print(f"delta_sigma: {rep.delta_sigma}")
    print("cartier_indices: " + " ".join(str(c) for c in rep.cartier_indices))


def _cmd_cartier_index(args) -> None:
    V = _read_matrix(args.matrix)
    try:
        divisor = [int(tok) for tok in args.divisor.split(",")]
    except ValueError:
        raise ParseError(f"bad --divisor value {args.divisor!r}") from None
    cap = _cap(args)
    cones = None if args.fan_file is None else _read_fan_file(args.fan_file)
    # the selector has checked the fan
    value = _cartier_index(V, _select_fan(V, cones, args.fan, cap), divisor)
    if args.json:
        _emit_json({"cartier_index": str(value)})
        return
    print(value)


# ---------------------------------------------------------------------------

def _add_fan_args(p) -> None:
    choice = p.add_mutually_exclusive_group()
    choice.add_argument("--fan", type=int, default=None,
                        help="1-based fan index among the enumerated fans")
    choice.add_argument("--fan-file", default=None,
                        help="file with one maximal cone (1-based indices) per line")
    p.add_argument("--cap", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="galekit",
        description="Exact lattice, Gale-duality and toric computations.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true",
                       help="emit a single JSON object")
        if name != "intersect":
            p.add_argument("matrix", nargs="?", default="-",
                           help="matrix file (default: stdin)")
        p.set_defaults(func=func)
        return p

    add("hnf", _cmd_hnf, "Hermite normal form with transform")
    add("snf", _cmd_snf, "Smith normal form with transforms")
    add("echelon", _cmd_echelon, "positive row echelon form")

    p = add("gale", _cmd_gale, "Gale dual matrix")
    p.add_argument("--check", action="store_true",
                   help="verify quotient/determinant identities over subsets")
    p.add_argument("--check-size-cap", type=int, default=12,
                   help="largest subset size for --check")

    add("dual", _cmd_dual, "dual lattice basis")
    p = add("intersect", _cmd_intersect, "intersection of row lattices")
    p.add_argument("matrices", nargs="+", help="matrix files")
    add("quotient", _cmd_quotient, "structure of Z^m modulo the row lattice")
    add("minors-gcd", _cmd_minors_gcd, "gcd of the maximal minors")

    add("check-f", _cmd_check_f, "F-matrix / CF-matrix classification")
    add("check-w", _cmd_check_w, "W-matrix classification")
    add("positivize", _cmd_positivize, "equivalent nonnegative weight matrix")
    add("reduce-f", _cmd_reduce_f, "divide fan-matrix columns by gcds")
    add("reduce-w", _cmd_reduce_w, "weight-matrix reduction")

    p = add("fans", _cmd_fans, "enumerate simplicial fans on the columns")
    p.add_argument("--cap", type=int, default=None,
                   help=f"ray-count guard (default {DEFAULT_CAP}; env GALEKIT_CAP)")

    add("class-group", _cmd_class_group, "class group of the fan matrix")
    add("pws", _cmd_pws, "poly-weighted-space detection")

    p = add("report", _cmd_report, "full toric report")
    p.add_argument("--kind", choices=["weight", "fan"], default="weight",
                   help="interpret the input as a weight or fan matrix")
    _add_fan_args(p)

    p = add("cartier-index", _cmd_cartier_index,
            "least multiple of a divisor that is Cartier")
    p.add_argument("--divisor", required=True,
                   help="comma-separated ray coefficients a1,...,a_{n+r}")
    _add_fan_args(p)

    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, GaleKitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
