"""Batch command line front end.

One verb per library operation, stable text output for scripting and golden
tests, and a ``--json`` variant where every number is emitted as a decimal
string so consumers never have to assume an integer width.

Each verb's handler ``_cmd_*(args, given)`` takes the input that ``main`` has
read (one matrix, or the list of matrices for ``intersect``) and returns its
output once, as a pair (JSON object, text lines); ``main`` prints the one the
user asked for.  ``_render`` holds the format rules most verbs share.

Exit status: 0 on success, 1 on domain errors (violated preconditions), 2 on
parse or usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .matrix import GaleKitError, Mat, ParseError, format_matrix, parse_matrix
from .normal_forms import hnf, positive_row_echelon, snf
from .lattices import (
    Lattice,
    QuotientStructure,
    dual_lattice,
    gcd_max_minors,
    lattice_intersection,
    quotient_structure,
)
from .gale import GaleDualPair, det_duality_check, gale_dual, quotient_iso_check
from .fw import classify_f, classify_w, f_reduce, positivize, w_reduce
from .fans import DEFAULT_CAP, _select_fan, enumerate_SF
from .toric import _cartier_index, class_group, full_report, is_pws


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def _read_matrix(path: str) -> Mat:
    """The matrix in a file, or on stdin for ``-``."""
    return parse_matrix(sys.stdin.read() if path == "-" else _read_file(path))


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
# output

def _render(**fields) -> tuple[dict, list[str]]:
    """The (JSON object, text lines) of labelled fields, in order: a ``Mat``
    prints as ``label:`` and its rows, a tuple as ``label: a b c`` (an empty
    one as ``label:``), a bool as true/false, an int after its label, and a
    ``QuotientStructure`` as its own lines prefixed by the label.  JSON keeps
    bools, nests the quotient and writes every number as a decimal string."""
    obj, lines = {}, []
    for label, value in fields.items():
        if isinstance(value, Mat):
            obj[label] = [[str(x) for x in row] for row in value.row_tuples()]
            lines += [f"{label}:", format_matrix(value)]
        elif isinstance(value, tuple):
            obj[label] = [str(x) for x in value]
            lines.append(f"{label}: {' '.join(map(str, value))}".rstrip())
        elif isinstance(value, bool):
            obj[label] = value
            lines.append(f"{label}: {str(value).lower()}")
        elif isinstance(value, int):
            obj[label] = str(value)
            lines.append(f"{label}: {value}")
        else:
            obj[label], quotient_lines = _quotient(value)
            lines += [f"{label} {line}" for line in quotient_lines]
    return obj, lines


def _quotient(q: QuotientStructure) -> tuple[dict, list[str]]:
    return _render(free_rank=q.free_rank, torsion=q.torsion_factors)


def _lattice(L: Lattice) -> tuple[dict, list[str]]:
    text = format_matrix(L.basis_matrix()) if L.rank else "# zero lattice"
    return ({"ambient_dim": str(L.ambient_dim),
             "basis": [[str(x) for x in row] for row in L.basis]}, [text])


def _verdict(flags: dict, violated, clauses: str) -> tuple[dict, list[str]]:
    """A classification: its flags, then every clause's verdict in JSON and
    the violated clauses in text."""
    obj, lines = _render(**flags)
    obj["clauses"] = {c: c not in violated for c in clauses}
    lines.append(("violated: " + " ".join(violated)).rstrip())
    return obj, lines


# ---------------------------------------------------------------------------
# verb handlers

def _cmd_hnf(args, A: Mat):
    res = hnf(A)
    return _render(H=res.H, U=res.U, pivots=res.pivot_map)


def _cmd_snf(args, A: Mat):
    res = snf(A)
    return _render(S=res.S, alpha=res.alpha, beta=res.beta, factors=res.factors)


def _cmd_echelon(args, A: Mat):
    E, alpha, beta = positive_row_echelon(A)
    return _render(E=E, alpha=alpha, beta=beta)


def _cmd_gale(args, A: Mat):
    G = gale_dual(A)
    obj, lines = _render(gale=G)[0], [format_matrix(G)]
    if args.check:
        checked = _run_gale_checks(GaleDualPair(A, G), args.check_size_cap)
        obj["checked_subsets"] = str(checked)
        lines.append(f"check: ok ({checked} subsets)")
    return obj, lines


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


def _cmd_dual(args, A: Mat):
    return _lattice(dual_lattice(Lattice.from_matrix(A)))


def _cmd_intersect(args, mats: list[Mat]):
    return _lattice(lattice_intersection([Lattice.from_matrix(A) for A in mats]))


def _cmd_quotient(args, A: Mat):
    return _quotient(quotient_structure(A.cols, Lattice.from_matrix(A)))


def _cmd_minors_gcd(args, A: Mat):
    value = gcd_max_minors(A)
    return {"gcd": str(value)}, [str(value)]


def _cmd_check_f(args, A: Mat):
    rep = classify_f(A)
    return _verdict({"f_matrix": rep.is_f_matrix, "cf_matrix": rep.is_cf_matrix},
                    rep.violated, "abcde")


def _cmd_check_w(args, A: Mat):
    rep = classify_w(A)
    obj, lines = _verdict({"w_matrix": rep.is_w_matrix}, rep.violated, "abcdef")
    witness = rep.positive_witness
    if witness is not None:
        obj["positive_witness"] = [str(x) for x in witness]
        lines.append("witness: " + " ".join(str(x) for x in witness))
    return obj, lines


def _cmd_positivize(args, A: Mat):
    P = positivize(A)
    return _render(positivized=P)[0], [format_matrix(P)]


def _cmd_reduce_f(args, A: Mat):
    reduced, gcds = f_reduce(A)
    obj, lines = _render(reduced=reduced, column_gcds=gcds)
    return obj, lines[1:]  # the matrix without its label


def _cmd_reduce_w(args, A: Mat):
    reduced = w_reduce(A)
    return _render(reduced=reduced)[0], [format_matrix(reduced)]


def _cmd_fans(args, V: Mat):
    fans = enumerate_SF(V, cap=_cap(args))
    cones = [f.cone_sets() for f in fans]
    obj, lines = _render(count=len(fans))
    obj["fans"] = [[[str(g) for g in gens] for gens in fan] for fan in cones]
    lines += [f"fan {k}: " + " | ".join(" ".join(str(g) for g in gens) for gens in fan)
              for k, fan in enumerate(cones, start=1)]
    return obj, lines


def _cmd_class_group(args, V: Mat):
    return _quotient(class_group(V))


def _cmd_pws(args, V: Mat):
    flag, conditions = is_pws(V)
    return {"pws": flag, "conditions": conditions}, _render(pws=flag, **conditions)[1]


def _cmd_report(args, A: Mat):
    cap = _cap(args)  # a bad cap is refused even beside a fan file
    cones = None if args.fan_file is None else _read_fan_file(args.fan_file)
    given = {"Q" if args.kind == "weight" else "V": A}
    rep = full_report(**given, fan=cones, fan_index=args.fan, cap=cap)
    return _render(n=rep.n, r=rep.r, class_group=rep.cl, pws=rep.is_pws,
                   cl_generators=rep.cl_generators, picard_basis=rep.picard_basis,
                   cartier_basis=rep.cartier_basis, delta_sigma=rep.delta_sigma,
                   cartier_indices=rep.cartier_indices)


def _cmd_cartier_index(args, V: Mat):
    try:
        divisor = [int(tok) for tok in args.divisor.split(",")]
    except ValueError:
        raise ParseError(f"bad --divisor value {args.divisor!r}") from None
    cap = _cap(args)
    cones = None if args.fan_file is None else _read_fan_file(args.fan_file)
    # the selector has checked the fan
    value = _cartier_index(V, _select_fan(V, cones, args.fan, cap), divisor)
    return {"cartier_index": str(value)}, [str(value)]


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
        # a negative subset cap is refused before the input is read
        if getattr(args, "check_size_cap", 0) < 0:
            raise ParseError(f"--check-size-cap {args.check_size_cap} is negative")
        given = ([_read_matrix(p) for p in args.matrices] if args.verb == "intersect"
                 else _read_matrix(args.matrix))
        obj, lines = args.func(args, given)
    except GaleKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ParseError) else 1
    print(json.dumps(obj) if args.json else "\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
