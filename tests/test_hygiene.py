"""Source checks on the library modules, read with ``ast``.

Internal invariants are ``GaleKitError`` raises, never ``assert`` (which
``python -O`` strips), and the library imports only itself and the
standard library (the empty dependency list of ``pyproject.toml``),
keeps no results in a ``functools`` cache, keeps no Euclid scan beside
row insertion, reaches Smith forms only through row insertion,
enumerates the fan of a toric call only in the fan selector, derives
the Picard lattice without intersecting lattices, reads both sides of
the Gale pair off one per-cone table, builds a ``Mat`` without its
construction scan only inside ``matrix.py`` and a ``Lattice`` from integer
rows only inside ``lattices.py``, rebases a row lattice on a positive
vector with no ``solve``, inverse or ``Fraction`` (nor ``hnf`` for its
transform), and ends every internal invariant's message in "(internal
invariant)".
"""

import ast
from pathlib import Path
import sys

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "galekit").glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _names_in(module, function):
    """The names and attributes read in the body of a top-level function."""
    tree = _tree(next(p for p in SOURCES if p.name == module))
    func = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == function)
    return {node.id if isinstance(node, ast.Name) else node.attr
            for stmt in func.body for node in ast.walk(stmt)
            if isinstance(node, (ast.Name, ast.Attribute))}


def test_sources_found():
    assert len(SOURCES) >= 9


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    lines = [node.lineno for node in ast.walk(_tree(path))
             if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert at lines {lines}; raise GaleKitError"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_galekit_and_stdlib(path):
    foreign = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top != "galekit" and top not in sys.stdlib_module_names:
                foreign.append(f"{name} (line {node.lineno})")
    assert not foreign, f"{path.name}: non-stdlib imports {foreign}"


ROOT = Path(__file__).resolve().parent.parent
REFERENCE_DIRS = [ROOT / "src" / "galekit", ROOT / "tests", ROOT / "perfbench"]


def _referenced_names(tree):
    """Identifiers a module uses: loaded or stored names, attributes, names
    it imports, and identifiers spelt as strings (``__all__``, dotted keys
    such as "fw.classify_f", ``monkeypatch.setattr(module, "name", ...)``)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                names.update(parts)
    return names


def test_every_definition_is_referenced():
    """Each function and class of the library is used by name somewhere:
    in the library, the tests or the benchmark (read, never imported)."""
    used = set()
    for folder in REFERENCE_DIRS:
        for path in sorted(folder.rglob("*.py")):
            used |= _referenced_names(_tree(path))
    unused = []
    for path in SOURCES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")) and name not in used:
                    unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused, f"defined but never referenced: {unused}"


CACHES = {"lru_cache", "cache", "cached_property"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_hidden_caches(path):
    """No module keeps results in a ``functools`` cache: a cache shared by
    every caller makes the work one call does depend on the call before."""
    found = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [alias.name for alias in node.names if alias.name in CACHES]
        elif (isinstance(node, ast.Attribute) and node.attr in CACHES
              and isinstance(node.value, ast.Name) and node.value.id == "functools"):
            found.append(f"functools.{node.attr}")
    assert not found, f"{path.name}: uses {found}; pass values to the callers"


def test_no_module_keeps_the_euclid_scan():
    """Every Hermite basis, ``hnf``'s included, comes from row insertion:
    nothing defines or names ``_hnf_int``, the Euclid scan that once
    reduced a tall or rank-deficient matrix for ``hnf``.  Definitions,
    calls, aliases and imports all count as uses."""
    found = []
    for path in SOURCES:
        for node in ast.walk(_tree(path)):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name if isinstance(node, (ast.alias, ast.FunctionDef)) else None)
            if name == "_hnf_int":
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_smith_form_eliminates_by_row_insertion():
    """``_smith`` reduces through ``_hermite_insert`` (row passes over the
    rows and over the transposed columns), and no module keeps the column
    steps of a second Smith elimination: nothing defines or names
    ``_col_sub``, ``_swap_cols`` or ``clear_at``."""
    banned = {"_col_sub", "_swap_cols", "clear_at"}
    found = []
    smith_calls = set()
    for path in SOURCES:
        for node in ast.walk(_tree(path)):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name if isinstance(node, (ast.alias, ast.FunctionDef)) else None)
            if name in banned:
                found.append(f"{path.name}:{node.lineno} {name}")
            if isinstance(node, ast.FunctionDef) and node.name == "_smith":
                smith_calls |= {sub.func.id for sub in ast.walk(node)
                                if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)}
    assert not found, found
    assert "_hermite_insert" in smith_calls, sorted(smith_calls)


def test_fans_are_enumerated_by_the_selector():
    """Every toric call chooses its fan through ``fans._select_fan``: the
    only other callers of ``enumerate_SF`` are the predicate that counts
    fans and the CLI verb that lists them."""
    calls = []
    for path in SOURCES:
        for top in _tree(path).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = (func.id if isinstance(func, ast.Name) else
                            func.attr if isinstance(func, ast.Attribute) else None)
                    if name == "enumerate_SF":
                        calls.append(f"{path.name}:{getattr(top, 'name', top.lineno)}")
    assert sorted(calls) == ["cli.py:_cmd_fans", "fans.py:_select_fan",
                             "fans.py:is_divisorially_detected"], calls


def test_toric_takes_no_lattice_intersection():
    """The Picard lattice has one derivation, the per-cone table and one
    fold modulo delta_Sigma: ``toric.py`` names ``lattice_intersection``
    nowhere, not in an import, a call, an attribute or a string."""
    path = next(p for p in SOURCES if p.name == "toric.py")
    found = []
    for node in ast.walk(_tree(path)):
        name = (node.id if isinstance(node, ast.Name) else
                node.attr if isinstance(node, ast.Attribute) else
                node.name if isinstance(node, ast.alias) else
                node.value if isinstance(node, ast.Constant) else None)
        if isinstance(name, str) and "lattice_intersection" in name:
            found.append(node.lineno)
    assert not found, f"toric.py names lattice_intersection at lines {found}"


def test_unscanned_matrices_stay_in_matrix():
    """``Mat._unscanned`` trusts rows and a denominator taken from another
    Mat, so it is named only inside ``matrix.py``: no rows from another
    module enter a Mat without the scan.  Names, attributes, imports and
    strings all count as uses."""
    uses = []
    for path in SOURCES:
        for node in ast.walk(_tree(path)):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name if isinstance(node, (ast.alias, ast.FunctionDef)) else
                    node.value if isinstance(node, ast.Constant) else None)
            if isinstance(name, str) and "_unscanned" in name:
                uses.append(path.name)
    assert uses and set(uses) == {"matrix.py"}, uses


def test_toric_eliminates_only_in_the_cone_table():
    """Both sides of the Gale pair read their per-cone blocks off one table:
    in ``toric.py`` only ``_cone_table`` calls ``_eliminate``, and
    ``_cartier_index`` names neither ``solve`` nor ``Mat``."""
    tree = _tree(next(p for p in SOURCES if p.name == "toric.py"))
    callers = set()
    for top in tree.body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "_eliminate"):
                callers.add(getattr(top, "name", top.lineno))
    assert callers == {"_cone_table"}, callers
    names = _names_in("toric.py", "_cartier_index")
    assert not names & {"solve", "Mat"}, sorted(names & {"solve", "Mat"})


def _raise_messages(tree, cls):
    """(line, message text) of each ``raise cls(message)``; an f-string's
    text is its literal parts, with each placeholder as "{}"."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and isinstance(node.exc.func, ast.Name) and node.exc.func.id == cls
                and node.exc.args):
            continue
        arg = node.exc.args[0]
        parts = arg.values if isinstance(arg, ast.JoinedStr) else [arg]
        found.append((node.lineno, "".join(
            part.value if isinstance(part, ast.Constant) and isinstance(part.value, str)
            else "{}" for part in parts)))
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_internal_invariants_have_one_shape(path):
    """Every ``GaleKitError`` the library raises itself is an internal
    invariant and says so at the end of its message; a bad input is a
    ``DomainError``, which never calls itself unreachable."""
    tree = _tree(path)
    wrong = [f"{path.name}:{line} {text!r}" for line, text in _raise_messages(tree, "GaleKitError")
             if not text.endswith("(internal invariant)")]
    wrong += [f"{path.name}:{line} {text!r}" for line, text in _raise_messages(tree, "DomainError")
              if "unreachable" in text]
    assert not wrong, wrong


def test_lattices_keep_one_representation():
    """A ``Lattice`` stores its integer rows once, and the simplex takes
    integer rows only: nothing defines or names ``_hermite_basis`` (the
    rational Hermite basis once built beside the integer one) or
    ``_scaled`` (the lazy integer copy of a rational basis), and
    ``matrix._nonneg_solve`` names neither ``_int_row`` nor ``Fraction``.
    Definitions, calls, aliases, imports and strings all count as uses.
    The constructor trusts that its rows are ints, so ``Lattice(`` is
    called only inside ``lattices.py``, as ``Mat._unscanned`` is named only
    inside ``matrix.py``; and ``_intersect_pair`` stacks the stored integer
    rows: it names none of ``Mat``, ``Fraction``, ``basis`` and
    ``left_kernel_rows``."""
    found = []
    callers = []
    for path in SOURCES:
        for node in ast.walk(_tree(path)):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name if isinstance(node, (ast.alias, ast.FunctionDef)) else
                    node.value if isinstance(node, ast.Constant) else None)
            if name in ("_hermite_basis", "_scaled"):
                found.append(f"{path.name}:{node.lineno} {name}")
            if isinstance(node, ast.Call) and "Lattice" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                callers.append(path.name)
    assert not found, found
    assert callers and set(callers) == {"lattices.py"}, callers
    names = _names_in("matrix.py", "_nonneg_solve")
    assert not names & {"_int_row", "Fraction"}, sorted(names & {"_int_row", "Fraction"})
    names = _names_in("lattices.py", "_intersect_pair")
    assert {"_left_kernel", "Lattice"} <= names, sorted(names)
    banned = {"Mat", "Fraction", "basis", "left_kernel_rows"}
    assert not names & banned, sorted(names & banned)


def test_positivity_rebase_stays_in_integers():
    """The positivity rebase carries its transform in its rows, and the
    Cartier indices of ``full_report`` read the cone table:
    ``_lift_into_rows``, ``basis_with_positive_first_row`` and
    ``positive_row_echelon`` name none of ``solve``, ``inverse``,
    ``block_diag`` and ``Fraction``, and ``basis_with_positive_first_row``
    builds its transform with neither ``hnf`` nor ``Mat``;
    ``full_report`` names no ``solve``;
    ``normal_forms.py`` imports neither ``solve`` nor ``block_diag``, and
    ``toric.py`` no ``solve``; and nothing defines or names
    ``positive_row_basis``, the separate transform once multiplied in."""
    banned = {"solve", "inverse", "block_diag", "Fraction"}
    for function, more in (("_lift_into_rows", set()),
                           ("basis_with_positive_first_row", {"hnf", "Mat"}),
                           ("positive_row_echelon", set())):
        names = _names_in("normal_forms.py", function)
        assert not names & (banned | more), (function, sorted(names & (banned | more)))
    assert "solve" not in _names_in("toric.py", "full_report")
    for module, names in (("normal_forms.py", {"solve", "block_diag"}),
                          ("toric.py", {"solve"})):
        tree = _tree(next(p for p in SOURCES if p.name == module))
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) for alias in node.names}
        assert not imported & names, (module, sorted(imported & names))
    found = []
    for path in SOURCES:
        for node in ast.walk(_tree(path)):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name if isinstance(node, (ast.alias, ast.FunctionDef)) else
                    node.value if isinstance(node, ast.Constant) else None)
            if name == "positive_row_basis":
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found
