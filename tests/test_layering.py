"""The oracles stay independent: the polynomial engine, the orientation
engine and the brute-force coloring oracle share no package code past the
graph type and the guard exception, so a cross-check between any two of
them cannot pass by sharing a bug."""

import ast
from pathlib import Path

import pytest

import alontarsi

PACKAGE = Path(alontarsi.__file__).resolve().parent


def relative_imports(path: Path) -> list[str]:
    """Modules named by package-relative imports, at module level or nested
    in a function; `from . import x` names x."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module is None:
                found.extend(alias.name for alias in node.names)
            else:
                found.append(node.module)
    return found


def absolute_imports(path: Path) -> list[str]:
    """Modules named by absolute imports, at module level or nested in a
    function; `from a import b` names both a and a.b."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.append(node.module)
            found.extend(f"{node.module}.{alias.name}" for alias in node.names)
    return found


def test_no_module_starts_processes_or_threads():
    """Campaigns and engines run in one process, on one thread."""
    banned = ("multiprocessing", "subprocess", "concurrent.futures", "threading")
    offenders = [
        (path.name, module)
        for path in sorted(PACKAGE.glob("*.py"))
        for module in absolute_imports(path)
        if any(module == b or module.startswith(b + ".") for b in banned)
    ]
    assert offenders == []


@pytest.mark.parametrize("name", ["polynomials.py", "orientations.py", "coloring.py"])
def test_oracle_imports_only_graphs_and_errors(name):
    imports = relative_imports(PACKAGE / name)
    assert set(imports) <= {"graphs", "errors"}, imports


def test_graphs_imports_only_errors():
    """one_factorization stays on graphs' own edge coloring, and no engine
    reaches coloring through graphs."""
    assert set(relative_imports(PACKAGE / "graphs.py")) == {"errors"}


def test_only_polynomials_reads_the_key_layout():
    """Packed keys are read and written through SparsePolynomial.pack and
    unpack; no other module touches the field width."""
    readers = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "polynomials.py"
        and any(
            isinstance(node, ast.Attribute) and node.attr == "width"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        )
    ]
    assert readers == []


def names_in_function(path: Path, function: str) -> set[str]:
    """Identifiers and attribute names used in the body of a top-level function."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    (node,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function]
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    }


def test_census_table_shares_no_code_with_the_census():
    """The table is cross-checked against eulerian_census, so neither may call
    the other, nor the orientation search built on the census."""
    path = PACKAGE / "orientations.py"
    table = names_in_function(path, "orientation_census_table")
    assert not table & {"eulerian_census", "atn_from_orientations"}, table
    assert "orientation_census_table" not in names_in_function(path, "eulerian_census")


def test_frontier_census_shares_no_code_with_the_naive_censuses():
    """The walk counts with eulerian_census's frontier census, and both
    naive routes recheck it, so none of the three may call another."""
    path = PACKAGE / "orientations.py"
    frontier = names_in_function(path, "eulerian_census")
    naive = {"enumerated_census", "orientation_census_table", "atn_from_orientations"}
    assert not frontier & naive, frontier & naive
    for name in ("enumerated_census", "orientation_census_table"):
        assert "eulerian_census" not in names_in_function(path, name), name


def test_colorings_walk_shares_no_code_with_the_expansions():
    """The walk decides a cap without expanding anything, and coefficient_of
    rechecks what it decides, so neither may call the other, and the walk
    may not reach the capped expansion or the packed polynomial."""
    path = PACKAGE / "polynomials.py"
    walk = names_in_function(path, "_coefficient_by_colorings")
    expansions = {"expand_capped", "_first_nonzero_group", "coefficient_of", "SparsePolynomial"}
    assert not walk & expansions, walk & expansions
    assert "_coefficient_by_colorings" not in names_in_function(path, "coefficient_of")
