"""Source rules that hold for the whole package."""
from __future__ import annotations

import ast
from pathlib import Path

import latmax

SOURCES = sorted(Path(latmax.__file__).parent.glob("*.py"))


def test_package_has_no_assert_statement():
    # `python -O` strips assert statements, so no check may rest on one.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found, found


# The only functions of checks.py that may convert a complement to an
# element set: the witness (element lists for JSON) and its replay.
WITNESS_BOUNDARY = {"_witness", "reverify_witness"}


def test_checks_build_no_frozenset_outside_the_witness_boundary():
    # Inside latmax.checks a complement is an int mask; a frozenset(...) or
    # set(...) call anywhere else would put a second subset representation
    # back.  A set of masks, such as the deduplicated complements of
    # sublattice_complements, is no element set and is allowed.
    path = Path(latmax.__file__).parent / "checks.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    exempt = {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name in WITNESS_BOUNDARY
        for node in ast.walk(fn)
    }
    found = [
        f"checks.py:{node.lineno}"
        for node in ast.walk(tree)
        if id(node) not in exempt
        and isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("frozenset", "set")
    ]
    assert not found, found


def test_only_checks_builds_a_check_report():
    # Every CheckReport, and so every witness, is built in latmax.checks:
    # one _witness and one REPLAY table serve every checker.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name != "checks.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "CheckReport"
    ]
    assert SOURCES and not found, found


def _imports(tree) -> list:
    """(top-level module name, line) of each absolute import in a module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(a.name.split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.append(((node.module or "").split(".")[0], node.lineno))
    return found


def test_sublattice_imports_no_numpy():
    # Closure, maximality and the oracle run on int masks; an array import
    # would let array round trips back into the search.
    path = Path(latmax.__file__).parent / "sublattice.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [f"sublattice.py:{line}" for name, line in _imports(tree) if name == "numpy"]
    assert not found, found


def test_package_reads_no_environment_variable():
    # Every setting of a run is an argument or a CLI option; a module that
    # read os.environ or os.getenv would add a knob no caller can see.
    names = {"environ", "environb", "getenv", "getenvb"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (
            isinstance(node, ast.Attribute)
            and node.attr in names
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        )
        or (isinstance(node, ast.ImportFrom) and node.module == "os" and any(a.name in names for a in node.names))
    ]
    assert SOURCES and not found, found


def test_only_cdim2_builds_an_unchecked_complements():
    # Complements(m, ...) checks every column; Complements._unchecked skips
    # that for the columns the enumerations and slicing make.  A call from
    # any other module could hand the renderers columns nobody checked.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name != "cdim2.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "_unchecked"
    ]
    assert SOURCES and not found, found


def test_chains_become_int64_in_one_place():
    # geometry._padded_permutation reads every tuple or list chain into
    # int64 with one Struct(...).pack call, and only it converts single
    # points, with geometry._point.  A second pack, an int64 buffer built
    # with array, or a _point call elsewhere would be a second read of the
    # points with its own accepted inputs and messages.
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{line} imports {name}"
            for name, line in _imports(tree)
            if name == "array" or (name == "struct" and path.name != "geometry.py")
        ]
        reader = {
            id(node)
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == "_padded_permutation" and path.name == "geometry.py"
            for node in ast.walk(fn)
        }
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if id(node) not in reader
            and isinstance(node, ast.Attribute)
            and node.attr in ("pack", "pack_into")
            and isinstance(node.value, ast.Call)
            and getattr(node.value.func, "attr", getattr(node.value.func, "id", None)) == "Struct"
        ]
        found += [
            f"{path.name}:{node.lineno} names _point"
            for node in ast.walk(tree)
            if id(node) not in reader
            and (
                isinstance(node, ast.Name) and node.id == "_point"
                or isinstance(node, ast.Attribute) and node.attr == "_point"
                or isinstance(node, ast.alias) and node.name == "_point"
            )
        ]
    assert SOURCES and not found, found
