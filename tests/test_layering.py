"""The package's import layering, read from its source with ``ast``.

No import sits inside a function, no module imports another's private
name, ``rref`` builds on ``errors`` and ``linalg`` alone, and the modules
import one another without a cycle.  The prepared operator's invariants
are built and read in ``iterate`` alone: no other module forms the sign
matrix or a Gauss-Seidel head, reads a head's ``diag`` or
``block_inverses``, or names a tail form (``Tail``, ``CoordinateTail``).
"""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "undersolve"
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _package_imports(tree):
    """(line, imported module, imported names) of every import from the
    package itself; ``from . import m`` imports the module m."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names = [alias.name for alias in node.names]
            if node.module is None:
                for name in names:
                    yield node.lineno, name, []
            else:
                yield node.lineno, node.module, names


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_import_inside_a_function(path):
    found = [f"{path.name}:{node.lineno}"
             for func in ast.walk(_tree(path))
             if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(func) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_private_name_imported_across_modules(path):
    found = [f"{path.name}:{line} {module}.{name}"
             for line, module, names in _package_imports(_tree(path))
             for name in names if name.startswith("_")]
    assert found == []


def test_rref_imports_only_errors_and_linalg():
    imported = {module for _, module, _ in _package_imports(_tree(PACKAGE / "rref.py"))}
    assert imported <= {"errors", "linalg"}


def test_import_graph_has_no_cycle():
    graph = {path.stem: {module for _, module, _ in _package_imports(_tree(path))}
             for path in MODULES}
    try:
        list(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        pytest.fail(f"import cycle: {exc.args[1]}")


def _called_name(node):
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "iterate"],
                         ids=lambda path: path.name)
def test_only_iterate_forms_the_operator_invariants(path):
    found = [f"{path.name}:{node.lineno} {_called_name(node)}"
             for node in ast.walk(_tree(path))
             if isinstance(node, ast.Call)
             and _called_name(node) in ("sign_matrix", "gauss_seidel")]
    assert found == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "iterate"],
                         ids=lambda path: path.name)
def test_only_iterate_names_a_tail_form(path):
    # prepare alone picks a tail's form: no other module imports, calls or
    # reads Tail or CoordinateTail
    spelled = {ast.alias: "name", ast.Name: "id", ast.Attribute: "attr"}
    found = [f"{path.name}:{node.lineno} {getattr(node, spelled[type(node)])}"
             for node in ast.walk(_tree(path)) if type(node) in spelled
             and getattr(node, spelled[type(node)]) in ("Tail", "CoordinateTail")]
    assert found == []

@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "iterate"],
                         ids=lambda path: path.name)
def test_only_iterate_reads_a_head_splitting(path):
    # numpy's own np.diag is no head attribute
    found = [f"{path.name}:{node.lineno} .{node.attr}"
             for node in ast.walk(_tree(path))
             if isinstance(node, ast.Attribute) and node.attr in ("diag", "block_inverses")
             and not (isinstance(node.value, ast.Name) and node.value.id == "np")]
    assert found == []
