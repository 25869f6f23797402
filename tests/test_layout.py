"""The package's sibling imports run one way, at module level.

Every module is parsed with ast.  No ``from .`` import sits inside a function,
and the module-level graph of sibling imports (outside ``if TYPE_CHECKING:``
blocks) has no cycle, so each module can import what it needs at the top.
"""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "maskquorum"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text(), filename=f"{module}.py")


def _is_type_checking(node: ast.If) -> bool:
    test = node.test
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")


def _sibling(node: ast.ImportFrom) -> str:
    """The sibling a relative import names: "core" for ``from .core import x``,
    the package itself for ``from . import x``."""
    return node.module.split(".")[0] if node.module else "__init__"


class _ModuleLevelImports(ast.NodeVisitor):
    """Collects the siblings a module imports when it is imported: function
    bodies and ``if TYPE_CHECKING:`` blocks are skipped."""

    def __init__(self):
        self.found = set()

    def visit_FunctionDef(self, node):
        pass

    visit_AsyncFunctionDef = visit_Lambda = visit_FunctionDef

    def visit_If(self, node):
        body = [] if _is_type_checking(node) else node.body
        for child in [*body, *node.orelse]:
            self.visit(child)

    def visit_ImportFrom(self, node):
        if node.level == 1:
            self.found.add(_sibling(node))


def _module_level_siblings(module: str) -> set[str]:
    visitor = _ModuleLevelImports()
    visitor.visit(_tree(module))
    return visitor.found


@pytest.mark.parametrize("module", MODULES)
def test_no_relative_import_inside_a_function(module):
    deferred = [
        f"{module}.py:{inner.lineno}"
        for node in ast.walk(_tree(module))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for inner in ast.walk(node)
        if isinstance(inner, ast.ImportFrom) and inner.level >= 1
    ]
    assert deferred == []


def test_sibling_import_graph_is_acyclic():
    graph = {module: _module_level_siblings(module) for module in MODULES}
    try:
        order = list(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        pytest.fail(f"sibling imports form a cycle: {exc.args[1]}")
    assert set(order) >= set(MODULES)


def test_availability_imports_no_later_layer():
    assert _module_level_siblings("availability") & {"constructions", "analysis", "cli"} == set()


def test_layers_import_in_one_order():
    # errors and _bitops, then core, paths, availability, constructions,
    # analysis and cli: each imports only modules before it.
    layers = ["errors", "_bitops", "core", "paths", "availability", "constructions",
              "analysis", "cli"]
    for i, module in enumerate(layers):
        later = set(layers[i:])
        assert _module_level_siblings(module) & later == set(), module
