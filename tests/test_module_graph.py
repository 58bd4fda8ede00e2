"""The package's imports run one way: ``errors`` and ``kernels`` first, then
``stats``, ``oracle`` and ``tree``, then ``reconstruction`` and the modules
built on it.  ``tree`` holds only the ``CellId`` view at the API boundary,
so nothing below ``reconstruction`` reaches it, and it reaches only ``kernels``.
Outside ``tree``, ``CellId``s are built only by ``threshold_subtree``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rectree"


def package_imports(module: str) -> set[str]:
    """The rectree modules that ``module`` names in ``from .X import ...`` or ``from . import X``."""
    found = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module] if node.module else [alias.name for alias in node.names])
    return found


def test_the_reader_sees_both_forms():
    assert {"kernels", "errors", "stats", "tree"} <= package_imports("reconstruction")


@pytest.mark.parametrize("module", ["errors", "kernels", "stats", "oracle"])
def test_the_table_side_imports_nothing_from_tree(module):
    assert "tree" not in package_imports(module)


def test_tree_imports_only_kernels():
    assert package_imports("tree") == {"kernels"}


def cell_builders(module: str) -> set[str]:
    """The functions and classes of ``module`` that call ``CellId`` or ``cells_from_codes``."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            elif isinstance(child, ast.Call):
                name = getattr(child.func, "id", getattr(child.func, "attr", None))
                if name in ("CellId", "cells_from_codes"):
                    found.add(scope)
            visit(child, inner)

    visit(ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8")), module)
    return found


def test_cells_are_built_only_in_tree_and_threshold_subtree():
    builders = set().union(*(cell_builders(path.stem) for path in sorted(SRC.glob("*.py"))
                             if path.stem != "tree"))
    assert builders == {"reconstruction.threshold_subtree"}
