"""Every import in the package is used: each module's source is read with
:mod:`ast`, and a name an import binds must occur somewhere else in it."""

import ast
from pathlib import Path

import pytest

import scatterlab

SRC = Path(scatterlab.__file__).resolve().parent


def _annotation_names(node: ast.AST) -> set[str]:
    """Names read by an annotation, including those inside a quoted one."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names |= _annotation_names(ast.parse(sub.value, mode="eval"))
    return names


def unused_imports(tree: ast.AST) -> list[str]:
    """The names bound by the imports of ``tree`` that nothing reads."""
    bound, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            used |= _annotation_names(node.returns)
    return sorted(bound - used)


def test_the_check_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os.path\nfrom typing import List, Set\nx: 'List[int]' = []\n"
    assert unused_imports(ast.parse(source)) == ["Set", "os"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_unused_import(path):
    assert unused_imports(ast.parse(path.read_text())) == []
