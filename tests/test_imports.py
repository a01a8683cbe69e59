"""Every import and every private name in the package is used: each
module's source is read with :mod:`ast`, a name an import binds must occur
somewhere else in it, and a module-level ``_name`` must be read outside its
own definition."""

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


def _reads(node: ast.AST) -> set[str]:
    """Names that ``node`` reads, including those in quoted annotations."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, (ast.arg, ast.AnnAssign)) and sub.annotation is not None:
            names |= _annotation_names(sub.annotation)
        elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and sub.returns is not None:
            names |= _annotation_names(sub.returns)
    return names


def orphaned_private_names(tree: ast.Module) -> list[str]:
    """The module-level ``_name`` defs, classes and assignments of ``tree``
    that nothing outside their own definition reads."""
    defined, read = set(), set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(stmt.name)
            read |= _reads(stmt) - {stmt.name}
            continue
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            for target in stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]:
                defined.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
        read |= _reads(stmt)
    return sorted(name for name in defined - read if name.startswith("_") and not name.startswith("__"))


def test_the_check_finds_an_orphaned_private_name():
    source = (
        "_used, _orphan = 1, 2\n"
        "_ORPHAN: int = 3\n"
        "def _recursive(n):\n    return _recursive(n - 1)\n"
        "class _Quoted:\n    pass\n"
        "class _Unread:\n    pass\n"
        "def public() -> '_Quoted':\n    return _used + _later()\n"
        "def _later():\n    return 0\n"
        "__all__ = ['public']\n"
    )
    assert orphaned_private_names(ast.parse(source)) == ["_ORPHAN", "_Unread", "_orphan", "_recursive"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_orphaned_private_name(path):
    assert orphaned_private_names(ast.parse(path.read_text())) == []
