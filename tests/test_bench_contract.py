"""The names the benchmark under ``bench/`` wraps or calls still resolve.

``bench/tracing.py`` wraps module functions and ``PairFunction`` methods by
name, and ``bench/workloads.py`` calls the library through module
attributes.  Deleting or renaming one of them breaks the benchmark, so this
test makes it break the test suite first.  It reads ``bench/`` and imports
none of it.
"""

import ast
import importlib
from pathlib import Path

import pytest

from scatterlab.universe import PairFunction

BENCH = Path(__file__).resolve().parent.parent / "bench"
WORKLOAD_MODULES = {"amalgam", "cli", "generic", "poset", "sampling", "universe"}


def _assigned(path: Path, name: str):
    """The literal assigned to the module-level ``name`` in ``path``."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == name for t in targets):
                return ast.literal_eval(node.value)
    raise AssertionError(f"{path.name} assigns no {name}")


def _workload_names() -> list[tuple[str, str]]:
    """Every ``module.attr`` that ``workloads.py`` reads on a scatterlab module."""
    tree = ast.parse((BENCH / "workloads.py").read_text())
    return sorted({
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in WORKLOAD_MODULES
    })


TRACED = [(module, attr) for _, module, attr in _assigned(BENCH / "tracing.py", "FUNCTIONS")]
METHODS = [attr for _, attr, _ in _assigned(BENCH / "tracing.py", "METHODS")]
CALLED = _workload_names()


@pytest.mark.parametrize("module, attr", sorted(set(TRACED + CALLED)), ids=lambda x: x)
def test_module_attribute_resolves(module, attr):
    assert hasattr(importlib.import_module(f"scatterlab.{module}"), attr)


@pytest.mark.parametrize("attr", METHODS)
def test_pair_function_method_resolves(attr):
    assert hasattr(PairFunction, attr)


def test_every_module_is_read():
    assert {module for module, _ in CALLED} == WORKLOAD_MODULES
