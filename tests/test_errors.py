"""The package has one error contract.

Every exception class is used, the library raises no bare ``ValueError``
and swallows nothing with ``except Exception``, and ``scatterlab`` maps each
class to one exit code with one line on stderr.  The first two checks read
the source of the package with :mod:`ast`.
"""

import ast
import inspect
import json
from pathlib import Path

import pytest

from scatterlab import cli, errors
from scatterlab.errors import GoalUnsatisfiable, NotGoodTwins, ScatterlabError, StuckNoFreshPoint

SRC = Path(errors.__file__).resolve().parent
TREES = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
CLASSES = [
    cls for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, ScatterlabError) and cls.__module__ == errors.__name__
]
FAILURES = {GoalUnsatisfiable, NotGoodTwins, StuckNoFreshPoint}


def _names(node) -> set[str]:
    """The class names in a ``raise`` or ``except`` expression."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Tuple):
        return set().union(*(_names(elt) for elt in node.elts))
    return {node.id} if isinstance(node, ast.Name) else set()


def _used(kind: type) -> dict[str, set[str]]:
    """Per module, the class names that its ``raise`` statements (``kind`` is
    ``ast.Raise``) or its ``except`` clauses (``ast.ExceptHandler``) name."""
    out = {}
    for module, tree in TREES.items():
        nodes = [node for node in ast.walk(tree) if isinstance(node, kind)]
        out[module] = set().union(*(_names(node.exc if kind is ast.Raise else node.type) for node in nodes))
    return out


RAISED = _used(ast.Raise)
CAUGHT = _used(ast.ExceptHandler)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_every_class_is_raised_or_caught(cls):
    users = [module for module in TREES if cls.__name__ in RAISED[module] | CAUGHT[module]]
    assert users, f"nothing in src/ raises or catches {cls.__name__}"


@pytest.mark.parametrize("module", sorted(TREES))
def test_no_bare_value_error_and_no_catch_all(module):
    assert "ValueError" not in RAISED[module]
    assert "Exception" not in CAUGHT[module]


def _instance(cls: type) -> ScatterlabError:
    return cls(["3 (domains not a good pair)"]) if cls is NotGoodTwins else cls("refused on purpose")


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_main_maps_each_class_to_one_exit_code(cls, monkeypatch, capsys):
    exc = _instance(cls)

    def refuse(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_gen_f", refuse)
    code = cli.main(["gen-f"])
    captured = capsys.readouterr()
    prefix, expected = ("failure", cli.EXIT_FAIL) if cls in FAILURES else ("error", cli.EXIT_INPUT)
    assert code == expected
    assert (captured.out, captured.err) == ("", f"{prefix}: {exc}\n")


@pytest.mark.parametrize(
    "schedule, named",
    [
        ([{"point": True}], "point goal must be an integer"),
        ([{"point": 0}, {"nbhd": {"beta": True, "b": [], "Z": [0]}}], "nbhd beta must be an integer"),
    ],
    ids=["point", "nbhd-beta"],
)
def test_boolean_schedule_ordinal_is_an_input_error(schedule, named, tmp_path, capsys):
    f = tmp_path / "f.json"
    f.write_text(json.dumps({"kappa": 4, "f": []}))
    path = tmp_path / "schedule.json"
    path.write_text(json.dumps(schedule))
    out = tmp_path / "space.json"
    code = cli.main(["sample-space", "--f", str(f), "--schedule", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_INPUT
    assert err.startswith(f"error: {named}") and err.count("\n") == 1
    assert not out.exists()
