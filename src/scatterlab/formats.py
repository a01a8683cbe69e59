"""Shared on-disk formats.

Everything is JSON with canonically sorted lists, so fixture files diff
cleanly and repeated runs are byte-identical.  Structural validation happens
on load and raises :class:`ParseError`; a pair function's ranges are checked
by :meth:`PairFunction.build`, which raises :class:`BadArgument`, and semantic
validity of a condition is a separate gate
(:func:`scatterlab.poset.validate_condition`).
"""

from __future__ import annotations

import json
from typing import Any

from .errors import ParseError
from .generic import Goal, NbhdGoal, PointGoal, SpaceModel
from .poset import Condition
from .universe import PairFunction, check_kappa


def to_text(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _is_int(x: Any) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _as_int_list(value: Any, what: str, ascending: bool = True) -> list[int]:
    if not isinstance(value, list) or not all(_is_int(x) for x in value):
        raise ParseError(f"{what} must be a list of integers, got {value!r}")
    if ascending and value != sorted(set(value)):
        raise ParseError(f"{what} must be strictly ascending, got {value}")
    return value


def _kappa(value: Any) -> int:
    if not _is_int(value):
        raise ParseError(f"kappa must be a positive integer, got {value!r}")
    return check_kappa(value)


def _point_sets(value: Any, key: str) -> dict[int, frozenset[int]]:
    """An ``h`` or ``H`` list of ``[point, [members...]]`` pairs, one per point."""
    if not isinstance(value, list):
        raise ParseError(f"'{key}' must be a list of [point, [members...]] pairs")
    out: dict[int, frozenset[int]] = {}
    for item in value:
        if not (isinstance(item, list) and len(item) == 2 and _is_int(item[0])):
            raise ParseError(f"malformed {key} entry {item!r}")
        if item[0] in out:
            raise ParseError(f"duplicate {key} entry at {item[0]}")
        out[item[0]] = frozenset(_as_int_list(item[1], f"{key} value at {item[0]}"))
    return out


def _pair_sets(value: Any, key: str) -> dict[tuple[int, int], frozenset[int]]:
    """An ``i`` or ``f`` list of ``[xi, eta, [members...]]`` triples, one per pair ``xi < eta``."""
    if not isinstance(value, list):
        raise ParseError(f"'{key}' must be a list of [xi, eta, [members...]] triples")
    out: dict[tuple[int, int], frozenset[int]] = {}
    for item in value:
        if not (isinstance(item, list) and len(item) == 3 and _is_int(item[0]) and _is_int(item[1])):
            raise ParseError(f"malformed {key} entry {item!r}")
        x, y, members = item
        if not x < y:
            raise ParseError(f"{key} entry needs xi < eta, got {item!r}")
        if (x, y) in out:
            raise ParseError(f"duplicate {key} entry at ({x},{y})")
        out[(x, y)] = frozenset(_as_int_list(members, f"{key} value at ({x},{y})"))
    return out


def _loads(text: str, what: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{what}: invalid JSON ({exc})") from exc


def pair_function_doc(f: PairFunction) -> dict:
    entries = [
        [a, b, sorted(v)]
        for (a, b), v in sorted(f.values.items())
        if v
    ]
    return {"kappa": f.kappa, "f": entries}


def dump_pair_function(f: PairFunction) -> str:
    return to_text(pair_function_doc(f))


def load_pair_function(text: str) -> PairFunction:
    doc = _loads(text, "pair function")
    if not isinstance(doc, dict) or set(doc) != {"kappa", "f"}:
        raise ParseError("pair function document needs exactly the keys 'kappa' and 'f'")
    kappa = _kappa(doc["kappa"])
    entries = _pair_sets(doc["f"], "f")
    if list(entries) != sorted(entries):
        raise ParseError("f entries must be in ascending (xi, eta) order")
    return PairFunction.build(kappa, entries)


def dump_condition(p: Condition) -> str:
    return to_text(
        {
            "a": list(p.a),
            "h": [[xi, sorted(p.h[xi])] for xi in p.a],
            "i": [[x, y, sorted(v)] for (x, y), v in sorted(p.i.items())],
        }
    )


def load_condition(text: str) -> Condition:
    doc = _loads(text, "condition")
    if not isinstance(doc, dict) or set(doc) != {"a", "h", "i"}:
        raise ParseError("condition document needs exactly the keys 'a', 'h' and 'i'")
    return Condition(_as_int_list(doc["a"], "'a'"), _point_sets(doc["h"], "h"), _pair_sets(doc["i"], "i"))


def dump_space(space: SpaceModel) -> str:
    return to_text(
        {
            "kappa": space.kappa,
            "H": [[alpha, sorted(space.H[alpha])] for alpha in space.carrier],
            "i": [[x, y, sorted(v)] for (x, y), v in sorted(space.i.items())],
        }
    )


def load_space(text: str) -> SpaceModel:
    doc = _loads(text, "space")
    if not isinstance(doc, dict) or set(doc) != {"kappa", "H", "i"}:
        raise ParseError("space document needs exactly the keys 'kappa', 'H' and 'i'")
    kappa = _kappa(doc["kappa"])
    H = _point_sets(doc["H"], "H")
    if set(H) != set(range(kappa)):
        raise ParseError("'H' must list every carrier ordinal exactly once")
    i = _pair_sets(doc["i"], "i")
    carrier = frozenset(range(kappa))
    for alpha, members in H.items():
        if not members <= carrier:
            raise ParseError(f"H value at {alpha} leaves the carrier 0..{kappa - 1}")
    for (x, y), members in i.items():
        if not {x, y} | members <= carrier:
            raise ParseError(f"i entry at ({x},{y}) leaves the carrier 0..{kappa - 1}")
    return SpaceModel(kappa, H, i)


def dump_schedule(goals: list[Goal]) -> str:
    out: list[dict] = []
    for goal in goals:
        if isinstance(goal, PointGoal):
            out.append({"point": goal.alpha})
        elif isinstance(goal, NbhdGoal):
            out.append({"nbhd": goal.as_entry()})
        else:
            raise ParseError(f"unknown goal {goal!r}")
    return to_text(out)


def load_schedule(text: str) -> list[Goal]:
    doc = _loads(text, "schedule")
    if not isinstance(doc, list):
        raise ParseError("schedule must be a list of goal entries")
    goals: list[Goal] = []
    for item in doc:
        if not isinstance(item, dict) or len(item) != 1:
            raise ParseError(f"malformed schedule entry {item!r}")
        if "point" in item:
            if not _is_int(item["point"]):
                raise ParseError(f"point goal must be an integer, got {item!r}")
            goals.append(PointGoal(item["point"]))
        elif "nbhd" in item:
            body = item["nbhd"]
            if not isinstance(body, dict) or set(body) != {"beta", "b", "Z"}:
                raise ParseError(f"nbhd goal needs keys beta, b, Z: {item!r}")
            if not _is_int(body["beta"]):
                raise ParseError(f"nbhd beta must be an integer: {item!r}")
            goals.append(
                NbhdGoal(
                    body["beta"],
                    frozenset(_as_int_list(body["b"], "nbhd b")),
                    frozenset(_as_int_list(body["Z"], "nbhd Z")),
                )
            )
        else:
            raise ParseError(f"schedule entry must be 'point' or 'nbhd': {item!r}")
    return goals
