"""Command-line front end.

Every command is deterministic given identical flags, inputs and seed.
Exit codes: 0 success, 1 property or validity failure, 2 input error.

Each ``cmd_*`` returns ``(report, ok)``: the document to print, or ``None``,
and whether its own checks passed.  It writes ``--out`` itself; :func:`main`
alone prints, honours ``--quiet`` and picks the exit code.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

from . import amalgam, formats, generic, poset, suites, universe
from .errors import (
    GoalUnsatisfiable,
    NotGoodTwins,
    ParseError,
    ScatterlabError,
    StuckNoFreshPoint,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2

Outcome = tuple[Optional[dict], bool]


def _load(path: str, parse: Callable[[str], Any]) -> tuple[Any, str]:
    """The file at ``path`` parsed by ``parse``, and the digest reports echo."""
    try:
        data = Path(path).read_bytes()
        text = data.decode()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return parse(text), hashlib.sha256(data).hexdigest()[:16]


def _write(path: Optional[str], text: str) -> None:
    if path:
        try:
            Path(path).write_text(text)
        except OSError as exc:
            raise ParseError(f"cannot write {path}: {exc}") from exc


def _int_set(text: str) -> frozenset[int]:
    text = text.strip()
    if not text:
        return frozenset()
    try:
        return frozenset(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ParseError(f"expected comma-separated integers, got {text!r}") from exc


def _int_set_list(text: str) -> list[frozenset[int]]:
    text = text.strip()
    if not text:
        return []
    return [_int_set(part) for part in text.split("|")]


def cmd_gen_f(args) -> Outcome:
    f = universe.random_pair_function(args.kappa, args.density, args.seed)
    if not args.out:
        return formats.pair_function_doc(f), True
    _write(args.out, formats.dump_pair_function(f))
    return None, True


def cmd_validate(args) -> Outcome:
    f, fdig = _load(args.f, formats.load_pair_function)
    p, cdig = _load(args.cond, formats.load_condition)
    report = poset.validate_condition(f, p)
    return {
        "command": "validate",
        "inputs": {"f": fdig, "cond": cdig},
        "valid": report.ok,
        "violations": [
            {"clause": v.clause, "at": list(v.at), "detail": v.detail}
            for v in report.violations
        ],
    }, report.ok


def _twin_inputs(args) -> tuple[universe.PairFunction, poset.Condition, poset.Condition, dict]:
    """The pair function and the conditions ``--p`` and ``--q``, each checked
    valid over it, plus the input digests."""
    f, fdig = _load(args.f, formats.load_pair_function)
    p, pdig = _load(args.p, formats.load_condition)
    q, qdig = _load(args.q, formats.load_condition)
    for flag, cond in (("--p", p), ("--q", q)):
        clauses = poset.validate_condition(f, cond).clauses()
        if clauses:
            raise ParseError(f"{flag} is not a valid condition over --f: clauses {', '.join(clauses)} fail")
    return f, p, q, {"f": fdig, "p": pdig, "q": qdig}


def cmd_twins(args) -> Outcome:
    f, p, q, inputs = _twin_inputs(args)
    witness = amalgam.are_twins(p, q)
    clauses = amalgam.good_twin_violations(f, p, q)
    return {
        "command": "twins",
        "inputs": inputs,
        "twins": witness is not None,
        "isomorphism": [list(e) for e in witness] if witness is not None else None,
        "good_twins": not clauses,
        "failed_clauses": clauses,
    }, not clauses


def cmd_amalgamate(args) -> Outcome:
    f, p, q, inputs = _twin_inputs(args)
    report = {"command": "amalgamate", "inputs": inputs}
    try:
        r = amalgam.amalgamate(f, p, q)
    except NotGoodTwins as exc:
        return {**report, "good_twins": False, "failed_clauses": list(exc.clauses)}, False
    _write(args.out, formats.dump_condition(r))
    return {
        **report,
        "good_twins": True,
        "result_valid": poset.validate_condition(f, r).ok,
        "below_p": poset.leq(r, p),
        "below_q": poset.leq(r, q),
        "result": None if args.out else formats.dump_condition(r).strip(),
    }, True


def cmd_close(args) -> Outcome:
    f, fdig = _load(args.f, formats.load_pair_function)
    base = _int_set(args.base)
    partners = _int_set(args.partners)
    res = universe.pair_closure(f, base, partners)
    return {
        "command": "close",
        "inputs": {"f": fdig, "base": sorted(base), "partners": sorted(partners)},
        "closure": sorted(res.closure),
        "iterations": res.iterations,
    }, True


def cmd_lower_bound(args) -> Outcome:
    f, fdig = _load(args.f, formats.load_pair_function)
    groups = _int_set_list(args.groups)
    bound = _int_set(args.bound)
    found = universe.search_common_lower_bound(f, groups, bound, args.n)
    return {
        "command": "lower-bound",
        "inputs": {"f": fdig, "groups": [sorted(g) for g in groups], "bound": sorted(bound), "n": args.n},
        "indices": found,
    }, True


def _space_report(space: generic.SpaceModel) -> Outcome:
    """The structural report on a space, and whether its checks all pass."""
    max_bad = generic.max_invariant_violations(space)
    star_ok, star_bad = generic.check_star_containment(space)
    loc = generic.check_loc_comp_hypothesis(space)
    compact = all(generic.compactness_by_subbase(space, alpha) for alpha in space.carrier)
    ranks = generic.cantor_bendixson(space)
    histogram = {str(rank): n for rank, n in sorted(Counter(ranks.values()).items())}
    report = {
        "max_invariant_violations": max_bad,
        "star_containment": star_ok,
        "star_containment_failures": star_bad,
        "loc_comp_hypothesis": loc,
        "subbase_compactness": compact,
        "coherent": generic.is_coherent(space),
        "cb_rank_histogram": histogram,
    }
    return report, not max_bad and star_ok and loc and compact


def cmd_sample_space(args) -> Outcome:
    f, fdig = _load(args.f, formats.load_pair_function)
    goals, sdig = _load(args.schedule, formats.load_schedule)
    kappa = args.kappa if args.kappa is not None else f.kappa
    sample = generic.sample_filter(f, universe.check_kappa(kappa), goals, args.seed)
    space = generic.assemble_space(sample)
    _write(args.out, formats.dump_space(space))
    report, ok = _space_report(space)
    return {
        "command": "sample-space",
        "inputs": {"f": fdig, "schedule": sdig, "kappa": kappa},
        "seed": args.seed,
        "chain_length": len(sample.chain),
        "goals_hit": len(sample.schedule_log),
        **report,
    }, ok


def cmd_check_space(args) -> Outcome:
    space, sdig = _load(args.space, formats.load_space)
    report, ok = _space_report(space)
    return {"command": "check-space", "inputs": {"space": sdig}, **report}, ok


def cmd_fu_sim(args) -> Outcome:
    space, sdig = _load(args.space, formats.load_space)
    a_set = _int_set(args.A)
    schedule = _int_set_list(args.blocks)
    res = generic.fu_simulate(space, a_set, args.alpha, schedule, args.seed)
    suffix_ok = generic.suffix_convergence(space, args.alpha, res.steps)
    return {
        "command": "fu-sim",
        "inputs": {"space": sdig, "A": sorted(a_set), "alpha": args.alpha,
                   "blocks": [sorted(c) for c in schedule]},
        "seed": args.seed,
        "acquired": list(res.points),
        "steps": [
            {"C": sorted(step.C), "acquired": step.acquired} for step in res.steps
        ],
        "suffix_convergence": suffix_ok,
    }, suffix_ok


def cmd_props(args) -> Outcome:
    f = None
    inputs: dict = {"suite": args.suite}
    if args.f:
        f, inputs["f"] = _load(args.f, formats.load_pair_function)
    else:
        inputs.update(f="random", kappa=args.kappa, density=args.density)
    if args.trials is not None:
        inputs["trials"] = args.trials
    report = suites.run_suite(
        args.suite,
        trials=args.trials,
        seed=args.seed,
        jobs=args.jobs,
        f=f,
        kappa=args.kappa,
        density=args.density,
        inputs=inputs,
    )
    return report.as_dict(), report.ok


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # a bad flag is bad input, reported by main like any other
        raise ParseError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="scatterlab",
        description="Finite conditions, their amalgamations, and the induced topology.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fn, out=False):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--quiet", action="store_true")
        if out:
            p.add_argument("--out", default=None)
        p.set_defaults(fn=fn)

    p = sub.add_parser("gen-f", help="generate a random pair function")
    p.add_argument("--kappa", type=int, default=16)
    p.add_argument("--density", type=float, default=0.5)
    common(p, cmd_gen_f, out=True)

    p = sub.add_parser("validate", help="validate a condition file")
    p.add_argument("--f", required=True)
    p.add_argument("--cond", required=True)
    common(p, cmd_validate)

    for name, fn, out, text in (
        ("twins", cmd_twins, False, "check the twin and good-twin clauses"),
        ("amalgamate", cmd_amalgamate, True, "amalgamate two good twins"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--f", required=True)
        p.add_argument("--p", required=True)
        p.add_argument("--q", required=True)
        common(p, fn, out=out)

    p = sub.add_parser("close", help="close a set under pair-function values")
    p.add_argument("--f", required=True)
    p.add_argument("--base", required=True, help="comma-separated ordinals")
    p.add_argument("--partners", default="", help="comma-separated ordinals")
    common(p, cmd_close)

    p = sub.add_parser("lower-bound", help="search groups pairwise tied over a bound set")
    p.add_argument("--f", required=True)
    p.add_argument("--groups", required=True, help="pipe-separated comma lists, e.g. '3|4,5|6'")
    p.add_argument("--bound", default="", help="comma-separated ordinals")
    p.add_argument("--n", type=int, required=True)
    common(p, cmd_lower_bound)

    p = sub.add_parser("sample-space", help="hit a goal schedule and assemble the space")
    p.add_argument("--f", required=True)
    p.add_argument("--schedule", required=True)
    p.add_argument("--kappa", type=int, default=None)
    common(p, cmd_sample_space, out=True)

    p = sub.add_parser("check-space", help="run the structural checks on a space file")
    p.add_argument("--space", required=True)
    common(p, cmd_check_space)

    p = sub.add_parser("fu-sim", help="simulate convergence-forcing acquisitions")
    p.add_argument("--space", required=True)
    p.add_argument("--A", required=True, help="comma-separated point pool")
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--blocks", default="", help="pipe-separated comma lists of avoided indices")
    common(p, cmd_fu_sim)

    p = sub.add_parser("props", help="run a property suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--f", default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--kappa", type=int, default=suites.DEFAULT_KAPPA)
    p.add_argument("--density", type=float, default=suites.DEFAULT_DENSITY)
    common(p, cmd_props)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command: print its report unless ``--quiet``, and exit 0 when
    its checks pass, 1 when they or the construction fail, 2 on bad input."""
    try:
        args = build_parser().parse_args(argv)
        if [] in vars(args).values():  # argparse turns the value of "--flag=--" into []
            raise ParseError("a flag's value cannot be '--'")
        report, ok = args.fn(args)
    except (GoalUnsatisfiable, NotGoodTwins, StuckNoFreshPoint) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except ScatterlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if report is not None and not args.quiet:
        sys.stdout.write(formats.to_text(report))
    return EXIT_OK if ok else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
