"""Command-line front end.

Every command is deterministic given identical flags, inputs and seed.
Exit codes: 0 success, 1 property or validity failure, 2 input error.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path
from typing import Optional, Sequence

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


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def _read(path: str) -> tuple[str, str]:
    p = Path(path)
    try:
        return p.read_text(), _digest(p)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _write(path: Optional[str], text: str, quiet: bool) -> None:
    if path:
        try:
            Path(path).write_text(text)
        except OSError as exc:
            raise ParseError(f"cannot write {path}: {exc}") from exc
    elif not quiet:
        sys.stdout.write(text)


def _emit(doc: dict, quiet: bool) -> None:
    if not quiet:
        sys.stdout.write(formats.to_text(doc))


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


def cmd_gen_f(args) -> int:
    kappa = universe.check_kappa(args.kappa)
    f = universe.random_pair_function(kappa, args.density, args.seed)
    _write(args.out, formats.dump_pair_function(f), args.quiet)
    return EXIT_OK


def cmd_validate(args) -> int:
    ftext, fdig = _read(args.f)
    ctext, cdig = _read(args.cond)
    f = formats.load_pair_function(ftext)
    p = formats.load_condition(ctext)
    report = poset.validate_condition(f, p)
    _emit(
        {
            "command": "validate",
            "inputs": {"f": fdig, "cond": cdig},
            "valid": report.ok,
            "violations": [
                {"clause": v.clause, "at": list(v.at), "detail": v.detail}
                for v in report.violations
            ],
        },
        args.quiet,
    )
    return EXIT_OK if report.ok else EXIT_FAIL


def _twin_inputs(args) -> tuple[universe.PairFunction, poset.Condition, poset.Condition, dict]:
    """The pair function and the conditions ``--p`` and ``--q``, each checked
    valid over it, plus the input digests."""
    ftext, fdig = _read(args.f)
    ptext, pdig = _read(args.p)
    qtext, qdig = _read(args.q)
    f = formats.load_pair_function(ftext)
    p = formats.load_condition(ptext)
    q = formats.load_condition(qtext)
    for flag, cond in (("--p", p), ("--q", q)):
        clauses = poset.validate_condition(f, cond).clauses()
        if clauses:
            raise ParseError(f"{flag} is not a valid condition over --f: clauses {', '.join(clauses)} fail")
    return f, p, q, {"f": fdig, "p": pdig, "q": qdig}


def cmd_twins(args) -> int:
    f, p, q, inputs = _twin_inputs(args)
    witness = amalgam.are_twins(p, q)
    clauses = amalgam.good_twin_violations(f, p, q)
    _emit(
        {
            "command": "twins",
            "inputs": inputs,
            "twins": witness is not None,
            "isomorphism": [list(e) for e in witness.e] if witness else None,
            "good_twins": not clauses,
            "failed_clauses": clauses,
        },
        args.quiet,
    )
    return EXIT_OK if not clauses else EXIT_FAIL


def cmd_amalgamate(args) -> int:
    f, p, q, inputs = _twin_inputs(args)
    try:
        r = amalgam.amalgamate(f, p, q)
    except NotGoodTwins as exc:
        _emit(
            {
                "command": "amalgamate",
                "inputs": inputs,
                "good_twins": False,
                "failed_clauses": list(exc.clauses),
            },
            args.quiet,
        )
        return EXIT_FAIL
    _write(args.out, formats.dump_condition(r), quiet=True)
    _emit(
        {
            "command": "amalgamate",
            "inputs": inputs,
            "good_twins": True,
            "result_valid": poset.validate_condition(f, r).ok,
            "below_p": poset.leq(r, p),
            "below_q": poset.leq(r, q),
            "result": None if args.out else formats.dump_condition(r).strip(),
        },
        args.quiet,
    )
    return EXIT_OK


def cmd_close(args) -> int:
    ftext, fdig = _read(args.f)
    f = formats.load_pair_function(ftext)
    base = _int_set(args.base)
    partners = _int_set(args.partners)
    res = universe.pair_closure(f, base, partners)
    _emit(
        {
            "command": "close",
            "inputs": {"f": fdig, "base": sorted(base), "partners": sorted(partners)},
            "closure": sorted(res.closure),
            "iterations": res.iterations,
        },
        args.quiet,
    )
    return EXIT_OK


def cmd_lower_bound(args) -> int:
    ftext, fdig = _read(args.f)
    f = formats.load_pair_function(ftext)
    groups = _int_set_list(args.groups)
    bound = _int_set(args.bound)
    found = universe.search_common_lower_bound(f, groups, bound, args.n)
    _emit(
        {
            "command": "lower-bound",
            "inputs": {"f": fdig, "groups": [sorted(g) for g in groups], "bound": sorted(bound), "n": args.n},
            "indices": found,
        },
        args.quiet,
    )
    return EXIT_OK


def _space_report(space: generic.SpaceModel) -> tuple[dict, bool]:
    """The structural report on a space, and whether its checks all pass."""
    max_bad = generic.max_invariant_violations(space)
    star_ok, star_bad = generic.check_star_containment(space)
    loc = generic.check_loc_comp_hypothesis(space)
    compact = all(generic.compactness_by_subbase(space, alpha) for alpha in space.carrier)
    ranks = generic.cantor_bendixson(space)
    histogram = {str(rank): len(points) for rank, points in generic.cb_levels(ranks).items()}
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


def cmd_sample_space(args) -> int:
    ftext, fdig = _read(args.f)
    stext, sdig = _read(args.schedule)
    f = formats.load_pair_function(ftext)
    goals = formats.load_schedule(stext)
    kappa = args.kappa if args.kappa is not None else f.kappa
    sample = generic.sample_filter(f, universe.check_kappa(kappa), goals, args.seed)
    space = generic.assemble_space(sample)
    _write(args.out, formats.dump_space(space), quiet=True)
    report, checks_ok = _space_report(space)
    _emit(
        {
            "command": "sample-space",
            "inputs": {"f": fdig, "schedule": sdig, "kappa": kappa},
            "seed": args.seed,
            "chain_length": len(sample.chain),
            "goals_hit": len(sample.schedule_log),
            **report,
        },
        args.quiet,
    )
    return EXIT_OK if checks_ok else EXIT_FAIL


def cmd_check_space(args) -> int:
    stext, sdig = _read(args.space)
    space = formats.load_space(stext)
    report, checks_ok = _space_report(space)
    _emit({"command": "check-space", "inputs": {"space": sdig}, **report}, args.quiet)
    return EXIT_OK if checks_ok else EXIT_FAIL


def cmd_fu_sim(args) -> int:
    stext, sdig = _read(args.space)
    space = formats.load_space(stext)
    a_set = _int_set(args.A)
    schedule = _int_set_list(args.blocks)
    res = generic.fu_simulate(space, a_set, args.alpha, schedule, args.seed)
    suffix_ok = generic.suffix_convergence(space, args.alpha, res.steps)
    _emit(
        {
            "command": "fu-sim",
            "inputs": {"space": sdig, "A": sorted(a_set), "alpha": args.alpha,
                       "blocks": [sorted(c) for c in schedule]},
            "seed": args.seed,
            "acquired": list(res.points),
            "steps": [
                {"C": sorted(step.C), "acquired": step.acquired} for step in res.steps
            ],
            "suffix_convergence": suffix_ok,
        },
        args.quiet,
    )
    return EXIT_OK if suffix_ok else EXIT_FAIL


def cmd_props(args) -> int:
    f = None
    inputs: dict = {"suite": args.suite}
    if args.f:
        ftext, fdig = _read(args.f)
        f = formats.load_pair_function(ftext)
        inputs["f"] = fdig
    else:
        inputs["f"] = "random"
        inputs["kappa"] = args.kappa
        inputs["density"] = args.density
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
    _emit(report.as_dict(), args.quiet)
    return EXIT_OK if report.ok else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scatterlab",
        description="Finite conditions, their amalgamations, and the induced topology.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out=False):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--quiet", action="store_true")
        if out:
            p.add_argument("--out", default=None)

    p = sub.add_parser("gen-f", help="generate a random pair function")
    p.add_argument("--kappa", type=int, default=16)
    p.add_argument("--density", type=float, default=0.5)
    common(p, out=True)
    p.set_defaults(fn=cmd_gen_f)

    p = sub.add_parser("validate", help="validate a condition file")
    p.add_argument("--f", required=True)
    p.add_argument("--cond", required=True)
    common(p)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("twins", help="check the twin and good-twin clauses")
    p.add_argument("--f", required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    common(p)
    p.set_defaults(fn=cmd_twins)

    p = sub.add_parser("amalgamate", help="amalgamate two good twins")
    p.add_argument("--f", required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    common(p, out=True)
    p.set_defaults(fn=cmd_amalgamate)

    p = sub.add_parser("close", help="close a set under pair-function values")
    p.add_argument("--f", required=True)
    p.add_argument("--base", required=True, help="comma-separated ordinals")
    p.add_argument("--partners", default="", help="comma-separated ordinals")
    common(p)
    p.set_defaults(fn=cmd_close)

    p = sub.add_parser("lower-bound", help="search groups pairwise tied over a bound set")
    p.add_argument("--f", required=True)
    p.add_argument("--groups", required=True, help="pipe-separated comma lists, e.g. '3|4,5|6'")
    p.add_argument("--bound", default="", help="comma-separated ordinals")
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(fn=cmd_lower_bound)

    p = sub.add_parser("sample-space", help="hit a goal schedule and assemble the space")
    p.add_argument("--f", required=True)
    p.add_argument("--schedule", required=True)
    p.add_argument("--kappa", type=int, default=None)
    common(p, out=True)
    p.set_defaults(fn=cmd_sample_space)

    p = sub.add_parser("check-space", help="run the structural checks on a space file")
    p.add_argument("--space", required=True)
    common(p)
    p.set_defaults(fn=cmd_check_space)

    p = sub.add_parser("fu-sim", help="simulate convergence-forcing acquisitions")
    p.add_argument("--space", required=True)
    p.add_argument("--A", required=True, help="comma-separated point pool")
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--blocks", default="", help="pipe-separated comma lists of avoided indices")
    common(p)
    p.set_defaults(fn=cmd_fu_sim)

    p = sub.add_parser("props", help="run a property suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--f", default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--kappa", type=int, default=suites.DEFAULT_KAPPA)
    p.add_argument("--density", type=float, default=suites.DEFAULT_DENSITY)
    common(p)
    p.set_defaults(fn=cmd_props)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (GoalUnsatisfiable, NotGoodTwins, StuckNoFreshPoint) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except ScatterlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
