"""Named property suites, runnable from the CLI and from the tests.

Each suite returns per-property pass/fail counts plus replayable witnesses
for every failure.  Randomized suites derive one independent RNG stream per
trial from ``(seed, trial index)``, so reports are identical no matter how
trials are distributed over workers.  A trial counts its checks as it makes
them and returns its own :class:`_Tally`; the suite adds the trial tallies up
in trial order.  A check that passes leaves only a count behind.

:data:`SUITES` declares every suite once: its trial function, its default
trial count, whether it reads a given pair function and the range of
``kappa`` it accepts.  :func:`run_suite` refuses anything outside that entry.
"""

from __future__ import annotations

import hashlib
import os
import random
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import partial
from itertools import combinations, islice
from typing import Callable, Iterable, Iterator, Optional, Sequence

from . import amalgam, generic, poset, sampling, universe
from .errors import BadArgument, EqualSup, HypothesisViolated, NotGoodTwins
from .poset import Condition
from .universe import MAX_KAPPA, PairFunction

# The pair function a suite draws when none is given.
DEFAULT_KAPPA = 16
DEFAULT_DENSITY = 0.5


def derive_seed(seed: int, index: int, salt: str = "") -> int:
    """Stable per-trial seed, independent of process layout."""
    data = f"{seed}:{index}:{salt}".encode()
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "big")


@dataclass
class RunReport:
    command: str
    inputs: dict
    outcome: dict[str, dict[str, int]]
    witnesses: list[dict]
    seed: int
    notes: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(counts["fail"] == 0 for counts in self.outcome.values())

    def as_dict(self) -> dict:
        return asdict(self)


class _Tally:
    """Per-property pass/fail counts plus the witnesses of failures only.

    A witness exists if and only if a check failed.  A trial builds one tally
    with :meth:`hit` and returns it; :meth:`merge_trials` adds trial tallies
    into the suite's tally.  ``notes`` holds counts for the report's notes,
    which trials add up the same way.
    """

    def __init__(self) -> None:
        self.outcome: dict[str, dict[str, int]] = {}
        self.witnesses: list[dict] = []
        self.notes: Counter = Counter()

    def hit(self, prop: str, ok: bool, witness: Optional[dict] = None) -> None:
        slot = self.outcome.setdefault(prop, {"pass": 0, "fail": 0})
        if ok:
            slot["pass"] += 1
        else:
            slot["fail"] += 1
            self.witnesses.append({"property": prop, **(witness or {})})

    def merge_trials(self, trials: Iterable["_Tally"]) -> "_Tally":
        """Add in the tallies of trials ``0, 1, ...``; each witness gains its trial index."""
        for index, trial in enumerate(trials):
            for prop, counts in trial.outcome.items():
                slot = self.outcome.setdefault(prop, {"pass": 0, "fail": 0})
                slot["pass"] += counts["pass"]
                slot["fail"] += counts["fail"]
            for witness in trial.witnesses:
                witness.setdefault("trial", index)
                self.witnesses.append(witness)
            self.notes.update(trial.notes)
        return self

    def sorted_witnesses(self) -> list[dict]:
        return sorted(self.witnesses, key=lambda w: (w.get("trial", -1), w["property"]))


def _workers(jobs: int, tasks: int) -> int:
    """Worker processes for ``tasks`` trials: ``jobs``, but never more than
    there are CPUs or trials."""
    return min(jobs, os.cpu_count() or 1, tasks)


def _pmap(fn: Callable, payloads: Sequence, jobs: int) -> Iterator:
    """``fn`` over ``payloads``, yielded in order as results arrive."""
    workers = _workers(jobs, len(payloads))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            yield from ex.map(fn, payloads, chunksize=max(1, len(payloads) // (4 * workers)))
    else:
        yield from map(fn, payloads)


@dataclass
class SuiteContext:
    seed: int
    f: Optional[PairFunction]
    kappa: int
    density: float


# star-laws ----------------------------------------------------------------

def _star_expected(x: frozenset[int], y: frozenset[int]) -> tuple[int, frozenset[int]]:
    """Independent case analysis; returns (number of applicable cases, value)."""
    cases = []
    if max(x) not in y and max(y) not in x:
        cases.append(x & y)
    if max(x) in y:
        cases.append(x - y)
    if max(y) in x:
        cases.append(y - x)
    return len(cases), cases[0] if cases else frozenset()


def _star_checks(ctx: SuiteContext) -> _Tally:
    tally = _Tally()
    subsets = [frozenset(s) for r in range(1, 7) for s in combinations(range(6), r)]
    for x in subsets:
        for y in subsets:
            if max(x) == max(y):
                try:
                    poset.star(x, y)
                    tally.hit("equal-sup-raises", False, {"x": sorted(x), "y": sorted(y)})
                except EqualSup:
                    tally.hit("equal-sup-raises", True)
                continue
            ncases, expected = _star_expected(x, y)
            got = poset.star(x, y)
            tally.hit("exactly-one-case", ncases == 1, {"x": sorted(x), "y": sorted(y)})
            tally.hit(
                "matches-definition",
                got == expected,
                {"x": sorted(x), "y": sorted(y), "got": sorted(got)},
            )
    return tally


# poset-laws ---------------------------------------------------------------

_POSET_DOMAIN = (0, 1, 2, 3, 4)
_POSET_CAP_PER_DOMAIN = 40


def _poset_laws_trial(ctx: SuiteContext, trial: int) -> _Tally:
    f = ctx.f
    if f is None:
        density = (0.0, 0.3, 0.6, 1.0)[trial % 4]
        f = universe.random_pair_function(len(_POSET_DOMAIN), density, derive_seed(ctx.seed, trial, "poset-f"))
    rng = random.Random(derive_seed(ctx.seed, trial, "poset-rng"))
    tally = _Tally()

    domain = _POSET_DOMAIN[: f.kappa]
    pool: list[Condition] = []
    for r in range(len(domain) + 1):
        for dom in combinations(domain, r):
            pool.extend(islice(sampling.iter_conditions(f, dom), _POSET_CAP_PER_DOMAIN))

    def note(p: Condition, **extra) -> dict:
        return {"a": list(p.a), **extra}

    for p in pool:
        tally.hit("reflexive", poset.leq(p, p), note(p))
        below = list(p.a)
        whole = poset.restrict(p, p.a)
        for r in range(len(below) + 1):
            for b in combinations(below, r):
                rc = poset.restrict(p, b)
                wit = note(p, b=list(b))  # hit copies it, so the checks share it
                bs = frozenset(b)
                criterion = all(v <= bs for v in rc.i.values())
                tally.hit("flag-matches-criterion", rc.is_condition == criterion, wit)
                if b == tuple(below[: len(b)]):
                    tally.hit("initial-segment-is-condition", rc.is_condition, wit)
                valid = poset.validate_condition(f, rc).ok
                tally.hit("flag-iff-valid", rc.is_condition == valid, wit)
                if rc.is_condition:
                    is_below = poset.leq(p, rc)
                    tally.hit("restriction-below", is_below, wit)
                    tally.hit("leq-restricted-agrees", poset.leq_restricted(whole, rc) == is_below, wit)
        # transitivity along nested restriction chains
        for _ in range(3):
            if not p.a:
                break
            b = tuple(sorted(rng.sample(below, rng.randint(0, len(below)))))
            c = tuple(sorted(rng.sample(b, rng.randint(0, len(b))))) if b else ()
            q, rr = poset.restrict(p, b), poset.restrict(p, c)
            if q.is_condition and rr.is_condition:
                qc, rrc = q.as_condition(), rr.as_condition()
                if poset.leq(p, qc) and poset.leq(qc, rrc):
                    tally.hit("transitive", poset.leq(p, rrc), note(p, b=list(b), c=list(c)))

    by_domain: dict[tuple[int, ...], list[Condition]] = {}
    for p in pool:
        by_domain.setdefault(p.a, []).append(p)
    for dom, group in by_domain.items():
        sample = group if len(group) <= 12 else rng.sample(group, 12)
        for p, q in combinations(sample, 2):
            anti = not (poset.leq(p, q) and poset.leq(q, p)) or p == q
            tally.hit("antisymmetric", anti, {"a": list(dom)})
    return tally


# twins-amalgam ------------------------------------------------------------

def _twins_trial(ctx: SuiteContext, trial: int) -> _Tally:
    rng = random.Random(derive_seed(ctx.seed, trial, "twins-rng"))
    f = ctx.f
    if f is None:
        kappa = rng.randint(SUITES["twins-amalgam"].kappa[0], ctx.kappa)
        f = universe.random_pair_function(kappa, ctx.density, derive_seed(ctx.seed, trial, "twins-f"))
    size = rng.randint(0, 6)
    f2, p, q = sampling.good_twin_pair(f, rng, size)
    tally = _Tally()
    wit = {"a": list(p.a), "a2": list(q.a)}
    try:  # amalgamate checks the good-twin clauses: the sampler's verdict too
        r = amalgam.amalgamate(f2, p, q)
    except NotGoodTwins as exc:
        tally.hit("sampler-yields-good-twins", False, wit)
        tally.hit("amalgamation-succeeds", False, {**wit, "clauses": list(exc.clauses)})
        return tally
    tally.hit("sampler-yields-good-twins", True, wit)
    tally.hit("amalgamation-succeeds", True, wit)
    tally.hit("result-valid", poset.validate_condition(f2, r).ok, wit)
    tally.hit("below-left", poset.leq(r, p), wit)
    tally.hit("below-right", poset.leq(r, q), wit)
    tally.hit("symmetric", amalgam.amalgamate(f2, q, p) == r, wit)
    tally.hit("membership-equivalence", amalgam.verify_membership_equiv(p, q, f2), wit)
    tally.hit("merged-h-well-defined", amalgam.g_well_defined(p, q), wit)
    return tally


# insertion ----------------------------------------------------------------

def _insertion_trial(ctx: SuiteContext, trial: int) -> _Tally:
    rng = random.Random(derive_seed(ctx.seed, trial, "insertion-rng"))
    k = rng.choice((1, 2))
    f, s, layout = sampling.insertion_instance(
        rng,
        kappa=ctx.kappa,
        k=k,
        q_size=rng.randint(1, 3),
        extra_points=rng.randint(0, 3),
        density=rng.choice((0.2, 0.5, 0.8)),
    )
    wit = {"a": list(s.a), "k": k, "S": sorted(layout.S), "Q": sorted(layout.Q)}
    tally = _Tally()
    try:
        r = amalgam.insertion_construction(f, s, layout)
    except HypothesisViolated as exc:
        tally.hit("hypotheses-accepted", False, {**wit, "reason": str(exc)})
        return tally
    tally.hit("hypotheses-accepted", True, wit)
    tally.hit("result-valid", poset.validate_condition(f, r).ok, wit)
    s_trace = poset.restrict(s, layout.S)
    tally.hit("(a)-below-s-trace", poset.leq_restricted(r, s_trace), wit)
    qe_trace = poset.restrict(s, layout.Q | layout.E)
    tally.hit("(b)-below-qe-trace", poset.leq_restricted(r, qe_trace), wit)
    c_block = layout.S - poset.h_union(s.h, layout.Q | layout.E)
    tally.hit("(c)-block-inserted", c_block <= r.h[layout.gammas[0]], {**wit, "C": sorted(c_block)})
    se = poset.restrict(s, layout.S | layout.E).as_condition()
    tally.hit("(d)-refines", poset.precedes(se, r), wit)
    return tally


# closure-laws -------------------------------------------------------------

def _pair_closure_trial(ctx: SuiteContext, trial: int) -> _Tally:
    exhaustive = trial < 6
    density = (0.0, 0.5, 1.0)[trial % 3]
    kappa = 5
    f = universe.random_pair_function(kappa, density, derive_seed(ctx.seed, trial, "clf"))
    rng = random.Random(derive_seed(ctx.seed, trial, "clf-rng"))
    tally = _Tally()
    pool = list(range(kappa))
    all_subsets = [frozenset(s) for r in range(kappa + 1) for s in combinations(pool, r)]
    if exhaustive:
        combos = [(k, kp) for k in all_subsets for kp in all_subsets]
    else:
        combos = [(sampling.random_subset(rng, pool), sampling.random_subset(rng, pool)) for _ in range(64)]

    for base, partners in combos:
        res = universe.pair_closure(f, base, partners)
        cl = res.closure
        wit = {"K": sorted(base), "K2": sorted(partners), "density": density}
        tally.hit("contains-base", base <= cl, wit)
        if base:
            tally.hit("max-preserved", max(cl) == max(base), wit)
        else:
            tally.hit("empty-base-empty-closure", cl == frozenset(), wit)
        closed = all(
            f.value(x, y) <= cl
            for x in cl
            for y in (cl | partners)
            if x != y
        )
        tally.hit("closed-under-values", closed, wit)
        again = universe.pair_closure(f, cl, partners).closure
        tally.hit("idempotent", again == cl, wit)
        extras = [e for e in pool if e not in base]
        for e in (extras if exhaustive else extras[:2]):
            bigger = universe.pair_closure(f, base | {e}, partners).closure
            tally.hit("monotone", cl <= bigger, {**wit, "extra": e})
    return tally


def _toy_spaces(kappa: int) -> list[tuple[str, generic.SpaceModel]]:
    nested = {a: frozenset(range(a + 1)) for a in range(kappa)}
    singles = {a: frozenset((a,)) for a in range(kappa)}
    rng = random.Random(7)
    scrambled = {
        a: frozenset(x for x in range(kappa) if rng.random() < 0.4)
        for a in range(kappa)
    }
    indiscrete = {a: frozenset(range(kappa)) for a in range(kappa)}
    return [
        ("nested", generic.SpaceModel(kappa, nested, {})),
        ("singletons", generic.SpaceModel(kappa, singles, {})),
        ("scrambled", generic.SpaceModel(kappa, scrambled, {})),
        ("indiscrete", generic.SpaceModel(kappa, indiscrete, {})),
    ]


def _kuratowski_checks(ctx: SuiteContext) -> _Tally:
    """Kuratowski laws for the induced finite topology, exhaustive at kappa 6."""
    tally = _Tally()
    kappa = 6
    spaces = _toy_spaces(kappa)
    for idx in range(3):
        f = universe.random_pair_function(kappa, 0.6, derive_seed(ctx.seed, idx, "kur-f"))
        space, _, _ = sampling.random_space(f, derive_seed(ctx.seed, idx, "kur-s"), nbhd_goals=4)
        spaces.append((f"sampled-{idx}", space))
    subsets = [frozenset(s) for r in range(kappa + 1) for s in combinations(range(kappa), r)]
    for name, space in spaces:
        table = {ys: generic.closure(space, ys) for ys in subsets}
        wit = {"space": name}
        tally.hit("empty-set-closed", table[frozenset()] == frozenset(), wit)
        for ys in subsets:
            tally.hit("extensive", ys <= table[ys], {**wit, "Y": sorted(ys)})
            tally.hit("idempotent-topological", table[ys] == generic.closure(space, table[ys]), {**wit, "Y": sorted(ys)})
        union_ok = all(table[y | z] == table[y] | table[z] for y in subsets for z in subsets)
        tally.hit("preserves-unions", union_ok, wit)
        mono_ok = all(table[y] <= table[z] for y in subsets for z in subsets if y <= z)
        tally.hit("monotone-topological", mono_ok, wit)
    return tally


# space-checks -------------------------------------------------------------

def _space_trial(ctx: SuiteContext, trial: int) -> _Tally:
    rng = random.Random(derive_seed(ctx.seed, trial, "space-rng"))
    kappa = rng.randint(SUITES["space-checks"].kappa[0], ctx.kappa)
    density = rng.choice((0.2, 0.5, 0.8))
    f = universe.random_pair_function(kappa, density, derive_seed(ctx.seed, trial, "space-f"))
    space, sample, goals = sampling.random_space(f, derive_seed(ctx.seed, trial, "space-s"), nbhd_goals=10)
    wit = {"kappa": kappa, "density": density}
    tally = _Tally()

    tally.hit("max-invariant", not generic.max_invariant_violations(space), wit)
    ok, bad = generic.check_star_containment(space)
    tally.hit("star-containment", ok, {**wit, "pairs": bad})
    loc = generic.check_loc_comp_hypothesis(space)
    tally.hit("loc-comp-hypothesis", loc, wit)
    compact = all(generic.compactness_by_subbase(space, alpha) for alpha in space.carrier)
    tally.hit("subbase-compactness", compact, wit)
    tally.hit("loc-comp-agrees-subbase", loc == compact, wit)

    chain_ok = all(poset.leq(sample.chain[k + 1], sample.chain[k]) for k in range(len(sample.chain) - 1))
    tally.hit("chain-descending", chain_ok, wit)
    final = sample.final
    stable = all(space.H[alpha] == final.h[alpha] for alpha in final.a)
    tally.hit("assembled-h-stable", stable, wit)

    oldset = all(
        bool(space.nbhd(g.beta, g.b) & g.Z)
        for g in goals
        if isinstance(g, generic.NbhdGoal)
    )
    tally.hit("old-set-scheduled-goals", oldset, wit)

    ranks = generic.cantor_bendixson(space)
    tally.hit("cb-total", set(ranks) == set(space.carrier), wit)
    levels: dict[int, set[int]] = {}
    for x, rank in ranks.items():
        levels.setdefault(rank, set()).add(x)
    discrete = all(generic.minimal_nbhd(space, x) & levels[rank] == {x} for x, rank in ranks.items())
    tally.hit("cb-levels-discrete", discrete, wit)
    tally.notes.update({"coherent-spaces-observed": int(generic.is_coherent(space)), "spaces": 1})
    return tally


def _space_notes(ctx: SuiteContext) -> _Tally:
    """The notes the trials count into, present even when no trial runs."""
    tally = _Tally()
    tally.notes.update({"coherent-spaces-observed": 0, "spaces": 0})
    return tally


# fu-laws ------------------------------------------------------------------

def _fu_exhaustive_space() -> tuple[generic.SpaceModel, int, tuple[int, ...], tuple[int, ...]]:
    H = {
        0: frozenset((0,)),
        1: frozenset((1,)),
        2: frozenset((2,)),
        3: frozenset((1, 3)),
        4: frozenset((2, 4)),
        5: frozenset((0, 1, 2, 3, 5)),
    }
    return generic.SpaceModel(6, H, {}), 5, (0, 1, 2, 3), (1, 2, 3, 4)


def run_fu_exhaustive() -> _Tally:
    """Meet equals greatest lower bound, exhaustively, via a bitmask oracle."""
    tally = _Tally()
    space, alpha, a_pool, c_pool = _fu_exhaustive_space()
    conds = [
        generic.FUCondition(frozenset(s), frozenset(c))
        for s in (frozenset(x) for r in range(len(a_pool) + 1) for x in combinations(a_pool, r))
        for c in (frozenset(x) for r in range(len(c_pool) + 1) for x in combinations(c_pool, r))
    ]
    index = {q: k for k, q in enumerate(conds)}
    nbhds = {q.C: space.nbhd(alpha, q.C) for q in conds}

    def leq_mask(q1: generic.FUCondition, q2: generic.FUCondition) -> bool:
        return q1.s >= q2.s and q1.C >= q2.C and q1.s - q2.s <= nbhds[q2.C]

    below = [0] * len(conds)  # bit r set in below[q] when conds[r] <= conds[q]
    for qi, q in enumerate(conds):
        row = 0
        for ri, r in enumerate(conds):
            if leq_mask(r, q):
                row |= 1 << ri
        below[qi] = row

    for qi, q1 in enumerate(conds):
        for qj in range(qi, len(conds)):
            q2 = conds[qj]
            common = below[qi] & below[qj]
            met = generic.fu_meet(q1, q2, space, alpha)
            wit = {
                "s1": sorted(q1.s), "C1": sorted(q1.C),
                "s2": sorted(q2.s), "C2": sorted(q2.C),
            }
            tally.hit("meet-defined-iff-compatible", (met is not None) == bool(common), wit)
            if met is not None and common:
                cand = index[met]
                is_clb = bool(common >> cand & 1)
                greatest = common & ~below[cand] == 0
                tally.hit("meet-is-common-lower-bound", is_clb, wit)
                tally.hit("meet-is-greatest", greatest, wit)
    return tally


def _fu_sim_trial(ctx: SuiteContext, trial: int) -> _Tally:
    rng = random.Random(derive_seed(ctx.seed, trial, "fu-rng"))
    kappa = rng.randint(5, 12)
    f = universe.random_pair_function(kappa, 0.5, derive_seed(ctx.seed, trial, "fu-f"))
    space, _, _ = sampling.random_space(f, derive_seed(ctx.seed, trial, "fu-s"), nbhd_goals=6)
    alpha = rng.randrange(1, kappa)
    pool = sorted(rng.sample(range(kappa), rng.randint(1, kappa - 1)))
    a_set = frozenset(pool) | {alpha}  # alpha keeps every block satisfiable
    schedule = [
        frozenset(rng.sample(range(alpha), rng.randint(0, min(2, alpha))))
        for _ in range(rng.randint(1, 6))
    ]
    res = generic.fu_simulate(space, a_set, alpha, schedule, derive_seed(ctx.seed, trial, "fu-sim"))
    wit = {"alpha": alpha, "A": sorted(a_set), "schedule": [sorted(c) for c in schedule]}
    tally = _Tally()
    tally.hit("acquired-from-A", set(res.points) <= set(a_set), wit)
    tally.hit("acquired-distinct", len(set(res.points)) == len(res.points), wit)
    tally.hit("suffix-convergence", generic.suffix_convergence(space, alpha, res.steps), wit)
    return tally


@dataclass(frozen=True)
class Suite:
    """One property suite, declared once.

    ``trial(ctx, index)`` runs one seeded trial; ``trials`` is the default
    trial count.  ``f_trials`` is the default when a pair function is given,
    and ``None`` if the suite does not read one.  ``kappa`` is the range the
    suite draws ``kappa`` from when no pair function is given, and ``None``
    if it never reads ``kappa``.  ``fixed(ctx)`` makes the checks that do not
    depend on the trial count, and the trial tallies are added to it.
    """

    trial: Optional[Callable[[SuiteContext, int], _Tally]]
    trials: int = 0
    f_trials: Optional[int] = None
    kappa: Optional[tuple[int, int]] = None
    fixed: Optional[Callable[[SuiteContext], _Tally]] = None


SUITES: dict[str, Suite] = {
    "star-laws": Suite(None, fixed=_star_checks),
    "poset-laws": Suite(_poset_laws_trial, 20, f_trials=1),  # a fixed f leaves trials alike
    "twins-amalgam": Suite(_twins_trial, 500, f_trials=500, kappa=(8, MAX_KAPPA)),
    # the largest layout needs 14 ordinals
    "insertion": Suite(_insertion_trial, 100, kappa=(14, MAX_KAPPA)),
    "closure-laws": Suite(_pair_closure_trial, 150, fixed=_kuratowski_checks),
    "space-checks": Suite(_space_trial, 50, kappa=(4, 16), fixed=_space_notes),
    "fu-laws": Suite(_fu_sim_trial, 50, fixed=lambda ctx: run_fu_exhaustive()),
}


def run_suite(
    name: str,
    *,
    trials: Optional[int] = None,
    seed: int = 0,
    jobs: int = 1,
    f: Optional[PairFunction] = None,
    kappa: int = DEFAULT_KAPPA,
    density: float = DEFAULT_DENSITY,
    inputs: Optional[dict] = None,
) -> RunReport:
    """Run suite ``name``; an input outside its :data:`SUITES` entry, a
    ``density`` outside 0..1, ``trials`` below 0 or ``jobs`` below 1 raises
    :class:`BadArgument`."""
    if name not in SUITES:
        raise BadArgument(f"unknown suite {name!r}; available: {', '.join(sorted(SUITES))}")
    suite = SUITES[name]
    universe.check_kappa(kappa)
    universe.check_density(density)
    if trials is not None and trials < 0:
        raise BadArgument(f"--trials must be at least 0, got {trials}")
    if jobs < 1:
        raise BadArgument(f"--jobs must be at least 1, got {jobs}")
    if f is not None and suite.f_trials is None:
        raise BadArgument(f"suite {name} does not read --f")
    if f is None and suite.kappa is not None:
        least, most = suite.kappa
        if kappa < least:
            raise BadArgument(f"--kappa for suite {name} must be at least {least}, got {kappa}")
        if kappa > most:
            raise BadArgument(f"--kappa for suite {name} must be at most {most}, got {kappa}")
    if trials is None:
        trials = suite.trials if f is None else suite.f_trials
    ctx = SuiteContext(seed=seed, f=f, kappa=kappa, density=density)
    tally = suite.fixed(ctx) if suite.fixed else _Tally()
    if suite.trial:
        tally.merge_trials(_pmap(partial(suite.trial, ctx), range(trials), jobs))
    return RunReport(
        command=f"props:{name}",
        inputs=inputs or {},
        outcome=dict(sorted(tally.outcome.items())),
        witnesses=tally.sorted_witnesses(),
        seed=seed,
        notes=dict(tally.notes),
    )
