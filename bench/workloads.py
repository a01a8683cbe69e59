"""The benchmark's four workloads.

Each workload has a set-up step (inputs generated from the workload seed,
outside the timed region), a pass (the timed work, including the cheap
checks that verify each result with the library's own validators) and a
cross-check run once on the first pass's results, outside the timed region,
against the independent reference implementations in ``tests/oracles.py``
and the reference constructions defined here.

``props`` suites are invoked in-process through ``scatterlab.cli.main`` with
``--jobs 1`` and their standard output captured; a suite counts as failed
unless it exits 0 with zero failing properties.  Everything else calls the
public functions of ``universe``, ``poset``, ``sampling``, ``amalgam`` and
``generic`` directly, always through the module attribute so that the traced
run's wrappers see the call.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import io
import json
import random
import time
from dataclasses import dataclass, field
from itertools import combinations
from typing import Any, Callable, Optional

from scatterlab import amalgam, cli, generic, poset, sampling, universe

KAPPA = 64


def canon(obj: Any) -> Any:
    """JSON-ready canonical form: sets become sorted lists, conditions their key."""
    if isinstance(obj, poset.Condition):
        return canon(obj.key())
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    if isinstance(obj, dict):
        return [[canon(k), canon(v)] for k, v in sorted(obj.items())]
    if isinstance(obj, (list, tuple)):
        return [canon(x) for x in obj]
    return obj


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Pass:
    """Outcome of one timed pass: verified operations, failures, per-segment
    times, captured ``props`` reports and the results kept for the oracles."""

    def __init__(self, on_segment: Optional[Callable[[str], None]] = None) -> None:
        self.on_segment = on_segment
        self.ops = 0
        self.checks = 0
        self.props_checks = 0
        self.failures: list[str] = []
        self.segment_s: dict[str, float] = {}
        self.reports: dict[str, str] = {}
        self.results: list[tuple] = []
        self.seconds = 0.0
        self.outer_s = 0.0  # traced passes: the time measured around the tracer
        self.digest: dict[str, str] = {}

    @contextlib.contextmanager
    def segment(self, label: str):
        if self.on_segment:
            self.on_segment(label)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.segment_s[label] = self.segment_s.get(label, 0.0) + time.perf_counter() - t0
            if self.on_segment:
                self.on_segment("")

    def check(self, ok: bool, what: str) -> None:
        self.ops += 1
        self.checks += 1
        if not ok:
            self.failures.append(what)

    def guarded(self, what: str, fn: Callable[[], Any]) -> Any:
        """Run one operation; an exception counts as a failed operation."""
        try:
            return fn()
        except Exception as exc:  # the pass must go on and count the miss
            self.ops += 1
            self.failures.append(f"{what}: {type(exc).__name__}: {exc}")
            return None

    def props(self, label: str, argv: list[str]) -> None:
        buf = io.StringIO()
        with self.segment(f"props:{label}"):
            try:
                with contextlib.redirect_stdout(buf):
                    rc = cli.main(argv)
            except Exception as exc:  # a traceback is a failed invocation
                rc = f"{type(exc).__name__}: {exc}"
        text = buf.getvalue()
        self.reports[label] = text
        self.ops += 1
        try:
            outcome = json.loads(text)["outcome"]
        except (ValueError, KeyError, TypeError):
            self.failures.append(f"props {label}: exit {rc}, unreadable report")
            return
        fails = sum(c["fail"] for c in outcome.values())
        checks = sum(c["pass"] + c["fail"] for c in outcome.values())
        self.checks += checks
        self.props_checks += checks
        if rc != 0 or fails:
            self.failures.append(f"props {label}: exit {rc}, {fails} failing checks")

    def digests(self) -> dict[str, str]:
        out = {f"props:{label}": sha(text) for label, text in sorted(self.reports.items())}
        if self.results:
            out["driven"] = sha(json.dumps(canon(self.results)))
        return out


@dataclass
class Workload:
    name: str
    setup: Callable[[int, bool], Any]
    run: Callable[[Any, Pass], None]
    cross_check: Callable[[Any, Pass, Any], list[tuple[str, bool]]] = lambda inputs, p, oracles: []
    info: Callable[[Any], dict] = lambda inputs: {}


def props_argv(suite: str, seed: int, *extra: str) -> list[str]:
    return ["props", "--suite", suite, "--seed", str(seed), "--jobs", "1", *extra]


def parse_all(argvs: list[list[str]]) -> None:
    """Build the CLI parser and parse every invocation the pass will make."""
    parser = cli.build_parser()
    for argv in argvs:
        parser.parse_args(argv)


# poset-exhaustive ---------------------------------------------------------

def _poset_setup(seed: int, tiny: bool) -> dict:
    argv = props_argv("poset-laws", seed, *(("--trials", "1") if tiny else ()))
    parse_all([argv])
    return {"argv": argv, "trials": 1 if tiny else 20}


def _poset_run(inputs: dict, p: Pass) -> None:
    p.props("poset-laws", inputs["argv"])


POSET = Workload(
    name="poset-exhaustive",
    setup=_poset_setup,
    run=_poset_run,
    info=lambda inputs: {"kappa": 5, "trials": {"poset-laws": inputs["trials"]}, "instances": 1},
)


# construct-k64 ------------------------------------------------------------

def _construct_setup(seed: int, tiny: bool) -> dict:
    trials = {"twins-amalgam": 20, "insertion": 5} if tiny else {"twins-amalgam": 500, "insertion": 100}
    argvs = {
        suite: props_argv(suite, seed, "--kappa", str(KAPPA), *(("--trials", str(n)) if tiny else ()))
        for suite, n in trials.items()
    }
    parse_all(list(argvs.values()))
    return {"argvs": argvs, "trials": trials}


def _construct_run(inputs: dict, p: Pass) -> None:
    for suite, argv in inputs["argvs"].items():
        p.props(f"{suite}-k{KAPPA}", argv)


CONSTRUCT = Workload(
    name="construct-k64",
    setup=_construct_setup,
    run=_construct_run,
    info=lambda inputs: {"kappa": KAPPA, "trials": inputs["trials"], "instances": 2},
)


# amalgam-k64 --------------------------------------------------------------

TWIN_SIZE = 32
INSERT_SIZES = (13, 14)  # |S u E| of the insertion instances, alternating
# Densities cycle by index rather than being drawn, so that the amount of
# work and memory per pass does not depend on the seed's luck.
F_DENSITIES = (0.3, 0.5, 0.7)
INSERT_DENSITIES = (0.2, 0.5, 0.8)
COMMON_SHARE = 0.2  # chance that a point seeds the shared part of an interleaved pair


def _closed_common(p, rng: random.Random) -> set[int]:
    """A random part of ``p``'s domain, grown until ``i`` maps its pairs into
    it, so that relabelling the rest keeps ``i`` on the shared pairs."""
    common = {x for x in p.a if rng.random() < COMMON_SHARE}
    grown = True
    while grown:
        grown = False
        for x, y in combinations(sorted(common), 2):
            if not p.i_value(x, y) <= common:
                common |= p.i_value(x, y)
                grown = True
    return common


def _relabel(p, common: set[int], rng: random.Random):
    """The twin of ``p`` that fixes ``common`` and moves every other point to
    a fresh ordinal between the same two shared points; ``None`` when a gap
    has no room."""
    shared = sorted(common)
    gaps: dict[int, list[int]] = {}
    for x in p.a:
        if x not in common:
            gaps.setdefault(bisect.bisect(shared, x), []).append(x)
    e = {x: x for x in shared}
    for k, xs in gaps.items():
        lo = shared[k - 1] if k else -1
        hi = shared[k] if k < len(shared) else KAPPA
        free = [y for y in range(lo + 1, hi) if y not in p.h]
        if len(free) < len(xs):
            return None
        e.update(zip(xs, sorted(rng.sample(free, len(xs)))))
    h = {e[x]: frozenset(e[v] for v in p.h[x]) for x in p.a}
    i = {universe.pair(e[x], e[y]): frozenset(e[v] for v in p.i_value(x, y)) for x, y in combinations(p.a, 2)}
    return poset.Condition(list(h), h, i)


def _adds_foreign_point(p, q) -> bool:
    """Whether the amalgamation of ``p`` and ``q`` puts a foreign point into a
    private neighbourhood set, i.e. some ``delta_xi`` anchor is used."""
    a, a2 = set(p.a), set(q.a)
    for own, foreign in ((p, a2 - a), (q, a - a2)):
        anchors = {amalgam.delta_xi(p, q, eta) for eta in foreign} - {None}
        if any(own.h[x] & anchors for x in own.a if x not in a & a2):
            return True
    return False


def _repair_for_twins(f, p, q):
    """``f`` enlarged so that ``q``'s covering index lies inside it and the two
    domains form a good pair, as ``sampling.good_twin_pair`` repairs it."""
    overrides: dict[tuple[int, int], frozenset[int]] = {}

    def current(x: int, y: int) -> frozenset[int]:
        return overrides.get(universe.pair(x, y), f.value(x, y))

    def grow(x: int, y: int, need: frozenset[int]) -> None:
        if not need <= current(x, y):
            overrides[universe.pair(x, y)] = current(x, y) | need

    for x, y in combinations(q.a, 2):
        grow(x, y, q.i_value(x, y))
    a, a2 = frozenset(p.a), frozenset(q.a)
    for alpha in sorted(a & a2):
        for beta in sorted(a - a2):
            for gamma in sorted(a2 - a):
                if alpha < beta and alpha < gamma:
                    grow(beta, gamma, frozenset({alpha}))
                if alpha < beta:
                    grow(beta, gamma, current(alpha, gamma))
                if alpha < gamma:
                    grow(gamma, beta, current(alpha, beta))
    return f.updated(overrides) if overrides else f


def interleaved_twin_pair(f, rng: random.Random, size: int):
    """A good-twin pair whose shared points lie between private ones, with at
    least one foreign point joining a private neighbourhood set.

    ``sampling.good_twin_pair`` keeps the shared part a prefix of the domain,
    so no shared neighbourhood set holds a private point and ``delta_xi`` is
    always ``None``; these pairs take the other branch of ``amalgamate``.
    """
    while True:
        p = sampling.random_condition(f, rng, size)
        for _ in range(50):
            common = _closed_common(p, rng)
            if len(common) == len(p.a):
                continue
            q = _relabel(p, common, rng)
            if q is not None and _adds_foreign_point(p, q):
                return _repair_for_twins(f, p, q), p, q


def _amalgam_setup(seed: int, tiny: bool) -> dict:
    rng = random.Random(f"amalgam-k64:{seed}")
    n_f, per_f, per_f_mixed, n_ins = (1, 2, 1, 2) if tiny else (4, 6, 3, 16)
    twins = []
    for j in range(n_f):
        f = universe.random_pair_function(KAPPA, F_DENSITIES[j % 3], rng.randrange(2**32))
        for _ in range(per_f):
            twins.append(sampling.good_twin_pair(f, rng, TWIN_SIZE))
        for _ in range(per_f_mixed):
            twins.append(interleaved_twin_pair(f, rng, TWIN_SIZE))
    inserts = []
    for j in range(n_ins):
        size = INSERT_SIZES[j % len(INSERT_SIZES)] - (4 if tiny else 0)
        k = 2
        q_size = rng.randint(2, 4)
        inserts.append(
            sampling.insertion_instance(
                rng,
                kappa=KAPPA,
                k=k,
                q_size=q_size,
                extra_points=size - k - q_size,
                density=INSERT_DENSITIES[j % 3],
            )
        )
    return {"twins": twins, "inserts": inserts, "interleaved_twins": n_f * per_f_mixed}


def _amalgam_run(inputs: dict, p: Pass) -> None:
    with p.segment("twins"):
        for idx, (f2, a, b) in enumerate(inputs["twins"]):
            def twins_op():
                p.check(not amalgam.good_twin_violations(f2, a, b), "good-twin pair rejected")
                r = amalgam.amalgamate(f2, a, b)
                r2 = amalgam.amalgamate(f2, b, a)
                p.check(r == r2, "amalgamation not symmetric")
                p.check(amalgam.verify_membership_equiv(a, b, f2), "membership equivalence fails")
                for res in (r, r2):
                    p.check(poset.validate_condition(f2, res).ok, "amalgamation invalid")
                    p.check(poset.leq(res, a) and poset.leq(res, b), "amalgamation not below both")
                p.results.append(("twins", idx, r))
            p.guarded("twins", twins_op)
    with p.segment("insertion"):
        for idx, (f, s, layout) in enumerate(inputs["inserts"]):
            def insertion_op():
                r = amalgam.insertion_construction(f, s, layout)
                p.check(poset.validate_condition(f, r).ok, "insertion result invalid")
                se = poset.restrict(s, layout.S | layout.E)
                p.check(se.is_condition, "trace on S u E is not a condition")
                p.check(poset.precedes(se.as_condition(), r), "insertion result does not refine")
                p.results.append(("insertion", idx, r))
            p.guarded("insertion", insertion_op)


def reference_amalgamation(f, p, q) -> tuple[dict, dict]:
    """``(h, i)`` of the canonical common extension, straight from its
    definition: shared points merge both sets; a private point gains the
    foreign points whose least shared anchor it already contains; ``i``
    keeps both old indices and falls back to ``f`` on mixed pairs."""
    a, a2 = set(p.a), set(q.a)
    union = a | a2
    shared = sorted(a & a2)

    def anchor(x):
        return next((d for d in shared if x in p.h[d] or x in q.h[d]), None)

    h = {}
    for xi in union:
        if xi in a and xi in a2:
            h[xi] = p.h[xi] | q.h[xi]
        else:
            own, foreign = (p, a2 - a) if xi in a else (q, a - a2)
            h[xi] = own.h[xi] | {eta for eta in foreign if anchor(eta) is not None and anchor(eta) in own.h[xi]}
    i = {}
    for x in union:
        for y in union:
            if x < y:
                if x in a and y in a:
                    i[(x, y)] = p.i[(x, y)]
                elif x in a2 and y in a2:
                    i[(x, y)] = q.i[(x, y)]
                else:
                    i[(x, y)] = f.value(x, y) & union
    return h, i


def reference_insertion(f, s, layout) -> tuple[dict, dict]:
    """``(h, i)`` of the insertion result, straight from its definition: on
    ``S | E``, each ``E``-point whose set holds the least ``E``-point absorbs
    ``C``, the part of ``S`` outside the union of ``h`` over ``Q | E``; ``i``
    is kept on ``[Q|E]^2`` and ``[S]^2`` and falls back to ``f`` elsewhere."""
    qe = layout.Q | layout.E
    covered = set().union(*(s.h[nu] for nu in qe))
    c = layout.S - covered
    dom = layout.S | layout.E
    least = min(layout.E)
    h = {xi: s.h[xi] | c if xi in layout.E and least in s.h[xi] else s.h[xi] for xi in dom}
    i = {}
    for x in dom:
        for y in dom:
            if x < y:
                kept = (x in qe and y in qe) or (x in layout.S and y in layout.S)
                i[(x, y)] = s.i[(x, y)] if kept else f.value(x, y) & dom
    return h, i


def _amalgam_cross_check(inputs: dict, p: Pass, oracles: Any) -> list[tuple[str, bool]]:
    out: list[tuple[str, bool]] = []
    for kind, idx, r in p.results:
        if kind == "twins":
            f2, a, b = inputs["twins"][idx]
            out.append((f"oracle rejects amalgamation {idx}", not oracles.oracle_validate(f2, r)))
            below = oracles.oracle_leq(r, a) and oracles.oracle_leq(r, b)
            out.append((f"oracle: amalgamation {idx} not below both twins", below))
            out.append((f"amalgamation {idx} differs from its definition", (r.h, r.i) == reference_amalgamation(f2, a, b)))
        else:
            f, s, layout = inputs["inserts"][idx]
            out.append((f"oracle rejects insertion result {idx}", not oracles.oracle_validate(f, r)))
            same = (r.h, r.i) == reference_insertion(f, s, layout)
            out.append((f"insertion result {idx} differs from its definition", same))
    return out


AMALGAM = Workload(
    name="amalgam-k64",
    setup=_amalgam_setup,
    run=_amalgam_run,
    cross_check=_amalgam_cross_check,
    info=lambda inputs: {
        "kappa": KAPPA,
        "twin_size": TWIN_SIZE,
        "interleaved_twins": inputs["interleaved_twins"],
        "insert_sizes": sorted({len(layout.S | layout.E) for _, _, layout in inputs["inserts"]}),
        "instances": len(inputs["twins"]) + len(inputs["inserts"]),
    },
)


# spaces-k64 ---------------------------------------------------------------

NBHD_GOALS = 40
SPACE_SUITES = ("closure-laws", "fu-laws", "space-checks", "star-laws")


@dataclass
class SpaceInput:
    f: Any
    space_seed: int
    closures: list = field(default_factory=list)
    free_seq: list = field(default_factory=list)
    pair_queries: list = field(default_factory=list)


def _spaces_setup(seed: int, tiny: bool) -> dict:
    rng = random.Random(f"spaces-k64:{seed}")
    n_spaces, n_closures, free_len, n_pairs = (1, 2, 3, 2) if tiny else (16, 40, 8, 4)
    carrier = list(range(KAPPA))
    spaces = []
    for j in range(n_spaces):
        f = universe.random_pair_function(KAPPA, F_DENSITIES[j % 3], rng.randrange(2**32))
        item = SpaceInput(f, rng.randrange(2**32))
        item.closures = [frozenset(rng.sample(carrier, rng.randint(1, 8))) for _ in range(n_closures)]
        item.free_seq = rng.sample(carrier, free_len)
        item.pair_queries = [
            (frozenset(rng.sample(carrier, rng.randint(1, 4))), frozenset(rng.sample(carrier, rng.randint(0, 3))))
            for _ in range(n_pairs)
        ]
        spaces.append(item)
    argvs = {suite: props_argv(suite, seed, *(("--trials", "2") if tiny else ())) for suite in SPACE_SUITES}
    parse_all(list(argvs.values()))
    return {"spaces": spaces, "argvs": argvs, "tiny": tiny}


def _space_op(idx: int, item: SpaceInput, p: Pass) -> None:
    space, sample, goals = sampling.random_space(item.f, item.space_seed, nbhd_goals=NBHD_GOALS)
    p.check(not generic.max_invariant_violations(space), "max invariant")
    p.check(generic.check_star_containment(space)[0], "star containment")
    p.check(generic.check_loc_comp_hypothesis(space), "local compactness hypothesis")
    p.check(all(generic.compactness_by_subbase(space, alpha) for alpha in space.carrier), "subbase compactness")
    coherent = generic.is_coherent(space)
    ranks = generic.cantor_bendixson(space)
    p.check(set(ranks) == set(space.carrier), "Cantor-Bendixson rank not total")
    closures = []
    for ys in item.closures:
        cl = generic.closure(space, ys)
        p.check(ys <= cl, "closure not extensive")
        closures.append(cl)
    free = generic.is_free_sequence(space, item.free_seq)
    pair_closures = []
    for base, partners in item.pair_queries:
        cl = universe.pair_closure(item.f, base, partners).closure
        p.check(base <= cl and max(cl) == max(base), "pair closure loses its base or maximum")
        pair_closures.append(cl)
    p.results.append((idx, space.H, sample.final, coherent, ranks, closures, free, pair_closures))


def _spaces_run(inputs: dict, p: Pass) -> None:
    with p.segment("driven"):
        for idx, item in enumerate(inputs["spaces"]):
            p.guarded("space", lambda: _space_op(idx, item, p))
    for suite, argv in inputs["argvs"].items():
        p.props(suite, argv)


def _spaces_cross_check(inputs: dict, p: Pass, oracles: Any) -> list[tuple[str, bool]]:
    """Oracle closures are slow (a subbase scan per point), so only the first
    space's closure queries are cross-checked; every pair-closure query and
    every final condition is."""
    out: list[tuple[str, bool]] = []
    for k, H, final, _, _, closures, free, pair_closures in p.results:
        item = inputs["spaces"][k]
        space = generic.SpaceModel(KAPPA, H, dict(final.i))
        out.append((f"oracle rejects the final condition of space {k}", not oracles.oracle_validate(item.f, final)))
        for (base, partners), cl in zip(item.pair_queries, pair_closures):
            same = oracles.oracle_pair_closure(item.f, base, partners) == cl
            out.append((f"space {k}: pair closure of {sorted(base)} differs from the oracle", same))
        if k >= 1:
            continue
        for ys, cl in zip(item.closures, closures):
            out.append((f"space {k}: closure of {sorted(ys)} differs from the oracle", oracles.oracle_closure(space, ys) == cl))
        seq = item.free_seq
        oracle_free = all(
            not (oracles.oracle_closure(space, seq[:j]) & oracles.oracle_closure(space, seq[j:]))
            for j in range(len(seq) + 1)
        )
        out.append((f"space {k}: free-sequence verdict on {seq} differs from the oracle", oracle_free == free))
    return out


SPACES = Workload(
    name="spaces-k64",
    setup=_spaces_setup,
    run=_spaces_run,
    cross_check=_spaces_cross_check,
    info=lambda inputs: {
        "kappa": KAPPA,
        "nbhd_goals": NBHD_GOALS,
        "trials": {suite: (2 if inputs["tiny"] else "default") for suite in SPACE_SUITES},
        "instances": len(inputs["spaces"]) + len(SPACE_SUITES),
    },
)


WORKLOADS: dict[str, Workload] = {w.name: w for w in (POSET, CONSTRUCT, AMALGAM, SPACES)}
