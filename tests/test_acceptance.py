"""Acceptance gate: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Every
randomized block is seed-fixed; expected values come from the independent
oracles in ``oracles.py``, never from the code paths under test.
"""

import json
import random
from itertools import combinations

from scatterlab import suites
from scatterlab.errors import EqualSup
from scatterlab.poset import (
    basic_nbhd,
    extend_into_neighbourhood,
    extend_with_point,
    h_union,
    leq,
    leq_restricted,
    precedes,
    restrict,
    star,
    validate_condition,
)
from scatterlab.sampling import (
    good_twin_pair,
    insertion_instance,
    random_condition,
    random_space,
)
from scatterlab.suites import run_fu_exhaustive, run_suite
from scatterlab.amalgam import (
    amalgamate,
    g_well_defined,
    good_twin_violations,
    insertion_construction,
    verify_membership_equiv,
)
from scatterlab.generic import SpaceModel, closure
from scatterlab.universe import pair_closure, random_pair_function

from oracles import oracle_pair_closure, oracle_star, oracle_validate

SEED = 20240813


def report(number: int, name: str, failures: list) -> None:
    status = "PASS" if not failures else f"FAIL ({len(failures)} failures)"
    print(f"[acceptance {number}] {name}: {status}")
    assert not failures, f"criterion {number} ({name}): first failures {failures[:5]}"


def test_criterion_1_star_laws():
    failures = []
    subsets = [frozenset(s) for r in range(1, 7) for s in combinations(range(6), r)]
    for x in subsets:
        for y in subsets:
            if max(x) == max(y):
                try:
                    star(x, y)
                    failures.append(("no-error", sorted(x), sorted(y)))
                except EqualSup:
                    pass
                continue
            count, expected = oracle_star(x, y)
            if count != 1:
                failures.append(("cases", sorted(x), sorted(y), count))
            if star(x, y) != expected:
                failures.append(("value", sorted(x), sorted(y)))
    report(1, "star-laws", failures)


def test_criterion_2_poset_laws(poset_laws_report):
    rep = poset_laws_report
    assert rep.seed == SEED
    failures = [] if rep.ok else rep.witnesses
    report(2, "poset-laws", failures)


def test_criterion_3_extension_lemmas():
    failures = []
    rng = random.Random(SEED)
    for trial in range(500):
        kappa = rng.randint(8, 24)
        f = random_pair_function(kappa, rng.choice((0.1, 0.4, 0.8)), suites.derive_seed(SEED, trial, "ext"))
        p = random_condition(f, rng, rng.randint(0, 6))
        use_nbhd = trial % 2 == 1
        beta = b = alpha = None
        if use_nbhd:
            hosts = [x for x in p.a if any(y < x and y not in p.a for y in range(x))]
            if hosts:
                beta = rng.choice(hosts)
                below = [x for x in p.a if x < beta]
                b = frozenset(rng.sample(below, rng.randint(0, len(below))))
                alpha = rng.choice([y for y in range(beta) if y not in p.a])
            else:
                use_nbhd = False
        if use_nbhd:
            q = extend_into_neighbourhood(p, beta, b, alpha)
            if alpha not in basic_nbhd(q, beta, b):
                failures.append((trial, "alpha-not-in-nbhd"))
        else:
            fresh = [x for x in range(kappa) if x not in p.a]
            alpha = rng.choice(fresh)
            q = extend_with_point(p, alpha)
        if not validate_condition(f, q).ok or oracle_validate(f, q):
            failures.append((trial, "invalid"))
        if not leq(q, p):
            failures.append((trial, "not-below"))
    report(3, "extension-lemmas (point and neighbourhood density)", failures)


def test_criterion_4_amalgamation():
    failures = []
    rng = random.Random(SEED + 1)
    for trial in range(500):
        kappa = rng.randint(8, 24)
        f = random_pair_function(kappa, rng.choice((0.1, 0.4, 0.8)), suites.derive_seed(SEED, trial, "twin"))
        f2, p, q = good_twin_pair(f, rng, rng.randint(0, 6))
        if good_twin_violations(f2, p, q):
            failures.append((trial, "sampler"))
            continue
        r = amalgamate(f2, p, q)
        if oracle_validate(f2, r):
            failures.append((trial, "amalgam-invalid-by-oracle"))
        if not (leq(r, p) and leq(r, q)):
            failures.append((trial, "not-common-extension"))
        if amalgamate(f2, q, p) != r:
            failures.append((trial, "asymmetric"))
        if not verify_membership_equiv(p, q, f2):
            failures.append((trial, "membership-equivalence"))
        if not g_well_defined(p, q):
            failures.append((trial, "merged-h-ill-defined"))
    report(4, "amalgamation (common extension, symmetry, anchor claims)", failures)


def test_criterion_5_insertion():
    failures = []
    rng = random.Random(SEED + 2)
    for trial in range(100):
        k = 1 + trial % 2
        f, s, layout = insertion_instance(
            rng, kappa=24, k=k,
            q_size=rng.randint(1, 3), extra_points=rng.randint(0, 3),
            density=rng.choice((0.2, 0.5, 0.8)),
        )
        try:
            r = insertion_construction(f, s, layout)
        except Exception as exc:  # noqa: BLE001 - any refusal is a failure here
            failures.append((trial, f"construction: {exc}"))
            continue
        if oracle_validate(f, r):
            failures.append((trial, "result-invalid"))
        if not leq_restricted(restrict(r, r.a), restrict(s, layout.S)):
            failures.append((trial, "(a)"))
        if not leq_restricted(restrict(r, r.a), restrict(s, layout.Q | layout.E)):
            failures.append((trial, "(b)"))
        if not layout.S - h_union(s.h, layout.Q | layout.E) <= r.h[layout.gammas[0]]:
            failures.append((trial, "(c)"))
        if not precedes(restrict(s, layout.S | layout.E).as_condition(), r):
            failures.append((trial, "(d)"))
    report(5, "layered insertion (conclusions a-d, k in {1,2})", failures)


def test_criterion_6_pair_closure():
    failures = []
    kappa = 5
    pool = list(range(kappa))
    all_sets = [frozenset(s) for r in range(kappa + 1) for s in combinations(pool, r)]
    rng = random.Random(SEED + 3)
    for trial in range(150):
        density = (0.0, 0.5, 1.0)[trial % 3]
        f = random_pair_function(kappa, density, suites.derive_seed(SEED, trial, "clf"))
        table = {}
        for base in all_sets:
            for partners in all_sets:
                table[(base, partners)] = pair_closure(f, base, partners).closure
        for (base, partners), cl in table.items():
            if not base <= cl:
                failures.append((trial, "contains", sorted(base)))
            if base and max(cl) != max(base):
                failures.append((trial, "max", sorted(base)))
            if not base and cl:
                failures.append((trial, "empty", sorted(partners)))
            if any(
                not f.value(x, y) <= cl
                for x in cl
                for y in cl | partners
                if x != y
            ):
                failures.append((trial, "closed", sorted(base), sorted(partners)))
            if table[(cl, partners)] != cl:
                failures.append((trial, "idempotent", sorted(base), sorted(partners)))
            for e in pool:
                if e not in base and not cl <= table[(base | {e}, partners)]:
                    failures.append((trial, "monotone", sorted(base), e))
        for _ in range(10):
            base = rng.choice(all_sets)
            partners = rng.choice(all_sets)
            if table[(base, partners)] != oracle_pair_closure(f, base, partners):
                failures.append((trial, "oracle", sorted(base), sorted(partners)))
    report(6, "pair-closure laws (exhaustive at kappa 5)", failures)


def test_criterion_7_space_checks():
    rep = run_suite("space-checks", trials=50, seed=SEED, kappa=16)
    failures = [] if rep.ok else list(rep.witnesses)

    # Kuratowski laws, exhaustive over subsets at kappa 6, on sampled and
    # adversarial families.
    kappa = 6
    spaces = []
    for idx in range(3):
        f = random_pair_function(kappa, 0.6, suites.derive_seed(SEED, idx, "acc-kur"))
        space, _, _ = random_space(f, suites.derive_seed(SEED, idx, "acc-kur-s"), nbhd_goals=4)
        spaces.append(space)
    rng = random.Random(SEED + 4)
    for _ in range(3):
        h = {a: frozenset(rng.sample(range(kappa), rng.randint(0, kappa))) for a in range(kappa)}
        spaces.append(SpaceModel(kappa, h, {}))
    subsets = [frozenset(s) for r in range(kappa + 1) for s in combinations(range(kappa), r)]
    for sp_idx, space in enumerate(spaces):
        table = {y: closure(space, y) for y in subsets}
        if table[frozenset()] != frozenset():
            failures.append((sp_idx, "empty"))
        for y in subsets:
            if not y <= table[y]:
                failures.append((sp_idx, "extensive", sorted(y)))
            if table[y] != closure(space, table[y]):
                failures.append((sp_idx, "idempotent", sorted(y)))
        for y in subsets:
            for z in subsets:
                if table[y | z] != table[y] | table[z]:
                    failures.append((sp_idx, "union", sorted(y), sorted(z)))
    report(7, "space checks (structure, scheduled density, closure laws, ranks)", failures)


def test_criterion_8_fu_poset():
    tally = run_fu_exhaustive()
    failures = list(tally.sorted_witnesses())
    rep = run_suite("fu-laws", trials=50, seed=SEED)
    if not rep.ok:
        failures.extend(rep.witnesses)
    report(8, "convergence poset (meet is the greatest lower bound; suffix property)", failures)


def test_criterion_9_cli_determinism(tmp_path, run_cli):
    failures = []
    fixtures = {
        "f.json": {"kappa": 6, "f": [[3, 5, [0, 1, 2]], [4, 5, [1, 2]]]},
        "f4.json": {"kappa": 4, "f": [[1, 2, [0]]]},
        "p.json": {"a": [0, 1], "h": [[0, [0]], [1, [0, 1]]], "i": [[0, 1, []]]},
        "q.json": {"a": [0, 2], "h": [[0, [0]], [2, [0, 2]]], "i": [[0, 2, []]]},
        "sched.json": [{"point": a} for a in (0, 3, 5)]
        + [{"nbhd": {"beta": 5, "b": [0], "Z": [1, 2]}}]
        + [{"point": a} for a in (1, 2, 4)],
    }
    for name, doc in fixtures.items():
        (tmp_path / name).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")

    (tmp_path / "space_out").mkdir()
    commands = [
        ["gen-f", "--kappa", "12", "--density", "0.5", "--seed", "7"],
        ["validate", "--f", "f4.json", "--cond", "p.json"],
        ["twins", "--f", "f4.json", "--p", "p.json", "--q", "q.json"],
        ["amalgamate", "--f", "f4.json", "--p", "p.json", "--q", "q.json"],
        ["close", "--f", "f.json", "--base", "3,4", "--partners", "5"],
        ["lower-bound", "--f", "f.json", "--groups", "3|4", "--bound", "", "--n", "2"],
        ["sample-space", "--f", "f.json", "--schedule", "sched.json", "--seed", "4"],
        ["props", "--suite", "star-laws", "--seed", "0"],
        ["props", "--suite", "twins-amalgam", "--trials", "25", "--seed", "5"],
        ["props", "--suite", "insertion", "--trials", "10", "--seed", "5"],
        ["props", "--suite", "space-checks", "--trials", "8", "--seed", "5"],
        ["props", "--suite", "fu-laws", "--trials", "8", "--seed", "5"],
    ]
    for args in commands:
        rc1, out1 = run_cli(args, tmp_path)
        rc2, out2 = run_cli(args, tmp_path)
        if (rc1, out1) != (rc2, out2):
            failures.append(("rerun", args))

    # space and fu-sim need a space file; produce it deterministically twice
    for out_name in ("s1.json", "s2.json"):
        rc, _ = run_cli(
            ["sample-space", "--f", "f.json", "--schedule", "sched.json", "--seed", "4",
             "--out", out_name, "--quiet"],
            tmp_path,
        )
        if rc != 0:
            failures.append(("sample-space-out", out_name))
    if (tmp_path / "s1.json").read_bytes() != (tmp_path / "s2.json").read_bytes():
        failures.append(("space-file-differs",))
    for args in (
        ["check-space", "--space", "s1.json"],
        ["fu-sim", "--space", "s1.json", "--A", "0,1,2,5", "--alpha", "5", "--blocks", "|0", "--seed", "3"],
    ):
        rc1, out1 = run_cli(args, tmp_path)
        rc2, out2 = run_cli(args, tmp_path)
        if (rc1, out1) != (rc2, out2):
            failures.append(("rerun", args))

    for suite, trials in (("twins-amalgam", "30"), ("space-checks", "10")):
        base = ["props", "--suite", suite, "--trials", trials, "--seed", "11"]
        rc1, out1 = run_cli(base, tmp_path)
        rc2, out2 = run_cli([*base, "--jobs", "3"], tmp_path)
        if rc1 != rc2 or out1 != out2:
            failures.append(("jobs", suite))
    report(9, "CLI determinism (reruns and --jobs)", failures)
