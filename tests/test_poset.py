import hashlib
import random
from itertools import combinations, islice

import pytest
from hypothesis import given, settings, strategies as st

from scatterlab.errors import BadArgument, EqualSup
from scatterlab.poset import (
    Condition,
    as_restriction,
    basic_nbhd,
    extend_into_neighbourhood,
    extend_with_point,
    leq,
    leq_restricted,
    precedes,
    restrict,
    star,
    validate_condition,
)
from scatterlab.sampling import iter_conditions, random_condition
from scatterlab.suites import _POSET_CAP_PER_DOMAIN, _POSET_DOMAIN, derive_seed
from scatterlab.universe import PairFunction, random_pair_function

from oracles import oracle_leq, oracle_precedes, oracle_star, oracle_validate


def nonempty_subsets(pool):
    return [frozenset(c) for r in range(1, len(pool) + 1) for c in combinations(pool, r)]


class TestStar:
    def test_intersection_case(self):
        assert star({1, 2, 3}, {2, 5}) == {2}

    def test_sup_x_in_y(self):
        assert star({1, 2}, {2, 4}) == {1}

    def test_sup_y_in_x(self):
        assert star({2, 4}, {1, 2}) == {1}

    def test_equal_sup_raises(self):
        with pytest.raises(EqualSup):
            star({1, 3}, {2, 3})

    def test_empty_raises(self):
        with pytest.raises(BadArgument, match="star needs nonempty operands"):
            star(set(), {1})

    def test_exhaustive_trichotomy(self):
        subs = nonempty_subsets(range(6))
        for x in subs:
            for y in subs:
                if max(x) == max(y):
                    with pytest.raises(EqualSup):
                        star(x, y)
                else:
                    count, expected = oracle_star(x, y)
                    assert count == 1
                    assert star(x, y) == expected


WORKED_F = PairFunction.build(4, {(1, 2): {0}})


def cond(a, h, i):
    return Condition(a, h, i)


class TestValidate:
    def test_single_point_valid(self):
        p = cond([0], {0: {0}}, {})
        assert validate_condition(WORKED_F, p).ok

    def test_two_point_valid(self):
        p = cond([0, 1], {0: {0}, 1: {0, 1}}, {(0, 1): set()})
        assert validate_condition(WORKED_F, p).ok

    def test_clause_iv_counterexample(self):
        p = cond(
            [0, 1, 2],
            {0: {0}, 1: {0, 1}, 2: {0, 2}},
            {(0, 1): set(), (0, 2): set(), (1, 2): set()},
        )
        report = validate_condition(WORKED_F, p)
        assert [(v.clause, v.at) for v in report.violations] == [("iv", (1, 2))]

    def test_clause_ii_detected(self):
        p = cond([0, 2], {0: {0}, 2: {0}}, {(0, 2): set()})
        assert "ii" in validate_condition(WORKED_F, p).clauses()

    def test_clause_iii_detected(self):
        p = cond([0, 1, 2], {0: {0}, 1: {0, 1}, 2: {0, 1, 2}},
                 {(0, 1): set(), (0, 2): set(), (1, 2): {1}})
        assert "iii" in validate_condition(WORKED_F, p).clauses()

    def test_totality_gaps_detected(self):
        p = cond([0, 1], {0: {0}}, {})
        assert "i" in validate_condition(WORKED_F, p).clauses()

    def test_matches_oracle_on_random_triples(self):
        rng = random.Random(0)
        agree = 0
        for seed in range(120):
            f = random_pair_function(6, 0.5, seed)
            dom = sorted(rng.sample(range(6), rng.randint(1, 4)))
            h = {xi: frozenset(rng.sample([x for x in dom if x <= xi],
                                          rng.randint(1, len([x for x in dom if x <= xi]))))
                 for xi in dom}
            h = {xi: v | {xi} for xi, v in h.items()}
            i = {}
            for x, y in combinations(dom, 2):
                i[(x, y)] = frozenset(rng.sample(sorted(f.value(x, y) | {0}),
                                                 rng.randint(0, len(f.value(x, y) | {0})))) & frozenset(dom)
            p = cond(dom, h, i)
            lib_ok = validate_condition(f, p).ok
            assert lib_ok == (not oracle_validate(f, p))
            agree += 1
        assert agree == 120


class TestLeq:
    def test_reflexive(self):
        p = cond([0, 1], {0: {0}, 1: {0, 1}}, {(0, 1): set()})
        assert leq(p, p)

    def test_extension_below(self):
        q = Condition.single(0)
        p = extend_with_point(q, 1)
        assert leq(p, q) and not leq(q, p)

    def test_h_mismatch(self):
        p = cond([0, 1], {0: {0}, 1: {1}}, {(0, 1): set()})
        q = cond([0, 1], {0: {0}, 1: {0, 1}}, {(0, 1): set()})
        assert not leq(p, q) and not leq(q, p)

    def test_matches_oracle_on_samples(self):
        rng = random.Random(2)
        for seed in range(60):
            f = random_pair_function(8, 0.5, seed)
            p = random_condition(f, rng, rng.randint(0, 5))
            q_trace = restrict(p, sorted(rng.sample(p.a, rng.randint(0, len(p.a)))))
            if q_trace.is_condition:
                q = q_trace.as_condition()
                assert leq(p, q) == oracle_leq(p, q) == True  # noqa: E712
            other = random_condition(f, rng, rng.randint(0, 5))
            assert leq(p, other) == oracle_leq(p, other)


class TestBasicNbhd:
    P = cond([1, 3], {1: {1}, 3: {1, 3}}, {(1, 3): set()})

    def test_empty_avoidance(self):
        assert basic_nbhd(self.P, 3, set()) == {1, 3}

    def test_worked_example(self):
        assert basic_nbhd(self.P, 3, {1}) == {3}

    def test_point_never_removed(self):
        rng = random.Random(3)
        f = random_pair_function(10, 0.5, 1)
        for _ in range(40):
            p = random_condition(f, rng, rng.randint(1, 6))
            alpha = rng.choice(p.a)
            below = [x for x in p.a if x < alpha]
            b = frozenset(rng.sample(below, rng.randint(0, len(below))))
            assert alpha in basic_nbhd(p, alpha, b)

    def test_alpha_not_in_domain(self):
        with pytest.raises(BadArgument, match=r"2 not in domain \["):
            basic_nbhd(self.P, 2, set())

    def test_b_not_below(self):
        with pytest.raises(BadArgument, match=r"b=\[3\] is not a domain subset below 1"):
            basic_nbhd(self.P, 1, {3})
        with pytest.raises(BadArgument, match=r"b=\[0\] is not a domain subset below 3"):
            basic_nbhd(self.P, 3, {0})  # 0 is below 3 but outside the domain


class TestRestrict:
    P = cond(
        [0, 1, 2],
        {0: {0}, 1: {0, 1}, 2: {0, 1, 2}},
        {(0, 1): set(), (0, 2): set(), (1, 2): {0}},
    )

    def test_full_restriction_is_identity(self):
        r = restrict(self.P, self.P.a)
        assert r.is_condition and r.as_condition() == self.P

    def test_initial_segment_is_condition(self):
        for k in range(len(self.P.a) + 1):
            assert restrict(self.P, self.P.a[:k]).is_condition

    def test_criterion_failure(self):
        r = restrict(self.P, [1, 2])
        assert not r.is_condition
        with pytest.raises(BadArgument, match="keeps i-values outside the base"):
            r.as_condition()

    def test_not_subset(self):
        with pytest.raises(BadArgument, match=r"\[0, 7\] is not a subset of the domain"):
            restrict(self.P, [0, 7])

    def test_flag_iff_valid_exhaustive(self):
        rng = random.Random(4)
        for seed in range(40):
            f = random_pair_function(8, 0.6, seed)
            p = random_condition(f, rng, rng.randint(0, 6))
            assert validate_condition(f, p).ok
            for r in range(len(p.a) + 1):
                for b in combinations(p.a, r):
                    trace = restrict(p, b)
                    criterion = all(v <= frozenset(b) for v in trace.i.values())
                    assert trace.is_condition == criterion
                    built = Condition(trace.a, trace.h, trace.i)
                    assert trace.is_condition == validate_condition(f, built).ok
                    assert trace.is_condition == (not oracle_validate(f, built))


class TestLeqRestricted:
    def test_reflexive(self):
        p = cond([0, 1], {0: {0}, 1: {0, 1}}, {(0, 1): set()})
        assert leq_restricted(as_restriction(p), as_restriction(p))

    def test_agrees_with_leq_on_full_conditions(self):
        rng = random.Random(5)
        f = random_pair_function(9, 0.5, 5)
        for _ in range(60):
            p = random_condition(f, rng, rng.randint(0, 5))
            q = random_condition(f, rng, rng.randint(0, 5))
            assert leq_restricted(as_restriction(p), as_restriction(q)) == leq(p, q)

    def test_base_not_contained(self):
        p = cond([0, 1], {0: {0}, 1: {0, 1}}, {(0, 1): set()})
        q = cond([0, 2], {0: {0}, 2: {0, 2}}, {(0, 2): set()})
        assert not leq_restricted(as_restriction(p), as_restriction(q))


class TestPrecedes:
    def test_reflexive(self):
        p = cond([0, 1], {0: {0}, 1: {0, 1}}, {(0, 1): set()})
        assert precedes(p, p)

    def test_domain_mismatch(self):
        with pytest.raises(BadArgument, match=r"domains differ: \[0\] vs \[1\]"):
            precedes(Condition.single(0), Condition.single(1))

    def test_seventeen_points(self):
        # 2^16 avoidance sets below the top point, too many for a subset scan.
        # Against the pointwise definition: h(alpha) <= h'(alpha), and every x
        # of h(alpha) in h'(beta) for a domain beta < alpha is in h(beta).
        p = Condition.empty()
        for a in range(17):
            p = extend_with_point(p, a)
        assert precedes(p, p)

        def pointwise(c, d):
            return all(
                c.h[alpha] <= d.h[alpha]
                and all(x in c.h[beta] for beta in c.a if beta < alpha for x in c.h[alpha] & d.h[beta])
                for alpha in c.a
            )

        shown = []
        for beta, grown in [(16, {0, 16}), (2, {1, 2}), (9, {3, 5, 9})]:
            q = Condition(p.a, {**p.h, beta: grown}, p.i)
            for c, d in [(p, q), (q, p)]:
                shown.append(precedes(c, d))
                assert shown[-1] == pointwise(c, d), (beta, c.h, d.h)
        assert shown == [True, False] * 3
        # A perturbation only the second clause catches: 1 joins h(16) on
        # both sides but h'(2) alone, so avoiding {2} keeps 1 near 16 in p
        # and not in q.
        r = Condition(p.a, {**p.h, 16: frozenset({1, 16})}, p.i)
        s = Condition(p.a, {**r.h, 2: frozenset({1, 2})}, p.i)
        assert not precedes(r, s) and not pointwise(r, s)
        assert basic_nbhd(r, 16, {2}) == {1, 16} and basic_nbhd(s, 16, {2}) == {16}

    def test_strictly_larger_nbhd_fails(self):
        p = cond([0, 1], {0: {0}, 1: {0, 1}}, {(0, 1): set()})
        q = cond([0, 1], {0: {0}, 1: {1}}, {(0, 1): set()})
        # basic_nbhd(p, 1, {0}) = {1} <= {1}; with b = {} p has {0,1} > {1}
        assert not precedes(p, q)
        assert precedes(q, p)

    def test_transitive_on_samples(self):
        rng = random.Random(6)
        f = random_pair_function(8, 0.6, 6)
        for _ in range(30):
            p = random_condition(f, rng, rng.randint(1, 5))
            # grow h-values inside clause-(iv) slack by re-adding smaller points
            def fatten(c):
                h = dict(c.h)
                for xi in c.a:
                    extra = frozenset(x for x in c.a if x < xi and rng.random() < 0.2)
                    h[xi] = h[xi] | extra
                return Condition(c.a, h, c.i)
            q, r = fatten(p), fatten(p)
            if precedes(p, q) and precedes(q, r):
                assert precedes(p, r)


# Bounded-exhaustive scope for precedes: every ordered pair of valid
# conditions on each domain of 1 to 3 points over 6 ordinals, at a dense and
# a half-dense pair function.  A test of h(alpha) <= h'(alpha) alone differs
# from the subset scan on 296 of these pairs.
@pytest.mark.parametrize("density, pairs, positive", [(1.0, 3_986, 1_571), (0.5, 1_906, 778)])
def test_precedes_matches_the_subset_scan(density, pairs, positive):
    f = random_pair_function(6, density, 0)
    seen = held = 0
    for size in (1, 2, 3):
        for dom in combinations(range(6), size):
            conds = list(iter_conditions(f, dom))
            for p in conds:
                for q in conds:
                    expected = oracle_precedes(p, q)
                    assert precedes(p, q) == expected, (p.key(), q.key())
                    seen += 1
                    held += expected
    assert (seen, held) == (pairs, positive)


class TestExtendWithPoint:
    def test_from_empty(self):
        assert extend_with_point(Condition.empty(), 0) == Condition.single(0)

    def test_already_present(self):
        with pytest.raises(BadArgument, match="0 already in domain"):
            extend_with_point(Condition.single(0), 0)

    def test_full_chain_stays_valid(self):
        f = random_pair_function(6, 0.8, 2)
        p = Condition.empty()
        for a in range(6):
            p = extend_with_point(p, a)
            assert validate_condition(f, p).ok
            assert not oracle_validate(f, p)
        assert p.a == tuple(range(6))
        assert all(p.h[a] == {a} for a in p.a)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**30), st.integers(0, 2**30))
    def test_random_extension_valid_and_below(self, fseed, cseed):
        f = random_pair_function(12, 0.5, fseed)
        rng = random.Random(cseed)
        p = random_condition(f, rng, rng.randint(0, 6))
        fresh = [x for x in range(12) if x not in p.a]
        alpha = rng.choice(fresh)
        q = extend_with_point(p, alpha)
        assert validate_condition(f, q).ok
        assert not oracle_validate(f, q)
        assert leq(q, p)


class TestExtendIntoNeighbourhood:
    def test_worked_example(self):
        p = cond([1, 3], {1: {1}, 3: {1, 3}}, {(1, 3): set()})
        q = extend_into_neighbourhood(p, 3, {1}, 2)
        assert q.h[3] == {1, 2, 3} and q.h[2] == {2} and q.h[1] == {1}
        assert 2 in basic_nbhd(q, 3, {1})
        assert basic_nbhd(q, 3, {1}) == {2, 3}
        f = PairFunction.build(4)
        assert validate_condition(f, q).ok and leq(q, p)

    def test_empty_avoidance_always_lands_in_h_beta(self):
        rng = random.Random(7)
        f = random_pair_function(10, 0.5, 7)
        for _ in range(40):
            p = random_condition(f, rng, rng.randint(1, 6))
            beta = rng.choice([x for x in p.a if x > 0] or p.a)
            fresh = [x for x in range(beta) if x not in p.a]
            if not fresh:
                continue
            alpha = rng.choice(fresh)
            q = extend_into_neighbourhood(p, beta, set(), alpha)
            assert alpha in q.h[beta]

    def test_precondition_errors(self):
        p = cond([1, 3], {1: {1}, 3: {1, 3}}, {(1, 3): set()})
        with pytest.raises(BadArgument, match="beta=2 not in domain"):
            extend_into_neighbourhood(p, 2, set(), 0)
        with pytest.raises(BadArgument, match=r"b=\[0\] is not a domain subset below 3"):
            extend_into_neighbourhood(p, 3, {0}, 2)
        with pytest.raises(BadArgument, match="alpha=1 must be a fresh ordinal below 3"):
            extend_into_neighbourhood(p, 3, {1}, 1)
        with pytest.raises(BadArgument, match="alpha=2 must be a fresh ordinal below 1"):
            extend_into_neighbourhood(p, 1, set(), 2)


class TestEnumerator:
    def test_enumerates_only_valid_conditions(self):
        for seed, density in ((0, 0.0), (1, 0.5), (2, 1.0)):
            f = random_pair_function(4, density, seed)
            seen = set()
            for p in iter_conditions(f, (0, 1, 3)):
                assert validate_condition(f, p).ok
                assert not oracle_validate(f, p)
                assert p not in seen
                seen.add(p)
            assert seen

    def test_empty_domain(self):
        f = random_pair_function(4, 0.5, 0)
        assert list(iter_conditions(f, ())) == [Condition.empty()]

    def test_complete_for_empty_function(self):
        # With no pair-function values, i must vanish and clause (iv) forces
        # pairwise-empty stars; brute-force count over a 3-point domain.
        f = PairFunction.build(5)
        dom = (0, 2, 4)
        enumerated = set(iter_conditions(f, dom))
        brute = 0
        from itertools import product as iproduct
        options = []
        for xi in dom:
            below = [x for x in dom if x < xi]
            opts = []
            for r in range(len(below) + 1):
                for c in combinations(below, r):
                    opts.append(frozenset(c) | {xi})
            options.append(opts)
        for combo in iproduct(*options):
            h = dict(zip(dom, combo))
            p = Condition(dom, h, {k: frozenset() for k in combinations(dom, 2)})
            if not oracle_validate(f, p):
                brute += 1
                assert p in enumerated
        assert len(enumerated) == brute


def poset_laws_pool(trial):
    """The pair function and condition pool of ``poset-laws`` trial ``trial``
    at seed 0: every domain in the suite's carrier, capped per domain."""
    density = (0.0, 0.3, 0.6, 1.0)[trial]
    f = random_pair_function(len(_POSET_DOMAIN), density, derive_seed(0, trial, "poset-f"))
    pool = [
        p
        for r in range(len(_POSET_DOMAIN) + 1)
        for dom in combinations(_POSET_DOMAIN, r)
        for p in islice(iter_conditions(f, dom), _POSET_CAP_PER_DOMAIN)
    ]
    return f, pool


# Library clauses against the oracle's: the oracle stops at the first failing
# stage ((i), then (ii), then (iii) and (iv) together); the library names all.
STAGE = {"i": 0, "ii": 1, "iii": 2, "iv": 2}


def assert_clauses_agree(f, p):
    lib = validate_condition(f, p).clauses()
    found = sorted({problem.split(":")[0] for problem in oracle_validate(f, p)})
    first = min((STAGE[c] for c in lib), default=None)
    assert found == [c for c in lib if STAGE[c] == first], (p.a, p.h, p.i)


class TestKernelsOnPosetLawsPool:
    """``validate_condition``, ``restrict`` and ``leq`` against the oracles on
    every condition of the ``poset-laws`` pool and every trace of it."""

    @pytest.mark.parametrize("trial", range(4), ids=["density-0", "density-0.3", "density-0.6", "density-1"])
    def test_validate_and_leq_match_oracles(self, trial):
        f, pool = poset_laws_pool(trial)
        rng = random.Random(trial)
        traces = not_conditions = 0
        for p in pool:
            assert_clauses_agree(f, p)
            for r in range(len(p.a) + 1):
                for b in combinations(p.a, r):
                    rc = restrict(p, b)
                    traces += 1
                    not_conditions += not rc.is_condition
                    assert_clauses_agree(f, rc)
                    assert leq(p, rc) == oracle_leq(p, rc)
                    assert leq(rc, p) == oracle_leq(rc, p)
        by_domain = {}
        for p in pool:
            by_domain.setdefault(p.a, []).append(p)
        for group in by_domain.values():
            for _ in range(8):
                p, q = rng.choice(group), rng.choice(group)
                assert leq(p, q) == oracle_leq(p, q)
        assert traces > len(pool)
        if trial:  # with an empty pair function every trace is a condition
            assert not_conditions > 0


PIN_F = random_pair_function(8, 0.5, 11)


def singles(dom):
    return {x: {x} for x in dom}


def empty_i(dom):
    return {k: () for k in combinations(dom, 2)}


# Invalid conditions over PIN_F, one failure shape each.
INVALID = [
    # h partial
    Condition([0, 2, 5], {0: {0}}, empty_i([0, 2, 5])),
    # i missing at every pair
    Condition([0, 1, 3, 4, 6, 7], singles([0, 1, 3, 4, 6, 7]), {}),
    # i at non-domain pairs, the one domain pair kept
    Condition([1, 4], singles([1, 4]), {(1, 4): (), (0, 1): (), (2, 6): (), (4, 7): ()}),
    # i missing at some pairs and extra at others
    Condition([0, 2, 3, 5, 6], singles([0, 2, 3, 5, 6]),
              {(0, 2): (), (1, 3): (), (3, 6): (), (5, 7): (), (2, 5): ()}),
    # i-values outside the domain
    Condition([2, 5, 6], singles([2, 5, 6]), {(2, 5): {0}, (2, 6): (), (5, 6): {1, 2}}),
    # h defined outside the domain, an h-value outside the domain
    Condition([3, 4], {3: {1, 3}, 4: {4}, 6: {6}}, {(3, 4): ()}),
    # clause (ii) at two points
    Condition([0, 2, 4, 6], {0: {0}, 2: {0}, 4: {0, 4}, 6: {4}}, empty_i([0, 2, 4, 6])),
    # clause (iii): i-values inside the domain but beyond f
    Condition(range(8), singles(range(8)), {k: set(range(min(k))) for k in combinations(range(8), 2)}),
    # clause (iv): the star {0} left uncovered on three pairs
    Condition([0, 1, 2, 3], {0: {0}, 1: {0, 1}, 2: {0, 2}, 3: {0, 3}}, empty_i([0, 1, 2, 3])),
    # several clauses at once
    Condition([0, 1, 2, 5, 7], {0: {0}, 1: {1}, 2: {0, 2}, 5: {2, 4}, 7: {0, 7}},
              {(0, 2): (), (0, 7): {0}, (1, 2): {0}, (2, 7): {1}, (1, 5): (), (3, 4): ()}),
]
INVALID_DIGEST = "a34d8968bad8e7675199097f3e73ec76e7f9c87c036b972cc1541b652356c9f1"  # taken before the validator was reworked


class TestViolationsPinned:
    def test_cases_cover_every_clause(self):
        reports = [validate_condition(PIN_F, p) for p in INVALID]
        assert all(not rep.ok for rep in reports)
        assert set().union(*(rep.clauses() for rep in reports)) == {"i", "ii", "iii", "iv"}

    def test_violations_and_their_order_are_pinned(self):
        text = "\n".join(repr(validate_condition(PIN_F, p).violations) for p in INVALID)
        assert hashlib.sha256(text.encode()).hexdigest() == INVALID_DIGEST
