import random
from itertools import combinations

import pytest

from scatterlab.amalgam import (
    InsertionLayout,
    amalgamate,
    are_twins,
    anchors,
    delta_xi,
    g_well_defined,
    good_twin_violations,
    insertion_construction,
    verify_membership_equiv,
)
from scatterlab.errors import HypothesisViolated, NotGoodTwins
from scatterlab.poset import (
    Condition,
    as_restriction,
    h_union,
    leq,
    leq_restricted,
    precedes,
    restrict,
    validate_condition,
)
from scatterlab.sampling import good_twin_pair, insertion_instance, iter_conditions
from scatterlab.universe import PairFunction, random_pair_function

from oracles import (
    oracle_amalgamate,
    oracle_anchor,
    oracle_good_twins,
    oracle_precedes,
    oracle_twin_repair,
    oracle_twins,
    oracle_validate,
)

WORKED_F = PairFunction.build(4, {(1, 2): {0}})
P = Condition([0, 1], {0: {0}, 1: {0, 1}}, {(0, 1): set()})
Q = Condition([0, 2], {0: {0}, 2: {0, 2}}, {(0, 2): set()})


class TestTwins:
    def test_identity_witness(self):
        w = are_twins(P, P)
        assert w is not None and all(a == b for a, b in w)

    def test_size_mismatch(self):
        assert are_twins(P, Condition.single(0)) is None

    def test_worked_pair(self):
        w = are_twins(P, Q)
        assert w is not None
        assert w == ((0, 0), (1, 2))

    def test_h_mismatch_rejected(self):
        q = Condition([0, 2], {0: {0}, 2: {2}}, {(0, 2): set()})
        assert are_twins(P, q) is None

    def test_common_point_must_be_fixed(self):
        p = Condition([0, 1], {0: {0}, 1: {1}}, {(0, 1): set()})
        q = Condition([1, 2], {1: {1}, 2: {2}}, {(1, 2): set()})
        # natural bijection sends 0 to 1, moving the shared point 1
        assert are_twins(p, q) is None


class TestGoodTwins:
    def test_worked_pair_good(self):
        assert not good_twin_violations(WORKED_F, P, Q)

    def test_identity_good(self):
        assert not good_twin_violations(WORKED_F, P, P)

    def test_goodness_clause_fails_without_f_value(self):
        f = PairFunction.build(4)  # f{1,2} empty; clause (a) bites
        assert "3 (domains not a good pair)" in good_twin_violations(f, P, Q)

    def test_i_agreement_clause(self):
        f = random_pair_function(6, 1.0, 0)
        p = Condition([0, 1, 2], {0: {0}, 1: {0, 1}, 2: {0, 1, 2}},
                      {(0, 1): set(), (0, 2): set(), (1, 2): set()})
        q = Condition([0, 1, 2], {0: {0}, 1: {0, 1}, 2: {0, 1, 2}},
                      {(0, 1): set(), (0, 2): set(), (1, 2): {0}})
        assert validate_condition(f, p).ok and validate_condition(f, q).ok
        # identical domains: natural bijection is the identity but i differs,
        # so twin clause 1(ii) and clause 2 both fail
        violations = good_twin_violations(f, p, q)
        assert any(v.startswith("1(ii)") for v in violations)
        assert any(v.startswith("2 ") for v in violations)


def perturbed(q: Condition, rng: random.Random) -> Condition:
    """``q`` with one member of one ``h``-value or one ``i``-value toggled."""
    h, i = dict(q.h), dict(q.i)
    if i and rng.random() < 0.5:
        k = rng.choice(sorted(i))
        i[k] = i[k] ^ {rng.choice(q.a)}
    else:
        xi = rng.choice(q.a)
        h[xi] = h[xi] ^ {rng.choice([x for x in q.a if x < xi] or [xi])}
    return Condition(q.a, h, i)


def twin_oracle_cases():
    """Sampled good-twin pairs, the same pairs over the unrepaired pair
    function, the pairs with one value of ``q`` perturbed, and twins that
    disagree on ``i`` over a shared pair."""
    rng = random.Random(21)
    cases = []
    for t in range(120):
        f = random_pair_function(rng.randint(8, 20), rng.choice((0.1, 0.5, 0.9)), t)
        f2, p, q = good_twin_pair(f, rng, rng.randint(0, 6))
        cases += [(f2, p, q), (f, p, q)]
        if q.a:
            cases.append((f2, p, perturbed(q, rng)))
    # A shared pair whose i-values hold private points: twins failing clause 2 alone.
    p = Condition([0, 2, 3], {0: {0}, 2: {2}, 3: {3}}, {(0, 2): set(), (0, 3): set(), (2, 3): {0}})
    q = Condition([1, 2, 3], {1: {1}, 2: {2}, 3: {3}}, {(1, 2): set(), (1, 3): set(), (2, 3): {1}})
    cases.append((random_pair_function(4, 1.0, 0), p, q))
    return cases


class TestTwinOracle:
    def test_checker_agrees_with_oracle(self):
        cases = twin_oracle_cases()
        outcomes = set()
        for f, p, q in cases:
            good = oracle_good_twins(f, p, q)
            assert (good_twin_violations(f, p, q) == []) == good
            assert (are_twins(p, q) is not None) == oracle_twins(p, q)
            outcomes.add((good, oracle_twins(p, q)))
        # every branch occurs: good twins, twins over a bad pair, non-twins
        assert outcomes == {(True, True), (False, True), (False, False)}

    def test_membership_equiv_without_f_checks_clauses_1_and_2(self):
        seen = set()
        for _, p, q in twin_oracle_cases():
            try:
                verify_membership_equiv(p, q, None)
                raised = False
            except NotGoodTwins:
                raised = True
            assert raised == (not oracle_good_twins(None, p, q))
            seen.add(raised)
        assert seen == {True, False}


class TestDelta:
    def test_shared_point_anchors_itself(self):
        assert delta_xi(P, Q, 0) == 0

    def test_unanchored_point(self):
        assert delta_xi(P, Q, 1) is None
        assert delta_xi(P, Q, 2) is None

    def test_minimum_is_taken(self):
        p = Condition([0, 1, 3], {0: {0}, 1: {0, 1}, 3: {0, 3}},
                      {(0, 1): set(), (0, 3): set(), (1, 3): set()})
        # both 0 and 1 are common and contain 0; the least wins
        assert delta_xi(p, p, 0) == 0


class TestAmalgamate:
    def test_worked_example(self):
        r = amalgamate(WORKED_F, P, Q)
        assert r.a == (0, 1, 2)
        assert r.h == {0: frozenset({0}), 1: frozenset({0, 1}), 2: frozenset({0, 2})}
        assert r.i == {(0, 1): frozenset(), (0, 2): frozenset(), (1, 2): frozenset({0})}
        assert validate_condition(WORKED_F, r).ok
        assert leq(r, P) and leq(r, Q)

    def test_idempotent_on_equal_twins(self):
        assert amalgamate(WORKED_F, P, P) == P

    def test_disjoint_singletons(self):
        f = PairFunction.build(4, {(1, 2): {0}})
        p, q = Condition.single(1), Condition.single(2)
        r = amalgamate(f, p, q)
        assert r.a == (1, 2)
        assert r.i_value(1, 2) == f.value(1, 2) & {1, 2}
        assert r.i_value(1, 2) == frozenset()

    def test_rejects_non_twins(self):
        with pytest.raises(NotGoodTwins):
            amalgamate(WORKED_F, P, Condition.single(0))

    def test_rejects_bad_goodness(self):
        with pytest.raises(NotGoodTwins) as exc:
            amalgamate(PairFunction.build(4), P, Q)
        assert any(c.startswith("3") for c in exc.value.clauses)

    def test_sampled_pairs(self):
        rng = random.Random(11)
        for t in range(150):
            f = random_pair_function(rng.randint(8, 24), rng.choice((0.1, 0.5, 0.9)), t)
            f2, p, q = good_twin_pair(f, rng, rng.randint(0, 6))
            assert not good_twin_violations(f2, p, q)
            r = amalgamate(f2, p, q)
            assert not oracle_validate(f2, r)
            assert leq(r, p) and leq(r, q)
            assert amalgamate(f2, q, p) == r
            assert verify_membership_equiv(p, q, f2)
            assert g_well_defined(p, q)


class TestMembershipEquiv:
    def test_worked_pair(self):
        assert verify_membership_equiv(P, Q, WORKED_F)

    def test_twin_check_without_f(self):
        assert verify_membership_equiv(P, Q, None)

    def test_rejects_non_twins(self):
        with pytest.raises(NotGoodTwins):
            verify_membership_equiv(P, Condition.single(0), None)


# Bounded-exhaustive scope: every valid condition of size 1 to 3 on the carrier
# of a dense pair function over 6 ordinals, where interleaved good twins exist
# and the anchor rule pulls foreign points into private neighbourhood sets.
SMALL_F = random_pair_function(6, 1.0, 0)


@pytest.fixture(scope="module")
def small_same_size_pairs():
    conds = [
        p for size in (1, 2, 3) for dom in combinations(range(6), size) for p in iter_conditions(SMALL_F, dom)
    ]
    return [(p, q) for p in conds for q in conds if len(p.a) == len(q.a)]


@pytest.fixture(scope="module")
def small_good_twins(small_same_size_pairs):
    """Every ordered pair of those conditions that the oracle calls good twins."""
    return [(p, q) for p, q in small_same_size_pairs if oracle_good_twins(SMALL_F, p, q)]


def _adds_foreign_point(p, q) -> bool:
    dom, h, _ = oracle_amalgamate(SMALL_F, p, q)
    return any(h[xi] != set((p if xi in p.a else q).h[xi]) for xi in dom if (xi in p.a) != (xi in q.a))


class TestBoundedExhaustive:
    def test_scope_reaches_the_foreign_point_rule(self, small_good_twins):
        assert sum(_adds_foreign_point(p, q) for p, q in small_good_twins) > 0

    def test_checker_matches_oracle(self, small_same_size_pairs):
        for p, q in small_same_size_pairs:
            assert (good_twin_violations(SMALL_F, p, q) == []) == oracle_good_twins(SMALL_F, p, q)

    def test_amalgamate_matches_oracle(self, small_good_twins):
        for p, q in small_good_twins:
            r = amalgamate(SMALL_F, p, q)
            assert (list(r.a), r.h, r.i) == oracle_amalgamate(SMALL_F, p, q), (p.key(), q.key())

    def test_anchors_match_oracle(self, small_good_twins):
        for p, q in small_good_twins:
            assert anchors(p, q) == {eta: oracle_anchor(p, q, eta) for eta in set(p.a) | set(q.a)}

    def test_anchor_lemmas_hold(self, small_good_twins):
        for p, q in small_good_twins:
            assert verify_membership_equiv(p, q, SMALL_F), (p.key(), q.key())
            assert g_well_defined(p, q), (p.key(), q.key())


def assert_mixed_values_shared(f, r, kept):
    """Each pair of ``r`` that ``kept`` does not claim holds ``f``'s value cut
    to the domain, and holds ``f``'s own object whenever the value already
    lies inside the domain."""
    dom = frozenset(r.a)
    shared = 0
    for k, v in r.i.items():
        if kept(*k):
            continue
        assert v == f.values[k] & dom, k
        if f.values[k] <= dom:
            assert v is f.values[k], k
            shared += 1
    return shared


class TestSharedPairValues:
    def test_amalgamate(self, small_good_twins):
        shared = 0
        for p, q in small_good_twins:
            r = amalgamate(SMALL_F, p, q)
            shared += assert_mixed_values_shared(SMALL_F, r, lambda x, y: {x, y} <= set(p.a) or {x, y} <= set(q.a))
        rng = random.Random(21)
        for t in range(60):
            f = random_pair_function(rng.randint(24, 40), rng.choice((0.1, 0.5, 0.9)), t)
            f2, p, q = good_twin_pair(f, rng, rng.randint(4, 12))
            r = amalgamate(f2, p, q)
            shared += assert_mixed_values_shared(f2, r, lambda x, y: {x, y} <= set(p.a) or {x, y} <= set(q.a))
        assert shared > 0

    def test_insertion(self):
        rng = random.Random(22)
        shared = 0
        for _ in range(30):
            f, s, layout = insertion_instance(
                rng, kappa=24, k=rng.choice((1, 2)), q_size=rng.randint(1, 3), extra_points=rng.randint(0, 3)
            )
            r = insertion_construction(f, s, layout)
            qe = layout.Q | layout.E
            shared += assert_mixed_values_shared(f, r, lambda x, y: {x, y} <= qe or {x, y} <= layout.S)
        assert shared > 0


class TestTwinRepair:
    """The sampler repairs ``f`` from the good-pair demands exactly as the
    triple-by-triple oracle does, and leaves ``f`` itself when nothing needs
    repairing."""

    @staticmethod
    def check(kappa, size, seed) -> bool:
        f = random_pair_function(kappa, (0.1, 0.4, 0.8)[seed % 3], seed)
        f2, p, q = good_twin_pair(f, random.Random(seed), size)
        want = oracle_twin_repair(f, p, q)
        assert f2.values == want, (kappa, size, seed)
        assert (f2 is f) == (want == f.values), (kappa, size, seed)
        return f2 is not f

    @pytest.mark.parametrize("kappa", [8, 16, 64])
    def test_small_sizes(self, kappa):
        repaired = [self.check(kappa, size, seed) for size in range(9) for seed in range(25)]
        assert any(repaired) and not all(repaired)

    def test_benchmark_size(self):
        assert any([self.check(64, 32, seed) for seed in range(20)])


def build_layout_violation_cases():
    rng = random.Random(3)
    f, s, layout = insertion_instance(rng, kappa=20, k=1, q_size=2, extra_points=1)
    return f, s, layout


class TestInsertion:
    def test_harness_instances_satisfy_conclusions(self):
        rng = random.Random(13)
        for t in range(60):
            k = rng.choice((1, 2))
            f, s, layout = insertion_instance(
                rng, kappa=24, k=k,
                q_size=rng.randint(1, 3), extra_points=rng.randint(0, 3),
                density=rng.choice((0.2, 0.5, 0.8)),
            )
            r = insertion_construction(f, s, layout)
            assert not oracle_validate(f, r)
            assert leq_restricted(as_restriction(r), restrict(s, layout.S))
            assert leq_restricted(as_restriction(r), restrict(s, layout.Q | layout.E))
            c_block = layout.S - h_union(s.h, layout.Q | layout.E)
            assert c_block <= r.h[layout.gammas[0]]
            se = restrict(s, layout.S | layout.E).as_condition()
            assert precedes(se, r) and oracle_precedes(se, r)
            assert precedes(r, se) == oracle_precedes(r, se)

    def test_covered_s_gives_trace(self):
        # with no extra points, S = Q is swallowed by the base h-values and
        # nothing is inserted: the result is the trace on S | E with the
        # covering index relabelled
        rng = random.Random(5)
        f, s, layout = insertion_instance(rng, kappa=20, k=1, q_size=3, extra_points=0)
        c_block = layout.S - h_union(s.h, layout.Q | layout.E)
        assert c_block == frozenset()
        r = insertion_construction(f, s, layout)
        trace = restrict(s, layout.S | layout.E)
        assert r.a == trace.a
        assert r.h == trace.h

    def test_layout_violations_rejected(self):
        f, s, layout = build_layout_violation_cases()
        bad = InsertionLayout(
            S=layout.S | layout.E,  # steals E's points: not a partition
            E=layout.E,
            F=layout.F,
            Q=layout.Q,
            gamma_pairs=layout.gamma_pairs,
        )
        with pytest.raises(HypothesisViolated):
            insertion_construction(f, s, bad)

    def test_order_violation_rejected(self):
        f, s, layout = build_layout_violation_cases()
        swapped = InsertionLayout(
            S=layout.E, E=layout.S, F=layout.F, Q=frozenset(),
            gamma_pairs=layout.gamma_pairs,
        )
        with pytest.raises(HypothesisViolated):
            insertion_construction(f, s, swapped)

    def test_hypothesis_i_violation_rejected(self):
        f, s, layout = build_layout_violation_cases()
        g0, g1 = layout.gamma_pairs[0]
        h = dict(s.h)
        h[g1] = frozenset({x for x in s.h[g1] if x not in layout.Q} | {g1})
        broken = Condition(s.a, h, s.i)
        with pytest.raises(HypothesisViolated):
            insertion_construction(f, broken, layout)

    def test_hypothesis_ii_violation_rejected(self):
        rng = random.Random(17)
        f, s, layout = insertion_instance(rng, kappa=20, k=1, q_size=2, extra_points=2)
        g0, _ = layout.gamma_pairs[0]
        xi = max(x for x in layout.S if x > 0)
        tweaked = f.value(xi, g0) ^ {0}  # toggle 0: stays below xi, differs
        broken = f.updated({(xi, g0): tweaked})
        with pytest.raises(HypothesisViolated):
            insertion_construction(broken, s, layout)
