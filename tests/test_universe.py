import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from scatterlab.errors import BadArgument
from scatterlab.universe import (
    PairFunction,
    good_pair_demands,
    good_pair_violations,
    pair_closure,
    random_pair_function,
    search_common_lower_bound,
)

from oracles import oracle_good_pair, oracle_good_pair_clauses, oracle_pair_closure, oracle_pair_function


def small_f(kappa=5, density=0.5, seed=0):
    return random_pair_function(kappa, density, seed)


def failed_clauses(f, x, y) -> set[str]:
    """The clause letters named by ``good_pair_violations``'s messages."""
    return {v[1] for v in good_pair_violations(f, x, y)}


class TestPairFunction:
    def test_kappa_one_has_no_pairs(self):
        assert random_pair_function(1, 0.7, 5).values == {}

    @pytest.mark.parametrize("kappa", [0, 65])
    def test_one_kappa_rule(self, kappa):
        for make in (lambda: PairFunction.build(kappa), lambda: random_pair_function(kappa, 0.5, 0)):
            with pytest.raises(BadArgument, match=f"^kappa must be between 1 and 64, got {kappa}$"):
                make()

    def test_zero_density_empty(self):
        f = random_pair_function(6, 0.0, 3)
        assert all(v == frozenset() for v in f.values.values())

    def test_full_density_full_intervals(self):
        f = random_pair_function(6, 1.0, 3)
        assert all(v == frozenset(range(a)) for (a, _), v in f.values.items())

    def test_seed_determinism(self):
        assert random_pair_function(8, 0.5, 42) == random_pair_function(8, 0.5, 42)
        assert random_pair_function(8, 0.5, 42) != random_pair_function(8, 0.5, 43)

    def test_values_below_minimum(self):
        f = random_pair_function(10, 0.8, 1)
        for (a, b), v in f.values.items():
            assert all(g < a for g in v)
            assert a < b < 10

    def test_build_rejects_bad_value(self):
        with pytest.raises(BadArgument, match=r"value of pair \(1,3\) must lie below 1, got \[2\]"):
            PairFunction.build(4, {(1, 3): {2}})

    def test_build_rejects_out_of_range_pair(self):
        with pytest.raises(BadArgument, match=r"pair \(2,5\) lies outside the carrier 0..2"):
            PairFunction.build(3, {(2, 5): set()})

    @pytest.mark.parametrize("kappa", [1, 2, 5, 17, 64])
    @pytest.mark.parametrize("density", [0.0, 0.3, 1.0])
    def test_draw_order_matches_oracle(self, kappa, density):
        for seed in (0, 7, 2**31 + 5):
            f = random_pair_function(kappa, density, seed)
            assert list(f.values.items()) == list(oracle_pair_function(kappa, density, seed).items())


class TestUpdated:
    @pytest.mark.parametrize(
        "override, message",
        [
            ({(2, 2): set()}, r"pair needs distinct ordinals, got 2 twice"),
            ({(1, 6): set()}, r"pair \(1,6\) lies outside the carrier 0..5"),
            ({(3, 1): {1}}, r"value of pair \(1,3\) must lie below 1, got \[1\]"),
            ({(2, 4): {0, 3}}, r"value of pair \(2,4\) must lie below 2, got \[0, 3\]"),
            ({(2, 4): {-1}}, r"value of pair \(2,4\) must lie below 2, got \[-1\]"),
            ({(-1, 2): set()}, r"pair \(-1,2\) lies outside the carrier 0..5"),
            ({(3, -2): set()}, r"pair \(-2,3\) lies outside the carrier 0..5"),
        ],
        ids=["equal-ordinals", "beyond-carrier", "value-at-minimum", "value-above-minimum",
             "negative-value", "negative-low-ordinal", "negative-swapped-ordinal"],
    )
    def test_rejects_what_build_rejects(self, override, message):
        f = random_pair_function(6, 0.5, 1)
        before = dict(f.values)
        with pytest.raises(BadArgument, match=message) as from_updated:
            f.updated(override)
        with pytest.raises(BadArgument, match=message) as from_build:
            PairFunction.build(6, override)
        assert str(from_updated.value) == str(from_build.value)
        assert f.values == before

    def test_matches_build_on_random_overrides(self):
        rng = random.Random(11)
        for seed in range(40):
            kappa = rng.randint(2, 20)
            f = random_pair_function(kappa, rng.choice((0.0, 0.4, 1.0)), seed)
            before = dict(f.values)
            overrides = {}
            for _ in range(rng.randint(0, 8)):
                a, b = sorted(rng.sample(range(kappa), 2))
                key = (a, b) if rng.random() < 0.5 else (b, a)
                overrides[key] = [g for g in range(a) if rng.random() < 0.5]
            merged = dict(f.values)
            merged.update({tuple(sorted(k)): v for k, v in overrides.items()})
            g = f.updated(overrides)
            assert g == PairFunction.build(kappa, merged)
            assert list(g.values) == list(f.values)
            assert f.values == before


class TestGoodPair:
    def test_disjoint_sets_good(self):
        assert not good_pair_violations(small_f(), {0, 1}, {2, 3})

    def test_equal_sets_good(self):
        assert not good_pair_violations(small_f(), {1, 2, 4}, {1, 2, 4})

    def test_clause_a_counterexample(self):
        f = PairFunction.build(4, {(2, 3): {0}})
        assert good_pair_violations(f, {1, 2}, {1, 3}) == ["(a) at beta=2, gamma=3"]

    def test_out_of_universe(self):
        with pytest.raises(BadArgument, match="ordinal 9 outside carrier of size 4"):
            good_pair_violations(small_f(kappa=4), {1, 9}, {2})

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 2**30), st.floats(0, 1), st.data())
    def test_symmetry_and_oracle(self, kappa, seed, density, data):
        f = random_pair_function(kappa, density, seed)
        x = frozenset(data.draw(st.sets(st.integers(0, kappa - 1))))
        y = frozenset(data.draw(st.sets(st.integers(0, kappa - 1))))
        clauses = failed_clauses(f, x, y)
        assert clauses == oracle_good_pair_clauses(f, x, y)
        assert (not clauses) == (not good_pair_violations(f, y, x)) == oracle_good_pair(f, x, y)

    @pytest.mark.parametrize("density", [1.0, 0.5, 0.2])
    def test_failed_clauses_match_on_every_small_twin_domain_pair(self, density):
        # The domains of the bounded-exhaustive twin pairs: every ordered pair
        # of equal-sized subsets of 1 to 3 points of a 6-ordinal carrier.
        f = random_pair_function(6, density, 0)
        doms = [frozenset(c) for size in (1, 2, 3) for c in combinations(range(6), size)]
        bad = 0
        for x in doms:
            for y in doms:
                if len(x) == len(y):
                    clauses = failed_clauses(f, x, y)
                    assert clauses == oracle_good_pair_clauses(f, x, y), (sorted(x), sorted(y))
                    bad += bool(clauses)
        assert (bad > 0) == (density < 1.0)

    def test_repairing_the_demands_makes_interleaved_domains_good(self):
        # Each ordinal is shared, private to x or private to y at random, so
        # shared points fall between private ones, unlike the sampler's prefix.
        rng = random.Random(4)
        repaired = 0
        for seed in range(200):
            kappa = rng.randint(3, 24)
            f = random_pair_function(kappa, rng.choice((0.1, 0.5, 0.9)), seed)
            roles = [rng.choice("sxy") for _ in range(kappa)]
            x = {u for u, role in enumerate(roles) if role in "sx"}
            y = {u for u, role in enumerate(roles) if role in "sy"}
            demands = good_pair_demands(f, x, y)
            unmet = {
                k for beta, gamma, *needs in demands for k, need in zip("abc", needs) if not need <= f.value(beta, gamma)
            }
            assert unmet == oracle_good_pair_clauses(f, x, y)
            fixed = f.updated({(beta, gamma): f.value(beta, gamma).union(*needs) for beta, gamma, *needs in demands})
            assert good_pair_violations(fixed, x, y) == []
            assert oracle_good_pair(fixed, x, y)
            repaired += bool(unmet)
        assert repaired > 0


class TestPairClosure:
    def test_empty_base(self):
        assert pair_closure(small_f(), set(), {1, 2}).closure == frozenset()

    def test_empty_function_fixed_immediately(self):
        f = PairFunction.build(5)
        res = pair_closure(f, {1, 3}, {4})
        assert res.closure == {1, 3}
        assert res.iterations <= 1

    def test_worked_example(self):
        f = PairFunction.build(6, {(4, 5): {1, 2}})
        res = pair_closure(f, {4}, {5})
        assert res.closure == {1, 2, 4}
        assert res.iterations == 1

    def test_closure_contract_and_oracle(self):
        for seed in range(20):
            f = random_pair_function(5, 0.6, seed)
            rng = random.Random(seed)
            base = frozenset(rng.sample(range(5), rng.randint(0, 5)))
            partners = frozenset(rng.sample(range(5), rng.randint(0, 5)))
            cl = pair_closure(f, base, partners).closure
            assert cl == oracle_pair_closure(f, base, partners)
            assert base <= cl
            if base:
                assert max(cl) == max(base)
            for xi in cl:
                for eta in cl | partners:
                    if xi != eta:
                        assert f.value(xi, eta) <= cl

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**30), st.data())
    def test_idempotent_and_monotone(self, seed, data):
        f = random_pair_function(6, 0.5, seed)
        base = frozenset(data.draw(st.sets(st.integers(0, 5))))
        bigger = base | frozenset(data.draw(st.sets(st.integers(0, 5))))
        partners = frozenset(data.draw(st.sets(st.integers(0, 5))))
        cl = pair_closure(f, base, partners).closure
        assert pair_closure(f, cl, partners).closure == cl
        assert cl <= pair_closure(f, bigger, partners).closure


class TestSearchCommonLowerBound:
    def test_single_group_no_constraint(self):
        assert search_common_lower_bound(small_f(), [{3}, {4}], set(), 1) == [0]

    def test_empty_bound_takes_everything(self):
        f = small_f()
        assert search_common_lower_bound(f, [{2}, {3}, {4}], set(), 3) == [0, 1, 2]

    def test_worked_example(self):
        f = PairFunction.build(7, {(3, 4): {0}, (4, 5): {0}})
        assert search_common_lower_bound(f, [{3}, {4}, {5}], {0}, 2) == [0, 1]

    def test_failure_returns_none(self):
        f = PairFunction.build(7)
        assert search_common_lower_bound(f, [{3}, {4}, {5}], {0}, 2) is None

    def test_witness_verifies(self):
        for seed in range(25):
            f = random_pair_function(10, 0.7, seed)
            groups = [{4, 5}, {6}, {7, 8}, {9}]
            res = search_common_lower_bound(f, groups, {0, 1}, 2)
            if res is not None:
                i, j = res
                for xi in groups[i]:
                    for eta in groups[j]:
                        assert {0, 1} <= f.value(xi, eta)

    @pytest.mark.parametrize("n", [0, -1])
    def test_n_checked_first(self, n):
        with pytest.raises(BadArgument, match=f"^--n must be at least 1, got {n}$"):
            search_common_lower_bound(small_f(kappa=4), [{9}], {7}, n)

    def test_disjointness_enforced(self):
        with pytest.raises(BadArgument, match=r"groups 0 and 1 overlap on \[3\]"):
            search_common_lower_bound(small_f(), [{2, 3}, {3, 4}], set(), 1)

    def test_bound_must_lie_below(self):
        with pytest.raises(BadArgument, match=r"max\(bound\)=3 not below group 0 \(min 2\)"):
            search_common_lower_bound(small_f(), [{2}, {4}], {3}, 1)
