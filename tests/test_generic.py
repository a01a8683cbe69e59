import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from scatterlab.errors import BadArgument, GoalUnsatisfiable, StuckNoFreshPoint
from scatterlab.generic import (
    FUCondition,
    NbhdGoal,
    PointGoal,
    SpaceModel,
    assemble_space,
    cantor_bendixson,
    check_loc_comp_hypothesis,
    check_star_containment,
    closure,
    compactness_by_subbase,
    fu_leq,
    fu_meet,
    fu_simulate,
    is_coherent,
    is_free_sequence,
    max_invariant_violations,
    minimal_nbhd,
    sample_filter,
)
from scatterlab.poset import Condition, leq
from scatterlab.sampling import random_space
from scatterlab.universe import random_pair_function

from oracles import oracle_cantor_bendixson, oracle_closure, oracle_minimal_nbhd


def toy_space(h_map, kappa=None):
    kappa = kappa if kappa is not None else (max(h_map) + 1)
    return SpaceModel(kappa, {a: frozenset(h_map.get(a, {a})) for a in range(kappa)}, {})


def nested_space(kappa):
    return toy_space({a: set(range(a + 1)) for a in range(kappa)})


def singleton_space(kappa):
    return toy_space({a: {a} for a in range(kappa)})


class TestSampleFilter:
    def test_point_schedule_fills_domain(self):
        f = random_pair_function(6, 0.5, 0)
        sample = sample_filter(f, 6, [PointGoal(a) for a in range(6)], seed=0)
        assert sample.final.a == tuple(range(6))
        assert sample.chain[0] == Condition.empty()

    def test_empty_schedule(self):
        f = random_pair_function(4, 0.5, 0)
        sample = sample_filter(f, 4, [], seed=0)
        assert sample.chain == (Condition.empty(),)

    def test_chain_descends(self):
        f = random_pair_function(10, 0.6, 1)
        _, sample, _ = random_space(f, 3)
        for k in range(len(sample.chain) - 1):
            assert leq(sample.chain[k + 1], sample.chain[k])

    def test_repeat_point_goal_already_met(self):
        f = random_pair_function(4, 0.5, 0)
        sample = sample_filter(f, 4, [PointGoal(1), PointGoal(1)], seed=0)
        assert [rec.action for rec in sample.schedule_log] == ["extended", "already-met"]

    def test_nbhd_goal_hits_target_set(self):
        f = random_pair_function(8, 0.5, 2)
        goals = [PointGoal(0), PointGoal(5), NbhdGoal(5, frozenset({0}), frozenset({2, 3}))]
        sample = sample_filter(f, 8, goals, seed=4)
        final = sample.final
        u = final.h[5] - final.h[0]
        assert u & {2, 3}

    def test_unknown_beta_unsatisfiable(self):
        f = random_pair_function(8, 0.5, 2)
        with pytest.raises(GoalUnsatisfiable):
            sample_filter(f, 8, [NbhdGoal(5, frozenset(), frozenset({1}))], seed=0)

    def test_exhausted_target_unsatisfiable(self):
        f = random_pair_function(8, 0.5, 2)
        goals = [PointGoal(1), PointGoal(5), NbhdGoal(5, frozenset({1}), frozenset({1}))]
        # 1 is already present and kept out of the neighbourhood by b={1}
        with pytest.raises(GoalUnsatisfiable):
            sample_filter(f, 8, goals, seed=0)

    def test_out_of_carrier_goal(self):
        f = random_pair_function(4, 0.5, 0)
        with pytest.raises(BadArgument):
            sample_filter(f, 4, [PointGoal(9)], seed=0)

    @pytest.mark.parametrize(
        "kappa, goals",
        [(8, []), (0, []), (4, [NbhdGoal(3, frozenset(), frozenset({5}))]), (4, [NbhdGoal(6, frozenset(), frozenset())])],
        ids=["kappa-above-carrier", "kappa-zero", "nbhd-Z", "nbhd-beta"],
    )
    def test_range_faults_are_bad_arguments(self, kappa, goals):
        f = random_pair_function(4, 0.5, 0)
        with pytest.raises(BadArgument):
            sample_filter(f, kappa, goals, seed=0)


class TestAssembleSpace:
    def test_defaults_are_singletons(self):
        f = random_pair_function(3, 0.5, 0)
        space = assemble_space(sample_filter(f, 3, [], seed=0))
        assert all(space.H[a] == {a} for a in range(3))

    def test_h_matches_final_condition(self):
        f = random_pair_function(12, 0.6, 5)
        space, sample, _ = random_space(f, 9)
        final = sample.final
        for alpha in final.a:
            assert space.H[alpha] == final.h[alpha]

    def test_max_invariant(self):
        for seed in range(10):
            f = random_pair_function(10, 0.5, seed)
            space, _, _ = random_space(f, seed)
            assert max_invariant_violations(space) == []


class TestStructuralChecks:
    def test_sampled_spaces_pass(self):
        for seed in range(15):
            f = random_pair_function(12, 0.5, seed)
            space, _, _ = random_space(f, seed)
            ok, bad = check_star_containment(space)
            assert ok and bad == []
            assert check_loc_comp_hypothesis(space)
            assert all(compactness_by_subbase(space, a) for a in space.carrier)

    def test_corrupted_h_detected(self):
        f = random_pair_function(12, 0.5, 3)
        space, sample, _ = random_space(f, 7)
        dom = sample.final.a
        if len(dom) < 2:
            pytest.skip("degenerate sample")
        beta, alpha = dom[0], dom[-1]
        h = dict(space.H)
        h[beta] = h[beta] | (h[alpha] - {alpha})  # fatten a small set arbitrarily
        corrupted = SpaceModel(space.kappa, h, space.i)
        star_ok, _ = check_star_containment(corrupted)
        loc_ok = check_loc_comp_hypothesis(corrupted)
        compact_ok = all(compactness_by_subbase(corrupted, a) for a in corrupted.carrier)
        # the corruption must trip the checks unless it landed inside covers
        assert star_ok == loc_ok == compact_ok

    def test_loc_comp_agrees_with_subbase_everywhere(self):
        for seed in range(12):
            f = random_pair_function(10, 0.7, seed)
            space, _, _ = random_space(f, seed + 100)
            assert check_loc_comp_hypothesis(space) == all(
                compactness_by_subbase(space, a) for a in space.carrier
            )

    def test_coherent_toy_family(self):
        space = nested_space(5)
        assert is_coherent(space)
        assert check_loc_comp_hypothesis(space)

    def test_singleton_family_coherent(self):
        assert is_coherent(singleton_space(5))

    def test_incoherent_family_detected(self):
        space = toy_space({0: {0}, 1: {0, 1}, 2: {1, 2}})
        # 1 sits in H(2) but H(1) = {0,1} is no subset of H(2)
        assert not is_coherent(space)

    def test_compactness_alpha_zero(self):
        f = random_pair_function(8, 0.5, 1)
        space, _, _ = random_space(f, 11)
        assert compactness_by_subbase(space, 0)

    def test_corrupted_i_names_failing_pair(self):
        from scatterlab.generic import subbase_witnesses

        f = random_pair_function(12, 0.6, 5)
        space, _, _ = random_space(f, 13)
        stripped = SpaceModel(space.kappa, space.H, {k: frozenset() for k in space.i})
        bad_pairs = [
            (alpha, gamma)
            for alpha in stripped.carrier
            for (alpha, gamma) in subbase_witnesses(stripped, alpha)
        ]
        covered = [
            (x, y) for (x, y), v in space.i.items()
            if v and (space.H[x] - space.H[y] if x in space.H[y] else space.H[x] & space.H[y])
        ]
        if covered:  # dropping a working cover must surface a named witness
            assert bad_pairs
            assert all(not compactness_by_subbase(stripped, a) for a, _ in bad_pairs)


class TestClosure:
    def test_empty(self):
        assert closure(nested_space(4), set()) == frozenset()

    def test_carrier(self):
        sp = nested_space(4)
        assert closure(sp, range(4)) == frozenset(range(4))

    def test_discrete_family_closure_is_identity(self):
        sp = singleton_space(5)
        for y in ({0}, {1, 3}, {2, 4}):
            assert closure(sp, y) == frozenset(y)

    def test_right_separated_spaces_are_discrete(self):
        # every carrier point is cut out by the subbase complements below it
        for seed in range(6):
            f = random_pair_function(9, 0.6, seed)
            space, _, _ = random_space(f, seed + 50)
            assert all(minimal_nbhd(space, x) == {x} for x in space.carrier)

    def test_matches_oracle_on_arbitrary_families(self):
        rng = random.Random(8)
        for _ in range(25):
            kappa = rng.randint(2, 6)
            h = {a: set(rng.sample(range(kappa), rng.randint(0, kappa))) for a in range(kappa)}
            sp = SpaceModel(kappa, {a: frozenset(h[a]) for a in range(kappa)}, {})
            ys = frozenset(rng.sample(range(kappa), rng.randint(0, kappa)))
            assert closure(sp, ys) == oracle_closure(sp, ys)
            assert minimal_nbhd(sp, 0) == oracle_minimal_nbhd(sp, 0)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**30), st.data())
    def test_kuratowski_laws(self, seed, data):
        rng = random.Random(seed)
        kappa = rng.randint(2, 6)
        h = {a: frozenset(rng.sample(range(kappa), rng.randint(0, kappa))) for a in range(kappa)}
        sp = SpaceModel(kappa, h, {})
        y = frozenset(data.draw(st.sets(st.integers(0, kappa - 1))))
        z = frozenset(data.draw(st.sets(st.integers(0, kappa - 1))))
        cy, cz = closure(sp, y), closure(sp, z)
        assert y <= cy
        assert closure(sp, cy) == cy
        assert closure(sp, y | z) == cy | cz
        if y <= z:
            assert cy <= cz

    def test_out_of_carrier(self):
        with pytest.raises(BadArgument, match=r"set \[5\] leaves the carrier 3"):
            closure(nested_space(3), {5})


class TestFreeSequence:
    def test_singleton(self):
        assert is_free_sequence(nested_space(4), [2])

    def test_discrete_any_injective(self):
        assert is_free_sequence(singleton_space(5), [3, 0, 4])

    def test_indiscrete_like_fails(self):
        sp = toy_space({a: set(range(4)) for a in range(4)})
        assert not is_free_sequence(sp, [0, 1])

    def test_duplicates_rejected(self):
        with pytest.raises(BadArgument, match=r"sequence repeats points: \[1, 1\]"):
            is_free_sequence(nested_space(4), [1, 1])

    def test_nested_family_order_matters(self):
        sp = nested_space(4)
        # closure of {3} meets everything below: minimal nbhds are singletons
        # here, so in fact the space is discrete and every sequence is free
        assert is_free_sequence(sp, [0, 1, 2, 3])


class TestCantorBendixson:
    def test_discrete_all_rank_zero(self):
        ranks = cantor_bendixson(singleton_space(6))
        assert set(ranks.values()) == {0}

    def test_sampled_spaces_rank_zero_by_discreteness(self):
        f = random_pair_function(10, 0.6, 4)
        space, _, _ = random_space(f, 21)
        ranks = cantor_bendixson(space)
        assert set(ranks) == set(space.carrier)
        assert set(ranks.values()) == {0}

    def test_open_subbase_only_family_with_graded_ranks(self):
        # drop the complements by hand: a family whose minimal neighbourhoods
        # grow downward produces one rank per point
        kappa = 4
        nbhds = {x: frozenset(range(x + 1)) for x in range(kappa)}
        remaining = set(range(kappa))
        ranks = {}
        stage = 0
        while remaining:
            isolated = [x for x in remaining if nbhds[x] & remaining == {x}]
            for x in isolated:
                ranks[x] = stage
            remaining -= set(isolated)
            stage += 1
        assert ranks == {x: x for x in range(kappa)}

    def test_perfect_kernel_gets_no_rank(self):
        # 1 sits in H(0), so 0 and 1 share every subbase set: neither is isolated
        space = toy_space({0: {0, 1}, 1: {0, 1}, 2: {2}})
        assert cantor_bendixson(space) == {2: 0}
        assert max_invariant_violations(space) == [0]

    def test_unranked_points_only_where_the_max_invariant_fails(self):
        # With max H(a) = a every minimal neighbourhood is a singleton: for
        # y < x, x is not in H(y), so the complement of H(y) removes y.
        rng = random.Random(13)
        for _ in range(300):
            kappa = rng.randint(1, 6)
            H = {a: {b for b in range(kappa) if rng.random() < 0.4} | {a} for a in range(kappa)}
            space = toy_space(H, kappa)
            ranks = cantor_bendixson(space)
            assert ranks == oracle_cantor_bendixson(space)
            if not max_invariant_violations(space):
                assert ranks == dict.fromkeys(space.carrier, 0)
            if set(ranks) != set(space.carrier):
                assert max_invariant_violations(space)

    def test_levels_partition_and_are_discrete(self):
        rng = random.Random(9)
        for _ in range(10):
            kappa = rng.randint(2, 8)
            f = random_pair_function(kappa, 0.5, rng.randint(0, 99))
            space, _, _ = random_space(f, rng.randint(0, 99))
            ranks = cantor_bendixson(space)
            levels: dict[int, set[int]] = {}
            for x, rank in ranks.items():
                levels.setdefault(rank, set()).add(x)
            assert sorted(x for xs in levels.values() for x in xs) == list(space.carrier)
            for x, rank in ranks.items():
                assert minimal_nbhd(space, x) & levels[rank] == {x}


FU_SPACE = SpaceModel(
    6,
    {
        0: frozenset({0}),
        1: frozenset({1}),
        2: frozenset({2}),
        3: frozenset({1, 3}),
        4: frozenset({2, 4}),
        5: frozenset({0, 1, 2, 3, 5}),
    },
    {},
)


class TestFUPoset:
    def test_reflexive(self):
        q = FUCondition.make({0, 1}, {2})
        assert fu_leq(q, q, FU_SPACE, 5)

    def test_empty_condition_is_top(self):
        top = FUCondition.make()
        q = FUCondition.make({0, 1}, {1})
        assert fu_leq(q, top, FU_SPACE, 5)
        assert fu_meet(q, top, FU_SPACE, 5) == q

    def test_meet_idempotent(self):
        q = FUCondition.make({0, 3}, {1})
        assert fu_meet(q, q, FU_SPACE, 5) == q

    def test_new_point_must_avoid_old_blocks(self):
        q2 = FUCondition.make(set(), {1})  # avoid H(1)
        q1 = FUCondition.make({1}, {1})  # 1 was swallowed by the block
        assert not fu_leq(q1, q2, FU_SPACE, 5)

    def test_incompatible_pair(self):
        q1 = FUCondition.make({1}, frozenset())
        q2 = FUCondition.make(set(), {1})
        # adding 1 to q2's side would violate its avoidance block
        assert fu_meet(q1, q2, FU_SPACE, 5) is None

    def test_ambient_checked(self):
        with pytest.raises(BadArgument, match=r"C=\[5\] not below alpha=5"):
            fu_leq(FUCondition.make(set(), {5}), FUCondition.make(), FU_SPACE, 5)

    def test_meet_is_glb_small_exhaustive(self):
        a_pool, c_pool = (0, 1, 2), (1, 2)
        conds = [
            FUCondition(frozenset(s), frozenset(c))
            for r in range(4)
            for s in combinations(a_pool, r)
            for rc in range(3)
            for c in combinations(c_pool, rc)
        ]
        for q1 in conds:
            for q2 in conds:
                lbs = [
                    r
                    for r in conds
                    if fu_leq(r, q1, FU_SPACE, 5) and fu_leq(r, q2, FU_SPACE, 5)
                ]
                met = fu_meet(q1, q2, FU_SPACE, 5)
                assert (met is not None) == bool(lbs)
                if met is not None:
                    assert fu_leq(met, q1, FU_SPACE, 5) and fu_leq(met, q2, FU_SPACE, 5)
                    assert all(fu_leq(r, met, FU_SPACE, 5) for r in lbs)


class TestFUSimulate:
    def test_single_empty_block_takes_a_point(self):
        res = fu_simulate(FU_SPACE, {0, 1, 2}, 5, [frozenset()], seed=0)
        assert len(res.points) == 1
        assert res.points[0] in FU_SPACE.H[5]

    def test_suffix_convergence(self):
        rng = random.Random(10)
        for t in range(25):
            kappa = rng.randint(5, 12)
            f = random_pair_function(kappa, 0.5, t)
            space, _, _ = random_space(f, t + 31)
            alpha = rng.randrange(1, kappa)
            pool = frozenset(rng.sample(range(kappa), rng.randint(1, kappa - 1))) | {alpha}
            schedule = [
                frozenset(rng.sample(range(alpha), rng.randint(0, min(2, alpha))))
                for _ in range(rng.randint(1, 5))
            ]
            res = fu_simulate(space, pool, alpha, schedule, seed=t)
            assert set(res.points) <= pool
            assert len(set(res.points)) == len(res.points)
            for idx, step in enumerate(res.steps):
                u = space.nbhd(alpha, step.C)
                later = [s.acquired for s in res.steps[idx:] if s.acquired is not None]
                assert all(x in u for x in later)

    def test_stuck_detected(self):
        # block away the whole pool: alpha's neighbourhood keeps no pool point
        space = FU_SPACE
        with pytest.raises(StuckNoFreshPoint):
            fu_simulate(space, {1}, 5, [frozenset({1})], seed=0)

    def test_all_points_acquirable(self):
        res = fu_simulate(FU_SPACE, {0, 1, 2, 5}, 5, [frozenset()] * 6, seed=2)
        assert set(res.points) == {0, 1, 2, 5}
