import random

import pytest

from scatterlab.errors import BadArgument, ParseError
from scatterlab.formats import (
    dump_condition,
    dump_pair_function,
    dump_schedule,
    dump_space,
    load_condition,
    load_pair_function,
    load_schedule,
    load_space,
)
from scatterlab.generic import NbhdGoal, PointGoal
from scatterlab.sampling import random_condition, random_space
from scatterlab.universe import random_pair_function


class TestRoundTrips:
    def test_pair_function(self):
        for seed in range(5):
            f = random_pair_function(9, 0.5, seed)
            assert load_pair_function(dump_pair_function(f)) == f

    def test_empty_pairs_omitted(self):
        f = random_pair_function(5, 0.0, 0)
        text = dump_pair_function(f)
        assert '"f": []' in text
        assert load_pair_function(text) == f

    def test_condition(self):
        rng = random.Random(1)
        f = random_pair_function(10, 0.6, 1)
        for _ in range(10):
            p = random_condition(f, rng, rng.randint(0, 6))
            assert load_condition(dump_condition(p)) == p

    def test_space(self):
        f = random_pair_function(8, 0.5, 2)
        space, _, _ = random_space(f, 3)
        again = load_space(dump_space(space))
        assert again.kappa == space.kappa
        assert again.H == space.H
        assert again.i == space.i

    def test_schedule(self):
        goals = [
            PointGoal(0),
            PointGoal(4),
            NbhdGoal(4, frozenset({0}), frozenset({1, 2})),
            PointGoal(1),
        ]
        assert load_schedule(dump_schedule(goals)) == goals

    def test_dump_is_stable(self):
        f = random_pair_function(7, 0.4, 4)
        assert dump_pair_function(f) == dump_pair_function(f)


class TestParseErrors:
    def test_not_json(self):
        with pytest.raises(ParseError):
            load_pair_function("not json")

    def test_missing_keys(self):
        with pytest.raises(ParseError):
            load_pair_function('{"kappa": 3}')

    def test_pair_order_enforced(self):
        with pytest.raises(ParseError):
            load_pair_function('{"kappa": 4, "f": [[2, 3, [0]], [1, 2, [0]]]}')

    def test_pair_needs_alpha_below_beta(self):
        with pytest.raises(ParseError):
            load_pair_function('{"kappa": 4, "f": [[3, 2, [0]]]}')

    def test_value_bound_checked(self):
        with pytest.raises(BadArgument, match=r"value of pair \(1,2\) must lie below 1, got \[1\]"):
            load_pair_function('{"kappa": 4, "f": [[1, 2, [1]]]}')

    def test_condition_ascending_a(self):
        with pytest.raises(ParseError):
            load_condition('{"a": [2, 1], "h": [], "i": []}')

    def test_condition_duplicate_h(self):
        with pytest.raises(ParseError):
            load_condition('{"a": [1], "h": [[1, [1]], [1, [1]]], "i": []}')

    def test_condition_i_needs_ordered_pair(self):
        with pytest.raises(ParseError):
            load_condition('{"a": [1, 2], "h": [[1, [1]], [2, [2]]], "i": [[2, 1, []]]}')

    def test_space_needs_total_h(self):
        with pytest.raises(ParseError):
            load_space('{"kappa": 3, "H": [[0, [0]]], "i": []}')

    def test_schedule_unknown_entry(self):
        with pytest.raises(ParseError):
            load_schedule('[{"mystery": 3}]')

    def test_schedule_nbhd_shape(self):
        with pytest.raises(ParseError):
            load_schedule('[{"nbhd": {"beta": 3}}]')

    def test_booleans_rejected_as_ints(self):
        with pytest.raises(ParseError):
            load_condition('{"a": [true], "h": [], "i": []}')
