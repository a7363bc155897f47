from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossipvote.integration import integrate, integrate_inboxes
from oracles import median_cost_oracle, mode_oracle

multisets = st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=25)


class TestDominantValue:
    def test_unique_mode(self):
        assert integrate((1, 1, 0), 0, "dominant") == 1

    def test_tie_keeps_own(self):
        assert integrate((0, 1), 1, "dominant") == 1

    def test_tie_without_own_takes_smallest(self):
        # modes are {2, 3}; own=5 is not among them
        assert integrate((2, 2, 3, 3, 5), 5, "dominant") == 2

    def test_no_own_preference_when_own_is_none(self):
        assert integrate((0, 1), None, "dominant") == 0

    @given(values=multisets, data=st.data())
    def test_matches_brute_force_oracle(self, values, data):
        own = data.draw(st.one_of(st.none(), st.sampled_from(values)))
        assert integrate(values, own, "dominant") == mode_oracle(values, own)

    @given(values=multisets)
    def test_result_is_in_the_multiset(self, values):
        assert integrate(values, values[0], "dominant") in values

    @given(values=multisets, seed=st.integers(min_value=0, max_value=999))
    def test_permutation_invariance(self, values, seed):
        shuffled = values[:]
        random.Random(seed).shuffle(shuffled)
        assert integrate(values, values[0], "dominant") == integrate(
            shuffled, values[0], "dominant"
        )


class TestConsensusValue:
    def test_majority_median(self):
        assert integrate((0, 1, 1), None, "consensus") == 1

    def test_lower_median_on_even_size(self):
        assert integrate((0, 1), None, "consensus") == 0

    def test_interior_minimizer_interval(self):
        # minimizers of sum|x-c| are {3..7}; the smallest is returned
        assert integrate((1, 3, 7, 9), None, "consensus") == 3

    def test_exhaustive_against_cost_oracle(self):
        # every multiset of size <= 5 over 0..4
        for size in range(1, 6):
            for combo in itertools.combinations_with_replacement(range(5), size):
                assert integrate(combo, None, "consensus") == median_cost_oracle(
                    list(combo), 4
                ), combo

    @given(values=st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=25))
    def test_matches_cost_oracle_on_larger_domain(self, values):
        assert integrate(values, None, "consensus") == median_cost_oracle(values, 9)

    @given(values=multisets, seed=st.integers(min_value=0, max_value=999))
    def test_permutation_invariance(self, values, seed):
        shuffled = values[:]
        random.Random(seed).shuffle(shuffled)
        assert integrate(values, None, "consensus") == integrate(shuffled, None, "consensus")


class TestMixedIntegrate:
    def test_probability_zero_is_dominant(self):
        votes = (1, 3, 7, 9)
        assert integrate(votes, 9, "mixed", 0.0, random.Random(4)) == integrate(
            votes, 9, "dominant")

    def test_probability_one_is_consensus(self):
        assert integrate((1, 3, 7, 9), None, "mixed", 1.0, random.Random(4)) == 3

    def test_agreeing_operators_make_the_coin_irrelevant(self):
        for seed in range(20):
            assert integrate((0, 0, 1, 1, 1), 0, "mixed", 0.5, random.Random(seed)) == 1

    @given(
        values=multisets,
        seed=st.integers(min_value=0, max_value=10_000),
        prob=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60)
    def test_consumes_exactly_one_draw(self, values, seed, prob):
        rng = random.Random(seed)
        integrate(values, values[0], "mixed", prob, rng)
        reference = random.Random(seed)
        reference.random()
        assert rng.random() == reference.random()

    @given(values=multisets, seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60)
    def test_degeneracy_pointwise_for_any_seed(self, values, seed):
        own = values[0]
        assert integrate(values, own, "mixed", 0.0, random.Random(seed)) == integrate(
            values, own, "dominant")
        assert integrate(values, own, "mixed", 1.0, random.Random(seed)) == integrate(
            values, own, "consensus")


def one_at_a_time(values, inboxes, agents, v, include_self, strategy, prob, rng):
    """integrate() applied agent by agent, each result checked against the brute-force oracles."""
    changes = []
    coins = random.Random()
    coins.setstate(rng.getstate())  # replays the mixed coins to pick the oracle
    for agent in agents:
        own = values[agent]
        votes = inboxes[agent][:v] + ([own] if include_self else [])
        result = integrate(votes, own, strategy, prob, rng)
        use_consensus = strategy == "consensus" or (strategy == "mixed" and coins.random() < prob)
        if use_consensus:
            assert result == sorted(votes)[(len(votes) - 1) // 2]
        else:
            assert result == mode_oracle(votes, own)
        if result != own:
            values[agent] = result
            changes += (agent, result)
        inboxes[agent].clear()
    return changes


class TestIntegrateInboxes:
    """The engine's per-tick pass against integrate() applied one agent at a time."""

    @given(
        data=st.data(),
        k=st.integers(min_value=0, max_value=6),
        v=st.integers(min_value=1, max_value=6),
        include_self=st.booleans(),
        strategy=st.sampled_from(["dominant", "consensus", "mixed"]),
        prob=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=300)
    def test_equals_integrate_agent_by_agent(self, data, k, v, include_self, strategy, prob, seed):
        n = data.draw(st.integers(min_value=1, max_value=8))
        value = st.integers(min_value=0, max_value=k)
        values = data.draw(st.lists(value, min_size=n, max_size=n))
        # inboxes below v wait for later ticks; full ones may hold more than v votes
        inboxes = [data.draw(st.lists(value, max_size=v + 3)) for _ in range(n)]
        agents = [agent for agent in range(n) if len(inboxes[agent]) >= v]
        expected_values, expected_inboxes = list(values), [list(inbox) for inbox in inboxes]
        rng, reference = random.Random(seed), random.Random(seed)

        changes = integrate_inboxes(values, inboxes, agents, v, include_self, strategy, prob, rng)
        expected = one_at_a_time(expected_values, expected_inboxes, agents, v, include_self,
                                 strategy, prob, reference)
        assert changes == expected
        assert values == expected_values
        assert inboxes == expected_inboxes
        assert rng.getstate() == reference.getstate()

    def test_dominant_tie_keeps_own_else_takes_the_smallest(self):
        # agent 0: 1 and 3 hold two votes each and own=2 none, so 1; agent 1:
        # own=3 holds half the votes; agent 2: own=3 ties with 1 at two of five
        values, inboxes = [2, 3, 3], [[3, 1, 3, 1], [1, 1, 3, 3], [1, 5, 3, 1, 3]]
        assert integrate_inboxes(values, inboxes, [0, 1], 4, False, "dominant") == [0, 1]
        assert integrate_inboxes(values, inboxes, [2], 5, False, "dominant") == []
        assert values == [1, 3, 3] and inboxes == [[], [], []]

    def test_consensus_tie_takes_the_lower_median(self):
        # first three votes plus own: 0,1,2,3 has middles 1 and 2
        values, inboxes = [0], [[1, 3, 2, 9]]
        assert integrate_inboxes(values, inboxes, [0], 3, True, "consensus") == [0, 1]
        assert values == [1] and inboxes == [[]]

    def test_mixed_draws_one_coin_per_integrating_agent(self):
        # seed 1's first coin is below 0.5 and its second is not: the first
        # agent takes the median 3 of 0,3,4,4 and the second the mode 4
        values, inboxes = [0, 0, 0], [[3, 4, 4], [3, 4, 4], [4]]
        rng, reference = random.Random(1), random.Random(1)
        changes = integrate_inboxes(values, inboxes, [0, 1], 3, True, "mixed", 0.5, rng)
        assert changes == [0, 3, 1, 4] and values == [3, 4, 0]
        assert inboxes == [[], [], [4]]
        reference.random(), reference.random()
        assert rng.getstate() == reference.getstate()
