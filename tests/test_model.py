from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from gossipvote.engine import SimState, init, step
from gossipvote.model import (
    ConfigError,
    FriendGraph,
    SimConfig,
    make_friend_graph,
)


class TestSimConfigValidation:
    def test_defaults_are_valid(self):
        SimConfig()

    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            (dict(n=0), "n"),
            (dict(k=-1), "k"),
            (dict(v=0), "v"),
            (dict(n=5, f=5), "f"),
            (dict(f=-1), "f"),
            (dict(f=2, friend_prob=1.5), "friend_prob"),
            (dict(f=0, friend_prob=0.3), "friend_prob"),
            (dict(activation_prob=0.0), "activation_prob"),
            (dict(activation_prob=1.2), "activation_prob"),
            (dict(strategy="majority"), "strategy"),
            (dict(mixed_consensus_prob=-0.1), "mixed_consensus_prob"),
            (dict(max_ticks=0), "max_ticks"),
            (dict(n=3, f=1, symmetric_friends=True), "symmetric"),
        ],
    )
    def test_rejects_bad_fields_naming_them(self, kwargs, fragment):
        with pytest.raises(ConfigError, match=fragment):
            SimConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=20.0),
            dict(v=True),
            dict(max_ticks=True),
            dict(seed="abc"),
            dict(include_self="no"),
            dict(symmetric_friends=1),
            dict(strategy=1),
            dict(f=2, friend_prob="0.5"),
            dict(activation_prob=None),
        ],
    )
    def test_rejects_wrong_types_naming_the_field(self, kwargs):
        name = list(kwargs)[-1]
        with pytest.raises(ConfigError, match=f"{name} must be"):
            SimConfig(**kwargs)

    def test_int_stands_for_float(self):
        config = SimConfig(f=2, friend_prob=1, activation_prob=1, mixed_consensus_prob=0)
        assert config.friend_prob == 1 and config.activation_prob == 1

    def test_config_error_is_a_value_error(self):
        assert issubclass(ConfigError, ValueError)

    def test_k_zero_is_a_legal_degenerate_domain(self):
        SimConfig(k=0)


class TestFriendGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="itself"):
            FriendGraph([[0], []])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            FriendGraph([[1, 1], []])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            FriendGraph([[2], [0]])

    def test_mixed_out_degrees_are_allowed(self):
        # hand-built graphs need not be regular; only generated ones are
        graph = FriendGraph([[1, 2], [], [3], []])
        assert graph.n_edges == 3

    def test_edge_arrays_enumerate_every_directed_edge(self):
        graph = FriendGraph([[1, 2], [], [3], []])
        src, dst = graph.edge_arrays()
        assert sorted(zip(src.tolist(), dst.tolist())) == [(0, 1), (0, 2), (2, 3)]


class TestMakeFriendGraph:
    def test_zero_friends(self):
        graph = make_friend_graph(5, 0, random.Random(1))
        assert graph.adjacency == [[], [], [], [], []]

    def test_two_agents_one_friend_is_forced(self):
        graph = make_friend_graph(2, 1, random.Random(7))
        assert graph.adjacency == [[1], [0]]

    def test_500_agents_20_friends(self):
        graph = make_friend_graph(500, 20, random.Random(3))
        for agent_id, friends in enumerate(graph.adjacency):
            assert len(friends) == 20
            assert len(set(friends)) == 20
            assert agent_id not in friends

    @given(
        n=st.integers(min_value=1, max_value=40),
        f_share=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60)
    def test_out_degree_uniformity(self, n, f_share, seed):
        f = int(f_share * (n - 1))
        graph = make_friend_graph(n, f, random.Random(seed))
        for agent_id, friends in enumerate(graph.adjacency):
            assert len(friends) == f
            assert agent_id not in friends
            assert len(set(friends)) == len(friends)
            assert all(0 <= friend < n for friend in friends)

    def test_rejects_infeasible_friend_count(self):
        with pytest.raises(ValueError):
            make_friend_graph(5, 5, random.Random(0))

    def test_deterministic_given_rng_state(self):
        assert (
            make_friend_graph(30, 4, random.Random(9)).adjacency
            == make_friend_graph(30, 4, random.Random(9)).adjacency
        )

    def test_symmetric_graph_is_mutual_and_regular(self):
        graph = make_friend_graph(20, 3, random.Random(5), symmetric=True)
        for agent_id, friends in enumerate(graph.adjacency):
            assert len(friends) == 3
            for friend in friends:
                assert agent_id in graph.adjacency[friend]

    def test_symmetric_rejects_odd_degree_sum(self):
        with pytest.raises(ValueError, match="even"):
            make_friend_graph(5, 3, random.Random(0), symmetric=True)


def _probe(n: int, f: int = 0, friend_prob: float = 0.0, seed: int = 0) -> SimState:
    """A state in which every agent sends each tick and nobody integrates.

    Each agent holds its own id as its value, so an inbox lists its senders.
    """
    config = SimConfig(
        n=n, k=n - 1, v=10**9, f=f, friend_prob=friend_prob, activation_prob=1.0, seed=seed
    )
    return init(config, values=list(range(n)))


def _sends(state: SimState) -> list[tuple[int, int]]:
    """(sender, target) of every message of one tick; empties the inboxes."""
    step(state)
    pairs = [(sender, target) for target, inbox in enumerate(state.inboxes) for sender in inbox]
    for inbox in state.inboxes:
        inbox.clear()
    return pairs


class TestSelectTarget:
    """Target selection of activated senders, run through engine.step."""

    def test_never_returns_sender(self):
        state = _probe(17, f=4, friend_prob=0.5, seed=11)
        for _ in range(250):
            for sender, target in _sends(state):
                assert target != sender
                assert 0 <= target < 17

    def test_friend_prob_one_single_friend_is_forced(self):
        state = _probe(2, f=1, friend_prob=1.0, seed=2)
        assert state.graph == FriendGraph([[1], [0]])
        assert all(_sends(state) == [(1, 0), (0, 1)] for _ in range(100))

    def test_rejects_friendless_sender_with_positive_friend_prob(self):
        state = _probe(2, f=1, friend_prob=0.4)
        state.graph = FriendGraph([[], []])
        with pytest.raises(ValueError, match="friend"):
            step(state)

    def test_friend_hit_frequency_matches_mixture(self):
        # friends can also be hit through the uniform branch:
        # P(hit) = 0.4 + 0.6 * 20/499, checked to three standard errors
        state = _probe(500, f=20, friend_prob=0.4, seed=20240817)
        friends = [set(row) for row in state.graph.adjacency]
        pairs = [pair for _ in range(200) for pair in _sends(state)]
        draws = len(pairs)
        assert draws == 100_000
        hits = sum(target in friends[sender] for sender, target in pairs)
        expected = 0.4 + 0.6 * (20 / 499)
        tolerance = 3 * (expected * (1 - expected) / draws) ** 0.5
        assert abs(hits / draws - expected) < tolerance

    def test_uniform_when_friend_prob_zero(self):
        # goodness of fit over all 499 non-self targets at significance 0.01,
        # pooled over senders as the offset (target - sender) mod 500
        state = _probe(500, seed=99)
        counts = [0] * 500
        for _ in range(200):
            for sender, target in _sends(state):
                counts[(target - sender) % 500] += 1
        assert sum(counts) == 100_000
        assert counts[0] == 0
        result = stats.chisquare(counts[1:])
        assert result.pvalue > 0.01
