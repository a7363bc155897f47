from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import edge_arrays
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
            (dict(seed=-7), "seed must be >= 0"),
        ],
    )
    def test_rejects_bad_fields_naming_them(self, kwargs, fragment):
        with pytest.raises(ConfigError, match=fragment):
            SimConfig(**kwargs)

    def test_k_is_at_most_the_largest_signed_64_bit_int(self):
        assert SimConfig(k=2**63 - 1).k == 2**63 - 1
        message = rf"k must satisfy 0 <= k <= 2\*\*63 - 1, got {2**63}$"
        with pytest.raises(ConfigError, match=message):
            SimConfig(k=2**63)

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

    @pytest.mark.parametrize("changes, fragment", [
        (dict(v=0), "v must be >= 1"),
        (dict(f=500), "f must satisfy"),
        (dict(f=0), "friend_prob must be 0"),
        (dict(seed="abc"), "seed must be int"),
        (dict(seed=-1), "seed must be >= 0"),
    ])
    def test_replace_is_checked_as_construction_is(self, changes, fragment):
        config = SimConfig(f=2, friend_prob=0.5)
        with pytest.raises(ConfigError, match=fragment):
            config._replace(**changes)
        assert config._replace(v=20) == SimConfig(f=2, friend_prob=0.5, v=20)

    def test_configs_are_equal_by_value(self):
        config = SimConfig(n=20, seed=3)
        assert config == SimConfig(n=20, seed=3)
        assert hash(config) == hash(SimConfig(n=20, seed=3))
        assert config != SimConfig(n=20, seed=4)


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

    def test_repr_names_the_size_not_the_rows(self):
        assert repr(FriendGraph([[1, 2], [], [3], []])) == "FriendGraph(n=4, edges=3)"

    def test_mixed_out_degrees_are_allowed(self):
        # hand-built graphs need not be regular; only generated ones are
        graph = FriendGraph([[1, 2], [], [3], []])
        assert graph.n_edges == 3

    def test_edge_arrays_enumerate_every_directed_edge(self):
        graph = FriendGraph([[1, 2], [], [3], []])
        src, dst = edge_arrays(graph)
        assert sorted(zip(src.tolist(), dst.tolist())) == [(0, 1), (0, 2), (2, 3)]

    def test_a_graph_is_fixed_when_it_is_built(self):
        graph = FriendGraph([[1], [0, 2], []])
        assert graph.adjacency == ((1,), (0, 2), ())
        with pytest.raises(AttributeError):
            graph.adjacency[2].append(0)  # a row is a tuple
        with pytest.raises(TypeError):
            graph.adjacency[2] = (0,)
        for name, value in (("adjacency", ((1,), (0,), (0,))), ("friendless", None)):
            with pytest.raises(AttributeError):
                setattr(graph, name, value)
        with pytest.raises(AttributeError):
            graph.rows = ()  # no attribute outside __slots__ either
        assert graph.friendless == 2  # a hand-built friendless graph still reports its agent
        assert graph == FriendGraph(((1,), (0, 2), ()))


def _sampled_rows(n: int, f: int, rng: random.Random) -> tuple[tuple[int, ...], ...]:
    """make_friend_graph's rows as random.Random.sample draws them."""
    rows = []
    for agent_id in range(n):
        picks = rng.sample(range(n - 1), f)
        rows.append(tuple(sorted(p if p < agent_id else p + 1 for p in picks)))
    return tuple(rows)


class TestMakeFriendGraph:
    # (others, f) on both sides of sample's switch from its shrinking pool to its
    # set of picks: at 21 others for f <= 5, 85 for f <= 21, 277 for f <= 85
    @pytest.mark.parametrize("others, friends", [
        *((others, f) for others in (20, 21, 22, 23) for f in (0, 1, 3, 5)),
        *((others, f) for others in (84, 85, 86) for f in (6, 15, 21)),
        *((others, f) for others in (276, 277, 278) for f in (22, 40, 85)),
        (499, 20), (33, 15), (1, 1), (0, 0),
    ])
    def test_draws_exactly_what_random_sample_draws(self, others, friends):
        for seed in range(3):
            rng, reference = random.Random(seed), random.Random(seed)
            graph = make_friend_graph(others + 1, friends, rng)
            assert graph.adjacency == _sampled_rows(others + 1, friends, reference)
            assert rng.getstate() == reference.getstate()

    def test_zero_friends(self):
        graph = make_friend_graph(5, 0, random.Random(1))
        assert graph.adjacency == ((), (), (), (), ())

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_zero_friends_touch_no_rng(self, symmetric):
        graph = make_friend_graph(40, 0, object(), symmetric=symmetric)  # any draw would raise
        assert graph.adjacency == ((),) * 40

    def test_two_agents_one_friend_is_forced(self):
        graph = make_friend_graph(2, 1, random.Random(7))
        assert graph.adjacency == ((1,), (0,))

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

    @given(
        n=st.integers(min_value=1, max_value=40),
        f_share=st.floats(min_value=0.0, max_value=1.0),
        symmetric=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=80)
    def test_sampled_graphs_pass_the_validating_constructor(self, n, f_share, symmetric, seed):
        """Sampled graphs skip FriendGraph's checks because they always pass them."""
        f = int(f_share * (n - 1))
        if symmetric and (n * f) % 2:
            f -= 1
        graph = make_friend_graph(n, f, random.Random(seed), symmetric=symmetric)
        assert FriendGraph(graph.adjacency) == graph

    def test_rejects_infeasible_friend_count(self):
        with pytest.raises(ValueError):
            make_friend_graph(5, 5, random.Random(0))

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_rejects_an_empty_population(self, symmetric):
        with pytest.raises(ValueError, match="n must be >= 1, got 0"):
            make_friend_graph(0, 0, random.Random(0), symmetric=symmetric)

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


# step's two drawing modes: a lone run's, and a draw group drawer's, which records its sends
TICKS = (step, lambda state: step(state, None, []))


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
        message = r"^friend_prob=0.4 needs a non-empty friend list \(agent \d has none\)$"
        for tick in TICKS:
            state = _probe(2, f=1, friend_prob=0.4)
            state.graph = FriendGraph([[], []])
            with pytest.raises(ValueError, match=message):
                tick(state)

    def test_rejects_a_friendless_agent_before_any_coin_even_if_it_never_activates(self):
        # with activation 1e-9 no agent activates, yet the first draw names agent 2
        config = SimConfig(n=3, k=2, f=1, friend_prob=0.4, activation_prob=1e-9, seed=3)
        for tick in TICKS:
            state = init(config, values=[0, 1, 2])
            state.graph = FriendGraph([[1], [0], []])
            before = state.rng.getstate()
            with pytest.raises(ValueError, match=r"\(agent 2 has none\)$"):
                tick(state)
            assert state.rng.getstate() == before
            assert state.inboxes == [[], [], []]

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
