from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossipvote.engine import SimState, draw_graph, init, run, run_state, step
from gossipvote.model import FriendGraph, SimConfig


def small_configs() -> st.SearchStrategy[SimConfig]:
    return st.builds(
        lambda n, k, v, f_share, friend_prob, activation, strategy, mix, self_, ticks, seed: SimConfig(
            n=n,
            k=k,
            v=v,
            f=(f := int(f_share * (n - 1))),
            friend_prob=friend_prob if f > 0 else 0.0,
            activation_prob=activation,
            strategy=strategy,
            mixed_consensus_prob=mix,
            include_self=self_,
            max_ticks=ticks,
            seed=seed,
        ),
        n=st.integers(min_value=1, max_value=30),
        k=st.integers(min_value=0, max_value=5),
        v=st.integers(min_value=1, max_value=6),
        f_share=st.floats(min_value=0.0, max_value=1.0),
        friend_prob=st.floats(min_value=0.0, max_value=1.0),
        activation=st.floats(min_value=0.1, max_value=1.0),
        strategy=st.sampled_from(["dominant", "consensus", "mixed"]),
        mix=st.floats(min_value=0.0, max_value=1.0),
        self_=st.booleans(),
        ticks=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )


def two_agent_state(a: int, b: int, v: int = 1, include_self: bool = False) -> SimState:
    config = SimConfig(
        n=2, k=1, v=v, f=0, activation_prob=1.0, include_self=include_self, max_ticks=10, seed=0
    )
    return SimState(
        config=config, values=[a, b], inboxes=[[], []], graph=FriendGraph([[], []]),
        rng=random.Random(0),
    )


class TestInit:
    def test_init_shape_and_domain(self):
        state = init(SimConfig(n=500, k=1, seed=42))
        assert len(state.values) == len(state.inboxes) == 500
        assert all(value in (0, 1) for value in state.values)
        assert all(inbox == [] for inbox in state.inboxes)

    def test_initial_split_is_roughly_even_across_seeds(self):
        ones = [
            init(SimConfig(n=500, k=1, seed=s)).snapshot().mean() for s in range(20)
        ]
        assert abs(float(np.mean(ones)) - 0.5) < 0.05

    def test_same_seed_same_initial_snapshot(self):
        config = SimConfig(n=100, k=3, f=5, friend_prob=0.2, seed=7)
        assert (init(config).snapshot() == init(config).snapshot()).all()

    def test_agent_friends_alias_graph_rows(self):
        # friend sends go along the state's graph rows: with friend_prob=1
        # every message lands with a friend of its sender (values are ids)
        config = SimConfig(n=20, k=19, v=10**6, f=3, friend_prob=1.0, activation_prob=1.0, seed=1)
        state = init(config, values=list(range(20)))
        step(state)
        pairs = [(s, t) for t, inbox in enumerate(state.inboxes) for s in inbox]
        assert len(pairs) == 20
        assert all(t in state.graph.adjacency[s] for s, t in pairs)

    def test_given_values_draw_nothing(self):
        config = SimConfig(n=6, k=3, f=2, friend_prob=0.5, seed=4)
        given = init(config, values=[3, 0, 1, 2, 2, 0])
        drawn = init(config)
        assert given.values == [3, 0, 1, 2, 2, 0]
        assert given.graph == drawn.graph
        # the same stream, short of exactly the n value draws init skipped
        assert [given.rng.randint(0, config.k) for _ in range(config.n)] == drawn.values
        assert given.rng.getstate() == drawn.rng.getstate()

    def test_a_drawn_graph_continues_the_same_stream(self):
        config = SimConfig(n=9, k=3, f=4, friend_prob=0.5, seed=12)
        fresh, continued = init(config), init(config, drawn=draw_graph(config))
        assert continued.graph == fresh.graph
        assert continued.values == fresh.values
        assert continued.rng.getstate() == fresh.rng.getstate()

    @pytest.mark.parametrize("values", [[0, 1], [0, 1, 2], [0, 1, -1]])
    def test_given_values_must_fit_the_config(self, values):
        with pytest.raises(ValueError, match="initial values"):
            init(SimConfig(n=3, k=1, seed=0), values=values)


class TestStep:
    def test_unanimous_two_agents_integrate_without_change(self):
        state = two_agent_state(0, 0, v=1, include_self=False)
        events = step(state)
        assert state.values == [0, 0]
        assert events.integrations == 2
        assert events.changed == 0

    def test_simultaneous_swap_uses_pre_integration_values(self):
        # both send before either integrates, so the values cross
        state = two_agent_state(0, 1, v=1, include_self=False)
        events = step(state)
        assert state.values == [1, 0]
        assert events.changed == 2

    def test_single_agent_is_a_fixed_point_but_consumes_activation(self):
        config = SimConfig(n=1, k=1, activation_prob=1.0, max_ticks=5, seed=3)
        state = init(config)
        before = state.values[0]
        rng_before = state.rng.getstate()
        events = step(state)
        assert state.values[0] == before
        assert events.sent == 0 and events.integrations == 0
        # the activation coin was still drawn: the rng advanced exactly once
        assert state.rng.getstate() != rng_before

    @given(config=small_configs())
    @settings(max_examples=40, deadline=None)
    def test_per_tick_invariants(self, config):
        state = init(config)
        k = config.k
        prev = state.snapshot()
        for _ in range(min(config.max_ticks, 15)):
            events = step(state)
            snap = state.snapshot()
            # conservation: every staged message reached exactly one inbox
            assert events.delivered == events.sent
            # changes only happen inside integrations
            assert events.changed <= events.integrations
            # inbox discipline: below the trigger after phase 3
            assert all(len(inbox) < config.v for inbox in state.inboxes)
            # closed domain
            assert snap.min() >= 0 and snap.max() <= k
            # histogram step bound: each change moves one agent between bins
            prev_hist = np.bincount(prev, minlength=k + 1)
            hist = np.bincount(snap, minlength=k + 1)
            assert np.abs(hist - prev_hist).sum() <= 2 * events.integrations
            prev = snap


class TestRun:
    def test_same_seed_identical_trajectories(self):
        config = SimConfig(n=60, k=2, v=3, f=4, friend_prob=0.3, max_ticks=80, seed=123)
        a, b = run(config), run(config)
        assert len(a.snapshots) == len(b.snapshots)
        assert all((x == y).all() for x, y in zip(a.snapshots, b.snapshots))
        assert a.events == b.events

    def test_unanimous_start_terminates_immediately(self):
        traj = run(SimConfig(n=10, k=0, max_ticks=50, seed=5))
        assert traj.n_ticks == 0
        assert len(traj.snapshots) == 1
        assert (traj.snapshots[0] == 0).all()

    def test_snapshot_count_bounded_by_horizon(self):
        traj = run(SimConfig(n=20, k=1, v=2, max_ticks=30, seed=8))
        assert len(traj.snapshots) <= 31
        assert len(traj.snapshots) == traj.n_ticks + 1

    def test_dominant_keeps_values_from_vote_sets(self):
        # strategy=dominant can only adopt values that exist somewhere
        traj = run(SimConfig(n=40, k=4, v=3, max_ticks=60, seed=11))
        seen = set(traj.snapshots[0].tolist())
        for snap in traj.snapshots[1:]:
            assert set(snap.tolist()) <= seen

    def test_winning_count_trends_upward_on_the_baseline_config(self):
        traj = run(SimConfig(n=500, k=1, v=3, f=0, activation_prob=0.5, max_ticks=300, seed=2))
        first = np.bincount(traj.snapshots[0], minlength=2).max()
        last = np.bincount(traj.snapshots[-1], minlength=2).max()
        assert last > first
        assert last == 500  # reaches unanimity on this config

    def test_high_vote_count_fires_far_fewer_integrations(self):
        # 20-vote inboxes fill ~7x slower than 3-vote inboxes
        lo_rates, hi_rates = [], []
        for seed in range(10):
            lo = run(SimConfig(n=100, k=1, v=3, f=0, activation_prob=0.5, max_ticks=60, seed=seed))
            hi = run(
                SimConfig(
                    n=100, k=1, v=20, f=10, friend_prob=0.2,
                    activation_prob=0.5, max_ticks=60, seed=seed,
                )
            )
            lo_rates.append(sum(e.integrations for e in lo.events) / max(lo.n_ticks, 1))
            hi_rates.append(sum(e.integrations for e in hi.events) / max(hi.n_ticks, 1))
        assert np.mean(lo_rates) > 3 * np.mean(hi_rates)

    def test_absorbing_state_never_changes_again(self):
        rng = random.Random(77)
        for _ in range(8):
            n = rng.randrange(2, 25)
            k = rng.randrange(0, 4)
            config = SimConfig(
                n=n,
                k=k,
                v=rng.randrange(1, 4),
                f=min(2, n - 1),
                friend_prob=0.3 if n > 1 else 0.0,
                activation_prob=1.0,
                strategy=rng.choice(["dominant", "consensus", "mixed"]),
                mixed_consensus_prob=0.5,
                max_ticks=10,
                seed=rng.randrange(1000),
            )
            value = rng.randrange(0, k + 1)
            state = init(config, values=[value] * n)
            for _ in range(100):
                assert step(state).changed == 0
            assert (state.snapshot() == value).all()


class TestRunState:
    def test_run_state_continues_an_existing_state(self):
        config = SimConfig(n=30, k=1, v=2, max_ticks=20, seed=9)
        whole = run(config)
        state = init(config)
        again = run_state(state)
        assert (whole.snapshots[-1] == again.snapshots[-1]).all()
