from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import snapshots

from gossipvote import engine
from gossipvote.engine import (
    SETTLED,
    SimState,
    Trajectory,
    draw_graph,
    draw_groups,
    draw_key,
    draw_sends,
    init,
    init_group,
    run_states,
    step,
)
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
        # settled from the start, so step skips the tick; the full path integrates to no change
        state = two_agent_state(0, 0, v=1, include_self=False)
        assert step(state) is SETTLED
        events = _full_step(state)
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
        # one agent is settled from the start, so step draws nothing
        assert step(state) is SETTLED and state.rng.getstate() == rng_before
        events = _full_step(state)
        assert state.values[0] == before
        assert events.sent == 0 and events.integrations == 0
        # on the full path the activation coin is still drawn: the rng advanced exactly once
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
        a, b = run_states([init(config)])[0], run_states([init(config)])[0]
        assert a.initial == b.initial
        assert a.events == b.events

    def test_unanimous_start_terminates_immediately(self):
        traj = run_states([init(SimConfig(n=10, k=0, max_ticks=50, seed=5))])[0]
        assert len(traj.events) == 0
        assert traj.initial == (0,) * 10

    def test_snapshot_count_bounded_by_horizon(self):
        traj = run_states([init(SimConfig(n=20, k=1, v=2, max_ticks=30, seed=8))])[0]
        assert len(traj.events) <= 30
        assert len(snapshots(traj)) == len(traj.events) + 1

    def test_dominant_keeps_values_from_vote_sets(self):
        # strategy=dominant can only adopt values that exist somewhere
        traj = run_states([init(SimConfig(n=40, k=4, v=3, max_ticks=60, seed=11))])[0]
        snaps = snapshots(traj)
        seen = set(snaps[0].tolist())
        for snap in snaps[1:]:
            assert set(snap.tolist()) <= seen

    def test_winning_count_trends_upward_on_the_baseline_config(self):
        config = SimConfig(n=500, k=1, v=3, f=0, activation_prob=0.5, max_ticks=300, seed=2)
        traj = run_states([init(config)])[0]
        first = np.bincount(snapshots(traj)[0], minlength=2).max()
        last = np.bincount(snapshots(traj)[-1], minlength=2).max()
        assert last > first
        assert last == 500  # reaches unanimity on this config

    def test_high_vote_count_fires_far_fewer_integrations(self):
        # 20-vote inboxes fill ~7x slower than 3-vote inboxes
        lo_rates, hi_rates = [], []
        for seed in range(10):
            lo = run_states([init(SimConfig(
                n=100, k=1, v=3, f=0, activation_prob=0.5, max_ticks=60, seed=seed,
            ))])[0]
            hi = run_states([init(SimConfig(
                n=100, k=1, v=20, f=10, friend_prob=0.2,
                activation_prob=0.5, max_ticks=60, seed=seed,
            ))])[0]
            lo_rates.append(sum(e.integrations for e in lo.events) / max(len(lo.events), 1))
            hi_rates.append(sum(e.integrations for e in hi.events) / max(len(hi.events), 1))
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
        whole = run_states([init(config)])[0]
        state = init(config)
        again = run_states([state])[0]
        assert (snapshots(whole)[-1] == snapshots(again)[-1]).all()
        assert state.values == snapshots(whole)[-1].tolist()


class TestSnapshot:
    @pytest.mark.parametrize("k, dtype", [(0, np.uint8), (255, np.uint8), (256, np.int64)])
    def test_dtype_follows_the_value_domain(self, k, dtype):
        config = SimConfig(n=40, k=k, max_ticks=5, seed=3)
        values = [k - i % 2 for i in range(40)] if k else [0] * 40
        snap = init(config, values=values).snapshot()
        assert snap.dtype == dtype
        assert snap.tolist() == values  # the top of the domain survives the narrow dtype
        assert not snap.flags.writeable


@st.composite
def draw_group_cases(draw) -> tuple[list[SimConfig], int | None]:
    """Configs of one draw group (differing in v, include_self and operator) and,
    optionally, the index of a member forced unanimous so that it absorbs at once."""
    n = draw(st.integers(min_value=1, max_value=25))
    symmetric = draw(st.booleans())
    f = draw(st.integers(min_value=0, max_value=n - 1))
    if symmetric and (n * f) % 2:
        f -= 1
    base = SimConfig(
        n=n, k=draw(st.integers(min_value=0, max_value=4)), f=f,
        friend_prob=draw(st.floats(min_value=0.0, max_value=1.0)) if f else 0.0,
        activation_prob=draw(st.floats(min_value=0.1, max_value=1.0)),
        symmetric_friends=symmetric, max_ticks=draw(st.integers(min_value=1, max_value=30)),
        seed=draw(st.integers(min_value=0, max_value=2**32 - 1)),
    )
    members = draw(st.lists(st.tuples(
        st.integers(min_value=1, max_value=5), st.booleans(),
        st.sampled_from(["dominant", "consensus"])), min_size=1, max_size=4))
    configs = [dataclasses.replace(base, v=v, include_self=self_, strategy=strategy)
               for v, self_, strategy in members]
    return configs, draw(st.none() | st.integers(min_value=0, max_value=len(configs) - 1))


def _unanimous(state: SimState) -> SimState:
    """The state with every value 0; a new state, so that its settled latch is set."""
    return dataclasses.replace(state, values=[0] * state.config.n)


def _assert_same_run(got: Trajectory, got_state: SimState, want: Trajectory, want_state: SimState):
    assert got.events == want.events  # the change records included
    assert got.initial == want.initial
    assert got_state.values == want_state.values
    assert got_state.rng.getstate() == want_state.rng.getstate()


class TestLockstep:
    @given(case=draw_group_cases())
    @settings(max_examples=120, deadline=None)
    def test_run_states_equals_lone_runs_bit_for_bit(self, case):
        configs, absorber = case
        states = init_group(configs)
        lone = [init(config) for config in configs]
        if absorber is not None:
            states[absorber] = _unanimous(states[absorber])
            lone[absorber] = _unanimous(lone[absorber])
        for index, traj in enumerate(run_states(states)):
            _assert_same_run(traj, states[index], run_states([lone[index]])[0], lone[index])

    # seeds found by scanning: the v=1 lead absorbs at tick 21 while the other member
    # steps to the horizon; the lead steps to the horizon while the other settles with
    # votes queued (on the full path they drain and it absorbs at tick 14); the lead
    # absorbs at tick 5 while the other settles with votes queued (full path: tick 31)
    @pytest.mark.parametrize("seed, ticks", [(3, (21, 40)), (7, (40, 40)), (29, (5, 40))])
    def test_members_stop_at_their_own_absorption_and_the_rest_go_on(self, seed, ticks):
        base = SimConfig(n=4, k=1, f=0, activation_prob=0.9, max_ticks=40, seed=seed)
        configs = [dataclasses.replace(base, v=1, include_self=False),
                   dataclasses.replace(base, v=3, strategy="consensus")]
        states = init_group(configs)
        trajs = run_states(states)
        assert (len(trajs[0].events), len(trajs[1].events)) == ticks
        for config, state, traj in zip(configs, states, trajs):
            alone = init(config)
            _assert_same_run(traj, state, run_states([alone])[0], alone)
            _assert_on_the_full_path(traj, state, init(config))

    def test_each_tick_steps_every_live_member_with_one_draw(self, monkeypatch):
        base = SimConfig(n=30, k=2, f=3, friend_prob=0.5, max_ticks=10, seed=4)
        configs = [base, dataclasses.replace(base, v=7, include_self=False)]
        lone = []
        for config in configs:
            alone = init(config)
            lone.append([step(alone) for _ in range(10)])
        states = init_group(configs)
        drawn = _count_draws(monkeypatch)
        trajs = run_states(states)
        drawn_from = [state.rng for state in drawn]
        assert len(drawn_from) == 10  # one draw per tick for the whole group
        assert all(rng is drawn_from[0] for rng in drawn_from)
        assert all(drawn_from[0] is not state.rng for state in states)  # a private copy
        assert [traj.events for traj in trajs] == lone  # every member stepped every tick
        assert all(a.sent == b.sent for a, b in zip(*lone))

    @pytest.mark.parametrize("lead, follower", [
        (dict(strategy="mixed"), dict(strategy="mixed", v=4)),  # mixed never shares
        (dict(), dict(friend_prob=0.25)),
        (dict(), dict(seed=5)),
    ])
    def test_states_with_other_draws_are_refused(self, lead, follower):
        base = SimConfig(n=12, k=2, f=3, friend_prob=0.5, mixed_consensus_prob=0.5, seed=4)
        states = [init(dataclasses.replace(base, **lead)),
                  init(dataclasses.replace(base, **follower))]
        with pytest.raises(ValueError, match="share a draw key"):
            run_states(states)

    def test_a_follower_with_another_rng_state_is_refused(self):
        base = SimConfig(n=12, k=2, f=3, friend_prob=0.5, seed=4)
        states = init_group([base, dataclasses.replace(base, v=5)])
        states[1].rng.random()
        with pytest.raises(ValueError, match="RNG state"):
            run_states(states)

    def test_a_group_reports_a_friendless_sender_as_a_lone_run_does(self):
        base = SimConfig(n=2, k=1, f=1, friend_prob=0.4, activation_prob=1.0, seed=0)
        states = init_group([base, dataclasses.replace(base, v=2)])
        graph = FriendGraph([[], []])
        for state in states:
            state.graph = graph
        message = r"friend_prob=0.4 needs a non-empty friend list \(agent 0 has none\)"
        with pytest.raises(ValueError, match=message):
            run_states(states)


# draw fields, each with a second value that keeps the base config valid
DRAW_FIELDS = dict(seed=8, n=21, k=3, f=5, friend_prob=0.6, activation_prob=0.7,
                   symmetric_friends=True, max_ticks=90)
OTHER_FIELDS = dict(v=9, include_self=False, strategy="consensus", mixed_consensus_prob=0.4)


class TestDrawKey:
    BASE = SimConfig(n=20, k=2, v=3, f=4, friend_prob=0.3, activation_prob=0.5, max_ticks=60,
                     seed=7)

    def test_the_key_lists_every_draw_field_and_nothing_else(self):
        assert set(DRAW_FIELDS) | set(OTHER_FIELDS) == {
            field.name for field in dataclasses.fields(SimConfig)}

    @pytest.mark.parametrize("field", sorted(DRAW_FIELDS))
    def test_changing_a_draw_field_splits_the_group(self, field):
        other = dataclasses.replace(self.BASE, **{field: DRAW_FIELDS[field]})
        assert draw_key(other) != draw_key(self.BASE)
        assert draw_groups([self.BASE, other, self.BASE]) == [[0, 2], [1]]

    @pytest.mark.parametrize("field", sorted(OTHER_FIELDS))
    def test_other_fields_share_the_group_and_its_draws(self, field):
        other = dataclasses.replace(self.BASE, **{field: OTHER_FIELDS[field]})
        assert draw_key(other) == draw_key(self.BASE)
        assert draw_groups([self.BASE, other]) == [[0, 1]]
        a, b = init(self.BASE), init(other)
        assert (a.graph, a.values) == (b.graph, b.values)
        for _ in range(5):
            assert draw_sends(a) == draw_sends(b)

    def test_a_mixed_run_shares_with_nobody(self):
        mixed = dataclasses.replace(self.BASE, strategy="mixed", mixed_consensus_prob=0.5)
        assert draw_key(mixed) is None
        assert draw_groups([mixed, self.BASE, mixed]) == [[0], [1], [2]]


def _copy(state: SimState) -> SimState:
    """An independent copy: its own values, inboxes and RNG."""
    rng = random.Random()
    rng.setstate(state.rng.getstate())
    return dataclasses.replace(state, values=list(state.values),
                               inboxes=[list(inbox) for inbox in state.inboxes], rng=rng)


def _full_step(state: SimState, sends=None):
    """step with the settled latch cleared: it reads votes, sorts and integrates."""
    state.settled = False
    return step(state, sends)


def _is_settled(state: SimState) -> bool:
    w = state.values[0]
    return (all(value == w for value in state.values)
            and all(vote == w for inbox in state.inboxes for vote in inbox))


def _count_draws(monkeypatch) -> list[SimState]:
    """Route engine.draw_sends through a log of the states it draws from; returns the log."""
    drawn: list[SimState] = []

    def counted_draw_sends(state):
        drawn.append(state)
        return draw_sends(state)

    monkeypatch.setattr(engine, "draw_sends", counted_draw_sends)
    return drawn


def _settle_tick(traj: Trajectory) -> int:
    """The tick a run settled at: the number of ticks it drew (all, if it never settled)."""
    return next((t for t, events in enumerate(traj.events) if events is SETTLED),
                len(traj.events))


def _assert_on_the_full_path(traj: Trajectory, state: SimState, start: SimState) -> None:
    """A run's record traj and end state against start, a state equal to the run's
    first one, stepped on the full path: the same events until the run settles and
    SETTLED after it, while the full path changes no value; the same end values;
    the full path's RNG state at the tick the run settled; and an early stop only
    at an absorbing state."""
    full = _copy(start)
    settled_rng = full.rng.getstate() if _is_settled(full) else None
    for events in traj.events:
        if settled_rng is None:
            assert events == _full_step(full)  # the change records included
            if _is_settled(full):
                settled_rng = full.rng.getstate()
        else:
            assert events is SETTLED
            assert _full_step(full).changed == 0
    assert state.values == full.values
    assert state.rng.getstate() == (full.rng.getstate() if settled_rng is None else settled_rng)
    if len(traj.events) < traj.config.max_ticks:
        assert state.settled and not any(state.inboxes)


@st.composite
def settling_states(draw) -> tuple[SimState, int]:
    """Small states that often settle: few values, sometimes a unanimous start
    with dissenting votes still queued."""
    n = draw(st.integers(min_value=1, max_value=12))
    f = draw(st.integers(min_value=0, max_value=min(3, n - 1)))
    strategy = draw(st.sampled_from(["dominant", "consensus", "mixed"]))
    config = SimConfig(
        n=n, k=draw(st.integers(min_value=0, max_value=2)), v=draw(st.integers(1, 4)), f=f,
        friend_prob=draw(st.sampled_from([0.0, 0.5, 1.0])) if f else 0.0,
        activation_prob=draw(st.sampled_from([0.3, 0.7, 1.0])), strategy=strategy,
        mixed_consensus_prob=draw(st.sampled_from([0.0, 0.5, 1.0])),
        include_self=draw(st.booleans()), max_ticks=60,
        seed=draw(st.integers(min_value=0, max_value=2**32 - 1)),
    )
    state = init(config)
    if draw(st.booleans()):
        w = draw(st.integers(min_value=0, max_value=config.k))
        queued = [draw(st.lists(st.integers(0, config.k), max_size=config.v - 1))
                  for _ in range(n)]
        state = dataclasses.replace(state, values=[w] * n, inboxes=queued)
    return state, draw(st.integers(min_value=1, max_value=60))


class TestSettled:
    @given(case=settling_states())
    @settings(max_examples=200, deadline=None)
    def test_settled_steps_equal_the_full_path(self, case):
        fast, ticks = case
        slow = _copy(fast)
        for _ in range(ticks):
            assert fast.settled == _is_settled(slow)
            if fast.settled:
                inboxes, rng_state = [list(inbox) for inbox in fast.inboxes], fast.rng.getstate()
                assert step(fast) is SETTLED
                assert (fast.inboxes, fast.rng.getstate()) == (inboxes, rng_state)
                assert _full_step(slow).changed == 0
            else:
                assert step(fast) == _full_step(slow)
                assert (fast.inboxes, fast.rng.getstate()) == (slow.inboxes, slow.rng.getstate())
            assert fast.values == slow.values

    def test_a_settled_mixed_run_draws_no_coin(self):
        config = SimConfig(n=10, k=2, v=2, activation_prob=0.9, strategy="mixed",
                           mixed_consensus_prob=0.5, max_ticks=60, seed=0)
        fast = init(config)
        slow = _copy(fast)
        settled_integrations = 0
        for _ in range(60):
            if fast.settled:
                rng_state = fast.rng.getstate()
                assert step(fast) is SETTLED and fast.rng.getstate() == rng_state
                events = _full_step(slow)
                assert events.changed == 0
                settled_integrations += events.integrations
            else:
                assert step(fast) == _full_step(slow)
                assert fast.rng.getstate() == slow.rng.getstate()
            assert fast.values == slow.values
        assert settled_integrations > 100  # settled at tick 5; the full path integrates on

    def test_a_settled_step_leaves_inboxes_and_rng_as_they_are(self):
        config = SimConfig(n=6, k=2, v=3, f=2, friend_prob=0.5, activation_prob=1.0, seed=5)
        state = dataclasses.replace(init(config), values=[1] * 6,
                                    inboxes=[[1, 1], [], [1], [], [1, 1], []])
        assert state.settled
        sends = draw_sends(_copy(state))
        inboxes, rng_state = [list(inbox) for inbox in state.inboxes], state.rng.getstate()
        for given in (None, sends):
            assert step(state, given) is SETTLED
            assert state.inboxes == inboxes and state.rng.getstate() == rng_state
            assert state.values == [1] * 6
        assert SETTLED == engine.TickEvents(sent=0, delivered=0, integrations=0, changed=0)

    def test_a_settled_lone_run_stops_drawing_but_records_every_tick(self, monkeypatch):
        config = SimConfig(n=30, k=1, v=3, f=4, friend_prob=0.5, activation_prob=0.6,
                           max_ticks=120, seed=2)
        drawn = _count_draws(monkeypatch)
        (traj,) = run_states([init(config)])
        assert _settle_tick(traj) == len(drawn) == 28  # settled with votes queued
        assert len(traj.events) == 120

    def test_a_draw_group_stops_drawing_at_its_last_settle_tick(self, monkeypatch):
        base = SimConfig(n=30, k=1, v=3, f=4, friend_prob=0.5, activation_prob=0.6,
                         max_ticks=120, seed=5)
        configs = [base, dataclasses.replace(base, v=5, strategy="consensus"),
                   dataclasses.replace(base, v=2, include_self=False)]
        drawn = _count_draws(monkeypatch)
        trajs = run_states(init_group(configs))
        assert [_settle_tick(traj) for traj in trajs] == [34, 70, 16]
        assert len(drawn) == 70
        assert [len(traj.events) for traj in trajs] == [120] * 3

    def test_init_latches_a_unanimous_start(self):
        assert init(SimConfig(n=5, k=2, seed=1), values=[2] * 5).settled
        assert not init(SimConfig(n=5, k=2, seed=1), values=[2, 2, 2, 2, 1]).settled
        state = init(SimConfig(n=3, k=1, v=3, seed=1), values=[1, 1, 1])
        assert not dataclasses.replace(state, inboxes=[[1, 0], [], []]).settled
        assert dataclasses.replace(state, inboxes=[[1, 1], [], [1]]).settled

    # seeds found by scanning, with (tick each member settles at, ticks each steps):
    # the v=5 member settles and steps on beside a member that never settles; it
    # settles first and the other settles and absorbs later; the reverse
    @pytest.mark.parametrize("seed, settles, ticks", [
        (2, (None, 15), (40, 40)), (4, (30, 15), (30, 40)), (0, (8, 14), (8, 40))])
    def test_a_group_member_settles_mid_run_while_the_rest_go_on(self, seed, settles, ticks):
        base = SimConfig(n=12, k=2, f=0, activation_prob=0.8, max_ticks=40, seed=seed)
        configs = [dataclasses.replace(base, v=1, include_self=False),
                   dataclasses.replace(base, v=5, strategy="consensus")]
        states = init_group(configs)
        trajs = run_states(states)
        settled_at: list[int | None] = []
        for config, state, traj in zip(configs, states, trajs):
            alone = init(config)
            events, settled = [], None
            for tick in range(1, config.max_ticks + 1):
                if alone.is_absorbing():
                    break
                events.append(step(alone))
                if alone.settled and settled is None:
                    settled = tick
            settled_at.append(settled)
            assert traj.events == events
            assert (state.values, state.inboxes) == (alone.values, alone.inboxes)
            assert state.rng.getstate() == alone.rng.getstate()
            _assert_on_the_full_path(traj, state, init(config))
        assert tuple(settled_at) == settles
        assert tuple(len(traj.events) for traj in trajs) == ticks

    @given(case=draw_group_cases())
    @settings(max_examples=80, deadline=None)
    def test_groups_equal_lone_runs_on_the_full_path(self, case):
        configs, absorber = case
        states = init_group(configs)
        lone = [init(config) for config in configs]
        if absorber is not None:
            states[absorber] = _unanimous(states[absorber])
            lone[absorber] = _unanimous(lone[absorber])
        for traj, state, alone in zip(run_states(states), states, lone):
            _assert_on_the_full_path(traj, state, alone)
