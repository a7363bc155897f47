from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import lone_run, snapshots

from gossipvote import engine
from gossipvote.engine import (
    SETTLED,
    SimState,
    Trajectory,
    draw_groups,
    draw_key,
    init,
    run,
    step,
)
from gossipvote.model import FriendGraph, SimConfig, make_friend_graph


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
        # a graph stored by one init continues the same stream in the next
        config = SimConfig(n=9, k=3, f=4, friend_prob=0.5, seed=12)
        graphs: dict = {}
        first = init(config, graphs=graphs)
        fresh, continued = init(config), init(config, graphs=graphs)
        assert continued.graph is first.graph
        assert continued.graph == fresh.graph
        assert continued.values == fresh.values
        assert continued.rng.getstate() == fresh.rng.getstate()

    @pytest.mark.parametrize("values", [[0, 1], [0, 1, 2], [0, 1, -1], [0.5, 1, 0],
                                        [True, False, True], ["0", 1, 0]])
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

    def test_the_largest_k_fits_the_change_record(self):
        top = 2**63 - 1  # SimConfig's bound on k
        config = SimConfig(n=2, k=top, v=1, f=0, activation_prob=1.0, include_self=False)
        state = init(config, values=[0, top])
        assert list(step(state).changes) == [0, top, 1, 0]

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
        (a,), (b,) = run([config]), run([config])  # two calls, not one group
        assert a.initial == b.initial
        assert a.events == b.events

    def test_unanimous_start_terminates_immediately(self):
        (traj,) = run([SimConfig(n=10, k=0, max_ticks=50, seed=5)])
        assert len(traj.events) == 0
        assert traj.initial == (0,) * 10

    def test_snapshot_count_bounded_by_horizon(self):
        (traj,) = run([SimConfig(n=20, k=1, v=2, max_ticks=30, seed=8)])
        assert len(traj.events) <= 30
        assert len(snapshots(traj)) == len(traj.events) + 1

    def test_dominant_keeps_values_from_vote_sets(self):
        # strategy=dominant can only adopt values that exist somewhere
        (traj,) = run([SimConfig(n=40, k=4, v=3, max_ticks=60, seed=11)])
        snaps = snapshots(traj)
        seen = set(snaps[0].tolist())
        for snap in snaps[1:]:
            assert set(snap.tolist()) <= seen

    def test_winning_count_trends_upward_on_the_baseline_config(self):
        config = SimConfig(n=500, k=1, v=3, f=0, activation_prob=0.5, max_ticks=300, seed=2)
        (traj,) = run([config])
        first = np.bincount(snapshots(traj)[0], minlength=2).max()
        last = np.bincount(snapshots(traj)[-1], minlength=2).max()
        assert last > first
        assert last == 500  # reaches unanimity on this config

    def test_high_vote_count_fires_far_fewer_integrations(self):
        # 20-vote inboxes fill ~7x slower than 3-vote inboxes
        lo_rates, hi_rates = [], []
        for seed in range(10):
            lo, hi = run([
                SimConfig(n=100, k=1, v=3, f=0, activation_prob=0.5, max_ticks=60, seed=seed),
                SimConfig(n=100, k=1, v=20, f=10, friend_prob=0.2,
                          activation_prob=0.5, max_ticks=60, seed=seed),
            ])
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
        (traj,) = run([config])
        assert traj.final == snapshots(traj)[-1].tolist()
        # a run with a longer horizon records the same ticks, then steps on
        longer = lone_run(config._replace(max_ticks=21))
        assert longer.events[:20] == traj.events and len(longer.events) == 21


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
def draw_group_cases(draw) -> list[SimConfig]:
    """Configs of one draw group, differing in v, include_self and operator."""
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
    return [base._replace(v=v, include_self=self_, strategy=strategy)
            for v, self_, strategy in members]


def _rebuilt(state: SimState, **changes) -> SimState:
    """A new state with some fields changed, so that its settled latch is computed anew."""
    fields = dict(config=state.config, values=state.values, inboxes=state.inboxes,
                  graph=state.graph, rng=state.rng)
    return SimState(**{**fields, **changes})


def _assert_lone_run(config: SimConfig, traj: Trajectory, values: list[int] | None = None):
    """One of run's records is its config's lone run's, stepped tick by tick."""
    assert traj.config == config
    alone = lone_run(config, values)
    assert traj.events == alone.events  # the change records included
    assert (traj.initial, traj.graph, traj.final) == (alone.initial, alone.graph, alone.final)


class TestLockstep:
    @given(configs=draw_group_cases())
    @settings(max_examples=120, deadline=None)
    def test_run_states_equals_lone_runs_bit_for_bit(self, configs):
        for config, traj in zip(configs, run(configs)):
            _assert_lone_run(config, traj)

    # seeds found by scanning: the v=1 lead absorbs at tick 21 while the other member
    # steps to the horizon; the lead steps to the horizon while the other settles with
    # votes queued (on the full path they drain and it absorbs at tick 14); the lead
    # absorbs at tick 5 while the other settles with votes queued (full path: tick 31)
    @pytest.mark.parametrize("seed, ticks", [(3, (21, 40)), (7, (40, 40)), (29, (5, 40))])
    def test_members_stop_at_their_own_absorption_and_the_rest_go_on(self, seed, ticks):
        base = SimConfig(n=4, k=1, f=0, activation_prob=0.9, max_ticks=40, seed=seed)
        configs = [base._replace(v=1, include_self=False),
                   base._replace(v=3, strategy="consensus")]
        trajs = run(configs)
        assert (len(trajs[0].events), len(trajs[1].events)) == ticks
        for config, traj in zip(configs, trajs):
            _assert_lone_run(config, traj)
            _assert_on_the_full_path(traj, init(config))

    def test_each_tick_steps_every_live_member_with_one_draw(self, monkeypatch):
        base = SimConfig(n=30, k=2, f=3, friend_prob=0.5, max_ticks=10, seed=4)
        configs = [base, base._replace(v=7, include_self=False)]
        lone = []
        for config in configs:
            alone = init(config)
            lone.append([step(alone) for _ in range(10)])
        drawn = _count_draws(monkeypatch)
        trajs = run(configs)
        assert len(drawn) == 10  # one draw per tick for the whole group
        assert all(rng is drawn[0] for rng in drawn)  # one RNG object drew every tick
        assert [traj.events for traj in trajs] == lone  # every member stepped every tick
        assert all(a.sent == b.sent for a, b in zip(*lone))


# draw fields, each with a second value that keeps the base config valid
DRAW_FIELDS = dict(seed=8, n=21, k=3, f=5, friend_prob=0.6, activation_prob=0.7,
                   symmetric_friends=True, max_ticks=90)
OTHER_FIELDS = dict(v=9, include_self=False, strategy="consensus", mixed_consensus_prob=0.4)


class TestDrawKey:
    BASE = SimConfig(n=20, k=2, v=3, f=4, friend_prob=0.3, activation_prob=0.5, max_ticks=60,
                     seed=7)

    def test_the_key_lists_every_draw_field_and_nothing_else(self):
        assert set(DRAW_FIELDS) | set(OTHER_FIELDS) == set(SimConfig._fields)

    @pytest.mark.parametrize("field", sorted(DRAW_FIELDS))
    def test_changing_a_draw_field_splits_the_group(self, field):
        other = self.BASE._replace(**{field: DRAW_FIELDS[field]})
        assert draw_key(other) != draw_key(self.BASE)
        assert draw_groups([self.BASE, other, self.BASE]) == [[0, 2], [1]]

    @pytest.mark.parametrize("field", sorted(OTHER_FIELDS))
    def test_other_fields_share_the_group_and_its_draws(self, field):
        other = self.BASE._replace(**{field: OTHER_FIELDS[field]})
        assert draw_key(other) == draw_key(self.BASE)
        assert draw_groups([self.BASE, other]) == [[0, 1]]
        a, b = init(self.BASE), init(other)
        assert (a.graph, a.values) == (b.graph, b.values)
        for _ in range(5):
            a_sends: list[tuple[int, int]] = []
            b_sends: list[tuple[int, int]] = []
            step(a, None, a_sends)
            step(b, None, b_sends)
            assert a_sends == b_sends

    def test_a_mixed_run_shares_with_nobody(self):
        mixed = self.BASE._replace(strategy="mixed", mixed_consensus_prob=0.5)
        assert draw_key(mixed) is None
        assert draw_groups([mixed, self.BASE, mixed]) == [[0], [1], [2]]


@st.composite
def run_cases(draw) -> list[SimConfig]:
    """Shuffled configs, mixed and not, on one or two seeds, some differing in k,
    friend_prob or max_ticks, so that several draw groups share a graph key."""
    n = draw(st.integers(min_value=1, max_value=20))
    symmetric = draw(st.booleans())
    f = draw(st.integers(min_value=0, max_value=n - 1))
    if symmetric and (n * f) % 2:
        f -= 1
    base = SimConfig(
        n=n, k=draw(st.integers(min_value=0, max_value=3)), f=f, friend_prob=0.5 if f else 0.0,
        activation_prob=draw(st.floats(min_value=0.1, max_value=1.0)),
        symmetric_friends=symmetric, max_ticks=draw(st.integers(min_value=1, max_value=25)),
        seed=draw(st.integers(min_value=0, max_value=2**32 - 2)),
    )
    members = draw(st.lists(st.fixed_dictionaries({
        "v": st.integers(min_value=1, max_value=5),
        "include_self": st.booleans(),
        "strategy": st.sampled_from(["dominant", "consensus", "mixed"]),
        "mixed_consensus_prob": st.sampled_from([0.0, 0.5, 1.0]),
        "k": st.sampled_from([base.k, base.k + 1]),
        "friend_prob": st.sampled_from([0.5, 1.0] if f else [0.0]),
        "max_ticks": st.sampled_from([base.max_ticks, base.max_ticks + 7]),
        "seed": st.sampled_from([base.seed, base.seed + 1]),
    }), min_size=1, max_size=6))
    return draw(st.permutations([base._replace(**member) for member in members]))


def _graph_key(config: SimConfig) -> tuple:
    return config.seed, config.n, config.f, config.symmetric_friends


def _assert_lone_runs(configs: list[SimConfig], results, values: list[int] | None = None):
    """Each of run's records is its config's lone run's, stepped tick by tick."""
    assert len(results) == len(configs)
    for config, traj in zip(configs, results):
        _assert_lone_run(config, traj, values)


class TestRunConfigs:
    @given(configs=run_cases())
    @settings(max_examples=150, deadline=None)
    def test_each_run_equals_its_lone_run_with_one_graph_per_graph_key(self, configs):
        drawn: list[tuple] = []  # the graph key of every graph drawn
        # a graph is its run RNG's first draw, so the RNG's state names the seed
        seed_at = {random.Random(config.seed).getstate(): config.seed for config in configs}

        def counted_make_friend_graph(n, f, rng, symmetric=False):
            drawn.append((seed_at[rng.getstate()], n, f, symmetric))
            return make_friend_graph(n, f, rng, symmetric=symmetric)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "make_friend_graph", counted_make_friend_graph)
            results = run(configs)
        assert sorted(drawn) == sorted({_graph_key(c) for c in configs})
        _assert_lone_runs(configs, results)

    @given(configs=run_cases())
    @settings(max_examples=100, deadline=None)
    def test_each_record_holds_its_final_values_and_its_shared_graph(self, configs):
        results = run(configs)
        for config, traj in zip(configs, results):
            values = list(traj.initial)
            for events in traj.events:
                for agent, new in zip(events.changes[0::2], events.changes[1::2]):
                    values[agent] = new
            assert traj.final == values
            if len(set(traj.initial)) == 1:  # unanimous with empty inboxes: absorbing
                assert traj.final == list(traj.initial) and traj.events == []
            for other_config, other in zip(configs, results):
                same_key = _graph_key(config) == _graph_key(other_config)
                assert (traj.graph is other.graph) == same_key

    @given(configs=run_cases())
    @settings(max_examples=100, deadline=None)
    def test_every_member_calls_engine_step_once_per_recorded_tick(self, configs):
        # perfbench counts agent-ticks as traced engine.step calls times n
        calls: dict[int, int] = {}  # by the id of a state's values list, its record's final

        def counted_step(*args, **kwargs):
            state = args[0]  # the tracer reads the agent count from args[0].config.n
            assert type(state) is SimState
            calls[id(state.values)] = calls.get(id(state.values), 0) + 1
            return step(*args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "step", counted_step)
            results = run(configs)
        assert sum(calls.values()) == sum(len(traj.events) for traj in results)
        assert [calls.get(id(traj.final), 0) for traj in results] == [
            len(traj.events) for traj in results]

    def test_equal_graph_keys_share_the_graph_but_not_the_initial_values(self):
        one = SimConfig(n=20, k=1, f=3, friend_prob=0.5, max_ticks=30, seed=9)
        configs = [one, one._replace(k=2)]
        results = run(configs)
        first, second = results
        assert first.graph is second.graph
        assert first.initial != second.initial
        _assert_lone_runs(configs, results)

    def test_given_values_draw_nothing_before_tick_1(self, monkeypatch):
        base = SimConfig(n=6, k=3, f=2, friend_prob=0.5, max_ticks=20, seed=4)
        configs = [base, base._replace(v=2), base._replace(max_ticks=9),
                   base._replace(strategy="mixed", mixed_consensus_prob=0.5)]
        values = [3, 0, 1, 2, 2, 0]
        started: list[tuple] = []

        run_group = engine._run_group

        def recorded_run_group(states):
            started.extend(state.rng.getstate() for state in states)
            return run_group(states)

        monkeypatch.setattr(engine, "_run_group", recorded_run_group)
        results = run(configs, values)
        after_graph = random.Random(base.seed)
        make_friend_graph(base.n, base.f, after_graph)
        assert started == [after_graph.getstate()] * len(configs)
        assert [traj.initial for traj in results] == [tuple(values)] * len(configs)
        _assert_lone_runs(configs, results, values)

    def test_given_values_must_fit_every_config(self):
        base = SimConfig(n=3, k=2, seed=0)
        with pytest.raises(ValueError, match=r"need 3 initial values in 0\.\.1"):
            run([base, base._replace(k=1)], [2, 0, 1])

    @pytest.mark.parametrize("values", [[0.5, 1, 0], [True, False, True]])
    def test_given_values_must_be_ints(self, values):
        config = SimConfig(n=3, k=1, max_ticks=5, seed=1)
        with pytest.raises(ValueError, match=r"need 3 initial values in 0\.\.1"):
            run([config, config._replace(v=2)], values)

    def test_no_configs_no_runs(self):
        assert run([]) == []


def _copy(state: SimState, **changes) -> SimState:
    """An independent copy, with some fields changed: its own values, inboxes and RNG."""
    rng = random.Random()
    rng.setstate(state.rng.getstate())
    return _rebuilt(state, values=list(state.values),
                    inboxes=[list(inbox) for inbox in state.inboxes], rng=rng, **changes)


def _full_step(state: SimState, sends=None):
    """step with the settled latch cleared: it reads votes, sorts and integrates."""
    state.settled = False
    return step(state, sends)


def _is_settled(state: SimState) -> bool:
    w = state.values[0]
    return (all(value == w for value in state.values)
            and all(vote == w for inbox in state.inboxes for vote in inbox))


def _count_draws(monkeypatch) -> list[random.Random]:
    """Log the RNG of every tick that moved a drawing RNG's state; returns the log.

    Every tick draws inside engine.step, and a step given sends draws nothing
    (groups hold no mixed run), so each drawing tick is logged once.
    """
    drawn: list[random.Random] = []

    def counted_step(state, sends=None, record=None):
        before = state.rng.getstate()
        events = step(state, sends, record)
        if state.rng.getstate() != before:
            drawn.append(state.rng)
        return events

    monkeypatch.setattr(engine, "step", counted_step)
    return drawn


def _settle_tick(traj: Trajectory) -> int:
    """The tick a run settled at: the number of ticks it drew (all, if it never settled)."""
    return next((t for t, events in enumerate(traj.events) if events is SETTLED),
                len(traj.events))


def _assert_on_the_full_path(traj: Trajectory, start: SimState) -> None:
    """A run's record traj against start, a state equal to the run's first one,
    stepped on the full path: the same events until the run settles and SETTLED
    after it, while the full path changes no value; the same final values; and an
    early stop only at an absorbing state."""
    full = _copy(start)
    settled = _is_settled(full)
    for events in traj.events:
        if not settled:
            assert events == _full_step(full)  # the change records included
            settled = _is_settled(full)
        else:
            assert events is SETTLED
            assert _full_step(full).changed == 0
    assert traj.final == full.values
    if len(traj.events) < traj.config.max_ticks:
        assert settled and not any(full.inboxes)


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
        state = _rebuilt(state, values=[w] * n, inboxes=queued)
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
        state = _rebuilt(init(config), values=[1] * 6,
                         inboxes=[[1, 1], [], [1], [], [1, 1], []])
        assert state.settled
        inboxes, rng_state = [list(inbox) for inbox in state.inboxes], state.rng.getstate()
        record: list[tuple[int, int]] = []
        for given in (None, [(0, 1), (2, 3)]):
            assert step(state, given, record) is SETTLED and record == []
            assert state.inboxes == inboxes and state.rng.getstate() == rng_state
            assert state.values == [1] * 6
        assert SETTLED == engine.TickEvents(sent=0, delivered=0, integrations=0, changed=0)

    def test_a_settled_lone_run_stops_drawing_but_records_every_tick(self, monkeypatch):
        config = SimConfig(n=30, k=1, v=3, f=4, friend_prob=0.5, activation_prob=0.6,
                           max_ticks=120, seed=2)
        drawn = _count_draws(monkeypatch)
        (traj,) = run([config])
        assert _settle_tick(traj) == len(drawn) == 28  # settled with votes queued
        assert len(traj.events) == 120

    def test_a_draw_group_stops_drawing_at_its_last_settle_tick(self, monkeypatch):
        base = SimConfig(n=30, k=1, v=3, f=4, friend_prob=0.5, activation_prob=0.6,
                         max_ticks=120, seed=5)
        configs = [base, base._replace(v=5, strategy="consensus"),
                   base._replace(v=2, include_self=False)]
        drawn = _count_draws(monkeypatch)
        trajs = run(configs)
        assert [_settle_tick(traj) for traj in trajs] == [34, 70, 16]
        assert len(drawn) == 70
        assert [len(traj.events) for traj in trajs] == [120] * 3

    def test_init_latches_a_unanimous_start(self):
        assert init(SimConfig(n=5, k=2, seed=1), values=[2] * 5).settled
        assert not init(SimConfig(n=5, k=2, seed=1), values=[2, 2, 2, 2, 1]).settled
        state = init(SimConfig(n=3, k=1, v=3, seed=1), values=[1, 1, 1])
        assert not _rebuilt(state, inboxes=[[1, 0], [], []]).settled
        assert _rebuilt(state, inboxes=[[1, 1], [], [1]]).settled

    # seeds found by scanning, with (tick each member settles at, ticks each steps):
    # the v=5 member settles and steps on beside a member that never settles; it
    # settles first and the other settles and absorbs later; the reverse
    @pytest.mark.parametrize("seed, settles, ticks", [
        (2, (None, 15), (40, 40)), (4, (30, 15), (30, 40)), (0, (8, 14), (8, 40))])
    def test_a_group_member_settles_mid_run_while_the_rest_go_on(self, seed, settles, ticks,
                                                                 monkeypatch):
        base = SimConfig(n=12, k=2, f=0, activation_prob=0.8, max_ticks=40, seed=seed)
        configs = [base._replace(v=1, include_self=False),
                   base._replace(v=5, strategy="consensus")]
        drawn = _count_draws(monkeypatch)
        trajs = run(configs)
        # one RNG drew each tick until the last member settled, as its lone run draws
        assert len(drawn) == max(_settle_tick(traj) for traj in trajs)
        assert all(rng is drawn[0] for rng in drawn)
        monkeypatch.undo()
        settled_at: list[int | None] = []
        for config, traj in zip(configs, trajs):
            alone = init(config)
            events, settled = [], None
            for tick in range(1, config.max_ticks + 1):
                if alone.settled and not any(alone.inboxes):  # absorbing
                    break
                events.append(step(alone))
                if alone.settled and settled is None:
                    settled = tick
            settled_at.append(settled)
            assert traj.events == events
            assert traj.final == alone.values
            _assert_on_the_full_path(traj, init(config))
        assert tuple(settled_at) == settles
        assert tuple(len(traj.events) for traj in trajs) == ticks

    @given(configs=draw_group_cases())
    @settings(max_examples=80, deadline=None)
    def test_groups_equal_lone_runs_on_the_full_path(self, configs):
        for config, traj in zip(configs, run(configs)):
            _assert_on_the_full_path(traj, init(config))
