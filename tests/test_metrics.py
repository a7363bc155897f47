from __future__ import annotations

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    clustering_gap,
    edge_arrays,
    snapshots,
    tick_metrics,
    trajectory_from_snapshots,
    trajectory_metrics,
)

from gossipvote.engine import NO_CHANGES, run
from gossipvote.metrics import (
    Observation,
    convergence_tick,
    dissent_change_rate,
    live_change_rate,
    observe,
    pairwise_sum,
    steady_change_rate,
)
from gossipvote.model import FriendGraph, SimConfig


class TestTickMetrics:
    def test_unanimous_population(self):
        snap = np.zeros(500, dtype=np.int64)
        graph = FriendGraph([[1], [0]] + [[] for _ in range(498)])
        tm = tick_metrics(snap, snap, graph, k=1)
        assert tm.histogram.tolist() == [500, 0]
        assert tm.winning_count == 500
        assert tm.friend_agreement == 1.0
        assert tm.unanimous

    def test_change_rate_counts_differing_agents(self):
        graph = FriendGraph([[], []])
        tm = tick_metrics(np.array([0, 1]), np.array([1, 1]), graph, k=1)
        assert tm.change_rate == 0.5

    def test_friend_and_random_agreement_enumeration(self):
        # edges (0,1) agree, (2,3) agree, (0,2) disagree -> 2/3
        # histogram {0:2, 1:2} -> random agreement 0.25 + 0.25
        snap = np.array([0, 0, 1, 1])
        graph = FriendGraph([[1, 2], [], [3], []])
        tm = tick_metrics(snap, snap, graph, k=1)
        assert tm.friend_agreement == pytest.approx(2 / 3)
        assert tm.random_agreement == pytest.approx(0.5)

    def test_agreements_are_one_at_unanimity(self):
        snap = np.full(8, 3, dtype=np.int64)
        graph = FriendGraph([[i + 1] for i in range(7)] + [[0]])
        tm = tick_metrics(snap, snap, graph, k=5)
        assert tm.friend_agreement == 1.0
        assert tm.random_agreement == 1.0

    def test_edgeless_graph_agreement_is_vacuously_one(self):
        snap = np.array([0, 1])
        tm = tick_metrics(snap, snap, FriendGraph([[], []]), k=1)
        assert tm.friend_agreement == 1.0

    def test_rejects_mismatched_lengths(self):
        graph = FriendGraph([[], []])
        with pytest.raises(ValueError, match="differ"):
            tick_metrics(np.array([0]), np.array([0, 1]), graph, k=1)

    def test_rejects_values_outside_domain(self):
        graph = FriendGraph([[], []])
        with pytest.raises(ValueError, match="domain"):
            tick_metrics(np.array([0, 5]), np.array([0, 5]), graph, k=1)

    @given(
        values=st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=40),
        prev_values=st.data(),
    )
    @settings(max_examples=60)
    def test_invariants(self, values, prev_values):
        n = len(values)
        prev = prev_values.draw(
            st.lists(st.integers(min_value=0, max_value=4), min_size=n, max_size=n)
        )
        graph = FriendGraph([[] for _ in range(n)])
        tm = tick_metrics(np.array(prev), np.array(values), graph, k=4)
        assert tm.histogram.sum() == n
        assert 0.0 <= tm.change_rate <= 1.0
        assert 0.0 <= tm.random_agreement <= 1.0
        assert tm.unanimous == (tm.winning_count == n)

    def test_change_rate_bounded_by_integration_rate_on_a_real_run(self):
        config = SimConfig(n=80, k=1, v=3, max_ticks=50, seed=21)
        (traj,) = run([config])
        snaps = snapshots(traj)
        prev = snaps[0]
        for snap, events in zip(snaps[1:], traj.events):
            tm = tick_metrics(prev, snap, traj.graph, k=1)
            assert tm.change_rate <= events.integrations / config.n + 1e-12
            prev = snap


def observed(config: SimConfig) -> Observation:
    """The observation of config's lone run."""
    (traj,) = run([config])
    return observe(traj)


RATES = (steady_change_rate, dissent_change_rate, live_change_rate)


class TestSteadyChangeRate:
    def test_arithmetic_mean_after_burn_in(self):
        # ticks 1, 2 and 3 change 1, 2 and 3 of the 10 agents
        config = SimConfig(n=10, k=1, max_ticks=3, seed=0)
        populations = [[0] * 10, [1] + [0] * 9, [1] * 3 + [0] * 7, [1] * 6 + [0] * 4]
        traj = trajectory_from_snapshots(populations, config=config)
        obs = observe(traj)
        assert obs.changed == [0, 1, 2, 3]
        assert steady_change_rate(obs, burn_in=1) == pytest.approx(0.25)

    def test_unanimous_start_scores_zero(self):
        obs = observed(SimConfig(n=10, k=0, max_ticks=40, seed=1))
        assert steady_change_rate(obs, burn_in=10) == 0.0

    def test_absorbed_before_burn_in_scores_zero(self):
        # v=1 without self-votes is adopt-what-you-hear: tiny populations
        # hit unanimity fast, and v=1 leaves every inbox empty at tick end,
        # so the run stops early and the burn-in window is empty
        absorbed = None
        for seed in range(20):
            obs = observed(SimConfig(
                n=4, k=1, v=1, include_self=False, activation_prob=1.0, max_ticks=100, seed=seed
            ))
            if len(obs.changed) <= 60:
                absorbed = obs
                break
        assert absorbed is not None
        assert steady_change_rate(absorbed, burn_in=60) == 0.0

    @pytest.mark.parametrize("burn_in", [-1, 100, 500])
    def test_rejects_out_of_range_burn_in(self, burn_in):
        # every change rate checks burn_in against the horizon, however many ticks ran
        obs = observed(SimConfig(n=5, k=1, max_ticks=100, seed=2))
        for rate in RATES:
            with pytest.raises(ValueError, match=re.escape(
                    f"burn_in must satisfy 0 <= burn_in < max_ticks=100, got {burn_in}")):
                rate(obs, burn_in)


class TestClusteringGap:
    def test_matched_halves_with_agreeing_friends(self):
        config = SimConfig(n=4, k=1, max_ticks=1, seed=0)
        traj = trajectory_from_snapshots([[0, 0, 1, 1]], config, FriendGraph([[1], [0], [3], [2]]))
        assert clustering_gap(traj, 0) == pytest.approx(0.5)

    def test_unanimity_gives_zero_gap(self):
        config = SimConfig(n=4, k=1, max_ticks=1, seed=0)
        traj = trajectory_from_snapshots([[1, 1, 1, 1]], config, FriendGraph([[1], [2], [3], [0]]))
        assert clustering_gap(traj, 0) == 0.0

    def test_rejects_out_of_range_tick(self):
        (traj,) = run([SimConfig(n=5, k=1, max_ticks=10, seed=3)])
        with pytest.raises(IndexError, match="tick"):
            clustering_gap(traj, len(traj.events) + 1)


class TestTrajectoryHelpers:
    def test_trajectory_metrics_covers_every_snapshot(self):
        (traj,) = run([SimConfig(n=30, k=1, v=2, max_ticks=25, seed=4)])
        per_tick = trajectory_metrics(traj)
        assert len(per_tick) == len(traj.events) + 1
        assert per_tick[0].change_rate == 0.0

    def test_convergence_tick_finds_first_unanimous_snapshot(self):
        config = SimConfig(n=8, k=1, max_ticks=1, seed=0)
        traj = trajectory_from_snapshots([[0, 1] * 4, [0] * 8, [0] * 8], config=config)
        assert convergence_tick(observe(traj)) == 1

    def test_convergence_tick_none_when_never_unanimous(self):
        config = SimConfig(n=4, k=1, max_ticks=1, seed=0)
        traj = trajectory_from_snapshots([[0, 1, 0, 1]], config=config)
        assert convergence_tick(observe(traj)) is None

    def test_winning_count_constant_after_convergence(self):
        (traj,) = run([SimConfig(n=60, k=1, v=3, max_ticks=300, seed=14)])
        tick = convergence_tick(observe(traj))
        assert tick is not None  # this config reliably reaches unanimity
        for snap in snapshots(traj)[tick:]:
            assert np.bincount(snap, minlength=2).max() == 60


class TestRatesOverTheObservation:
    # snapshots of 4 agents: camps 2/2, 3/1, 4/0 (unanimous), 4/0
    SNAPSHOTS = [[0, 0, 1, 1], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]]

    def observation(self):
        config = SimConfig(n=4, k=1, max_ticks=3, seed=0)
        return observe(trajectory_from_snapshots(self.SNAPSHOTS, config=config))

    def test_observed_changes_per_tick(self):
        assert self.observation().changed == [0, 1, 1, 0]

    def test_dissent_change_rate_divides_by_agents_outside_the_largest_camp(self):
        # ticks 1..3 change 1+1+0 agents; dissent before them is 2+1+0
        assert dissent_change_rate(self.observation(), burn_in=0) == 2 / 3
        assert dissent_change_rate(self.observation(), burn_in=1) == 1 / 1
        assert dissent_change_rate(self.observation(), burn_in=2) == 0.0

    def test_live_change_rate_stops_at_unanimity(self):
        # ticks 1..2 (unanimous at tick 2): 2 changes over 2 ticks of 4 agents
        assert live_change_rate(self.observation(), burn_in=0) == 2 / 8
        assert live_change_rate(self.observation(), burn_in=1) == 1 / 4
        assert live_change_rate(self.observation(), burn_in=2) == 0.0

    def test_dissent_change_rate_rejects_a_negative_burn_in(self):
        # a negative burn_in would slice from the end, not skip a burn-in
        for rate in RATES:
            with pytest.raises(ValueError, match=re.escape(
                    "burn_in must satisfy 0 <= burn_in < max_ticks=3, got -1")):
                rate(self.observation(), burn_in=-1)

    def test_live_change_rate_rejects_a_negative_burn_in(self):
        for rate in RATES:
            with pytest.raises(ValueError, match=re.escape(
                    "burn_in must satisfy 0 <= burn_in < max_ticks=3, got -3")):
                rate(self.observation(), burn_in=-3)

    def test_gaps_match_clustering_gap_and_reject_ticks_outside_the_run(self):
        config = SimConfig(n=4, k=1, max_ticks=3, seed=0)
        traj = trajectory_from_snapshots(self.SNAPSHOTS, config, FriendGraph([[1], [0], [3], [2]]))
        obs = observe(traj)
        assert obs.gaps(0, 4) == [clustering_gap(traj, t) for t in range(4)]
        for start, stop in ((0, 5), (2, 2), (-1, 1)):
            with pytest.raises(IndexError, match="outside"):
                obs.gaps(start, stop)


@st.composite
def run_configs(draw) -> SimConfig:
    """Small runs of every shape the observer meets."""
    n = draw(st.integers(min_value=1, max_value=24))
    f = draw(st.integers(min_value=0, max_value=min(4, n - 1)))
    strategy = draw(st.sampled_from(("dominant", "consensus", "mixed")))
    return SimConfig(
        n=n,
        k=draw(st.sampled_from((0, 1, 2, 8, 12))),
        v=draw(st.integers(min_value=1, max_value=4)),
        f=f,
        friend_prob=0.0 if f == 0 else draw(st.sampled_from((0.0, 0.5, 1.0))),
        activation_prob=draw(st.sampled_from((0.2, 0.6, 1.0))),
        strategy=strategy,
        mixed_consensus_prob=0.5 if strategy == "mixed" else 0.0,
        include_self=draw(st.booleans()),
        symmetric_friends=(n * f) % 2 == 0 and draw(st.booleans()),
        max_ticks=draw(st.integers(min_value=1, max_value=60)),
        seed=draw(st.integers(min_value=0, max_value=10_000)),
    )


# named shapes, each with the property that makes it that shape
SHAPES = {
    "solo": (SimConfig(n=1, k=3, max_ticks=20, seed=1), lambda obs: obs.n == 1),
    "k0": (SimConfig(n=12, k=0, f=2, friend_prob=0.5, max_ticks=20, seed=2),
           lambda obs: convergence_tick(obs) == 0),
    "k12_never_converges": (
        SimConfig(n=24, k=12, v=4, f=3, friend_prob=0.5, activation_prob=0.2,
                  max_ticks=60, seed=3),
        lambda obs: convergence_tick(obs) is None and len(obs.histograms[0]) == 13),
    "edgeless": (SimConfig(n=16, k=2, v=2, max_ticks=40, seed=4),
                 lambda obs: set(obs.friend_agreement) == {1.0}),
    "symmetric": (SimConfig(n=20, k=8, v=2, f=3, friend_prob=1.0, symmetric_friends=True,
                            strategy="consensus", max_ticks=60, seed=5),
                  lambda obs: len(set(obs.friend_agreement)) > 1),
    "converges_early": (
        SimConfig(n=60, k=1, v=3, max_ticks=300, seed=14),
        lambda obs: convergence_tick(obs) is not None and convergence_tick(obs) < 150),
}


def assert_observation_matches_tick_metrics(config: SimConfig):
    """observe() equals the numpy oracle's tick_metrics at every tick, floats bit for bit."""
    (traj,) = run([config])
    obs = observe(traj)
    src, dst = edge_arrays(traj.graph)
    snaps = snapshots(traj)
    assert len(obs.winning_count) == len(snaps)
    prev = snaps[0]
    for tick, snap in enumerate(snaps):
        ref = tick_metrics(prev, snap, traj.graph, config.k)
        assert list(obs.histograms[tick]) == ref.histogram.tolist()
        assert obs.winning_count[tick] == ref.winning_count
        assert obs.changed[tick] / obs.n == ref.change_rate
        assert obs.friend_agreement[tick] == ref.friend_agreement
        assert obs.random_agreement[tick] == ref.random_agreement
        assert obs.changed[tick] == (traj.events[tick - 1].changed if tick else 0)
        # the reference's own formulas, as the metrics CSV has always written them
        assert ref.change_rate == float(np.count_nonzero(snap != prev)) / config.n
        if src.size:
            assert ref.friend_agreement == float(np.mean(snap[src] == snap[dst]))
        assert ref.random_agreement == float(np.sum((ref.histogram / config.n) ** 2))
        prev = snap
    for tick, tm in enumerate(trajectory_metrics(traj)):
        assert tm.histogram.tolist() == list(obs.histograms[tick])
        assert (tm.winning_count, tm.change_rate, tm.friend_agreement, tm.random_agreement) == (
            obs.winning_count[tick], obs.changed[tick] / obs.n, obs.friend_agreement[tick],
            obs.random_agreement[tick])
        assert tm.unanimous == (tm.winning_count == config.n)
    return obs


class TestObserve:
    @given(config=run_configs())
    @settings(max_examples=120, deadline=None)
    def test_equals_tick_metrics_on_random_runs(self, config):
        assert_observation_matches_tick_metrics(config)

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_equals_tick_metrics_on_every_shape(self, shape):
        config, is_that_shape = SHAPES[shape]
        assert is_that_shape(assert_observation_matches_tick_metrics(config))

    @given(config=run_configs(), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_steady_change_rate_equals_the_rate_over_the_tick_events(self, config, data):
        # lone runs, and draw groups whose members differ in v, operator and self-votes
        members = data.draw(st.lists(st.tuples(
            st.integers(min_value=1, max_value=4), st.sampled_from(("dominant", "consensus")),
            st.booleans()), max_size=2))
        configs = [config] + [config._replace(v=v, strategy=strategy, mixed_consensus_prob=0.0,
                                              include_self=include_self)
                              for v, strategy, include_self in members]
        for traj in run(configs):
            obs = observe(traj)
            assert obs.max_ticks == traj.config.max_ticks
            for burn_in in range(traj.config.max_ticks):
                tail = traj.events[burn_in:]
                want = sum(e.changed for e in tail) / (len(tail) * traj.config.n) if tail else 0.0
                assert steady_change_rate(obs, burn_in) == want
            for burn_in, rate in itertools.product((-1, traj.config.max_ticks), RATES):
                with pytest.raises(ValueError, match=re.escape(
                        f"burn_in must satisfy 0 <= burn_in < max_ticks={traj.config.max_ticks}, "
                        f"got {burn_in}")):
                    rate(obs, burn_in)

    def test_unchanged_ticks_share_one_empty_change_record(self):
        (traj,) = run([SimConfig(n=60, k=1, v=3, max_ticks=300, seed=14)])
        unchanged = [e.changes is NO_CHANGES for e in traj.events]
        assert unchanged == [e.changed == 0 for e in traj.events]
        assert any(unchanged) and not all(unchanged)
        values = list(traj.initial)
        for event in traj.events:
            agents = list(event.changes[0::2])
            assert len(agents) == event.changed and agents == sorted(set(agents))
            if event.changes:
                assert event.changes.typecode == "q"  # 8 bytes per number, no objects
            for agent, new in zip(agents, event.changes[1::2]):
                assert values[agent] != new
                values[agent] = new
        assert values == traj.final

    def test_shared_ticks_share_one_histogram(self):
        (traj,) = run([SimConfig(n=60, k=1, v=3, max_ticks=300, seed=14)])
        obs = observe(traj)
        for t in range(1, len(traj.events) + 1):
            same = not traj.events[t - 1].changes
            assert (obs.histograms[t] is obs.histograms[t - 1]) == same
            if same:
                assert obs.changed[t] / obs.n == 0.0 and obs.changed[t] == 0
        assert isinstance(obs.histograms[0], tuple)

    def test_rejects_snapshots_outside_the_domain(self):
        config = SimConfig(n=2, k=1, max_ticks=1, seed=0)
        traj = trajectory_from_snapshots([[0, 1], [0, 5]], config=config)
        with pytest.raises(ValueError, match="domain"):
            observe(traj)

    def test_rejects_a_graph_of_another_size(self):
        traj = trajectory_from_snapshots([[0, 1, 0]], SimConfig(n=3, k=1, max_ticks=1, seed=0),
                                         FriendGraph([[], []]))
        with pytest.raises(ValueError, match="trajectory has 3 agents but graph has 2"):
            observe(traj)

    def test_rejects_an_empty_trajectory(self):
        traj = trajectory_from_snapshots([[]], SimConfig(n=1, k=1, max_ticks=1, seed=0))
        with pytest.raises(ValueError, match="empty trajectory"):
            observe(traj)

    @pytest.mark.parametrize("initial", [[0, 2], [-1, 0]])
    def test_rejects_initial_values_outside_the_domain(self, initial):
        traj = trajectory_from_snapshots([initial], SimConfig(n=2, k=1, max_ticks=1, seed=0))
        with pytest.raises(ValueError, match=re.escape("values outside domain 0..1")):
            observe(traj)


class TestPairwiseSum:
    def test_equals_numpy_sum_mean_and_std_at_every_size_up_to_1000(self):
        rng = np.random.default_rng(5)
        for size in range(1001):
            # magnitudes spread over 16 decades, so the summation order shows
            values = (rng.random(size) * 10.0 ** rng.integers(-8, 8, size)).tolist()
            assert pairwise_sum(values) == float(np.sum(values)), size
            if values:
                mean = pairwise_sum(values) / size
                assert mean == float(np.mean(values)), size
                spread = pairwise_sum([(x - mean) * (x - mean) for x in values]) / size
                assert math.sqrt(spread) == float(np.std(values)), size

    def test_split_halves_match_numpy_past_a_buffer(self):
        rng = np.random.default_rng(6)
        for size in (129, 255, 256, 257, 8191, 8192, 8193, 20_011):
            values = rng.random(size).tolist()
            assert pairwise_sum(values) == float(np.sum(values)), size
