"""Centralized observer over trajectories: histograms, change rates, agreement.

The observer reads snapshots; it never touches agent internals, so adding a
metric cannot perturb a run. observe() is its one pass: it computes every
per-tick number once per distinct population and returns them as an
Observation, which the summaries, the CSV writers, the sweep rows and the
clustering gaps all read. The engine records a tick that changed no value as
the previous tick's (read-only) snapshot object, and such a tick reuses that
tick's row with change rate 0.0. tick_metrics and clustering_gap stay as the
per-snapshot reference the pass is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import Trajectory
from .model import FriendGraph


@dataclass(frozen=True)
class TickMetrics:
    histogram: np.ndarray  # count of agents holding each value 0..k
    winning_count: int  # size of the largest camp
    change_rate: float  # fraction of agents whose value differs from prev tick
    friend_agreement: float  # fraction of directed friend edges with equal values
    random_agreement: float  # expected agreement of two uniform (with-replacement) picks
    unanimous: bool


@dataclass(frozen=True)
class Observation:
    """Every per-tick observer number of one trajectory, one entry per snapshot.

    Ticks that share a snapshot object share its read-only histogram.
    """

    n: int
    histograms: list[np.ndarray]
    winning_count: list[int]
    changed: list[int]  # agents whose value differs from the tick before; 0 at tick 0
    change_rate: list[float]
    friend_agreement: list[float]
    random_agreement: list[float]

    def gaps(self, start: int, stop: int) -> list[float]:
        """Clustering gap (friend minus random agreement) at ticks start..stop-1."""
        if not 0 <= start < stop <= len(self.winning_count):
            raise IndexError(f"ticks {start}..{stop - 1} outside recorded range "
                             f"0..{len(self.winning_count) - 1}")
        return [friend - chance for friend, chance in
                zip(self.friend_agreement[start:stop], self.random_agreement[start:stop])]


def _observe_snapshot(
    prev_snapshot: np.ndarray, snapshot: np.ndarray, graph: FriendGraph, k: int
) -> tuple[np.ndarray, int, int, float, float, float]:
    """(histogram, winning, changed, change_rate, friend, random agreement) of one tick."""
    snapshot = np.asarray(snapshot)
    prev_snapshot = np.asarray(prev_snapshot)
    n = snapshot.shape[0]
    if prev_snapshot.shape != snapshot.shape:
        raise ValueError(
            f"snapshot shapes differ: {prev_snapshot.shape} vs {snapshot.shape}"
        )
    if n != graph.n_agents:
        raise ValueError(f"snapshot has {n} agents but graph has {graph.n_agents}")
    if n == 0:
        raise ValueError("empty snapshot")
    if snapshot.min() < 0 or snapshot.max() > k:
        raise ValueError(f"snapshot values outside domain 0..{k}")
    histogram = np.bincount(snapshot, minlength=k + 1)
    histogram.flags.writeable = False
    changed = int(np.count_nonzero(snapshot != prev_snapshot))
    src, dst = graph.edge_arrays()
    if src.size == 0:
        friend_agreement = 1.0
    else:
        friend_agreement = int(np.count_nonzero(snapshot[src] == snapshot[dst])) / src.size
    shares = histogram / n
    random_agreement = float(np.sum(shares * shares))
    return (histogram, int(histogram.max()), changed, changed / n,
            friend_agreement, random_agreement)


def tick_metrics(
    prev_snapshot: np.ndarray, snapshot: np.ndarray, graph: FriendGraph, k: int
) -> TickMetrics:
    """All per-tick observer metrics for one snapshot.

    prev_snapshot is the population one tick earlier (pass the snapshot itself
    for tick 0, making change_rate 0 there). friend_agreement over a graph
    with no edges is vacuously 1.0.
    """
    histogram, winning, _, change_rate, friend, chance = _observe_snapshot(
        prev_snapshot, snapshot, graph, k)
    return TickMetrics(
        histogram=histogram,
        winning_count=winning,
        change_rate=change_rate,
        friend_agreement=friend,
        random_agreement=chance,
        unanimous=winning == graph.n_agents,
    )


def observe(traj: Trajectory, graph: FriendGraph) -> Observation:
    """The observer pass: one row per snapshot, computed once per distinct population.

    A snapshot that is the previous tick's object reuses that tick's row with
    no changes; any other snapshot is computed as tick_metrics computes it.
    """
    k = traj.config.k
    rows = []
    prev = row = None
    for snap in traj.snapshots:
        if snap is not prev:
            row = _observe_snapshot(snap if prev is None else prev, snap, graph, k)
        elif row[2]:
            row = (*row[:2], 0, 0.0, *row[4:])
        rows.append(row)
        prev = snap
    histograms, winning, changed, rate, friend, chance = map(list, zip(*rows))
    return Observation(n=graph.n_agents, histograms=histograms, winning_count=winning,
                       changed=changed, change_rate=rate, friend_agreement=friend,
                       random_agreement=chance)


def trajectory_metrics(traj: Trajectory, graph: FriendGraph) -> list[TickMetrics]:
    """TickMetrics for every snapshot, tick 0 first: a view over observe()."""
    obs = observe(traj, graph)
    return [
        TickMetrics(histogram=h, winning_count=w, change_rate=c, friend_agreement=f,
                    random_agreement=r, unanimous=w == obs.n)
        for h, w, c, f, r in zip(obs.histograms, obs.winning_count, obs.change_rate,
                                 obs.friend_agreement, obs.random_agreement)
    ]


def steady_change_rate(traj: Trajectory, burn_in: int) -> float:
    """Mean per-agent change rate over the ticks after the first burn_in.

    burn_in is checked against the configured horizon; a run that absorbed at
    or before burn_in has no steady-state ticks left and scores 0.0.
    """
    if not 0 <= burn_in < traj.config.max_ticks:
        raise ValueError(
            f"burn_in must satisfy 0 <= burn_in < max_ticks={traj.config.max_ticks}, "
            f"got {burn_in}"
        )
    tail = traj.events[burn_in:]
    if not tail:
        return 0.0
    n = traj.config.n
    return sum(e.changed for e in tail) / (len(tail) * n)


def dissent_change_rate(obs: Observation, burn_in: int) -> float:
    """Value changes per dissenting agent-tick over the ticks after burn_in.

    An agent dissents in a tick when it is outside the largest camp of the
    snapshot before that tick, so unanimous ticks add nothing and the rate
    does not depend on how long a run goes on after unanimity. A run with
    no dissent left after burn_in scores 0.0.
    """
    dissent = sum(obs.n - winning for winning in obs.winning_count[burn_in:-1])
    return sum(obs.changed[burn_in + 1:]) / dissent if dissent else 0.0


def live_change_rate(obs: Observation, burn_in: int) -> float:
    """Mean per-agent change rate over ticks burn_in+1 .. convergence_tick(obs)."""
    converged = convergence_tick(obs)
    live = obs.changed[burn_in + 1:None if converged is None else converged + 1]
    return sum(live) / (len(live) * obs.n) if live else 0.0


def convergence_tick(obs: Observation) -> int | None:
    """First tick whose snapshot is unanimous (0 for a unanimous start), else None."""
    return next((tick for tick, winning in enumerate(obs.winning_count) if winning == obs.n),
                None)


def clustering_gap(traj: Trajectory, graph: FriendGraph, tick: int) -> float:
    """friend_agreement minus random_agreement at one tick.

    Positive values mean friends agree more than chance would predict given
    the current camp sizes — the observer's clustering signal.
    """
    if not 0 <= tick < len(traj.snapshots):
        raise IndexError(
            f"tick {tick} outside recorded range 0..{len(traj.snapshots) - 1}"
        )
    prev = traj.snapshots[tick - 1] if tick > 0 else traj.snapshots[0]
    tm = tick_metrics(prev, traj.snapshots[tick], graph, traj.config.k)
    return tm.friend_agreement - tm.random_agreement
