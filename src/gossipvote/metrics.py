"""Centralized observer over trajectories: histograms, change rates, agreement.

The observer reads snapshots; it never touches agent internals, so adding a
metric cannot perturb a run.
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


def tick_metrics(
    prev_snapshot: np.ndarray, snapshot: np.ndarray, graph: FriendGraph, k: int
) -> TickMetrics:
    """All per-tick observer metrics for one snapshot.

    prev_snapshot is the population one tick earlier (pass the snapshot itself
    for tick 0, making change_rate 0 there). friend_agreement over a graph
    with no edges is vacuously 1.0.
    """
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
    winning = int(histogram.max())
    change_rate = float(np.count_nonzero(snapshot != prev_snapshot)) / n
    src, dst = graph.edge_arrays()
    if src.size == 0:
        friend_agreement = 1.0
    else:
        friend_agreement = float(np.mean(snapshot[src] == snapshot[dst]))
    shares = histogram / n
    random_agreement = float(np.sum(shares * shares))
    return TickMetrics(
        histogram=histogram,
        winning_count=winning,
        change_rate=change_rate,
        friend_agreement=friend_agreement,
        random_agreement=random_agreement,
        unanimous=winning == n,
    )


def trajectory_metrics(traj: Trajectory, graph: FriendGraph) -> list[TickMetrics]:
    """TickMetrics for every snapshot, tick 0 first."""
    out: list[TickMetrics] = []
    prev = traj.snapshots[0]
    for snap in traj.snapshots:
        out.append(tick_metrics(prev, snap, graph, traj.config.k))
        prev = snap
    return out


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


def dissent_change_rate(traj: Trajectory, burn_in: int) -> float:
    """Value changes per dissenting agent-tick over the ticks after burn_in.

    An agent dissents in a tick when it is outside the largest camp of the
    snapshot before that tick, so unanimous ticks add nothing and the rate
    does not depend on how long a run goes on after unanimity. A run with
    no dissent left after burn_in scores 0.0.
    """
    k = traj.config.k
    dissent = sum(snap.size - int(np.bincount(snap, minlength=k + 1).max())
                  for snap in traj.snapshots[burn_in:-1])
    return sum(e.changed for e in traj.events[burn_in:]) / dissent if dissent else 0.0


def convergence_tick(traj: Trajectory) -> int | None:
    """First tick whose snapshot is unanimous (0 for a unanimous start), else None."""
    for tick, snap in enumerate(traj.snapshots):
        if snap.size and (snap == snap[0]).all():
            return tick
    return None


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
