"""Brute-force oracles, written independently of the library implementations."""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from gossipvote.engine import NO_CHANGES, TickEvents, Trajectory, init, step
from gossipvote.model import FriendGraph, SimConfig


def mode_oracle(values: list[int], own: int | None) -> int:
    """Maximal-multiplicity value; own wins ties when tied, else smallest."""
    multiplicity: dict[int, int] = {}
    for value in values:
        multiplicity[value] = multiplicity.get(value, 0) + 1
    best = max(multiplicity.values())
    tied = sorted(value for value, count in multiplicity.items() if count == best)
    if own is not None and own in tied:
        return own
    return tied[0]


def median_cost_oracle(values: list[int], k: int) -> int:
    """Smallest c in 0..k minimizing the summed absolute distance to values."""
    best_c = 0
    best_cost = sum(abs(x - 0) for x in values)
    for c in range(1, k + 1):
        cost = sum(abs(x - c) for x in values)
        if cost < best_cost:
            best_c, best_cost = c, cost
    return best_c


# ---------------------------------------------------------------------------
# the per-snapshot numpy observer, the reference metrics.observe is tested against


@dataclass(frozen=True)
class TickMetrics:
    histogram: np.ndarray  # count of agents holding each value 0..k
    winning_count: int  # size of the largest camp
    change_rate: float  # fraction of agents whose value differs from prev tick
    friend_agreement: float  # fraction of directed friend edges with equal values
    random_agreement: float  # expected agreement of two uniform (with-replacement) picks
    unanimous: bool


def edge_arrays(graph: FriendGraph) -> tuple[np.ndarray, np.ndarray]:
    """(sources, targets) of every directed edge of a friend graph."""
    counts = [len(friends) for friends in graph.adjacency]
    src = np.repeat(np.arange(graph.n_agents, dtype=np.int64), counts)
    dst = np.fromiter((t for friends in graph.adjacency for t in friends), dtype=np.int64,
                      count=graph.n_edges)
    return src, dst


def snapshots(traj: Trajectory) -> list[np.ndarray]:
    """The population after each tick, tick 0 first, as read-only int64 arrays.

    A tick that changed no value repeats the previous tick's array object.
    """
    values = np.array(traj.initial, dtype=np.int64)
    values.flags.writeable = False
    out = [values]
    for event in traj.events:
        if event.changes:
            values = values.copy()
            values[list(event.changes[0::2])] = list(event.changes[1::2])
            values.flags.writeable = False
        out.append(values)
    return out


def lone_run(config: SimConfig, values: list[int] | None = None) -> Trajectory:
    """A config's lone run, stepped tick by tick: init, then one step per tick until
    max_ticks or an absorbing state (settled, every inbox empty); its record, whose
    final is the state's values."""
    state = init(config, values)
    traj = Trajectory(initial=tuple(state.values), events=[], config=config,
                      graph=state.graph, final=state.values)
    for _ in range(config.max_ticks):
        if state.settled and not any(state.inboxes):
            break
        traj.events.append(step(state))
    return traj


def trajectory_from_snapshots(populations: list[list[int]], config: SimConfig,
                              graph: FriendGraph | None = None) -> Trajectory:
    """A hand-built trajectory whose ticks change what differs between populations,
    over graph (by default, the first population's agents without edges)."""
    if graph is None:
        graph = FriendGraph([[] for _ in populations[0]])
    events = []
    for prev, now in zip(populations, populations[1:]):
        changes = [x for agent, (a, b) in enumerate(zip(prev, now)) if a != b for x in (agent, b)]
        count = len(changes) // 2
        events.append(TickEvents(sent=0, delivered=0, integrations=count, changed=count,
                                 changes=array("q", changes) if changes else NO_CHANGES))
    return Trajectory(initial=tuple(populations[0]), events=events, config=config, graph=graph,
                      final=list(populations[-1]))


def tick_metrics(
    prev_snapshot: np.ndarray, snapshot: np.ndarray, graph: FriendGraph, k: int
) -> TickMetrics:
    """All per-tick observer metrics of one snapshot, with numpy.

    prev_snapshot is the population one tick earlier (pass the snapshot itself
    for tick 0, making change_rate 0 there). friend_agreement over a graph
    with no edges is vacuously 1.0.
    """
    snapshot = np.asarray(snapshot)
    prev_snapshot = np.asarray(prev_snapshot)
    n = snapshot.shape[0]
    if prev_snapshot.shape != snapshot.shape:
        raise ValueError(f"snapshot shapes differ: {prev_snapshot.shape} vs {snapshot.shape}")
    if n != graph.n_agents:
        raise ValueError(f"snapshot has {n} agents but graph has {graph.n_agents}")
    if snapshot.min() < 0 or snapshot.max() > k:
        raise ValueError(f"snapshot values outside domain 0..{k}")
    histogram = np.bincount(snapshot, minlength=k + 1)
    changed = int(np.count_nonzero(snapshot != prev_snapshot))
    src, dst = edge_arrays(graph)
    if src.size == 0:
        friend_agreement = 1.0
    else:
        friend_agreement = int(np.count_nonzero(snapshot[src] == snapshot[dst])) / src.size
    shares = histogram / n
    winning = int(histogram.max())
    return TickMetrics(
        histogram=histogram,
        winning_count=winning,
        change_rate=changed / n,
        friend_agreement=friend_agreement,
        random_agreement=float(np.sum(shares * shares)),
        unanimous=winning == n,
    )


def trajectory_metrics(traj: Trajectory) -> list[TickMetrics]:
    """tick_metrics of every snapshot over traj's graph, tick 0 first."""
    snaps = snapshots(traj)
    return [tick_metrics(snaps[tick - 1] if tick else snap, snap, traj.graph, traj.config.k)
            for tick, snap in enumerate(snaps)]


def clustering_gap(traj: Trajectory, tick: int) -> float:
    """friend_agreement minus random_agreement over traj's graph at one tick."""
    snaps = snapshots(traj)
    if not 0 <= tick < len(snaps):
        raise IndexError(f"tick {tick} outside recorded range 0..{len(snaps) - 1}")
    tm = tick_metrics(snaps[tick - 1] if tick else snaps[0], snaps[tick], traj.graph,
                      traj.config.k)
    return tm.friend_agreement - tm.random_agreement
