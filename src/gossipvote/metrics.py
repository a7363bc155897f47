"""Centralized observer over trajectories: histograms, change rates, agreement.

The observer reads trajectories; it never touches agent internals, so adding
a metric cannot perturb a run. observe() is its one pass: it replays each
tick's changes onto the initial values, updating the histogram and the
friend-agreement count per change, and returns every per-tick number as an
Observation, which the summaries, the CSV writers, the sweep rows and the
clustering gaps all read. A tick that changed no value reuses the previous
tick's row with change rate 0.0. Float sums follow numpy's pairwise order
(pairwise_sum), so the figures match the numpy reference bit for bit without
loading numpy.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .engine import Trajectory


class Observation(NamedTuple):
    """Every per-tick observer number of one trajectory, one entry per tick from 0.

    A histogram counts the agents holding each value 0..k; ticks that changed
    no value share the previous tick's histogram tuple.
    """

    n: int
    max_ticks: int  # the run's configured horizon
    histograms: list[tuple[int, ...]]
    winning_count: list[int]
    changed: list[int]  # agents whose value differs from the tick before; 0 at tick 0
    friend_agreement: list[float]  # fraction of directed friend edges with equal values
    random_agreement: list[float]  # agreement of two uniform (with-replacement) picks

    def gaps(self, start: int, stop: int) -> list[float]:
        """Clustering gap (friend minus random agreement) at ticks start..stop-1."""
        if not 0 <= start < stop <= len(self.winning_count):
            raise IndexError(f"ticks {start}..{stop - 1} outside recorded range "
                             f"0..{len(self.winning_count) - 1}")
        return [friend - chance for friend, chance in
                zip(self.friend_agreement[start:stop], self.random_agreement[start:stop])]


def pairwise_sum(values: Sequence[float]) -> float:
    """Sum floats in the order numpy's np.sum adds a float64 vector.

    Runs shorter than 8 add left to right from 0.0; runs up to 128 add into
    8 interleaved accumulators, combined as a tree, then the remainder; longer
    runs split in two halves at a multiple of 8 and add the halves' sums.
    """
    return _pairwise(values, 0, len(values))  # a recursive closure would leave a ref cycle


def _pairwise(values: Sequence[float], lo: int, n: int) -> float:
    if n < 8:
        total = 0.0
        for i in range(lo, lo + n):
            total += values[i]
        return total
    if n <= 128:
        acc = list(values[lo:lo + 8])
        stop = lo + n - n % 8
        for i in range(lo + 8, stop):
            acc[(i - lo) % 8] += values[i]
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
        for i in range(stop, lo + n):
            total += values[i]
        return total
    half = n // 2
    half -= half % 8
    return _pairwise(values, lo, half) + _pairwise(values, lo + half, n - half)


def observe(traj: Trajectory) -> Observation:
    """The observer pass over traj.graph: one row per tick, O(changes x degree) per tick.

    friend_agreement over a graph with no edges is vacuously 1.0.
    """
    k, graph = traj.config.k, traj.graph
    values = list(traj.initial)
    n = len(values)
    if n != graph.n_agents:
        raise ValueError(f"trajectory has {n} agents but graph has {graph.n_agents}")
    if n == 0:
        raise ValueError("empty trajectory")
    if min(values) < 0 or max(values) > k:
        raise ValueError(f"values outside domain 0..{k}")
    adjacency = graph.adjacency
    # each agent's ends of its directed edges: its friends, then those listing it
    ends = [list(friends) for friends in adjacency]
    for source, friends in enumerate(adjacency):
        for target in friends:
            ends[target].append(source)
    edges = graph.n_edges
    agree = sum([values[target] for target in friends].count(value)
                for value, friends in zip(values, adjacency))
    counts = [0] * (k + 1)
    for value in values:
        counts[value] += 1

    def row() -> tuple[tuple[int, ...], int, float, float]:
        """Histogram, winning count, friend and random agreement of the current values."""
        chance = pairwise_sum([share * share for share in (count / n for count in counts)])
        return tuple(counts), max(counts), agree / edges if edges else 1.0, chance

    histogram, winning, friend, chance = row()
    histograms, winning_count, changed = [histogram], [winning], [0]
    friend_agreement, random_agreement = [friend], [chance]
    for event in traj.events:
        changes = event.changes
        if changes:
            pairs = iter(changes)
            for agent, new in zip(pairs, pairs):
                if not 0 <= new <= k:
                    raise ValueError(f"values outside domain 0..{k}")
                old = values[agent]
                around = [values[other] for other in ends[agent]]
                agree += around.count(new) - around.count(old)
                counts[old] -= 1
                counts[new] += 1
                values[agent] = new
            histogram, winning, friend, chance = row()
        moved = len(changes) // 2
        histograms.append(histogram)
        winning_count.append(winning)
        changed.append(moved)
        friend_agreement.append(friend)
        random_agreement.append(chance)
    return Observation(n, traj.config.max_ticks, histograms, winning_count, changed,
                       friend_agreement, random_agreement)


def _check_burn_in(obs: Observation, burn_in: int) -> None:
    """Every change rate checks burn_in against the configured horizon, not the recorded ticks."""
    if not 0 <= burn_in < obs.max_ticks:
        raise ValueError(f"burn_in must satisfy 0 <= burn_in < max_ticks={obs.max_ticks}, "
                         f"got {burn_in}")


def steady_change_rate(obs: Observation, burn_in: int) -> float:
    """Mean per-agent change rate over the ticks after the first burn_in.

    A run that absorbed at or before burn_in has no steady-state ticks left
    and scores 0.0.
    """
    _check_burn_in(obs, burn_in)
    tail = obs.changed[burn_in + 1:]
    return sum(tail) / (len(tail) * obs.n) if tail else 0.0


def dissent_change_rate(obs: Observation, burn_in: int) -> float:
    """Value changes per dissenting agent-tick over the ticks after burn_in.

    An agent dissents in a tick when it is outside the largest camp of the
    snapshot before that tick, so unanimous ticks add nothing and the rate
    does not depend on how long a run goes on after unanimity. A run with
    no dissent left after burn_in scores 0.0.
    """
    _check_burn_in(obs, burn_in)
    dissent = sum(obs.n - winning for winning in obs.winning_count[burn_in:-1])
    return sum(obs.changed[burn_in + 1:]) / dissent if dissent else 0.0


def live_change_rate(obs: Observation, burn_in: int) -> float:
    """Mean per-agent change rate over ticks burn_in+1 .. convergence_tick(obs)."""
    _check_burn_in(obs, burn_in)
    converged = convergence_tick(obs)
    live = obs.changed[burn_in + 1:None if converged is None else converged + 1]
    return sum(live) / (len(live) * obs.n) if live else 0.0


def convergence_tick(obs: Observation) -> int | None:
    """First tick whose snapshot is unanimous (0 for a unanimous start), else None."""
    return next((tick for tick, winning in enumerate(obs.winning_count) if winning == obs.n),
                None)
