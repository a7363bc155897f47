"""Discrete-time scheduler for the gossip voting protocol.

Every tick runs three phases, consuming randomness from the single run RNG
in ascending agent-id order so equal seeds replay byte-for-byte:

1. activation — each agent flips an activation coin; activated agents pick a
   target and send their *pre-integration* value,
2. delivery — sent values are appended to target inboxes in sender order,
3. integration — each agent whose inbox holds at least v values votes over
   the first v entries (plus its own value when configured), adopts the
   operator's result, and clears the whole inbox.

Because every send happens before any integration runs, two agents that
message each other in the same tick exchange their old values (a
simultaneous swap), never the freshly integrated ones.

RNG contract: per agent in id order, an activation coin; if activated, a
friend coin (only when friend_prob > 0) and one pick drawn exactly as
random.Random.randrange draws it; then one coin per mixed integration.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .integration import integrate
from .model import FriendGraph, KnowledgeValue, SimConfig, make_friend_graph

if TYPE_CHECKING:
    import numpy as np


@dataclass(slots=True)
class TickEvents:
    """Counts of what happened in one tick."""

    sent: int
    delivered: int
    integrations: int
    changed: int


@dataclass(slots=True)
class SimState:
    """One run's state as flat lists: values[i] and inboxes[i] belong to agent i."""

    config: SimConfig
    values: list[KnowledgeValue]
    inboxes: list[list[KnowledgeValue]]
    graph: FriendGraph
    rng: random.Random

    def snapshot(self) -> np.ndarray:
        """Read-only copy of every agent's current value, indexed by agent id."""
        import numpy as np

        snap = np.array(self.values, dtype=np.int64)
        snap.flags.writeable = False
        return snap

    def is_absorbing(self) -> bool:
        """Unanimous values and empty inboxes: nothing can ever change again."""
        values = self.values
        return values.count(values[0]) == len(values) and not any(self.inboxes)


@dataclass(slots=True)
class Trajectory:
    """One run's record: value snapshots (initial state included) and tick events.

    snapshots[t] is the population after tick t; len(snapshots) == len(events)+1.
    Snapshots are read-only, and a tick that changed no value records the
    previous tick's snapshot object again (snapshots[t] is snapshots[t-1]), so
    the observer computes each distinct population once.
    Only an absorbing state ends a run before max_ticks, and it needs every
    inbox empty too, which a run that starts split practically never reaches.
    """

    snapshots: list[np.ndarray]
    events: list[TickEvents]
    config: SimConfig

    @property
    def n_ticks(self) -> int:
        return len(self.events)


def draw_graph(config: SimConfig) -> tuple[FriendGraph, random.Random]:
    """A run's friend graph and its RNG, standing just after the graph's draws.

    The graph is the first thing the run RNG draws, so it depends only on
    seed, n, f and symmetric_friends.
    """
    rng = random.Random(config.seed)
    return make_friend_graph(config.n, config.f, rng, symmetric=config.symmetric_friends), rng


def init(
    config: SimConfig,
    values: list[KnowledgeValue] | None = None,
    drawn: tuple[FriendGraph, random.Random] | None = None,
) -> SimState:
    """Fresh state from a config: friend graph first, then uniform initial values.

    Given values (one per agent, in 0..k) draw nothing. The draw order
    (graph, then one value per agent in id order) is part of the replay contract.
    drawn is draw_graph(config)'s result, or an equal graph with an RNG in an
    equal state, for callers that share one graph between runs.
    """
    graph, rng = draw_graph(config) if drawn is None else drawn
    if values is None:
        values = [rng.randint(0, config.k) for _ in range(config.n)]
    elif len(values) != config.n or not all(0 <= value <= config.k for value in values):
        raise ValueError(f"need {config.n} initial values in 0..{config.k}")
    inboxes: list[list[KnowledgeValue]] = [[] for _ in range(config.n)]
    return SimState(config=config, values=list(values), inboxes=inboxes, graph=graph, rng=rng)


def step(state: SimState) -> TickEvents:
    """Advance one tick (all three phases); returns that tick's event counts."""
    cfg, rng = state.config, state.rng
    n, v = cfg.n, cfg.v
    values, inboxes, adjacency = state.values, state.inboxes, state.graph.adjacency
    rand, getrandbits = rng.random, rng.getrandbits
    activation, friend_prob = cfg.activation_prob, cfg.friend_prob
    if n == 1:
        rand()  # the activation coin is still consumed; nobody to message
        return TickEvents(sent=0, delivered=0, integrations=0, changed=0)

    # phases 1 and 2 in one pass: values cannot change before phase 3, so
    # delivering each send at once gives the inboxes of staged delivery
    sent = 0
    full: list[int] = []  # agents whose inbox reached v during this tick
    for sender in range(n):
        if rand() >= activation:
            continue
        pool = None
        if friend_prob > 0.0:
            pool = adjacency[sender]
            if not pool:
                raise ValueError(f"friend_prob={friend_prob} needs a non-empty friend list "
                                 f"(agent {sender} has none)")
            if rand() >= friend_prob:
                pool = None
        # uniform pick below m, the same draws as rng.randrange(m)
        m = n - 1 if pool is None else len(pool)
        bits = m.bit_length()
        pick = getrandbits(bits)
        while pick >= m:
            pick = getrandbits(bits)
        # the uniform branch ranges over "others": picks >= sender shift up by one
        target = pick + (pick >= sender) if pool is None else pool[pick]
        inbox = inboxes[target]
        inbox.append(values[sender])
        if len(inbox) == v:
            full.append(target)
        sent += 1

    # phase 3; inboxes are cleared on integration, so only `full` can be at v
    include_self, strategy, consensus_prob = cfg.include_self, cfg.strategy, cfg.mixed_consensus_prob
    changed = 0
    full.sort()
    for agent in full:
        inbox = inboxes[agent]
        own = values[agent]
        votes = inbox[:v]
        if include_self:
            votes.append(own)
        result = integrate(votes, own, strategy, consensus_prob, rng)
        if result != own:
            values[agent] = result
            changed += 1
        inbox.clear()
    return TickEvents(sent=sent, delivered=sent, integrations=len(full), changed=changed)


def run_state(state: SimState) -> Trajectory:
    """Run an initialized state to its horizon, recording one snapshot per tick.

    The absorbing check runs before each tick, so an initially unanimous
    population yields an empty-events trajectory immediately. A tick that
    changed no value shares the previous snapshot instead of copying it.
    """
    snapshot = state.snapshot()
    snapshots = [snapshot]
    events: list[TickEvents] = []
    for _ in range(state.config.max_ticks):
        if state.is_absorbing():
            break
        tick = step(state)
        events.append(tick)
        if tick.changed:
            snapshot = state.snapshot()
        snapshots.append(snapshot)
    return Trajectory(snapshots=snapshots, events=events, config=state.config)


def run(config: SimConfig) -> Trajectory:
    return run_state(init(config))
