"""Discrete-time scheduler for the gossip voting protocol.

Every tick runs three phases, consuming randomness from the single run RNG
in ascending agent-id order so equal seeds replay byte-for-byte:

1. activation (draw_sends) — each agent flips an activation coin; activated
   agents pick a target and send their *pre-integration* value,
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

Apart from those mixed coins, no draw depends on values, v, include_self or
the operator, so runs that differ only there (equal draw_key) draw the same
friend graph, initial values and sends. init_group builds such a draw group
and lockstep steps it: each tick's sends are drawn once and delivered to
every member, which still takes its own step per tick with the TickEvents of
a lone run.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

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
        """Read-only copy of every agent's current value, indexed by agent id.

        The dtype is uint8 when k < 256, else int64.
        """
        import numpy as np

        snap = np.array(self.values, dtype=np.uint8 if self.config.k < 256 else np.int64)
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
    the observer computes each distinct population once. Snapshots are
    uint8 when k < 256 and int64 otherwise.
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


def init_group(
    configs: Sequence[SimConfig],
    values: list[KnowledgeValue] | None = None,
    drawn: tuple[FriendGraph, random.Random] | None = None,
) -> list[SimState]:
    """Fresh states for one draw group (see draw_key), ready to step in lockstep.

    The first state is init(configs[0], values, drawn); each other state
    starts from its friend graph, its initial values and a copy of its RNG,
    so the group draws them once.
    """
    lead = init(configs[0], values, drawn)
    rng_state = lead.rng.getstate()
    states = [lead]
    for config in configs[1:]:
        rng = random.Random()
        rng.setstate(rng_state)
        states.append(init(config, lead.values, drawn=(lead.graph, rng)))
    return states


def draw_key(config: SimConfig) -> tuple | None:
    """The config fields a run's draws depend on, or None for a run that shares none.

    Runs with equal keys draw the same friend graph, initial values and
    per-tick sends, whatever their v, include_self and (non-mixed) strategy,
    so they can step in lockstep on one draw sequence. "mixed" draws its
    integration coins from the same stream, which couples the draws to the
    values, so a mixed run never shares its draws.
    """
    if config.strategy == "mixed":
        return None
    return (config.seed, config.n, config.k, config.f, config.friend_prob,
            config.activation_prob, config.symmetric_friends, config.max_ticks)


def draw_groups(configs: Sequence[SimConfig]) -> list[list[int]]:
    """Indices of configs with equal draw keys, groups in order of first appearance."""
    groups: dict[tuple, list[int]] = {}
    for index, config in enumerate(configs):
        # a run without a key stands alone; (index,) never equals a key
        groups.setdefault(draw_key(config) or (index,), []).append(index)
    return list(groups.values())


def draw_sends(state: SimState) -> list[tuple[int, int]]:
    """Phase 1: one tick's (sender, target) pairs, its only draws apart from mixed coins.

    Senders ascend; each activated agent picks one target. The draws depend
    on the state's config, graph and RNG, never on its values or inboxes.
    """
    cfg, rng = state.config, state.rng
    n = cfg.n
    rand, getrandbits = rng.random, rng.getrandbits
    activation, friend_prob = cfg.activation_prob, cfg.friend_prob
    sends: list[tuple[int, int]] = []
    if n == 1:
        rand()  # the activation coin is still consumed; nobody to message
        return sends
    add = sends.append
    adjacency = state.graph.adjacency
    # uniform picks below m draw exactly as rng.randrange(m) does
    others = n - 1
    others_bits = others.bit_length()
    for sender in range(n):
        if rand() >= activation:
            continue
        if friend_prob > 0.0:
            pool = adjacency[sender]
            if not pool:
                raise ValueError(f"friend_prob={friend_prob} needs a non-empty friend list "
                                 f"(agent {sender} has none)")
            if rand() < friend_prob:
                m = len(pool)
                bits = m.bit_length()
                pick = getrandbits(bits)
                while pick >= m:
                    pick = getrandbits(bits)
                add((sender, pool[pick]))
                continue
        pick = getrandbits(others_bits)
        while pick >= others:
            pick = getrandbits(others_bits)
        # the uniform branch ranges over "others": picks >= sender shift up by one
        add((sender, pick + (pick >= sender)))
    return sends


def step(state: SimState, sends: list[tuple[int, int]] | None = None) -> TickEvents:
    """Advance one tick; returns that tick's event counts.

    sends is draw_sends' result for this tick, drawn from this state or from
    another state of its draw group; None draws it from this state.
    """
    if sends is None:
        sends = draw_sends(state)
    cfg = state.config
    v = cfg.v
    values, inboxes = state.values, state.inboxes

    # phase 2: values cannot change before phase 3, so senders' values are pre-integration
    full: list[int] = []  # agents whose inbox reached v during this tick
    for sender, target in sends:
        inbox = inboxes[target]
        inbox.append(values[sender])
        if len(inbox) == v:
            full.append(target)

    # phase 3; inboxes are cleared on integration, so only `full` can be at v
    include_self, strategy, consensus_prob = cfg.include_self, cfg.strategy, cfg.mixed_consensus_prob
    rng = state.rng
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
    sent = len(sends)
    return TickEvents(sent=sent, delivered=sent, integrations=len(full), changed=changed)


def lockstep(states: Sequence[SimState], ticks: int) -> Iterator[list[tuple[int, TickEvents]]]:
    """Step one draw group for up to `ticks` ticks, drawing each tick's sends once.

    Yields, after every tick, (index, events) for each state stepped in it. A
    state stops before the first tick at which it is absorbing (checked
    before each tick, so an initially unanimous state takes no tick), and
    the group stops when every state has. Each state ends holding the RNG
    state its lone run would leave. The states must share a draw key (see
    draw_key), a friend graph and an RNG state; a lone state draws from its
    own RNG, mixed coins included.
    """
    lead = states[0]
    drawer = lead
    if len(states) > 1:
        key = draw_key(lead.config)
        rng_state = lead.rng.getstate()
        for state in states[1:]:
            if (key is None or draw_key(state.config) != key or state.graph != lead.graph
                    or state.rng.getstate() != rng_state):
                raise ValueError("states stepped in lockstep must share a draw key, "
                                 "a friend graph and an RNG state")
        rng = random.Random()
        rng.setstate(rng_state)
        drawer = dataclasses.replace(lead, rng=rng)
    live = list(enumerate(states))
    try:
        for _ in range(ticks):
            # plain loops, not comprehensions: this runs once per tick of every run
            for _, state in live:
                if state.is_absorbing():
                    live = _leave(live, drawer)
                    if not live:
                        return
                    break
            sends = draw_sends(drawer)
            stepped = []
            for index, state in live:
                stepped.append((index, step(state, sends)))
            yield stepped
    finally:
        for _, state in live:
            _hand_rng(state, drawer)


def _leave(live: list[tuple[int, SimState]], drawer: SimState) -> list[tuple[int, SimState]]:
    """The live entries minus the absorbing ones, which get their lone runs' RNG state."""
    staying = []
    for entry in live:
        if entry[1].is_absorbing():
            _hand_rng(entry[1], drawer)
        else:
            staying.append(entry)
    return staying


def _hand_rng(state: SimState, drawer: SimState) -> None:
    """Give a state that stops stepping the RNG state its lone run would hold."""
    if state.rng is not drawer.rng:
        state.rng.setstate(drawer.rng.getstate())


def run_states(states: Sequence[SimState]) -> list[Trajectory]:
    """Run one draw group to its horizon in lockstep (see lockstep), one trajectory each.

    Each trajectory equals the one run_state would record for that state
    alone. A tick that changed no value shares the previous snapshot instead
    of copying it.
    """
    snapshots = [[state.snapshot()] for state in states]
    events: list[list[TickEvents]] = [[] for _ in states]
    for stepped in lockstep(states, states[0].config.max_ticks):
        for index, tick in stepped:
            events[index].append(tick)
            recorded = snapshots[index]
            recorded.append(states[index].snapshot() if tick.changed else recorded[-1])
    return [Trajectory(snapshots=recorded, events=ticks, config=state.config)
            for state, recorded, ticks in zip(states, snapshots, events)]


def run_state(state: SimState) -> Trajectory:
    """Run an initialized state to its horizon, recording one snapshot per tick."""
    return run_states([state])[0]


def run(config: SimConfig) -> Trajectory:
    return run_state(init(config))
