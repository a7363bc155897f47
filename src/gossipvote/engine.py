"""Discrete-time scheduler for the gossip voting protocol.

Every tick runs three phases, consuming randomness from the single run RNG
in ascending agent-id order so equal seeds replay byte-for-byte:

1. activation (draw_sends) — each agent flips an activation coin; activated
   agents pick a target and send their *pre-integration* value,
2. delivery — sent values are appended to target inboxes in sender order,
3. integration — each agent whose inbox holds at least v values votes over
   the first v entries (plus its own value when configured), adopts the
   operator's result, and clears the whole inbox; one pass
   (integration.integrate_inboxes) does this for the whole tick.

Because every send happens before any integration runs, two agents that
message each other in the same tick exchange their old values (a
simultaneous swap), never the freshly integrated ones.

RNG contract: per agent in id order, an activation coin; if activated, a
friend coin (only when friend_prob > 0) and one pick drawn exactly as
random.Random.randrange draws it; then one coin per mixed integration. A
settled state (below) draws nothing, so a run's draws end at the tick it
settles.

Apart from those mixed coins, no draw depends on values, v, include_self or
the operator, so runs that differ only there (equal draw_key) draw the same
friend graph, initial values and sends. init_group builds such a draw group
and run_states, the one loop that steps runs, steps it: each tick's sends are
drawn once, while some member is unsettled, and delivered to every unsettled
member, which still takes its own step per tick with the TickEvents of a lone
run.

A state is settled once every agent holds one value w and every queued vote
is w: no operator can change a value from then on. step latches that after
integration, and a settled step returns SETTLED at once, drawing, delivering
and integrating nothing: its values, inboxes and RNG stay as they are.
"""

from __future__ import annotations

import dataclasses
import random
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .integration import integrate_inboxes
from .model import FriendGraph, SimConfig, make_friend_graph

if TYPE_CHECKING:
    import numpy as np


NO_CHANGES: tuple[int, ...] = ()  # the change record every tick that changed no value shares


@dataclass(slots=True)
class TickEvents:
    """What happened in one tick: counts, and the values it changed.

    changes holds the tick's (agent, new value) pairs flat and in agent order,
    as an array('q'); every tick that changed no value shares NO_CHANGES, so
    changed == len(changes) // 2.
    """

    sent: int
    delivered: int
    integrations: int
    changed: int
    changes: Sequence[int] = NO_CHANGES


SETTLED = TickEvents(sent=0, delivered=0, integrations=0, changed=0)  # every settled tick's events


@dataclass(slots=True)
class SimState:
    """One run's state as flat lists: values[i] and inboxes[i] belong to agent i.

    settled latches once every agent holds one value w and every queued vote
    is w (see the module docstring); it is computed here for a new state and
    by step after each integration, so a caller that edits values or inboxes
    by hand builds a new state (dataclasses.replace) to refresh it.
    """

    config: SimConfig
    values: list[int]
    inboxes: list[list[int]]
    graph: FriendGraph
    rng: random.Random
    settled: bool = dataclasses.field(init=False)

    def __post_init__(self) -> None:
        self.settled = _settled(self.values, self.inboxes)

    def snapshot(self) -> np.ndarray:
        """Read-only numpy copy of every agent's current value, indexed by agent id.

        The dtype is uint8 when k < 256, else int64. Runs never call it, so
        they never load numpy.
        """
        import numpy as np

        snap = np.array(self.values, dtype=np.uint8 if self.config.k < 256 else np.int64)
        snap.flags.writeable = False
        return snap

    def is_absorbing(self) -> bool:
        """Settled with every inbox empty: nothing can ever change again."""
        return self.settled and not any(self.inboxes)


def _settled(values: list[int], inboxes: list[list[int]]) -> bool:
    """Every value and every queued vote equal; the inboxes are read only at unanimity."""
    w = values[0]
    if values.count(w) != len(values):
        return False
    for inbox in inboxes:
        if inbox and inbox.count(w) != len(inbox):
            return False
    return True


@dataclass(slots=True)
class Trajectory:
    """One run's record: the initial values and every tick's events.

    events[t-1] belongs to tick t, and the population after tick t is
    initial with the changes of ticks 1..t applied in order, so the record
    grows with the changes, not with n per tick. A run ends before max_ticks
    only at an absorbing state (settled, every inbox empty), which it reaches
    at the start or at the tick it settles; otherwise its ticks after
    settling all share SETTLED and cost no draws (see step).
    """

    initial: tuple[int, ...]
    events: list[TickEvents]
    config: SimConfig


def draw_graph(config: SimConfig) -> tuple[FriendGraph, random.Random]:
    """A run's friend graph and its RNG, standing just after the graph's draws.

    The graph is the first thing the run RNG draws, so it depends only on
    seed, n, f and symmetric_friends.
    """
    rng = random.Random(config.seed)
    return make_friend_graph(config.n, config.f, rng, symmetric=config.symmetric_friends), rng


def rng_at(rng_state: tuple) -> random.Random:
    """A new RNG standing at rng_state (a getstate() result).

    It is built without the OS seeding that random.Random() does, which
    setstate would overwrite at once.
    """
    rng = random.Random.__new__(random.Random)
    rng.setstate(rng_state)
    return rng


def init(
    config: SimConfig,
    values: list[int] | None = None,
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
    inboxes: list[list[int]] = [[] for _ in range(config.n)]
    return SimState(config=config, values=list(values), inboxes=inboxes, graph=graph, rng=rng)


def init_group(
    configs: Sequence[SimConfig],
    values: list[int] | None = None,
    drawn: tuple[FriendGraph, random.Random] | None = None,
) -> list[SimState]:
    """Fresh states for one draw group (see draw_key), ready for run_states.

    The first state is init(configs[0], values, drawn); each other state
    starts from its friend graph, its initial values and a copy of its RNG,
    so the group draws them once.
    """
    lead = init(configs[0], values, drawn)
    rng_state = lead.rng.getstate()
    states = [lead]
    for config in configs[1:]:
        states.append(init(config, lead.values, drawn=(lead.graph, rng_at(rng_state))))
    return states


def draw_key(config: SimConfig) -> tuple | None:
    """The config fields a run's draws depend on, or None for a run that shares none.

    Runs with equal keys draw the same friend graph, initial values and
    per-tick sends, whatever their v, include_self and (non-mixed) strategy,
    so they can step together on one draw sequence. "mixed" draws one coin
    per integration from the same stream, between one tick's sends and the
    next's. A tick's integrations depend only on its sends and v, not on the
    values, but members of a group may differ in v, and then their coin
    counts and every later send would part; so a mixed run never shares its
    draws.
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
    """Advance one tick; returns that tick's events.

    sends is draw_sends' result for this tick, drawn from this state or from
    another state of its draw group; None draws it from this state. A
    settled state returns SETTLED without reading sends or drawing: its
    values, inboxes and RNG stay as they are.
    """
    if state.settled:
        return SETTLED
    if sends is None:
        sends = draw_sends(state)
    cfg = state.config
    v = cfg.v
    values, inboxes = state.values, state.inboxes
    sent = len(sends)
    full: list[int] = []  # agents whose inbox reached v during this tick

    # phase 2: values cannot change before phase 3, so senders' values are pre-integration
    for sender, target in sends:
        inbox = inboxes[target]
        inbox.append(values[sender])
        if len(inbox) == v:
            full.append(target)

    if not full:  # nothing integrates, so no value changes and settled cannot flip
        return TickEvents(sent=sent, delivered=sent, integrations=0, changed=0)

    # phase 3, one pass over the full inboxes in agent order; integration
    # clears an inbox, so only `full` can be at v
    full.sort()
    changes = integrate_inboxes(values, inboxes, full, v, cfg.include_self, cfg.strategy,
                                cfg.mixed_consensus_prob, state.rng)
    state.settled = _settled(values, inboxes)
    return TickEvents(sent=sent, delivered=sent, integrations=len(full), changed=len(changes) // 2,
                      changes=array("q", changes) if changes else NO_CHANGES)


def run_states(states: Sequence[SimState]) -> list[Trajectory]:
    """Run states to their horizon, one trajectory each, as each would run alone.

    A lone state draws from its own RNG, mixed coins included. Several states
    are one draw group: they must share a draw key (see draw_key), a friend
    graph and an RNG state, and each tick's sends are drawn once, from a
    private copy of that RNG, and delivered to every unsettled member. Sends
    are drawn only while some member is unsettled. A member that settles
    takes the RNG state of that tick, where its lone run stops drawing, and
    stops there if it is absorbing (an initially absorbing state takes no
    tick); otherwise it steps on to max_ticks, one SETTLED step per tick. So
    each member ends holding the events, values and RNG state of its lone run.
    """
    lead = states[0]
    drawer = lead
    if len(states) > 1:
        key = draw_key(lead.config)
        rng_state = lead.rng.getstate()
        for state in states[1:]:
            if (key is None or draw_key(state.config) != key or state.graph != lead.graph
                    or state.rng.getstate() != rng_state):
                raise ValueError("states of one draw group must share a draw key, "
                                 "a friend graph and an RNG state")
        drawer = dataclasses.replace(lead, rng=rng_at(rng_state))
    trajs = [Trajectory(initial=tuple(state.values), events=[], config=state.config)
             for state in states]
    live = [pair for pair in zip(states, trajs) if not pair[0].is_absorbing()]
    drawing = sum(not state.settled for state, _ in live)  # members whose steps read sends
    for _ in range(lead.config.max_ticks):
        if not live:
            break
        sends = draw_sends(drawer) if drawing else None  # a settled step reads no sends
        settling = False
        # plain loops, not comprehensions: this runs once per tick of every run
        for state, traj in live:
            events = step(state, sends)
            traj.events.append(events)
            if events is not SETTLED and state.settled:  # it settled at this tick
                drawing -= 1
                settling = True
                state.rng.setstate(drawer.rng.getstate())  # its lone run draws no more
        if settling:
            live = [pair for pair in live if not pair[0].is_absorbing()]
    # an unsettled group member takes the drawer's end state; a lone state's RNG is the drawer's own
    for state, _ in live:
        if not state.settled:
            state.rng.setstate(drawer.rng.getstate())
    return trajs
