"""Discrete-time scheduler for the gossip voting protocol.

Every tick runs three phases, consuming randomness from the single run RNG
in ascending agent-id order so equal seeds replay byte-for-byte:

1. activation — each agent flips an activation coin; activated agents pick
   a target and send their *pre-integration* value,
2. delivery — sent values are appended to target inboxes in sender order,
3. integration — each agent whose inbox holds at least v values votes over
   the first v entries (plus its own value when configured), adopts the
   operator's result, and clears the whole inbox; one pass
   (integration.integrate_inboxes) does this for the whole tick.

step, the one decoder of these draws (the RNG contract below), runs phases
1 and 2 in one pass, delivering each send as it is drawn. Because every
send happens before any integration runs, two agents that message each
other in the same tick exchange their old values (a simultaneous swap),
never the freshly integrated ones.

RNG contract: per agent in id order, an activation coin; if activated, a
friend coin (only when friend_prob > 0) and one pick drawn exactly as
random.Random.randrange draws it; then one coin per mixed integration. A
settled state (below) draws nothing, so a run's draws end at the tick it
settles.

Draw groups. Apart from those mixed coins, no draw depends on values, v,
include_self or the operator, so runs with equal draw_key (a mixed run has
none) draw the same friend graph, initial values and sends: they form a draw
group, which shares its draws, not its state. run starts each group once,
through init for its first member; the others start on its graph with a copy
of its values, empty inboxes and its RNG. Each tick the first unsettled
member's step draws the sends and records them for the rest, and each member
takes its own engine.step call per recorded tick, as its lone run would.

A state is settled once every agent holds one value w and every queued vote
is w: no operator can change a value from then on. step latches that after
integration, and a settled step returns SETTLED at once, drawing, delivering
and integrating nothing: its values, inboxes and RNG stay as they are.
"""

from __future__ import annotations

import random
from array import array
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .integration import integrate_inboxes
from .model import FriendGraph, SimConfig, make_friend_graph

if TYPE_CHECKING:
    import numpy as np


NO_CHANGES: tuple[int, ...] = ()  # the change record every tick that changed no value shares


class TickEvents(NamedTuple):
    """What happened in one tick: counts, and the values it changed.

    changes holds the tick's (agent, new value) pairs flat and in agent order,
    as an array('q'); every tick that changed no value shares NO_CHANGES, so
    changed == len(changes) // 2. step builds it with tuple.__new__, which
    skips the NamedTuple's own __new__: ~190 ns a call against ~340 ns
    (CPython 3.11, pinned).
    """

    sent: int
    delivered: int
    integrations: int
    changed: int
    changes: Sequence[int] = NO_CHANGES


SETTLED = TickEvents(sent=0, delivered=0, integrations=0, changed=0)  # every settled tick's events
_new_events = tuple.__new__  # how step builds TickEvents (see its docstring)


class SimState:
    """One run's state as flat lists: values[i] and inboxes[i] belong to agent i.

    settled latches once every agent holds one value w and every queued vote
    is w (see the module docstring); it is computed here for a new state and
    by step after each integration, so a caller that edits values or inboxes
    by hand builds a new SimState to refresh it.
    """

    __slots__ = ("config", "values", "inboxes", "graph", "rng", "settled")

    def __init__(self, config: SimConfig, values: list[int], inboxes: list[list[int]],
                 graph: FriendGraph, rng: random.Random) -> None:
        self.config = config
        self.values = values
        self.inboxes = inboxes
        self.graph = graph
        self.rng = rng
        self.settled = _settled(values, inboxes)

    def snapshot(self) -> np.ndarray:
        """Read-only numpy copy of every agent's current value, indexed by agent id.

        The dtype is uint8 when k < 256, else int64. Runs never call it, so
        they never load numpy, which is not a dependency of the package but
        of its test extra (pip install ".[test]").
        """
        import numpy as np

        snap = np.array(self.values, dtype=np.uint8 if self.config.k < 256 else np.int64)
        snap.flags.writeable = False
        return snap


def _settled(values: list[int], inboxes: list[list[int]]) -> bool:
    """Every value and every queued vote equal; the inboxes are read only at unanimity."""
    w = values[0]
    if values.count(w) != len(values):
        return False
    for inbox in inboxes:
        if inbox and inbox.count(w) != len(inbox):
            return False
    return True


class Trajectory(NamedTuple):
    """One run's record: its initial values, every tick's events, graph and final values.

    events[t-1] belongs to tick t, and the population after tick t is
    initial with the changes of ticks 1..t applied in order (final is the
    one after the last tick), so the record grows with the changes, not with
    n per tick. A run ends before max_ticks only at an absorbing state
    (settled, every inbox empty), which it reaches at the start or at the
    tick it settles; otherwise its ticks after settling all share SETTLED.
    """

    initial: tuple[int, ...]
    events: list[TickEvents]
    config: SimConfig
    graph: FriendGraph
    final: list[int]


def rng_at(rng_state: tuple) -> random.Random:
    """A new RNG standing at rng_state (a getstate() result).

    It is built without the OS seeding that random.Random() does, which
    setstate would overwrite at once.
    """
    rng = random.Random.__new__(random.Random)
    rng.setstate(rng_state)
    return rng


def init(config: SimConfig, values: list[int] | None = None,
         graphs: dict[tuple, tuple[FriendGraph, tuple]] | None = None) -> SimState:
    """Fresh state from a config: friend graph first, then uniform initial values.

    The draw order (graph, then one value per agent in id order) is part of the replay
    contract; given values (one int per agent, in 0..k) draw nothing. graphs maps a graph
    key (seed, n, f and symmetric_friends, all the graph's draws depend on) to its graph and
    the RNG state after it: a hit reuses the graph and copies the state, a miss draws and
    stores both. run calls init once per draw group, so a hit serves another group.
    """
    key = (config.seed, config.n, config.f, config.symmetric_friends)
    if graphs is not None and key in graphs:
        graph, rng = graphs[key][0], rng_at(graphs[key][1])
    else:
        rng = random.Random(config.seed)
        graph = make_friend_graph(config.n, config.f, rng, symmetric=config.symmetric_friends)
        if graphs is not None:
            graphs[key] = graph, rng.getstate()
    if values is None:
        values = [rng.randint(0, config.k) for _ in range(config.n)]
    elif len(values) != config.n or not all(type(x) is int and 0 <= x <= config.k for x in values):
        raise ValueError(f"need {config.n} initial values in 0..{config.k}")
    return SimState(config, list(values), [[] for _ in range(config.n)], graph, rng)


def draw_key(config: SimConfig) -> tuple | None:
    """The config fields a run's draws depend on (see the module docstring), or None.

    A mixed run gets None and shares nothing: its coins sit in the send
    stream, one per integration, and members of a group may differ in v, so
    their coin counts and every later send would part.
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


def step(state: SimState, sends: list[tuple[int, int]] | None = None,
         record: list[tuple[int, int]] | None = None) -> TickEvents:
    """Advance one tick; returns that tick's events.

    With sends None, step draws the tick from the state's RNG, delivering each
    send as it is drawn and appending its (sender, target) pair to record if
    given; otherwise sends holds the pairs another member of the state's draw
    group drew this tick. A settled state returns SETTLED without drawing:
    its values, inboxes and RNG stay as they are.

    With friend_prob > 0 a draw raises ValueError before its first coin if the graph,
    fixed when built, has a friendless agent (graph.friendless), whether it activates or not.
    """
    if state.settled:
        return SETTLED
    cfg = state.config
    v = cfg.v
    values, inboxes = state.values, state.inboxes
    full: list[int] = []  # agents whose inbox reached v during this tick
    # phase 2: values cannot change before phase 3, so senders' values are pre-integration
    if sends is not None:
        sent = len(sends)
        for sender, target in sends:
            inbox = inboxes[target]
            inbox.append(values[sender])
            if len(inbox) == v:
                full.append(target)
    else:  # phases 1 and 2 in one pass: each send is delivered as it is drawn
        n, friend_prob, activation = cfg.n, cfg.friend_prob, cfg.activation_prob
        rng = state.rng
        rand, getrandbits = rng.random, rng.getrandbits
        sent = 0
        if n == 1:
            rand()  # the activation coin is still consumed; nobody to message
        else:
            graph = state.graph
            if friend_prob > 0.0 and graph.friendless is not None:  # getrandbits(0) would spin
                raise ValueError(f"friend_prob={friend_prob} needs a non-empty friend list "
                                 f"(agent {graph.friendless} has none)")
            adjacency = graph.adjacency
            # uniform picks below m draw exactly as rng.randrange(m) does
            others = n - 1
            others_bits = others.bit_length()
            for sender in range(n):
                if rand() >= activation:
                    continue
                if friend_prob > 0.0 and rand() < friend_prob:
                    pool = adjacency[sender]
                    m = len(pool)
                    bits = m.bit_length()
                    pick = getrandbits(bits)
                    while pick >= m:
                        pick = getrandbits(bits)
                    target = pool[pick]
                else:
                    pick = getrandbits(others_bits)
                    while pick >= others:
                        pick = getrandbits(others_bits)
                    # the uniform branch ranges over "others": picks >= sender shift up by one
                    target = pick + (pick >= sender)
                inbox = inboxes[target]
                inbox.append(values[sender])
                sent += 1
                if len(inbox) == v:
                    full.append(target)
                if record is not None:
                    record.append((sender, target))

    if not full:  # nothing integrates, so no value changes and settled cannot flip
        return _new_events(TickEvents, (sent, sent, 0, 0, NO_CHANGES))

    # phase 3, one pass over the full inboxes in agent order; integration
    # clears an inbox, so only `full` can be at v
    full.sort()
    changes = integrate_inboxes(values, inboxes, full, v, cfg.include_self, cfg.strategy,
                                cfg.mixed_consensus_prob, state.rng)
    state.settled = _settled(values, inboxes)
    return _new_events(TickEvents, (sent, sent, len(full), len(changes) // 2,
                                    array("q", changes) if changes else NO_CHANGES))


def _run_group(states: list[SimState]) -> list[Trajectory]:
    """Step one draw group that run started (see the module docstring) to its horizon.

    Every member starts from the lead's graph, values and RNG, from which none draws a coin
    (draw_key puts a mixed run in no group). A settled step draws nothing, so once the drawing
    member settles the next unsettled one draws from where the shared RNG stands. A member
    that settles stops there if it is absorbing (an initially absorbing member takes no tick);
    otherwise it steps on to max_ticks, one SETTLED step per tick. Each record's final is its
    state's values list, which step changes in place.
    """
    lead = states[0]
    initial = tuple(lead.values)
    trajs = [Trajectory(initial, [], s.config, s.graph, s.values) for s in states]
    live = list(zip(states, trajs))
    drawing = len(states)  # unsettled members; equal starts settle all or none
    settling = True  # an initially absorbing member takes no tick
    for _ in range(lead.config.max_ticks):
        if settling:  # drop the absorbing members: settled, every inbox empty
            live = [pair for pair in live if not pair[0].settled or any(pair[0].inboxes)]
            if not live:
                break
            settling = False
        record = [] if drawing > 1 else None  # a lone drawer's sends go to nobody
        sends = None  # until this tick's drawer has stepped
        # plain loops, not comprehensions: this runs once per tick of every run
        for state, traj in live:
            events = step(state, sends, record)
            traj.events.append(events)
            if events is not SETTLED:  # it drew or delivered this tick
                sends = record
                if state.settled:  # it settled at this tick
                    drawing -= 1
                    settling = True
    return trajs


def run(configs: Sequence[SimConfig], values: list[int] | None = None) -> list[Trajectory]:
    """Every config's run to its horizon: its record, in config order.

    Each record is exactly its config's lone run's (init, then step to the horizon
    or absorption); each draw group starts once and draws once (see the module docstring).
    Given values (one int per agent, in 0..k of every config) draw nothing.
    """
    results: list = [None] * len(configs)
    graphs: dict[tuple, tuple[FriendGraph, tuple]] = {}
    for group in draw_groups(configs):
        lead = init(configs[group[0]], values, graphs)
        states = [lead] + [SimState(configs[index], list(lead.values), [[] for _ in lead.values],
                                    lead.graph, lead.rng) for index in group[1:]]
        for index, traj in zip(group, _run_group(states)):
            results[index] = traj
    return results
