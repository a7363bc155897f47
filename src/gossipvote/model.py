"""Knowledge values, run parameters, and the preferential channel graph."""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass
from typing import Sequence

STRATEGIES = ("dominant", "consensus", "mixed")


class ConfigError(ValueError):
    """A simulation parameter violates its constraint."""


# Exact types by annotation: an int passes as a float, a bool never as an int;
# fields with other annotations are checked where they are used.
_FIELD_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str,
                "int | None": (int, type(None))}


def check_field_types(config: object) -> None:
    """Raise ConfigError naming the first dataclass field of the wrong type."""
    for spec in dataclasses.fields(config):
        value = getattr(config, spec.name)
        if not isinstance(value, _FIELD_TYPES.get(spec.type, object)) or (
                isinstance(value, bool) and spec.type != "bool"):
            raise ConfigError(f"{spec.name} must be {spec.type}, got {value!r}")


class FriendGraph:
    """Directed adjacency of preferential channels, fixed for a whole run.

    Hand-built graphs may mix out-degrees; graphs from :func:`make_friend_graph`
    have uniform out-degree f. Self-loops and duplicate entries are rejected.
    """

    def __init__(self, adjacency: Sequence[Sequence[int]]):
        adj = [list(friends) for friends in adjacency]
        n = len(adj)
        for agent_id, friends in enumerate(adj):
            if agent_id in friends:
                raise ValueError(f"agent {agent_id} lists itself as a friend")
            if len(set(friends)) != len(friends):
                raise ValueError(f"agent {agent_id} has duplicate friends")
            for target in friends:
                if not 0 <= target < n:
                    raise ValueError(
                        f"agent {agent_id} has friend {target} outside 0..{n - 1}"
                    )
        self.adjacency = adj

    @classmethod
    def _sampled(cls, adjacency: list[list[int]]) -> FriendGraph:
        """Wrap a sampler's rows, which hold by construction what __init__ checks."""
        graph = cls.__new__(cls)
        graph.adjacency = adjacency
        return graph

    @property
    def n_agents(self) -> int:
        return len(self.adjacency)

    @property
    def n_edges(self) -> int:
        return sum(len(friends) for friends in self.adjacency)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FriendGraph) and self.adjacency == other.adjacency

    def __repr__(self) -> str:
        return f"FriendGraph(n={self.n_agents}, edges={self.n_edges})"


@dataclass(frozen=True)
class SimConfig:
    """Every parameter of one run.

    n                    population size
    k                    values live in 0..k (k=0 is a legal degenerate domain)
    v                    inbox size that triggers integration
    f                    friends per agent for generated graphs
    friend_prob          chance an activated agent messages a friend instead of
                         a uniformly random other agent
    activation_prob      per-tick chance each agent sends at all
    strategy             "dominant" | "consensus" | "mixed"
    mixed_consensus_prob chance the mixed strategy applies consensus on a given
                         integration (ignored by the other strategies)
    include_self         whether the agent's own value joins its vote set
    symmetric_friends    generate a mutual (f-regular undirected) friend graph
    max_ticks            horizon; only an absorbing state (settled, every
                         inbox empty) stops a run earlier, at the start or at
                         the tick it settles; a settled run (every value and
                         queued vote equal) draws nothing from then on
    seed                 seed for the single run RNG

    A field of the wrong type (see check_field_types) raises ConfigError.
    """

    n: int = 500
    k: int = 1
    v: int = 3
    f: int = 0
    friend_prob: float = 0.0
    activation_prob: float = 0.5
    strategy: str = "dominant"
    mixed_consensus_prob: float = 0.0
    include_self: bool = True
    symmetric_friends: bool = False
    max_ticks: int = 500
    seed: int = 0

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n}")
        if self.k < 0:
            raise ConfigError(f"k must be >= 0, got {self.k}")
        if self.v < 1:
            raise ConfigError(f"v must be >= 1, got {self.v}")
        if not 0 <= self.f <= self.n - 1:
            raise ConfigError(f"f must satisfy 0 <= f <= n-1, got f={self.f} with n={self.n}")
        if not 0.0 <= self.friend_prob <= 1.0:
            raise ConfigError(f"friend_prob must lie in [0, 1], got {self.friend_prob}")
        if self.f == 0 and self.friend_prob > 0.0:
            raise ConfigError("friend_prob must be 0 when f is 0: no friends to favour")
        if not 0.0 < self.activation_prob <= 1.0:
            raise ConfigError(
                f"activation_prob must lie in (0, 1], got {self.activation_prob}"
            )
        if self.strategy not in STRATEGIES:
            raise ConfigError(
                f"strategy must be one of {STRATEGIES!r}, got {self.strategy!r}"
            )
        if not 0.0 <= self.mixed_consensus_prob <= 1.0:
            raise ConfigError(
                f"mixed_consensus_prob must lie in [0, 1], got {self.mixed_consensus_prob}"
            )
        if self.symmetric_friends and (self.n * self.f) % 2:
            raise ConfigError(
                "symmetric_friends requires n*f even "
                f"(an f-regular undirected graph needs it), got n={self.n}, f={self.f}"
            )
        if self.max_ticks < 1:
            raise ConfigError(f"max_ticks must be >= 1, got {self.max_ticks}")


def make_friend_graph(
    n: int, f: int, rng: random.Random, symmetric: bool = False
) -> FriendGraph:
    """Sample a friend graph: each agent picks f distinct others uniformly.

    With symmetric=True the result is instead an f-regular undirected graph
    (every channel mutual), sampled approximately uniformly by seeding a
    circulant and running double-edge swaps; n*f must be even.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 <= f <= n - 1:
        raise ValueError(f"cannot pick f={f} friends out of {n} agents")
    if f == 0:  # no friends to draw, whichever graph was asked for
        return FriendGraph._sampled([[] for _ in range(n)])
    if symmetric:
        return _symmetric_graph(n, f, rng)
    # each row draws exactly what CPython 3.11's rng.sample(range(others), f)
    # draws, written out so the replay contract does not rest on sample: picks
    # from a shrinking pool while that list is smaller than a set of f picks
    # would be, else redraws against the set of picks so far
    others = n - 1
    getrandbits = rng.getrandbits
    set_size = 21 + (4 ** math.ceil(math.log(f * 3, 4)) if f > 5 else 0)
    adjacency = []
    if others <= set_size:
        for agent_id in range(n):
            pool = list(range(others))
            picks = []
            for size in range(others, others - f, -1):
                bits = size.bit_length()
                pick = getrandbits(bits)
                while pick >= size:
                    pick = getrandbits(bits)
                picks.append(pool[pick])
                pool[pick] = pool[size - 1]
            # the picks are over "others": indices >= agent_id shift up by one
            adjacency.append(sorted([p + (p >= agent_id) for p in picks]))
    else:
        bits = others.bit_length()
        for agent_id in range(n):
            chosen: set[int] = set()
            while len(chosen) < f:
                pick = getrandbits(bits)
                if pick < others:
                    chosen.add(pick)
            adjacency.append(sorted([p + (p >= agent_id) for p in chosen]))
    return FriendGraph._sampled(adjacency)


def _symmetric_graph(n: int, f: int, rng: random.Random) -> FriendGraph:
    if (n * f) % 2:
        raise ValueError(f"n*f must be even for a symmetric graph, got n={n}, f={f}")
    edges: set[tuple[int, int]] = set()
    for i in range(n):
        for d in range(1, f // 2 + 1):
            edges.add(_norm(i, (i + d) % n))
        if f % 2:  # n is even here, so the antipode is a valid odd spoke
            edges.add(_norm(i, (i + n // 2) % n))
    edge_list = sorted(edges)
    # double-edge swaps preserve every degree; enough of them forget the seed
    for _ in range(10 * len(edge_list)):
        i = rng.randrange(len(edge_list))
        j = rng.randrange(len(edge_list))
        (a, b), (c, d) = edge_list[i], edge_list[j]
        if len({a, b, c, d}) < 4:
            continue
        new_1, new_2 = _norm(a, d), _norm(c, b)
        if new_1 in edges or new_2 in edges:
            continue
        edges.remove(edge_list[i])
        edges.remove(edge_list[j])
        edges.update((new_1, new_2))
        edge_list[i], edge_list[j] = new_1, new_2
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    return FriendGraph._sampled([sorted(friends) for friends in adjacency])


def _norm(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)

