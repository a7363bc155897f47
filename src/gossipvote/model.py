"""Knowledge values, run parameters, and the preferential channel graph."""

from __future__ import annotations

import math
import random
from operator import attrgetter
from typing import Iterable, NamedTuple, Sequence

STRATEGIES = ("dominant", "consensus", "mixed")


class ConfigError(ValueError):
    """A simulation parameter violates its constraint."""


# Exact types by annotation: an int passes as a float, a bool never as an int;
# fields with other annotations are checked where they are used.
_FIELD_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str,
                "int | None": (int, type(None)), "tuple[str, ...]": tuple}


def check_field_types(config: tuple, fields: type) -> None:
    """Raise ConfigError naming the first field of config of the wrong type.

    fields is the NamedTuple class that annotates config's fields.
    """
    for name, annotation in fields.__annotations__.items():
        kind = annotation.__forward_arg__  # NamedTuple keeps a string annotation as a ForwardRef
        value = getattr(config, name)
        if not isinstance(value, _FIELD_TYPES.get(kind, object)) or (
                isinstance(value, bool) and kind != "bool"):
            raise ConfigError(f"{name} must be {kind}, got {value!r}")


_ASCII_SPACE = " \t\n\r\x0b\x0c"  # string.whitespace: what the readers strip, and no more


def _ascii_number(text: str, kind: type = int) -> int | float:
    """kind(text), kind int or float, for ASCII decimal text only; else ValueError.

    int() and float() alone also read PEP 515 underscores ("1_0" as 10) and
    non-ASCII digits; the command line, the scripts, the sweep grid and the
    forecast CSVs read their numbers through here instead. kind() skips the
    ASCII whitespace around a number, so callers pass their text unstripped:
    str.strip() would also take off Unicode spaces such as U+00A0.
    """
    if "_" in text or not text.isascii():
        raise ValueError(f"not an ASCII decimal literal: {text!r}")
    return kind(text)


class FriendGraph:
    """Directed adjacency of preferential channels, fixed when it is built.

    Hand-built graphs may mix out-degrees; make_friend_graph's have out-degree f. Self-loops
    and duplicates are rejected. The rows are tuples, adjacency and friendless read-only, and
    with friend_prob > 0 a friendless agent makes each tick's draw raise before its first coin.
    """

    __slots__ = ("_adjacency", "_friendless")

    def __init__(self, adjacency: Sequence[Sequence[int]]):
        adj = tuple(tuple(friends) for friends in adjacency)
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
        self._set_rows(adj)

    @classmethod
    def _sampled(cls, adjacency: tuple[tuple[int, ...], ...]) -> FriendGraph:
        """Wrap a sampler's rows, which hold by construction what __init__ checks."""
        graph = cls.__new__(cls)
        graph._set_rows(adjacency)
        return graph

    def _set_rows(self, adjacency: tuple[tuple[int, ...], ...]) -> None:
        self._adjacency = adjacency
        self._friendless = adjacency.index(()) if () in adjacency else None

    adjacency = property(attrgetter("_adjacency"), doc="Each agent's friends, a tuple per agent.")
    friendless = property(attrgetter("_friendless"), doc="The first friendless agent, or None.")

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


class _SimFields(NamedTuple):  # SimConfig's fields and defaults; SimConfig adds the checks
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


class SimConfig(_SimFields):
    """Every parameter of one run.

    n                    population size
    k                    values live in 0..k (k=0 is a legal degenerate domain; k <= 2**63 - 1,
                         so a changed value fits a signed 64-bit change record)
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
    seed                 seed for the single run RNG (>= 0)

    A config is an immutable NamedTuple, and config._replace(v=20) is a new
    one. A field of the wrong type (see check_field_types) or out of range
    raises ConfigError, on construction and on every _replace.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> SimConfig:
        self = super().__new__(cls, *args, **kwargs)
        check_field_types(self, _SimFields)
        if self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n}")
        if not 0 <= self.k <= 2**63 - 1:
            raise ConfigError(f"k must satisfy 0 <= k <= 2**63 - 1, got {self.k}")
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
        if self.seed < 0:  # random.Random(-s) seeds as random.Random(s) does
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        return self

    @classmethod
    def _make(cls, fields: Iterable) -> SimConfig:
        """Build through __new__, so that _replace, which builds here, validates too."""
        return cls(*fields)


_FIELD_TYPES["SimConfig"] = SimConfig  # a Scenario's sim


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
        return FriendGraph._sampled(((),) * n)
    if symmetric:
        return _symmetric_graph(n, f, rng)
    # each row draws exactly what CPython 3.11's rng.sample(range(others), f)
    # draws, written out so the replay contract does not rest on sample: picks
    # from a shrinking pool while that list is smaller than a set of f picks
    # would be, else redraws against the set of picks so far. Pick i stands for
    # agent i + (i >= agent_id), the i-th agent other than agent_id.
    others = n - 1
    getrandbits = rng.getrandbits
    set_size = 21 + (4 ** math.ceil(math.log(f * 3, 4)) if f > 5 else 0)
    agents = list(range(n))  # one int object per id, shared by every row that lists it
    adjacency = []
    if others <= set_size:
        for agent_id in range(n):
            pool = agents[:agent_id] + agents[agent_id + 1:]
            picks = []
            for size in range(others, others - f, -1):
                bits = size.bit_length()
                pick = getrandbits(bits)
                while pick >= size:
                    pick = getrandbits(bits)
                picks.append(pool[pick])
                pool[pick] = pool[size - 1]
            picks.sort()
            adjacency.append(tuple(picks))
    else:
        bits = others.bit_length()
        for agent_id in range(n):
            chosen: set[int] = set()
            while len(chosen) < f:
                pick = getrandbits(bits)
                if pick < others:
                    chosen.add(agents[pick + (pick >= agent_id)])
            adjacency.append(tuple(sorted(chosen)))
    return FriendGraph._sampled(tuple(adjacency))


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
    return FriendGraph._sampled(tuple([tuple(sorted(friends)) for friends in adjacency]))


def _norm(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)

