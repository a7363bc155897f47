"""Integration operators: how an agent turns a full inbox into a new value.

All three are pure functions of the vote set (plus one coin for the mixed
strategy); the engine never peeks inside them. Each rule is written once, in
integrate(), on a plain sequence of votes; the public VoteSet functions wrap it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .model import KnowledgeValue


@dataclass(frozen=True)
class VoteSet:
    """The multiset an integration step ranges over.

    own is the integrating agent's current value and only breaks ties in
    favour of keeping it; None (e.g. a supervisor integrating for a whole
    group) removes that preference, so ties break to the smallest value.
    own must already be in values when the agent counts itself.
    """

    values: tuple[KnowledgeValue, ...]
    own: KnowledgeValue | None = None

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("a vote set needs at least one value")


def integrate(votes: Sequence[KnowledgeValue], own: KnowledgeValue | None, strategy: str,
              consensus_prob: float = 0.0, rng: random.Random | None = None) -> KnowledgeValue:
    """Apply one strategy to a non-empty sequence of in-domain votes.

    "dominant" takes the most frequent value; ties keep own if own is tied,
    else take the smallest. "consensus" takes the lower median, so even sizes
    give the lower middle value and the result is always a cast vote.
    "mixed" draws exactly one coin from rng whatever the outcome, keeping run
    replay byte-stable, and applies consensus with probability consensus_prob,
    else dominant. Only "mixed" needs rng.
    """
    if strategy == "consensus" or (strategy == "mixed" and rng.random() < consensus_prob):
        ordered = sorted(votes)
        return ordered[(len(ordered) - 1) // 2]
    if own is not None and 2 * votes.count(own) >= len(votes):
        return own  # holding half the votes, own is tied at worst
    counts: dict[KnowledgeValue, int] = {}
    for value in votes:
        counts[value] = counts.get(value, 0) + 1
    best = max(counts.values())
    if own is not None and counts.get(own) == best:
        return own
    return min(value for value, count in counts.items() if count == best)


def dominant_value(votes: VoteSet) -> KnowledgeValue:
    """Most frequent value; ties keep own if own is tied, else take the smallest."""
    return integrate(votes.values, votes.own, "dominant")


def consensus_value(votes: VoteSet, k: int) -> KnowledgeValue:
    """Lower median of the vote set over the ordered domain 0..k."""
    return integrate(_in_domain(votes, k), votes.own, "consensus")


def mixed_integrate(
    votes: VoteSet, k: int, consensus_prob: float, rng: random.Random
) -> KnowledgeValue:
    """Apply consensus with probability consensus_prob, else dominant; one coin."""
    if not 0.0 <= consensus_prob <= 1.0:
        raise ValueError(f"consensus_prob must lie in [0, 1], got {consensus_prob}")
    return integrate(_in_domain(votes, k), votes.own, "mixed", consensus_prob, rng)


def _in_domain(votes: VoteSet, k: int) -> tuple[KnowledgeValue, ...]:
    for value in votes.values:
        if not 0 <= value <= k:
            raise ValueError(f"vote {value} outside domain 0..{k}")
    return votes.values
