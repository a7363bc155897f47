"""Integration operators: how an agent turns a full inbox into a new value.

All three are pure functions of the vote set (plus one coin for the mixed
strategy); the engine never peeks inside them. Each rule is written once, in
integrate_inboxes(), the pass the engine runs once per tick over every full
inbox; integrate() runs it for one vote set, which is how the forecast's
supervisor integrates a whole population.
"""

from __future__ import annotations

import random
from typing import Sequence


def integrate_inboxes(values: list[int], inboxes: list[list[int]],
                      agents: Sequence[int], v: int, include_self: bool, strategy: str,
                      consensus_prob: float = 0.0, rng: random.Random | None = None,
                      ) -> list[int]:
    """Integrate each listed agent's full inbox, in the order given; the operator is chosen once.

    Each listed inbox holds at least v votes. An agent votes over the first v
    of them, plus values[agent] when include_self, adopts the result in
    values and has its whole inbox cleared. Returns the flat (agent, new
    value) pairs of the agents whose value changed.

    "dominant" keeps the agent's value (own) when it holds at least half the
    votes; otherwise it counts each distinct vote in ascending order and
    replaces the leader (own, at own's count) only on a strictly higher
    count, so ties keep own if own is tied, else take the smallest value.
    "consensus" takes the lower median, so an even vote count gives the
    lower middle value and the result is always a cast vote. "mixed" draws
    exactly one coin from rng per listed agent, whatever the outcome, keeping
    run replay byte-stable, and applies consensus with probability
    consensus_prob, else dominant. Only "mixed" needs rng.
    """
    size = v + include_self
    median = (size - 1) // 2
    consensus = strategy == "consensus"
    coin = rng.random if strategy == "mixed" else None
    changes: list[int] = []
    for agent in agents:
        votes = inboxes[agent]
        own = values[agent]
        del votes[v:]
        if include_self:
            votes.append(own)
        if consensus or (coin is not None and coin() < consensus_prob):
            votes.sort()
            result = votes[median]
        else:
            result = own
            best = votes.count(own)
            if 2 * best < size:  # one pass over the sorted votes, a run per distinct value
                votes.sort()
                value, count = votes[0], 0
                for vote in votes:
                    if vote == value:
                        count += 1
                        continue
                    if count > best:
                        result, best = value, count
                    value, count = vote, 1
                if count > best:
                    result = value
        votes.clear()
        if result != own:
            values[agent] = result
            changes += (agent, result)
    return changes


def integrate(votes: Sequence[int], own: int | None, strategy: str,
              consensus_prob: float = 0.0, rng: random.Random | None = None) -> int:
    """Apply one strategy to a non-empty sequence of in-domain votes (see integrate_inboxes).

    The votes are the whole vote set, own included when it counts; own=None
    (e.g. a supervisor integrating for a whole group) only removes the
    preference for keeping it, so ties break to the smallest value.
    """
    changes = integrate_inboxes([own], [list(votes)], (0,), len(votes), False, strategy,
                                consensus_prob, rng)
    return changes[1] if changes else own

