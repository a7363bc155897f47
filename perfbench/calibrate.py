"""A fixed reference loop that measures how fast the host runs Python right now.

The machine the bounds were set on (2 shared vCPUs) changes speed by up to
about 2x from one second to the next, and each vCPU drifts between slower
and faster stretches, on its own, over seconds to minutes. A drift that
covers a whole benchmark run moves every time in it, whatever statistic is
taken. So run.py times this loop around each of the program's runs and
scales the run to the host speed at which the loop takes REFERENCE_S:

    scaled time = measured time * REFERENCE_S / mean time of the loops around it

The loop copies the shape of gossipvote's hot path (one object per agent,
random draws, inbox lists, a small vote count) at the workloads' population
size, so that its memory fits the caches as theirs does and it slows down
with the host the way the program does. It uses nothing from gossipvote, so
a change to the program does not move it.
"""

from __future__ import annotations

import random
import time

# The loop's typical time on the machine the bounds were set on: scaled
# times read as wall times there.
REFERENCE_S = 0.45

AGENTS = 500
ROUNDS = 1_000
FRIENDS = 4


class _Agent:
    __slots__ = ("current", "inbox", "friends")

    def __init__(self, current: int, friends: list[int]):
        self.current = current
        self.inbox: list[int] = []
        self.friends = friends


def reference_loop() -> float:
    """Seconds the fixed loop takes now; its work never changes."""
    started = time.perf_counter()
    rng = random.Random(20210426)
    rand, randrange = rng.random, rng.randrange
    agents = [_Agent(rng.randint(0, 3), [randrange(AGENTS) for _ in range(FRIENDS)])
              for _ in range(AGENTS)]
    for _ in range(ROUNDS):
        staged = []
        for agent in agents:
            if rand() < 0.5:
                target = agent.friends[randrange(FRIENDS)] if rand() < 0.4 else randrange(AGENTS)
                staged.append((target, agent.current))
        for target, value in staged:
            agents[target].inbox.append(value)
        for agent in agents:
            inbox = agent.inbox
            if len(inbox) < 3:
                continue
            counts: dict[int, int] = {}
            for value in inbox[:3]:
                counts[value] = counts.get(value, 0) + 1
            agent.current = max(counts, key=counts.__getitem__)
            inbox.clear()
    return time.perf_counter() - started
