#!/usr/bin/env python3
"""Measure friend-subgroup clustering under preferential communication.

Compares the clustering gap (friend-edge agreement minus random-pair
agreement, averaged over a pre-convergence tick window) between a run with
preferential sends and a matched run whose sends are fully uniform.
"""

from __future__ import annotations

import argparse
import statistics

from gossipvote import ConfigError, SimConfig, observe, run
from gossipvote.cli import _number


def mean_gaps(seed: int, args: argparse.Namespace) -> tuple[float, float]:
    """One seed's mean gap with preferential sends, then with uniform sends.

    The two arms run in one call, so they share the seed's friend graph.
    """
    config = SimConfig(n=500, k=1, v=3, f=args.friends, friend_prob=args.friend_prob,
                       activation_prob=0.5, max_ticks=args.last_tick, seed=seed)
    preferential, uniform = run([config, config._replace(friend_prob=0.0)])
    return tuple(statistics.mean(observe(traj).gaps(args.first_tick, args.last_tick + 1))
                 for traj in (preferential, uniform))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=_number, default=30)
    parser.add_argument("--base-seed", type=_number, default=2000)
    parser.add_argument("--friends", type=_number, default=20)
    parser.add_argument("--friend-prob", type=lambda text: _number(text, float), default=0.4)
    parser.add_argument("--first-tick", type=_number, default=50)
    parser.add_argument("--last-tick", type=_number, default=200)
    args = parser.parse_args()
    if args.seeds < 1:
        parser.error(f"--seeds must be >= 1, got {args.seeds}")
    if args.last_tick < 1:
        parser.error(f"--last-tick must be >= 1, got {args.last_tick}")
    if not 0 <= args.first_tick <= args.last_tick:
        parser.error(f"--first-tick must satisfy 0 <= first-tick <= last-tick={args.last_tick}, "
                     f"got {args.first_tick}")

    preferential, uniform = [], []
    positive = 0
    try:
        for s in range(args.seeds):
            gap_pref, gap_flat = mean_gaps(args.base_seed + s, args)
            preferential.append(gap_pref)
            uniform.append(gap_flat)
            positive += gap_pref > 0
    except ConfigError as exc:
        parser.error(str(exc))

    print(
        f"friend_prob={args.friend_prob}: mean clustering gap "
        f"{statistics.mean(preferential):.6f} (positive in {positive}/{args.seeds} seeds)"
    )
    print(f"friend_prob=0.0: mean clustering gap {statistics.mean(uniform):.6f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
