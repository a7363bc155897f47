#!/usr/bin/env python3
"""Measure friend-subgroup clustering under preferential communication.

Compares the clustering gap (friend-edge agreement minus random-pair
agreement, averaged over a pre-convergence tick window) between a run with
preferential sends and a matched run whose sends are fully uniform.
"""

from __future__ import annotations

import argparse
import statistics

from gossipvote import SimConfig, init, observe, run_state


def mean_gap(friend_prob: float, seed: int, args: argparse.Namespace) -> float:
    state = init(
        SimConfig(
            n=500,
            k=1,
            v=3,
            f=args.friends,
            friend_prob=friend_prob,
            activation_prob=0.5,
            max_ticks=args.last_tick,
            seed=seed,
        )
    )
    traj = run_state(state)
    return statistics.mean(observe(traj, state.graph).gaps(args.first_tick, args.last_tick + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=30)
    parser.add_argument("--base-seed", type=int, default=2000)
    parser.add_argument("--friends", type=int, default=20)
    parser.add_argument("--friend-prob", type=float, default=0.4)
    parser.add_argument("--first-tick", type=int, default=50)
    parser.add_argument("--last-tick", type=int, default=200)
    args = parser.parse_args()

    preferential, uniform = [], []
    positive = 0
    for s in range(args.seeds):
        seed = args.base_seed + s
        gap_pref = mean_gap(args.friend_prob, seed, args)
        gap_flat = mean_gap(0.0, seed, args)
        preferential.append(gap_pref)
        uniform.append(gap_flat)
        positive += gap_pref > 0

    print(
        f"friend_prob={args.friend_prob}: mean clustering gap "
        f"{statistics.mean(preferential):.6f} (positive in {positive}/{args.seeds} seeds)"
    )
    print(f"friend_prob=0.0: mean clustering gap {statistics.mean(uniform):.6f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
