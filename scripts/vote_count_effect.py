#!/usr/bin/env python3
"""Measure how the vote-gathering count v shapes long-run change rates.

Runs paired seeds at two v settings (binary domain, no preferential channels)
and prints, per arm, three rates over the ticks after --burn-in: value
changes per dissenting agent-tick (the quantity acceptance check a03 gates),
the per-tick change rate up to the first unanimous snapshot, and the steady
change rate over the full horizon; then convergence ticks and the paired win
count of each rate. Numbers are reported as measured.
"""

from __future__ import annotations

import argparse
import statistics

from gossipvote import (
    SimConfig,
    Trajectory,
    convergence_tick,
    dissent_change_rate,
    run,
    steady_change_rate,
)

RATES = ("changes per dissenting agent-tick", "per-tick rate up to unanimity", "steady rate")


def live_change_rate(traj: Trajectory, burn_in: int) -> float:
    """Mean per-agent change rate over ticks burn_in+1 .. convergence_tick(traj)."""
    live = traj.events[burn_in:convergence_tick(traj)]
    if not live:
        return 0.0
    return sum(e.changed for e in live) / (len(live) * traj.config.n)


def arm(v: int, seed: int, horizon: int, burn_in: int) -> tuple[tuple[float, ...], int | None]:
    traj = run(
        SimConfig(n=500, k=1, v=v, f=0, activation_prob=0.5, max_ticks=horizon, seed=seed)
    )
    rates = (
        dissent_change_rate(traj, burn_in),
        live_change_rate(traj, burn_in),
        steady_change_rate(traj, burn_in),
    )
    return rates, convergence_tick(traj)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=30, help="paired seed count")
    parser.add_argument("--base-seed", type=int, default=1000)
    parser.add_argument("--v-low", type=int, default=3)
    parser.add_argument("--v-high", type=int, default=20)
    parser.add_argument("--horizon", type=int, default=500)
    parser.add_argument("--burn-in", type=int, default=50)
    args = parser.parse_args()

    seeds = range(args.base_seed, args.base_seed + args.seeds)
    low = [arm(args.v_low, seed, args.horizon, args.burn_in) for seed in seeds]
    high = [arm(args.v_high, seed, args.horizon, args.burn_in) for seed in seeds]

    def describe(v: int, runs: list[tuple[tuple[float, ...], int | None]]) -> None:
        rates, convs = zip(*runs)
        converged = [c for c in convs if c is not None]
        conv_note = (
            f"convergence tick median {statistics.median(converged)}"
            if converged
            else "never converged"
        )
        parts = [
            f"{name} mean {statistics.mean(r[i] for r in rates):.6f} "
            f"median {statistics.median(r[i] for r in rates):.6f}"
            for i, name in enumerate(RATES)
        ]
        print(f"v={v}: " + "; ".join(parts) + f"; {len(converged)}/{len(convs)} converged ({conv_note})")

    describe(args.v_low, low)
    describe(args.v_high, high)
    for i, name in enumerate(RATES):
        wins = sum(a[0][i] > b[0][i] for a, b in zip(low, high))
        print(f"paired seeds where v={args.v_low} beats v={args.v_high} on {name}: {wins}/{args.seeds}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
