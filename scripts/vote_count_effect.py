#!/usr/bin/env python3
"""Measure how the vote-gathering count v shapes long-run change rates.

Runs paired seeds at two v settings (binary domain, no preferential
channels), the two runs of a seed stepping together on one draw sequence,
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
    ConfigError,
    SimConfig,
    convergence_tick,
    dissent_change_rate,
    live_change_rate,
    observe,
    run,
    steady_change_rate,
)
from gossipvote.cli import _number

RATES = ("changes per dissenting agent-tick", "per-tick rate up to unanimity", "steady rate")


def arms(
    vs: tuple[int, ...], seed: int, horizon: int, burn_in: int
) -> list[tuple[tuple[float, ...], int | None]]:
    """One seed's run at each v, stepped together on one draw sequence."""
    runs = run([
        SimConfig(n=500, k=1, v=v, f=0, activation_prob=0.5, max_ticks=horizon, seed=seed)
        for v in vs
    ])
    results = []
    for traj in runs:
        obs = observe(traj)
        rates = (
            dissent_change_rate(obs, burn_in),
            live_change_rate(obs, burn_in),
            steady_change_rate(obs, burn_in),
        )
        results.append((rates, convergence_tick(obs)))
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=_number, default=30, help="paired seed count")
    parser.add_argument("--base-seed", type=_number, default=1000)
    parser.add_argument("--v-low", type=_number, default=3)
    parser.add_argument("--v-high", type=_number, default=20)
    parser.add_argument("--horizon", type=_number, default=500)
    parser.add_argument("--burn-in", type=_number, default=50)
    args = parser.parse_args()
    if args.seeds < 1:
        parser.error(f"--seeds must be >= 1, got {args.seeds}")
    if args.horizon < 1:
        parser.error(f"--horizon must be >= 1, got {args.horizon}")
    if not 0 <= args.burn_in < args.horizon:
        parser.error(f"--burn-in must satisfy 0 <= burn-in < horizon={args.horizon}, "
                     f"got {args.burn_in}")

    seeds = range(args.base_seed, args.base_seed + args.seeds)
    try:
        low, high = zip(*(arms((args.v_low, args.v_high), seed, args.horizon, args.burn_in)
                          for seed in seeds))
    except ConfigError as exc:
        parser.error(str(exc))

    def describe(v: int, runs: tuple[tuple[tuple[float, ...], int | None], ...]) -> None:
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
