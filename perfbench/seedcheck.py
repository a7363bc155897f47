"""Seed-sensitivity check: every workload at two workload seeds.

    python3 perfbench/seedcheck.py

Run from the root of a gossipvote checkout. It runs every workload at seeds
11 and 12 for BENCHMARK.json's run_seconds each. For each workload it reports
whether the two seeds ran the same number of agent-ticks and whether
agent_ticks_per_s agrees within that metric's bound in BENCHMARK.json, which
shows that a change to the random stream alone does not read as a change in
performance. Exits 1 if either fails for any workload.
"""

from __future__ import annotations

import json
import os
import sys

import run
import workloads


SEEDS = (11, 12)


def main() -> int:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bound = next(m["bound"] for m in bench["end_to_end"] if m["name"] == "agent_ticks_per_s")
    seconds = bench["run_seconds"]
    ok = True
    for name in workloads.WORKLOADS:
        a, b = (run.run_workload(root, name, seed, seconds, trace=0) for seed in SEEDS)
        rate_a, rate_b = (o.metrics["agent_ticks_per_s"] for o in (a, b))
        shift = abs(rate_b - rate_a) / rate_a
        same_ticks = a.agent_ticks == b.agent_ticks
        within = shift <= bound
        ok = ok and same_ticks and within and a.correct and b.correct
        print(f"{name}: agent_ticks {a.agent_ticks} vs {b.agent_ticks} "
              f"({'identical' if same_ticks else 'DIFFERENT'}); agent_ticks_per_s "
              f"{rate_a:.6g} vs {rate_b:.6g}, {shift:.1%} apart "
              f"({'within' if within else 'OUTSIDE'} the bound {bound:.0%})"
              + ("" if a.correct and b.correct else "; OUTPUT CHECKS FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
