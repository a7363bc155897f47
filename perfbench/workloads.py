"""The benchmark's workloads: inputs generated from a seed, CLI arguments, output checks.

Each workload writes its inputs into a directory, names the gossipvote CLI
arguments that consume them, and checks the outputs of one run. The checks
use only the documented output formats and values computed here from the
generated inputs, never the program's random stream, so they hold under any
RNG contract.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass
from datetime import date, timedelta
from typing import Callable

WORKLOADS = ("scenario_n500", "sweep_grid", "forecast_ensemble")

# Why each workload exists; BENCHMARK.json carries the same sentences.
WHY = {
    "scenario_n500": "bundled friends20_40pct scenario, the shape users run: per-agent engine.step loop plus observer and CSV writers",
    "sweep_grid": "sweep v=3,20;f=0,20 on tuning_friends15 with 2 workers: the only user of process fan-out and the clustering-gap path",
    "forecast_ensemble": "forecast with all six variants on a 40-source dataset: thousands of tiny runs, so fixed per-run cost dominates",
}

# scenarios/friends20_40pct.scenario, copied so the workload does not move
# when the bundled file is edited; only the seed comes from the workload seed.
FRIENDS20_40PCT = {
    "label": "binary choice, 3 votes, 20 friends, 40% preferential sends",
    "replications": 5,
    "burn_in": 50,
    "outputs": ["trajectory_csv", "metrics_csv", "summary_json"],
    "sim": {"n": 500, "k": 1, "v": 3, "f": 20, "friend_prob": 0.4,
            "activation_prob": 0.5, "strategy": "dominant", "max_ticks": 500},
}

# scenarios/tuning_friends15.scenario, the sweep's base.
TUNING_FRIENDS15 = {
    "label": "binary choice, 3 votes, 15 friends, 40% preferential sends (forecast gossip tuning)",
    "replications": 5,
    "burn_in": 50,
    "outputs": ["trajectory_csv", "metrics_csv", "summary_json"],
    "sim": {"n": 500, "k": 1, "v": 3, "f": 15, "friend_prob": 0.4,
            "activation_prob": 0.5, "strategy": "dominant", "max_ticks": 500},
}

SWEEP_GRID = "v=3,20;f=0,20"
SWEEP_CELLS = [(3, 0), (3, 20), (20, 0), (20, 20)]  # (v, f), first key slowest
SWEEP_WORKERS = 2

FORECAST_SOURCES = 40
FORECAST_DAYS = 300
FORECAST_VARIANTS = (
    "basic-dominant",
    "centralized-consensus",
    "decentralized-consensus",
    "decentralized-consensus-friends",
    "dominant-decentralized",
    "dominant-mixed",
)

# Self-test sizes: the same code paths in well under a second each.
TINY = {
    "scenario_n500": {"replications": 2, "burn_in": 5, "sim": {"n": 60, "max_ticks": 30}},
    "sweep_grid": {"replications": 2, "burn_in": 5, "sim": {"n": 60, "max_ticks": 30}},
    "forecast_ensemble": {"sources": 8, "days": 6},
}


class CheckFailed(Exception):
    """An output of the program is missing, malformed or wrong."""


@dataclass(frozen=True)
class Prepared:
    """A workload's generated inputs and how to run and check the program on them.

    argv: CLI arguments for gossipvote.cli.main; outputs go to ./out.
    load: Python source that parses the inputs with the program's own loader
        (the parsing part of set-up time).
    check: reads ./out and the captured stdout of one run; returns the
        run's agent-tick count when the outputs state it, else None.
    workers: processes that run simulations at once.
    """

    argv: list[str]
    load: str
    check: Callable[[str, str], int | None]
    workers: int = 1


def prepare(name: str, seed: int, inputs_dir: str, tiny: bool = False) -> Prepared:
    """Write the inputs of workload `name` for `seed` into inputs_dir."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    os.makedirs(inputs_dir, exist_ok=True)
    shrink = TINY[name] if tiny else {}
    if name == "forecast_ensemble":
        return _prepare_forecast(seed, inputs_dir, **shrink)
    base = {"scenario_n500": FRIENDS20_40PCT, "sweep_grid": TUNING_FRIENDS15}[name]
    scenario = {**base, **{k: v for k, v in shrink.items() if k != "sim"}}
    scenario["sim"] = {**base["sim"], **shrink.get("sim", {}), "seed": seed}
    path = os.path.join(inputs_dir, f"{name}.scenario")
    with open(path, "w") as fh:
        json.dump(scenario, fh, indent=2, sort_keys=True)
        fh.write("\n")
    load = f"from gossipvote.scenario import load_scenario; load_scenario({path!r})"
    if name == "sweep_grid":
        argv = ["sweep", "--scenario", path, "--grid", SWEEP_GRID, "--out", "out",
                "--workers", str(SWEEP_WORKERS)]
        return Prepared(argv, load, lambda out, stdout: _check_sweep(scenario, out), SWEEP_WORKERS)
    argv = ["simulate", "--scenario", path, "--out", "out"]
    return Prepared(argv, load, lambda out, stdout: _check_simulate(scenario, out))


# ---------------------------------------------------------------------------
# simulate and sweep


def _check_simulate(scenario: dict, out: str) -> int:
    sim = scenario["sim"]
    n, k = sim["n"], sim["k"]
    summary = _read_json(os.path.join(out, "summary.json"))
    reps = summary.get("replications")
    if not isinstance(reps, list) or len(reps) != scenario["replications"]:
        raise CheckFailed(f"summary.json lists {len(reps or [])} replications, "
                          f"expected {scenario['replications']}")
    agent_ticks = 0
    for index, rep in enumerate(reps):
        ticks = rep.get("ticks")
        if not isinstance(ticks, int) or not 0 <= ticks <= sim["max_ticks"]:
            raise CheckFailed(f"replication {index}: bad tick count {ticks!r}")
        if rep.get("seed") != sim["seed"] + index:
            raise CheckFailed(f"replication {index}: seed {rep.get('seed')!r}")
        agent_ticks += ticks * n
        _check_trajectory(os.path.join(out, f"trajectory_rep{index:03d}.csv"), n, k, ticks)
        _check_metrics(os.path.join(out, f"metrics_rep{index:03d}.csv"), n, ticks)
    return agent_ticks


def _check_trajectory(path: str, n: int, k: int, ticks: int) -> None:
    rows = _read_csv(path, ["tick", "value", "count"])
    if len(rows) != (ticks + 1) * (k + 1):
        raise CheckFailed(f"{path}: {len(rows)} rows, expected {(ticks + 1) * (k + 1)}")
    for tick in range(ticks + 1):
        block = rows[tick * (k + 1):(tick + 1) * (k + 1)]
        if [(int(r[0]), int(r[1])) for r in block] != [(tick, v) for v in range(k + 1)]:
            raise CheckFailed(f"{path}: tick {tick} rows out of order")
        total = sum(int(r[2]) for r in block)
        if total != n:
            raise CheckFailed(f"{path}: tick {tick} counts sum to {total}, not n={n}")


def _check_metrics(path: str, n: int, ticks: int) -> None:
    rows = _read_csv(path, ["tick", "winning_count", "change_rate",
                            "friend_agreement", "random_agreement"])
    if len(rows) != ticks + 1:
        raise CheckFailed(f"{path}: {len(rows)} rows, expected ticks+1 = {ticks + 1}")
    for tick, row in enumerate(rows):
        if int(row[0]) != tick or not 1 <= int(row[1]) <= n:
            raise CheckFailed(f"{path}: bad tick/winning_count in row {row!r}")
        for rate in row[2:]:
            if not 0.0 <= float(rate) <= 1.0:
                raise CheckFailed(f"{path}: tick {tick} rate {rate} outside [0, 1]")


def _check_sweep(scenario: dict, out: str) -> None:
    path = os.path.join(out, "sweep.csv")
    rows = _read_csv(path, ["n", "k", "v", "f", "friend_prob", "replications",
                            "mean_change_rate", "std_change_rate",
                            "convergence_fraction", "mean_clustering_gap"])
    if len(rows) != len(SWEEP_CELLS):
        raise CheckFailed(f"{path}: {len(rows)} rows, expected one per cell ({len(SWEEP_CELLS)})")
    for (v, f), row in zip(SWEEP_CELLS, rows):
        if (int(row[2]), int(row[3]), int(row[5])) != (v, f, scenario["replications"]):
            raise CheckFailed(f"{path}: row {row!r} is not cell v={v}, f={f}")
        for value in (row[6], row[8]):
            if not 0.0 <= float(value) <= 1.0:
                raise CheckFailed(f"{path}: rate {value} outside [0, 1] in {row!r}")


# ---------------------------------------------------------------------------
# forecast


def _prepare_forecast(seed: int, inputs_dir: str, sources: int = FORECAST_SOURCES,
                      days: int = FORECAST_DAYS) -> Prepared:
    """Sources with fixed biases and noise levels track a seasonal series.

    On day i, (7*i) % 13 sources (capped below the source count) have no
    prediction. The count depends on the day only, so the number of agents
    per day, and with it the work, is the same for every seed; which sources
    are missing, and every value, comes from the seed.
    """
    rng = random.Random(seed)
    names = [f"src{i:02d}" for i in range(sources)]
    bias = {name: rng.randint(-3, 3) for name in names}
    noise = {name: rng.uniform(0.5, 3.0) for name in names}
    phase = rng.uniform(0.0, 6.283)
    first = date(2020, 1, 1)
    actuals: list[tuple[str, int]] = []
    predictions: list[tuple[str, str, int]] = []
    for i in range(days):
        day = (first + timedelta(days=i)).isoformat()
        actual = round(25 + 10 * math.sin(phase + i / 58.0) + rng.gauss(0.0, 2.0))
        actuals.append((day, actual))
        missing = set(rng.sample(names, min((7 * i) % 13, sources - 2)))
        for name in names:
            if name not in missing:
                predictions.append((day, name, round(actual + bias[name] + rng.gauss(0.0, noise[name]))))
    pred_path = os.path.join(inputs_dir, "predictions.csv")
    act_path = os.path.join(inputs_dir, "actuals.csv")
    _write_csv(pred_path, ["day", "source", "prediction"], predictions)
    _write_csv(act_path, ["day", "actual"], actuals)
    argv = ["forecast", pred_path, act_path, "--seed", str(seed), "--out", "out"]
    load = (f"from gossipvote.forecast import load_dataset; "
            f"load_dataset({pred_path!r}, {act_path!r})")
    expected = _forecast_reference(actuals, predictions)
    return Prepared(argv, load,
                    lambda out, stdout: _check_forecast(expected, out, stdout))


def _forecast_reference(actuals, predictions) -> dict:
    """MAEs computed here from the generated data, independently of the program.

    basic-dominant takes each day's most frequent prediction (ties to the
    smallest); centralized-consensus takes the lower median. Every value is an
    integer, so each MAE is an exact integer sum over a count, the same float
    the program must produce.
    """
    actual = dict(actuals)
    by_day: dict[str, list[int]] = {}
    by_source: dict[str, list[int]] = {}
    for day, name, value in predictions:
        by_day.setdefault(day, []).append(value)
        by_source.setdefault(name, []).append(abs(value - actual[day]))
    dominant = consensus = 0
    for day, values in by_day.items():
        counts = {v: values.count(v) for v in values}
        best = max(counts.values())
        dominant += abs(min(v for v, c in counts.items() if c == best) - actual[day])
        consensus += abs(sorted(values)[(len(values) - 1) // 2] - actual[day])
    return {
        "basic-dominant": dominant / len(by_day),
        "centralized-consensus": consensus / len(by_day),
        "per_source": {name: sum(errs) / len(errs) for name, errs in sorted(by_source.items())},
    }


def _check_forecast(expected: dict, out: str, stdout: str) -> None:
    report = _read_json(os.path.join(out, "report.json"))
    variants = report.get("variants", [])
    names = [v.get("variant") for v in variants]
    if names != list(FORECAST_VARIANTS):
        raise CheckFailed(f"report.json variants {names!r}")
    for entry in variants:
        mae = entry.get("system_mae")
        if not isinstance(mae, (int, float)) or not mae >= 0.0:
            raise CheckFailed(f"{entry['variant']}: bad system_mae {mae!r}")
        if entry.get("per_source_mae") != expected["per_source"]:
            raise CheckFailed(f"{entry['variant']}: per-source MAEs differ from the reference")
        if entry["variant"] in expected and mae != expected[entry["variant"]]:
            raise CheckFailed(f"{entry['variant']}: MAE {mae!r}, reference "
                              f"{expected[entry['variant']]!r}")
    with open(os.path.join(out, "report.txt")) as fh:
        if fh.read() != stdout:
            raise CheckFailed("report.txt differs from the table printed on stdout")


# ---------------------------------------------------------------------------
# file helpers


def _read_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"cannot read {path}: {exc}") from None


def _read_csv(path: str, header: list[str]) -> list[list[str]]:
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise CheckFailed(f"cannot read {path}: {exc}") from None
    if not rows or rows[0] != header:
        raise CheckFailed(f"{path}: header {rows[0] if rows else None!r}, expected {header!r}")
    return rows[1:]


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
