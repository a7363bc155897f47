"""Scenario files and batch orchestration: replications, sweeps, CSV/JSON output.

A scenario is a JSON document (conventionally *.scenario) holding one
SimConfig plus batch settings. Replication i runs with seed base_seed + i, so
a scenario pins an entire batch, and output files are deterministic byte for
byte given the file.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

import numpy as np

from .engine import Trajectory, init, run_state
from .metrics import clustering_gap, convergence_tick, steady_change_rate, trajectory_metrics
from .model import ConfigError, FriendGraph, SimConfig, check_field_types

OUTPUT_KINDS = ("trajectory_csv", "metrics_csv", "summary_json")
SWEEP_KEYS = ("n", "k", "v", "f", "friend_prob")

_SIM_FIELDS = {f.name for f in dataclasses.fields(SimConfig)}


@dataclass(frozen=True)
class Scenario:
    sim: SimConfig
    replications: int = 1
    outputs: tuple[str, ...] = OUTPUT_KINDS
    label: str = ""
    burn_in: int | None = None  # None -> a tenth of the horizon

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.replications < 1:
            raise ConfigError(f"replications must be >= 1, got {self.replications}")
        unknown = [o for o in self.outputs if o not in OUTPUT_KINDS]
        if unknown:
            raise ConfigError(
                f"unknown outputs {unknown!r}; known: {', '.join(OUTPUT_KINDS)}"
            )
        if len(set(self.outputs)) != len(self.outputs):
            raise ConfigError(f"duplicate outputs in {self.outputs!r}")
        if self.burn_in is not None and not 0 <= self.burn_in < self.sim.max_ticks:
            raise ConfigError(
                f"burn_in must satisfy 0 <= burn_in < max_ticks={self.sim.max_ticks}, "
                f"got {self.burn_in}"
            )

    def effective_burn_in(self) -> int:
        return self.sim.max_ticks // 10 if self.burn_in is None else self.burn_in

    def replication_config(self, index: int) -> SimConfig:
        return dataclasses.replace(self.sim, seed=self.sim.seed + index)


def scenario_to_dict(scenario: Scenario) -> dict:
    return {
        "label": scenario.label,
        "replications": scenario.replications,
        "outputs": list(scenario.outputs),
        "burn_in": scenario.burn_in,
        "sim": dataclasses.asdict(scenario.sim),
    }


def scenario_from_dict(raw: dict) -> Scenario:
    if not isinstance(raw, dict):
        raise ConfigError(f"scenario must be a JSON object, got {type(raw).__name__}")
    known = {"label", "replications", "outputs", "burn_in", "sim"}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError(f"unknown scenario keys: {', '.join(unknown)}")
    sim_raw = raw.get("sim")
    if not isinstance(sim_raw, dict):
        raise ConfigError("scenario needs a 'sim' object")
    bad = sorted(set(sim_raw) - _SIM_FIELDS)
    if bad:
        raise ConfigError(f"unknown sim keys: {', '.join(bad)}")
    sim = SimConfig(**sim_raw)
    outputs = raw.get("outputs", list(OUTPUT_KINDS))
    if not isinstance(outputs, list) or not all(isinstance(o, str) for o in outputs):
        raise ConfigError("outputs must be a list of strings")
    return Scenario(
        sim=sim,
        replications=raw.get("replications", 1),
        outputs=tuple(outputs),
        label=raw.get("label", ""),
        burn_in=raw.get("burn_in"),
    )


def load_scenario(path: str) -> Scenario:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path} is not valid JSON: {exc}") from None
    return scenario_from_dict(raw)


def save_scenario(scenario: Scenario, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(scenario_to_dict(scenario), fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# output writers


def trajectory_csv(traj: Trajectory) -> str:
    """Long-form per-tick value histogram: tick,value,count."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["tick", "value", "count"])
    k = traj.config.k
    for tick, snap in enumerate(traj.snapshots):
        hist = np.bincount(snap, minlength=k + 1)
        for value in range(k + 1):
            writer.writerow([tick, value, int(hist[value])])
    return buf.getvalue()


def metrics_csv(traj: Trajectory, graph: FriendGraph) -> str:
    """Per-tick observer metrics; tick 0 has change_rate 0 by construction."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["tick", "winning_count", "change_rate", "friend_agreement", "random_agreement"]
    )
    for tick, tm in enumerate(trajectory_metrics(traj, graph)):
        writer.writerow([tick, tm.winning_count, repr(tm.change_rate),
                         repr(tm.friend_agreement), repr(tm.random_agreement)])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# batch running


@dataclass(frozen=True)
class ReplicationOutput:
    index: int
    summary: dict
    trajectory_csv: str | None
    metrics_csv: str | None


def _run_replication(args: tuple[Scenario, int]) -> ReplicationOutput:
    scenario, index = args
    config = scenario.replication_config(index)
    state = init(config)
    traj = run_state(state)
    summary = {
        "seed": config.seed,
        "steady_change_rate": steady_change_rate(traj, scenario.effective_burn_in()),
        "convergence_tick": convergence_tick(traj),
        "final_winning_count": int(np.bincount(traj.snapshots[-1]).max()),
        "ticks": traj.n_ticks,
    }
    return ReplicationOutput(
        index=index,
        summary=summary,
        trajectory_csv=trajectory_csv(traj) if "trajectory_csv" in scenario.outputs else None,
        metrics_csv=metrics_csv(traj, state.graph) if "metrics_csv" in scenario.outputs else None,
    )


_J = TypeVar("_J")
_R = TypeVar("_R")


def _map_jobs(fn: Callable[[_J], _R], jobs: Sequence[_J], workers: int) -> list[_R]:
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    workers = min(workers, len(jobs), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))  # map preserves job order


def simulate_scenario(scenario: Scenario, out_dir: str, workers: int = 1) -> list[str]:
    """Run every replication and write the requested outputs; returns paths written."""
    os.makedirs(out_dir, exist_ok=True)
    jobs = [(scenario, index) for index in range(scenario.replications)]
    results = _map_jobs(_run_replication, jobs, workers)
    written: list[str] = []
    for result in results:
        if result.trajectory_csv is not None:
            path = os.path.join(out_dir, f"trajectory_rep{result.index:03d}.csv")
            _write_text(path, result.trajectory_csv)
            written.append(path)
        if result.metrics_csv is not None:
            path = os.path.join(out_dir, f"metrics_rep{result.index:03d}.csv")
            _write_text(path, result.metrics_csv)
            written.append(path)
    if "summary_json" in scenario.outputs:
        payload = {
            "label": scenario.label,
            "scenario": scenario_to_dict(scenario),
            "replications": [result.summary for result in results],
        }
        path = os.path.join(out_dir, "summary.json")
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        written.append(path)
    return written


def _write_text(path: str, text: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# parameter sweeps


def parse_grid(text: str) -> dict[str, list]:
    """Parse "v=3,20;f=0,20" into an ordered {param: values} mapping.

    Sweepable params: n, k, v, f (ints) and friend_prob (float).
    """
    grid: dict[str, list] = {}
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        key, sep, values_text = part.partition("=")
        key = key.strip()
        if not sep or not values_text.strip():
            raise ConfigError(f"grid entry {part!r} must look like key=v1,v2,...")
        if key not in SWEEP_KEYS:
            raise ConfigError(
                f"cannot sweep {key!r}; sweepable: {', '.join(SWEEP_KEYS)}"
            )
        if key in grid:
            raise ConfigError(f"duplicate grid key {key!r}")
        values = []
        for chunk in values_text.split(","):
            chunk = chunk.strip()
            try:
                values.append(float(chunk) if key == "friend_prob" else int(chunk))
            except ValueError:
                raise ConfigError(f"bad value {chunk!r} for grid key {key!r}") from None
        grid[key] = values
    if not grid:
        raise ConfigError("empty grid")
    return grid


def grid_cells(grid: dict[str, list]) -> list[dict]:
    """Cartesian product of the grid, first key varying slowest."""
    cells: list[dict] = [{}]
    for key, values in grid.items():
        cells = [{**cell, key: value} for cell in cells for value in values]
    return cells


SWEEP_COLUMNS = (
    "n",
    "k",
    "v",
    "f",
    "friend_prob",
    "replications",
    "mean_change_rate",
    "std_change_rate",
    "convergence_fraction",
    "mean_clustering_gap",
)


def _sweep_job(args: tuple[SimConfig, int]) -> tuple[float, bool, float]:
    config, burn_in = args
    state = init(config)
    traj = run_state(state)
    return (
        steady_change_rate(traj, burn_in),
        convergence_tick(traj) is not None,
        _mean_gap(traj, state.graph, burn_in),
    )


def _mean_gap(traj: Trajectory, graph: FriendGraph, burn_in: int) -> float:
    """Mean clustering gap over recorded ticks after burn_in.

    A run absorbed at or before burn_in contributes its final tick's gap.
    """
    last = len(traj.snapshots) - 1
    ticks = range(burn_in + 1, last + 1) if last > burn_in else [last]
    gaps = [clustering_gap(traj, graph, t) for t in ticks]
    return float(np.mean(gaps))


def sweep_scenario(
    scenario: Scenario, grid: dict[str, list], out_dir: str, workers: int = 1
) -> tuple[list[dict], list[str]]:
    """Run the scenario once per grid cell; returns (rows, skipped diagnostics).

    Cells whose parameters violate config constraints (e.g. f > n-1) are
    reported and skipped rather than aborting the sweep.
    """
    cells = grid_cells(grid)
    configs: list[SimConfig] = []
    kept_cells: list[dict] = []
    skipped: list[str] = []
    for cell in cells:
        overrides = dict(cell)
        # A cell pinning f=0 leaves no friends to favour; unless the grid
        # also sweeps friend_prob, drop the base value rather than reject.
        if overrides.get("f") == 0 and "friend_prob" not in overrides:
            overrides["friend_prob"] = 0.0
        try:
            configs.append(dataclasses.replace(scenario.sim, **overrides))
            kept_cells.append(cell)
        except ConfigError as exc:
            skipped.append(f"skipping cell {cell!r}: {exc}")
    burn_in = scenario.effective_burn_in()
    jobs = [
        (dataclasses.replace(config, seed=config.seed + index), burn_in)
        for config in configs
        for index in range(scenario.replications)
    ]
    results = _map_jobs(_sweep_job, jobs, workers)
    rows: list[dict] = []
    reps = scenario.replications
    for cell_index, config in enumerate(configs):
        chunk = results[cell_index * reps : (cell_index + 1) * reps]
        rates = np.array([r[0] for r in chunk])
        gaps = np.array([r[2] for r in chunk])
        rows.append(
            {
                "n": config.n,
                "k": config.k,
                "v": config.v,
                "f": config.f,
                "friend_prob": config.friend_prob,
                "replications": reps,
                "mean_change_rate": float(rates.mean()),
                "std_change_rate": float(rates.std()),  # population std
                "convergence_fraction": sum(r[1] for r in chunk) / reps,
                "mean_clustering_gap": float(gaps.mean()),
            }
        )
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "sweep.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_COLUMNS)
        for row in rows:
            writer.writerow(
                [
                    row[col] if col in ("n", "k", "v", "f", "replications")
                    else repr(float(row[col]))
                    for col in SWEEP_COLUMNS
                ]
            )
    return rows, skipped
