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
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

from .engine import init, run_state
from .metrics import Observation, convergence_tick, observe, steady_change_rate
from .model import ConfigError, SimConfig, check_field_types

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
    write_atomic(path, json_text(scenario_to_dict(scenario)))


# ---------------------------------------------------------------------------
# output writers


def write_atomic(path: str, text: str) -> None:
    """Write text to path through a temporary file in the same directory.

    The temporary file replaces path only once it is complete, so a write
    that fails leaves neither a partial path nor the temporary file.
    """
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
    fh = open(tmp, "x", newline="")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def json_text(payload: object) -> str:
    """The JSON layout of every output file: indented, sorted keys, final newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def trajectory_csv(obs: Observation) -> str:
    """Long-form per-tick value histogram: tick,value,count."""
    return _csv_text(("tick", "value", "count"), (
        (tick, value, count)
        for tick, hist in enumerate(obs.histograms)
        for value, count in enumerate(hist.tolist())
    ))


def metrics_csv(obs: Observation) -> str:
    """Per-tick observer metrics; tick 0 has change_rate 0 by construction."""
    return _csv_text(
        ("tick", "winning_count", "change_rate", "friend_agreement", "random_agreement"),
        zip(range(len(obs.winning_count)), obs.winning_count, obs.change_rate,
            obs.friend_agreement, obs.random_agreement),
    )


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
    obs = observe(traj, state.graph)
    summary = {
        "seed": config.seed,
        "steady_change_rate": steady_change_rate(traj, scenario.effective_burn_in()),
        "convergence_tick": convergence_tick(obs),
        "final_winning_count": obs.winning_count[-1],
        "ticks": traj.n_ticks,
    }
    return ReplicationOutput(
        index=index,
        summary=summary,
        trajectory_csv=trajectory_csv(obs) if "trajectory_csv" in scenario.outputs else None,
        metrics_csv=metrics_csv(obs) if "metrics_csv" in scenario.outputs else None,
    )


_J = TypeVar("_J")
_R = TypeVar("_R")


def _map_jobs(fn: Callable[[_J], _R], jobs: Sequence[_J], workers: int) -> list[_R]:
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    workers = min(workers, len(jobs), _usable_cpus())
    if workers <= 1:
        return [fn(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))  # map preserves job order


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS reports one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def simulate_scenario(scenario: Scenario, out_dir: str, workers: int = 1) -> list[str]:
    """Run every replication and write the requested outputs; returns paths written."""
    os.makedirs(out_dir, exist_ok=True)
    jobs = [(scenario, index) for index in range(scenario.replications)]
    results = _map_jobs(_run_replication, jobs, workers)
    written: list[str] = []
    for result in results:
        if result.trajectory_csv is not None:
            path = os.path.join(out_dir, f"trajectory_rep{result.index:03d}.csv")
            write_atomic(path, result.trajectory_csv)
            written.append(path)
        if result.metrics_csv is not None:
            path = os.path.join(out_dir, f"metrics_rep{result.index:03d}.csv")
            write_atomic(path, result.metrics_csv)
            written.append(path)
    if "summary_json" in scenario.outputs:
        payload = {
            "label": scenario.label,
            "scenario": scenario_to_dict(scenario),
            "replications": [result.summary for result in results],
        }
        path = os.path.join(out_dir, "summary.json")
        write_atomic(path, json_text(payload))
        written.append(path)
    return written


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
    obs = observe(traj, state.graph)
    return (
        steady_change_rate(traj, burn_in),
        convergence_tick(obs) is not None,
        _mean_gap(obs, burn_in),
    )


def _mean_gap(obs: Observation, burn_in: int) -> float:
    """Mean clustering gap over recorded ticks after burn_in.

    A run absorbed at or before burn_in contributes its final tick's gap.
    """
    last = len(obs.winning_count) - 1
    return float(np.mean(obs.gaps(burn_in + 1 if last > burn_in else last, last + 1)))


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
    write_atomic(os.path.join(out_dir, "sweep.csv"), _csv_text(SWEEP_COLUMNS, (
        [row[col] if col in ("n", "k", "v", "f", "replications") else repr(float(row[col]))
         for col in SWEEP_COLUMNS]
        for row in rows
    )))
    return rows, skipped
