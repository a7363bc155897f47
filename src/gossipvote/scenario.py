"""Scenario files and batch orchestration: replications, sweeps, CSV/JSON output.

A scenario is a JSON document (conventionally *.scenario) holding one
SimConfig plus batch settings. Replication i runs with seed base_seed + i, so
a scenario pins an entire batch, and output files are deterministic byte for
byte given the file.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from typing import Callable, Iterable, NamedTuple, Sequence, TypeVar

from .engine import draw_groups, run
from .metrics import Observation, convergence_tick, observe, pairwise_sum, steady_change_rate
from .model import _ASCII_SPACE, ConfigError, SimConfig, _ascii_number, check_field_types
from .output import json_text, write_atomic

OUTPUT_KINDS = ("trajectory_csv", "metrics_csv", "summary_json")
SWEEP_KEYS = ("n", "k", "v", "f", "friend_prob")


class _ScenarioFields(NamedTuple):  # Scenario's fields and defaults; Scenario adds the checks
    sim: SimConfig
    replications: int = 1
    outputs: tuple[str, ...] = OUTPUT_KINDS
    label: str = ""
    burn_in: int | None = None  # None -> a tenth of the horizon


class Scenario(_ScenarioFields):
    """A SimConfig plus batch settings, checked on construction and on every _replace."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> Scenario:
        self = super().__new__(cls, *args, **kwargs)
        check_field_types(self, _ScenarioFields)
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
        return self

    @classmethod
    def _make(cls, fields: Iterable) -> Scenario:
        """Build through __new__, so that _replace, which builds here, validates too."""
        return cls(*fields)

    def effective_burn_in(self) -> int:
        return self.sim.max_ticks // 10 if self.burn_in is None else self.burn_in


def scenario_to_dict(scenario: Scenario) -> dict:
    return {**scenario._asdict(), "outputs": list(scenario.outputs), "sim": scenario.sim._asdict()}


def scenario_from_dict(raw: dict) -> Scenario:
    if not isinstance(raw, dict):
        raise ConfigError(f"scenario must be a JSON object, got {type(raw).__name__}")
    unknown = sorted(set(raw) - set(Scenario._fields))
    if unknown:
        raise ConfigError(f"unknown scenario keys: {', '.join(unknown)}")
    sim_raw = raw.get("sim")
    if not isinstance(sim_raw, dict):
        raise ConfigError("scenario needs a 'sim' object")
    bad = sorted(set(sim_raw) - set(SimConfig._fields))
    if bad:
        raise ConfigError(f"unknown sim keys: {', '.join(bad)}")
    fields = {**raw, "sim": SimConfig(**sim_raw)}
    if "outputs" in raw:
        outputs = raw["outputs"]
        if not isinstance(outputs, list) or not all(isinstance(o, str) for o in outputs):
            raise ConfigError("outputs must be a list of strings")
        fields["outputs"] = tuple(outputs)
    return Scenario(**fields)


def load_scenario(path: str) -> Scenario:
    def distinct_keys(pairs: list[tuple]) -> dict:  # json.load keeps a repeated key's last value
        obj: dict = {}
        for key, value in pairs:
            if key in obj:
                raise ConfigError(f"{path}: duplicate key {key!r}")
            obj[key] = value
        return obj

    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh, object_pairs_hook=distinct_keys)
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
            raise ConfigError(f"{path} is not valid JSON: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path} is not {exc.encoding} text: {exc.reason}") from None
    return scenario_from_dict(raw)


# ---------------------------------------------------------------------------
# output writers


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
        for value, count in enumerate(hist)
    ))


def metrics_csv(obs: Observation) -> str:
    """Per-tick observer metrics; tick 0 has change_rate 0 by construction."""
    return _csv_text(
        ("tick", "winning_count", "change_rate", "friend_agreement", "random_agreement"),
        zip(range(len(obs.winning_count)), obs.winning_count,
            (moved / obs.n for moved in obs.changed), obs.friend_agreement, obs.random_agreement),
    )


# ---------------------------------------------------------------------------
# batch running


class RunRecord(NamedTuple):
    """One run of a batch: what simulate writes of it and what a sweep row averages."""

    summary: dict  # its summary.json entry
    gap: float  # its mean clustering gap after burn-in
    csvs: dict[str, str]  # {output kind: text} of the CSV kinds its job asked for


def _run_replication(args: tuple[list[SimConfig], int, int, tuple[str, ...]]) -> list[RunRecord]:
    """Replication `index` of one draw group, stepped together: each config's run record.

    Replication i of a config runs at its seed + i.
    """
    configs, index, burn_in, csv_kinds = args
    runs = run([config._replace(seed=config.seed + index) for config in configs])
    records = []
    while runs:
        traj = runs.pop(0)  # observed and released one at a time
        obs = observe(traj)
        summary = {
            "seed": traj.config.seed,
            "steady_change_rate": steady_change_rate(obs, burn_in),
            "convergence_tick": convergence_tick(obs),
            "final_winning_count": obs.winning_count[-1],
            "ticks": len(traj.events),
        }
        csvs = {kind: write(obs) for kind, write in (("trajectory_csv", trajectory_csv),
                                                      ("metrics_csv", metrics_csv))
                if kind in csv_kinds}
        records.append(RunRecord(summary, _mean_gap(obs, burn_in), csvs))
    return records


def _mean_gap(obs: Observation, burn_in: int) -> float:
    """Mean clustering gap over recorded ticks after burn_in.

    A run absorbed at or before burn_in contributes its final tick's gap.
    """
    last = len(obs.winning_count) - 1
    return _mean(obs.gaps(burn_in + 1 if last > burn_in else last, last + 1))


def _mean(values: list[float]) -> float:
    """np.mean of a non-empty float list, to the bit."""
    return pairwise_sum(values) / len(values)


def _run_batch(scenario: Scenario, configs: list[SimConfig], workers: int,
               csv_kinds: tuple[str, ...] = ()) -> list[list[RunRecord]]:
    """Every replication of every config: records[config][replication].

    One job per draw group and replication; the configs of a group share every draw.
    """
    burn_in, reps = scenario.effective_burn_in(), scenario.replications
    keys = [(group, index) for group in draw_groups(configs) for index in range(reps)]
    jobs = [([configs[cell] for cell in group], index, burn_in, csv_kinds)
            for group, index in keys]
    records: list[list] = [[None] * reps for _ in configs]
    for (group, index), group_records in zip(keys, _map_jobs(_run_replication, jobs, workers)):
        for cell, record in zip(group, group_records):
            records[cell][index] = record
    return records


_J = TypeVar("_J")
_R = TypeVar("_R")


def _map_jobs(fn: Callable[[_J], _R], jobs: Sequence[_J], workers: int) -> list[_R]:
    """fn over jobs in `workers` processes, this one included; results in job order.

    workers - 1 helper processes take jobs from the front and this process
    takes them from the back, until none is left: the bounds of the jobs left
    are a token, the one message in a pipe, passed on under a lock. A job that
    fails, or a helper that dies, stops every process from taking another; once
    the helpers have ended, the job's exception (ChildProcessError for a dead
    helper) is raised. No helper outlives the call.
    """
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    workers = min(workers, len(jobs), _usable_cpus())
    if workers <= 1:
        return [fn(job) for job in jobs]
    import multiprocessing  # ~25 ms of import a lone worker skips

    # the default start method (fork on Linux before Python 3.14) lets a helper
    # inherit this process's imports; this process starts no thread of its own.
    # Under forkserver or spawn a helper imports the package anew: jobs carry
    # everything they read, so the outputs are the same bytes.
    reader, writer = multiprocessing.Pipe(duplex=False)
    writer.send((0, len(jobs)))  # the token: jobs[front:back] are not taken yet
    token = (multiprocessing.Lock(), reader, writer)
    helpers = []
    results: dict[int, _R] = {}
    try:
        for _ in range(workers - 1):
            receiver, sender = multiprocessing.Pipe(duplex=False)
            helper = multiprocessing.Process(target=_help, args=(fn, jobs, token, sender))
            helper.start()
            sender.close()
            helpers.append((helper, receiver))
        # a helper that died (killed, or os._exit) sends nothing, so look before each job
        while not any(helper.exitcode for helper, _ in helpers):
            index = _take(token, from_back=True)
            if index is None:
                break
            results[index] = fn(jobs[index])
    finally:
        _stop(token)  # no process starts another job
        outcomes = [_outcome(helper, receiver) for helper, receiver in helpers]
        reader.close()
        writer.close()
    for outcome in outcomes:
        if isinstance(outcome, BaseException):
            raise outcome
        results.update(outcome)
    return [results[index] for index in range(len(jobs))]


def _take(token, from_back: bool = False) -> int | None:
    """Take the job at one end of the token's jobs[front:back]; None when none is left."""
    lock, reader, writer = token
    with lock:
        front, back = reader.recv()
        if front == back:
            index = None
        elif from_back:
            index = back = back - 1
        else:
            index, front = front, front + 1
        writer.send((front, back))
    return index


def _stop(token) -> None:
    """Leave no job to take: the token comes back as (back, back)."""
    lock, reader, writer = token
    with lock:
        _, back = reader.recv()
        writer.send((back, back))


def _help(fn, jobs, token, sender) -> None:
    """A helper process: takes jobs from the front, then sends its one outcome, a
    {job index: result} dict, or the failing job's exception and traceback."""
    try:
        done = {}
        while (index := _take(token)) is not None:
            done[index] = fn(jobs[index])
        outcome = done
    except BaseException as exc:  # a failure stops every process
        _stop(token)
        import traceback

        outcome = (exc, traceback.format_exc())
    sender.send(outcome)
    sender.close()


def _outcome(helper, receiver) -> dict | BaseException:
    """A helper's {job index: result} dict, or the exception to raise for it, once it has ended."""
    try:
        outcome = receiver.recv()
    except EOFError:  # it died without sending one
        outcome = None
    helper.join()
    receiver.close()
    if isinstance(outcome, tuple):
        exc, trace = outcome
        exc.__cause__ = RuntimeError(f"raised in a helper process:\n{trace}")
        return exc
    # a death after sending its results still stopped this process, so jobs may be left over
    if outcome is None or helper.exitcode:
        return ChildProcessError(f"a helper process ended with exit code {helper.exitcode}")
    return outcome


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS reports one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def simulate_scenario(scenario: Scenario, out_dir: str, workers: int = 1) -> list[str]:
    """Run every replication and write the requested outputs; returns paths written."""
    os.makedirs(out_dir, exist_ok=True)
    (records,) = _run_batch(scenario, [scenario.sim], workers, scenario.outputs)
    written: list[str] = []
    for index, record in enumerate(records):
        for kind, text in record.csvs.items():  # trajectory before metrics, as the job made them
            path = os.path.join(out_dir, f"{kind.removesuffix('_csv')}_rep{index:03d}.csv")
            write_atomic(path, text)
            written.append(path)
    if "summary_json" in scenario.outputs:
        payload = {
            "label": scenario.label,
            "scenario": scenario_to_dict(scenario),
            "replications": [record.summary for record in records],
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
        if not part.strip(_ASCII_SPACE):
            continue
        key, sep, values_text = part.partition("=")
        key = key.strip(_ASCII_SPACE)
        if not sep or not values_text.strip(_ASCII_SPACE):
            raise ConfigError(f"grid entry {part!r} must look like key=v1,v2,...")
        if key not in SWEEP_KEYS:
            raise ConfigError(
                f"cannot sweep {key!r}; sweepable: {', '.join(SWEEP_KEYS)}"
            )
        if key in grid:
            raise ConfigError(f"duplicate grid key {key!r}")
        values = []
        for chunk in values_text.split(","):
            try:
                value = _ascii_number(chunk, float if key == "friend_prob" else int)
            except ValueError:
                raise ConfigError(f"bad value {chunk!r} for grid key {key!r}") from None
            if value in values:
                raise ConfigError(f"duplicate value {chunk!r} for grid key {key!r}")
            values.append(value)
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


def sweep_scenario(
    scenario: Scenario, grid: dict[str, list], out_dir: str, workers: int = 1
) -> tuple[list[dict], list[str]]:
    """Run the scenario once per grid cell; returns (rows, skipped diagnostics).

    Cells whose parameters violate config constraints (e.g. f > n-1) are
    reported and skipped rather than aborting the sweep; a grid with no valid
    cell is a ConfigError naming every cell's reason, and writes nothing.
    """
    cells = grid_cells(grid)
    configs: list[SimConfig] = []
    skipped: list[str] = []
    for cell in cells:
        overrides = dict(cell)
        # A cell pinning f=0 leaves no friends to favour; unless the grid
        # also sweeps friend_prob, drop the base value rather than reject.
        if overrides.get("f") == 0 and "friend_prob" not in overrides:
            overrides["friend_prob"] = 0.0
        try:
            configs.append(scenario.sim._replace(**overrides))
        except ConfigError as exc:
            skipped.append(f"skipping cell {cell!r}: {exc}")
    if not configs:
        raise ConfigError("no grid cell is valid: " + "; ".join(
            line.removeprefix("skipping ") for line in skipped))
    reps = scenario.replications
    rows: list[dict] = []
    for config, records in zip(configs, _run_batch(scenario, configs, workers)):
        rates = [record.summary["steady_change_rate"] for record in records]
        mean_rate = _mean(rates)
        rows.append(
            {
                "n": config.n,
                "k": config.k,
                "v": config.v,
                "f": config.f,
                "friend_prob": config.friend_prob,
                "replications": reps,
                "mean_change_rate": mean_rate,
                # population std, as np.std computes it
                "std_change_rate": math.sqrt(_mean([(r - mean_rate) * (r - mean_rate)
                                                    for r in rates])),
                "convergence_fraction": sum(record.summary["convergence_tick"] is not None
                                            for record in records) / reps,
                "mean_clustering_gap": _mean([record.gap for record in records]),
            }
        )
    os.makedirs(out_dir, exist_ok=True)
    write_atomic(os.path.join(out_dir, "sweep.csv"), _csv_text(SWEEP_COLUMNS, (
        [row[col] if col in ("n", "k", "v", "f", "replications") else repr(float(row[col]))
         for col in SWEEP_COLUMNS]
        for row in rows
    )))
    return rows, skipped
