from __future__ import annotations

import csv
import functools
import gc
import io
import json
import math
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import snapshots, trajectory_from_snapshots, trajectory_metrics

from gossipvote.engine import init, run
from gossipvote.metrics import observe
from gossipvote import output as output_module
from gossipvote import scenario as scenario_module
from gossipvote.model import ConfigError, SimConfig
from gossipvote.scenario import (
    OUTPUT_KINDS,
    SWEEP_COLUMNS,
    Scenario,
    grid_cells,
    load_scenario,
    metrics_csv,
    parse_grid,
    scenario_from_dict,
    scenario_to_dict,
    simulate_scenario,
    sweep_scenario,
    trajectory_csv,
)
from gossipvote.output import json_text, write_atomic


def small_scenario(**overrides) -> Scenario:
    sim = SimConfig(n=12, k=2, v=3, f=2, friend_prob=0.3, max_ticks=40, seed=7)
    defaults = dict(sim=sim, replications=2, label="unit")
    defaults.update(overrides)
    return Scenario(**defaults)


class TestScenarioConfig:
    def test_round_trip_via_dict(self):
        scenario = small_scenario()
        assert scenario_from_dict(scenario_to_dict(scenario)) == scenario

    def test_round_trip_via_file(self, tmp_path):
        scenario = small_scenario(burn_in=5)
        path = tmp_path / "per_test.scenario"
        write_atomic(path, json_text(scenario_to_dict(scenario)))
        assert load_scenario(path) == scenario

    def test_unknown_top_level_key(self):
        payload = scenario_to_dict(small_scenario())
        payload["reps"] = 3
        with pytest.raises(ConfigError, match="reps"):
            scenario_from_dict(payload)

    def test_unknown_sim_key(self):
        payload = scenario_to_dict(small_scenario())
        payload["sim"]["agents"] = 10
        with pytest.raises(ConfigError, match="agents"):
            scenario_from_dict(payload)

    def test_bad_sim_value_type(self):
        payload = scenario_to_dict(small_scenario())
        payload["sim"]["n"] = [1, 2]
        with pytest.raises(ConfigError):
            scenario_from_dict(payload)

    def test_malformed_json_file(self, tmp_path):
        path = tmp_path / "broken.scenario"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_scenario(path)

    def test_zero_replications_rejected(self):
        with pytest.raises(ConfigError, match="replications"):
            small_scenario(replications=0)

    @pytest.mark.parametrize(
        "overrides",
        [dict(replications="3"), dict(replications=True), dict(burn_in=True), dict(label=5),
         dict(sim={"n": 5}), dict(outputs=5), dict(outputs=None),
         dict(outputs=["summary_json"]), dict(outputs="summary_json")],
    )
    def test_rejects_wrong_types_naming_the_field(self, overrides):
        with pytest.raises(ConfigError, match=f"{next(iter(overrides))} must be"):
            small_scenario(**overrides)

    def test_burn_in_must_leave_a_tail(self):
        with pytest.raises(ConfigError, match="burn_in"):
            small_scenario(burn_in=40)  # sim.max_ticks == 40

    def test_unknown_output_kind_rejected(self):
        with pytest.raises(ConfigError, match="output"):
            small_scenario(outputs=("trajectory_csv", "plots"))

    def test_duplicate_output_kind_rejected(self):
        with pytest.raises(ConfigError, match="output"):
            small_scenario(outputs=("summary_json", "summary_json"))

    def test_replace_is_checked_as_construction_is(self):
        scenario = small_scenario(burn_in=30)
        with pytest.raises(ConfigError, match="burn_in"):
            scenario._replace(sim=scenario.sim._replace(max_ticks=20))
        with pytest.raises(ConfigError, match="replications must be int"):
            scenario._replace(replications="3")
        with pytest.raises(ConfigError, match="sim must be SimConfig, got 3"):
            scenario._replace(sim=3)
        assert scenario._replace(label="x") == small_scenario(burn_in=30, label="x")

    def test_default_burn_in_is_a_tenth_of_the_horizon(self):
        assert small_scenario().effective_burn_in() == 4
        assert small_scenario(burn_in=9).effective_burn_in() == 9


class TestCsvRendering:
    def test_trajectory_csv_shape(self):
        (traj,) = run([SimConfig(n=10, k=2, v=2, max_ticks=5, seed=3)])
        text = trajectory_csv(observe(traj))
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["tick", "value", "count"]
        body = rows[1:]
        assert len(body) == len(traj.events) * 3 + 3  # (k+1) values per snapshot
        by_tick: dict[int, int] = {}
        for tick, value, count in body:
            assert 0 <= int(value) <= 2
            by_tick[int(tick)] = by_tick.get(int(tick), 0) + int(count)
        assert set(by_tick.values()) == {10}

    def test_metrics_csv_shape(self):
        config = SimConfig(n=10, k=1, v=2, f=2, friend_prob=0.5, max_ticks=5, seed=3)
        (traj,) = run([config])
        text = metrics_csv(observe(traj))
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == [
            "tick", "winning_count", "change_rate", "friend_agreement", "random_agreement",
        ]
        assert len(rows) == 1 + len(traj.events) + 1
        for row in rows[1:]:
            assert 1 <= int(row[1]) <= 10
            for cell in row[2:]:
                assert 0.0 <= float(cell) <= 1.0


    def test_equal_but_distinct_snapshots_give_the_same_csv_bytes(self):
        """A trajectory rebuilt from one array per tick writes what the run writes."""
        config = SimConfig(n=60, k=1, v=3, f=4, friend_prob=0.4, max_ticks=300, seed=14)
        (traj,) = run([config])
        rebuilt = trajectory_from_snapshots([s.tolist() for s in snapshots(traj)], config,
                                            traj.graph)
        assert rebuilt.events != traj.events  # only the change records survive the trip
        assert [e.changes for e in rebuilt.events] == [e.changes for e in traj.events]
        run_obs, rebuilt_obs = observe(traj), observe(rebuilt)
        assert trajectory_csv(rebuilt_obs) == trajectory_csv(run_obs)
        assert metrics_csv(rebuilt_obs) == metrics_csv(run_obs)

    @pytest.mark.parametrize("k", [1, 255])
    def test_uint8_snapshots_write_the_bytes_of_int64_ones(self, k):
        """The CSVs equal the numpy oracle's, rendered from int64 snapshots; a
        state's own snapshot stays uint8 up to k=255."""
        config = SimConfig(n=30, k=k, v=2, f=3, friend_prob=0.4, max_ticks=25, seed=5)
        (traj,) = run([config])
        final = init(config, values=traj.final).snapshot()
        assert final.dtype == np.uint8
        assert final.tolist() == snapshots(traj)[-1].tolist()
        reference = trajectory_metrics(traj)
        assert {s.dtype for s in snapshots(traj)} == {np.dtype(np.int64)}
        obs = observe(traj)
        assert trajectory_csv(obs) == "tick,value,count\r\n" + "".join(
            f"{tick},{value},{count}\r\n" for tick, tm in enumerate(reference)
            for value, count in enumerate(tm.histogram.tolist()))
        assert metrics_csv(obs) == "tick,winning_count,change_rate,friend_agreement,random_agreement\r\n" + "".join(
            f"{tick},{tm.winning_count},{tm.change_rate!r},{tm.friend_agreement!r},"
            f"{tm.random_agreement!r}\r\n" for tick, tm in enumerate(reference))


class TestWriteAtomic:
    def test_replaces_the_whole_file(self, tmp_path):
        path = tmp_path / "out.csv"
        write_atomic(str(path), "a,b\r\n" * 100)
        write_atomic(str(path), "c\r\n")
        assert path.read_bytes() == b"c\r\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    @pytest.mark.parametrize("existing", [None, "old contents\n"])
    def test_write_failing_midway_leaves_no_partial_target_or_temp(
            self, tmp_path, monkeypatch, existing):
        path = tmp_path / "out.csv"
        if existing is not None:
            path.write_text(existing)
        monkeypatch.setattr(output_module, "open", open_failing_midway("out.csv"),
                            raising=False)
        with pytest.raises(OSError, match="No space"):
            write_atomic(str(path), "tick,value,count\r\n" * 1000)
        assert [p.name for p in tmp_path.iterdir()] == ([] if existing is None else ["out.csv"])
        if existing is not None:
            assert path.read_text() == existing

    def test_failed_rename_removes_the_temp_file(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(output_module.os, "replace", refuse)
        with pytest.raises(PermissionError):
            write_atomic(str(tmp_path / "summary.json"), "{}\n")
        assert list(tmp_path.iterdir()) == []

    def test_simulate_failing_midway_keeps_only_complete_files(self, tmp_path, monkeypatch):
        monkeypatch.setattr(output_module, "open", open_failing_midway("metrics_rep000"),
                            raising=False)
        scenario = small_scenario(replications=1)
        with pytest.raises(OSError, match="No space"):
            simulate_scenario(scenario, str(tmp_path))
        assert [p.name for p in tmp_path.iterdir()] == ["trajectory_rep000.csv"]
        (traj,) = run([scenario.sim])  # replication 0 runs at the scenario's seed
        expected = trajectory_csv(observe(traj))
        assert (tmp_path / "trajectory_rep000.csv").read_bytes() == expected.encode()


def open_failing_midway(name_part: str):
    """open() whose files named with name_part fail a write after half of it is on disk."""
    def fake_open(file, *args, **kwargs):
        fh = open(file, *args, **kwargs)
        if name_part in str(file):
            real_write = fh.write

            def write(text):
                real_write(text[: len(text) // 2])
                fh.flush()
                raise OSError(28, "No space left on device")
            fh.write = write
        return fh
    return fake_open


class TestSimulateScenario:
    def test_writes_all_requested_outputs(self, tmp_path):
        scenario = small_scenario()
        written = simulate_scenario(scenario, tmp_path)
        names = sorted(Path(p).name for p in written)
        assert names == [
            "metrics_rep000.csv",
            "metrics_rep001.csv",
            "summary.json",
            "trajectory_rep000.csv",
            "trajectory_rep001.csv",
        ]
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["label"] == "unit"
        assert len(summary["replications"]) == 2
        assert summary["replications"][0]["seed"] == 7
        assert summary["replications"][1]["seed"] == 8
        for rep in summary["replications"]:
            assert rep["ticks"] <= 40
            assert 0.0 <= rep["steady_change_rate"] <= 1.0

    def test_respects_output_subset(self, tmp_path):
        scenario = small_scenario(outputs=("summary_json",))
        written = simulate_scenario(scenario, tmp_path)
        assert [Path(p).name for p in written] == ["summary.json"]
        assert not list(tmp_path.glob("*.csv"))

    def test_reruns_are_byte_identical(self, tmp_path):
        scenario = small_scenario()
        first = tmp_path / "first"
        second = tmp_path / "second"
        simulate_scenario(scenario, first)
        simulate_scenario(scenario, second)
        for path in sorted(first.iterdir()):
            assert path.read_bytes() == (second / path.name).read_bytes()

    def test_parallel_matches_serial(self, tmp_path):
        scenario = small_scenario(replications=3)
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        simulate_scenario(scenario, serial, workers=1)
        simulate_scenario(scenario, parallel, workers=2)
        for path in sorted(serial.iterdir()):
            assert path.read_bytes() == (parallel / path.name).read_bytes()

    def test_rejects_nonpositive_workers(self, tmp_path):
        with pytest.raises(ConfigError, match="workers"):
            simulate_scenario(small_scenario(), tmp_path, workers=0)

    def test_a_replication_job_leaves_no_reference_cycle(self):
        # garbage that only the cyclic collector frees would make peak memory follow GC timing
        base = SimConfig(n=500, k=1, v=3, f=15, friend_prob=0.4, max_ticks=500, seed=1)
        job = ([base, base._replace(v=20)], 0, 50, ("trajectory_csv", "metrics_csv"))
        gc.collect()
        gc.disable()
        try:
            records = scenario_module._run_replication(job)
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert len(records) == 2


@pytest.mark.parametrize(
    "workers, jobs, cpus, pool_sizes",
    [(8, 5, 3, [2]), (2, 5, 3, [1]), (8, 2, 4, [1]), (4, 1, 4, []), (4, 5, None, [])],
)
def test_worker_count_is_bounded_by_jobs_and_cpus(monkeypatch, workers, jobs, cpus, pool_sizes):
    """Without an affinity call the cap is os.cpu_count(), and 1 when that is unknown."""
    monkeypatch.delattr(scenario_module.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(scenario_module.os, "cpu_count", lambda: cpus)
    assert _pool_sizes(monkeypatch, workers, jobs) == pool_sizes


@pytest.mark.parametrize(
    "workers, jobs, usable, pool_sizes",
    [(2, 5, {0}, []), (2, 5, {1}, []), (8, 5, {0, 3, 5}, [2]), (2, 5, {0, 1, 2, 3}, [1])],
)
def test_worker_count_is_bounded_by_usable_cpus(monkeypatch, workers, jobs, usable, pool_sizes):
    """Pinned to one CPU of a larger host (taskset -c 0), --workers 2 runs inline."""
    monkeypatch.setattr(scenario_module.os, "sched_getaffinity", lambda pid: usable,
                        raising=False)
    monkeypatch.setattr(scenario_module.os, "cpu_count", lambda: 8)
    assert _pool_sizes(monkeypatch, workers, jobs) == pool_sizes


def _pool_sizes(monkeypatch, workers: int, jobs: int) -> list[int]:
    """The helper count of each fan-out _map_jobs makes, with a stub process class."""
    helpers: list[object] = []

    class RecordingProcess:
        """Stands in for multiprocessing.Process: runs its target in this process when started."""

        exitcode = None

        def __init__(self, target, args):
            self.target, self.args = target, args
            helpers.append(self)

        def start(self):
            self.target(*self.args)
            self.exitcode = 0

        def join(self):
            pass

    # _map_jobs imports multiprocessing when it fans out, so patch the class where it lives
    monkeypatch.setattr(multiprocessing, "Process", RecordingProcess)
    assert scenario_module._map_jobs(abs, list(range(-jobs, 0)), workers) == list(
        range(jobs, 0, -1)
    )
    return [len(helpers)] if helpers else []


def _marked_job(marks: Path, fail: int, index: int) -> int:
    """Leaves a marker file when it starts; job `fail` raises, the others take 0.2 s."""
    (marks / str(index)).touch()
    if index == fail:
        raise ValueError(f"job {index} failed")
    time.sleep(0.2)
    return index


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("fail", [0, 9])  # a helper's first job; the main process's first
def test_a_failing_job_stops_the_jobs_not_yet_started(monkeypatch, tmp_path, workers, fail):
    monkeypatch.setattr(scenario_module, "_usable_cpus", lambda: workers)
    job = functools.partial(_marked_job, tmp_path, fail)
    with pytest.raises(ValueError) as caught:
        scenario_module._map_jobs(job, list(range(10)), workers)
    assert caught.type is ValueError and caught.value.args == (f"job {fail} failed",)
    if fail == 0:  # a helper's failure carries the helper's traceback
        assert "in _marked_job" in str(caught.value.__cause__)
    ran = {int(path.name) for path in tmp_path.iterdir()}
    assert fail in ran and len(ran) < 10
    assert multiprocessing.active_children() == []


def _dying_job(marks: Path, main_pid: int, index: int) -> int:
    """Leaves a marker file when it starts; job 0 ends its process at once when a
    helper runs it, the others take 0.2 s."""
    (marks / str(index)).touch()
    if index == 0 and os.getpid() != main_pid:
        os._exit(3)
    time.sleep(0.2)
    return index


def test_a_helper_that_dies_is_reported(monkeypatch, tmp_path):
    monkeypatch.setattr(scenario_module, "_usable_cpus", lambda: 2)
    job = functools.partial(_dying_job, tmp_path, os.getpid())
    with pytest.raises(ChildProcessError, match="exit code 3"):
        scenario_module._map_jobs(job, list(range(10)), 2)
    ran = {int(path.name) for path in tmp_path.iterdir()}
    assert 0 in ran and len(ran) < 10  # the main process stopped taking jobs
    assert multiprocessing.active_children() == []


def test_no_helper_outlives_a_fanned_out_call(monkeypatch):
    monkeypatch.setattr(scenario_module, "_usable_cpus", lambda: 2)
    assert scenario_module._map_jobs(abs, list(range(-6, 0)), 2) == [6, 5, 4, 3, 2, 1]
    assert multiprocessing.active_children() == []


# simulate and a sweep at workers 1 and 2 under the start method argv[1], written
# under argv[2]; prints the start method in use and how many helpers started
START_METHOD_RUN = """
import multiprocessing, sys, time
from pathlib import Path
from gossipvote import scenario as scenario_module
from gossipvote.model import SimConfig
from gossipvote.scenario import Scenario, parse_grid, simulate_scenario, sweep_scenario

multiprocessing.set_start_method(sys.argv[1], force=True)
scenario_module._usable_cpus = lambda: 2  # fan out on a one-CPU host too
take = scenario_module._take

def take_after_a_helper(bounds, from_back=False):
    # this process takes no job before a helper has taken one, so helpers run jobs
    while from_back and bounds[0] == 0:
        time.sleep(0.01)
    return take(bounds, from_back)

scenario_module._take = take_after_a_helper
started = []
real_start = multiprocessing.Process.start

def start(self):
    started.append(self)
    real_start(self)

multiprocessing.Process.start = start
out = Path(sys.argv[2])
sim = SimConfig(n=12, k=2, v=3, f=2, friend_prob=0.3, max_ticks=40, seed=7)
scenario = Scenario(sim=sim, replications=3)
for workers in (1, 2):
    simulate_scenario(scenario, str(out / "simulate" / str(workers)), workers=workers)
    sweep_scenario(scenario, parse_grid("v=2,3;f=1,2"), str(out / "sweep" / str(workers)),
                   workers=workers)
print(multiprocessing.get_start_method(), len(started))
"""


@pytest.mark.parametrize("method", ["forkserver", "spawn"])
def test_fanned_out_batches_write_the_same_bytes_under_other_start_methods(tmp_path, method):
    """Python 3.14 on Linux defaults to forkserver and macOS to spawn: a helper that
    imports the package anew must write what this process writes."""
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"{method} is not available on this platform")
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", START_METHOD_RUN, method, str(tmp_path)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{method} 2\n"  # one helper for simulate, one for the sweep
    for command, files in (("simulate", 7), ("sweep", 1)):
        serial = sorted((tmp_path / command / "1").iterdir())
        assert len(serial) == files
        for file in serial:
            assert file.read_bytes() == (tmp_path / command / "2" / file.name).read_bytes()


class TestParseGrid:
    def test_two_axis_grid(self):
        grid = parse_grid("v=3,20;f=0,20")
        assert grid == {"v": [3, 20], "f": [0, 20]}
        assert parse_grid(" v = 3 ,\t20 ; f=0, 20 ;") == grid  # ASCII spaces are skipped
        cells = grid_cells(grid)
        assert cells == [
            {"v": 3, "f": 0},
            {"v": 3, "f": 20},
            {"v": 20, "f": 0},
            {"v": 20, "f": 20},
        ]

    def test_friend_prob_parses_as_float(self):
        grid = parse_grid("friend_prob=0.0,0.4")
        assert grid == {"friend_prob": [0.0, 0.4]}
        assert all(isinstance(x, float) for x in grid["friend_prob"])

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="tick"):
            parse_grid("ticks=1,2")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_grid("v=1;v=2")

    @pytest.mark.parametrize("text, chunk", [("v=3,3", "'3'"), ("v=3,03", "'03'"),
                                             ("friend_prob=0.4,0.40;f=2", "'0.40'")])
    def test_duplicate_value(self, text, chunk):
        with pytest.raises(ConfigError, match=f"duplicate value {chunk} for grid key"):
            parse_grid(text)

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="value"):
            parse_grid("v=three")

    def test_empty_grid(self):
        with pytest.raises(ConfigError):
            parse_grid("")


class TestSweep:
    def test_rows_and_columns(self, tmp_path):
        scenario = small_scenario(replications=2)
        grid = parse_grid("v=2,3;f=0,2")
        rows, skipped = sweep_scenario(scenario, grid, tmp_path)
        assert skipped == []
        assert len(rows) == 4
        for row in rows:
            assert tuple(row) == SWEEP_COLUMNS
            assert row["replications"] == 2
            assert 0.0 <= row["mean_change_rate"] <= 1.0
        path = tmp_path / "sweep.csv"
        parsed = list(csv.DictReader(io.StringIO(path.read_text())))
        assert len(parsed) == 4
        assert list(parsed[0]) == list(SWEEP_COLUMNS)
        assert [int(r["v"]) for r in parsed] == [2, 2, 3, 3]

    def test_infeasible_cells_are_skipped_not_fatal(self, tmp_path):
        scenario = small_scenario(replications=1)
        grid = parse_grid("f=2,600")  # 600 friends impossible with n=12
        rows, skipped = sweep_scenario(scenario, grid, tmp_path)
        assert len(rows) == 1
        assert len(skipped) == 1
        assert "600" in skipped[0]

    @pytest.mark.parametrize("grid, replications", [
        ("v=2,3,5", 2),  # one draw group, so one job per replication
        ("f=0,1,2;v=2,3", 1),  # three draw groups, more than the workers
    ])
    def test_parallel_matches_serial(self, tmp_path, grid, replications):
        scenario = small_scenario(replications=replications)
        for workers in (1, 2):
            sweep_scenario(scenario, parse_grid(grid), tmp_path / str(workers), workers=workers)
        assert (tmp_path / "1" / "sweep.csv").read_bytes() == (
            tmp_path / "2" / "sweep.csv").read_bytes()

    def test_a_cell_reads_the_same_alone_and_in_a_draw_group(self, tmp_path):
        scenario = small_scenario(replications=2)
        grouped, _ = sweep_scenario(scenario, parse_grid("v=2,3,5;f=0,2"), tmp_path / "group")
        for row in grouped:
            grid = parse_grid(f"v={row['v']};f={row['f']}")
            alone, _ = sweep_scenario(scenario, grid, tmp_path / f"{row['v']}-{row['f']}")
            assert alone == [row]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_one_cell_sweep_reads_the_simulated_replications(self, tmp_path, workers):
        scenario = small_scenario(replications=4)  # f=2, so no f=0 override applies
        simulate_scenario(scenario, tmp_path / "simulate", workers=workers)
        summary = json.loads((tmp_path / "simulate" / "summary.json").read_text())
        reps = summary["replications"]
        (row,), skipped = sweep_scenario(scenario, parse_grid(f"v={scenario.sim.v}"),
                                         tmp_path / "sweep", workers=workers)
        assert skipped == []
        rates = [rep["steady_change_rate"] for rep in reps]
        assert len(set(rates)) > 1  # a spread for the std to read
        mean = scenario_module._mean(rates)
        assert row["mean_change_rate"] == mean
        assert row["std_change_rate"] == math.sqrt(
            scenario_module._mean([(rate - mean) * (rate - mean) for rate in rates]))
        assert row["convergence_fraction"] == (
            sum(rep["convergence_tick"] is not None for rep in reps) / len(reps))
        assert 0 < row["convergence_fraction"] < 1  # some replications converge, not all
        assert row["replications"] == len(reps) == 4

    def test_zero_friend_cells_force_friend_prob_to_zero(self, tmp_path):
        # The base scenario has friend_prob=0.3; an f=0 cell must not
        # inherit it, or the cell would be rejected instead of swept.
        scenario = small_scenario(replications=1)
        grid = parse_grid("f=0")
        rows, skipped = sweep_scenario(scenario, grid, tmp_path)
        assert skipped == []
        assert rows[0]["friend_prob"] == 0.0


# JSON values as json.loads can return them (NaN and infinities included)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=10,
)
SIM_FIELDS = list(SimConfig._fields)
SIM_DICTS = st.dictionaries(st.sampled_from(SIM_FIELDS) | st.text(max_size=6), JSON_VALUES,
                            max_size=len(SIM_FIELDS))
SCENARIO_DICTS = st.fixed_dictionaries({}, optional={
    "label": JSON_VALUES,
    "replications": JSON_VALUES,
    "outputs": st.lists(st.sampled_from(OUTPUT_KINDS), max_size=4) | JSON_VALUES,
    "burn_in": JSON_VALUES,
    "sim": SIM_DICTS | JSON_VALUES,
}) | st.dictionaries(st.text(max_size=8), JSON_VALUES, max_size=4) | JSON_VALUES


@given(raw=SCENARIO_DICTS)
@settings(max_examples=400, deadline=None)
def test_scenario_from_dict_returns_a_scenario_or_raises_config_error(raw):
    try:
        scenario = scenario_from_dict(raw)
    except ConfigError:
        return
    assert isinstance(scenario, Scenario)
    assert not any(isinstance(getattr(scenario.sim, name), float) and math.isnan(
        getattr(scenario.sim, name)) for name in SIM_FIELDS)
