from __future__ import annotations

import csv
import io
import json
from pathlib import Path

import pytest

from gossipvote.engine import init, run
from gossipvote import scenario as scenario_module
from gossipvote.model import ConfigError, SimConfig
from gossipvote.scenario import (
    SWEEP_COLUMNS,
    Scenario,
    grid_cells,
    load_scenario,
    metrics_csv,
    parse_grid,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    simulate_scenario,
    sweep_scenario,
    trajectory_csv,
)


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
        save_scenario(scenario, path)
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
        [dict(replications="3"), dict(replications=True), dict(burn_in=True), dict(label=5)],
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

    def test_default_burn_in_is_a_tenth_of_the_horizon(self):
        assert small_scenario().effective_burn_in() == 4
        assert small_scenario(burn_in=9).effective_burn_in() == 9

    def test_replication_configs_step_the_seed(self):
        scenario = small_scenario()
        assert scenario.replication_config(0).seed == 7
        assert scenario.replication_config(3).seed == 10
        base = scenario.sim
        stepped = scenario.replication_config(1)
        assert stepped == SimConfig(**{**base.__dict__, "seed": 8})


class TestCsvRendering:
    def test_trajectory_csv_shape(self):
        traj = run(SimConfig(n=10, k=2, v=2, max_ticks=5, seed=3))
        text = trajectory_csv(traj)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["tick", "value", "count"]
        body = rows[1:]
        assert len(body) == traj.n_ticks * 3 + 3  # (k+1) values per snapshot
        by_tick: dict[int, int] = {}
        for tick, value, count in body:
            assert 0 <= int(value) <= 2
            by_tick[int(tick)] = by_tick.get(int(tick), 0) + int(count)
        assert set(by_tick.values()) == {10}

    def test_metrics_csv_shape(self):
        config = SimConfig(n=10, k=1, v=2, f=2, friend_prob=0.5, max_ticks=5, seed=3)
        state = init(config)
        graph = state.graph
        traj = run(config)
        text = metrics_csv(traj, graph)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == [
            "tick", "winning_count", "change_rate", "friend_agreement", "random_agreement",
        ]
        assert len(rows) == 1 + traj.n_ticks + 1
        for row in rows[1:]:
            assert 1 <= int(row[1]) <= 10
            for cell in row[2:]:
                assert 0.0 <= float(cell) <= 1.0


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


@pytest.mark.parametrize(
    "workers, jobs, cpus, pool_sizes",
    [(8, 5, 3, [3]), (2, 5, 3, [2]), (8, 2, 4, [2]), (4, 1, 4, []), (4, 5, None, [])],
)
def test_worker_count_is_bounded_by_jobs_and_cpus(monkeypatch, workers, jobs, cpus, pool_sizes):
    created: list[int] = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records its size, runs jobs inline."""

        def __init__(self, max_workers: int):
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(scenario_module, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(scenario_module.os, "cpu_count", lambda: cpus)
    assert scenario_module._map_jobs(abs, list(range(-jobs, 0)), workers) == list(
        range(jobs, 0, -1)
    )
    assert created == pool_sizes


class TestParseGrid:
    def test_two_axis_grid(self):
        grid = parse_grid("v=3,20;f=0,20")
        assert grid == {"v": [3, 20], "f": [0, 20]}
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

    def test_zero_friend_cells_force_friend_prob_to_zero(self, tmp_path):
        # The base scenario has friend_prob=0.3; an f=0 cell must not
        # inherit it, or the cell would be rejected instead of swept.
        scenario = small_scenario(replications=1)
        grid = parse_grid("f=0")
        rows, skipped = sweep_scenario(scenario, grid, tmp_path)
        assert skipped == []
        assert rows[0]["friend_prob"] == 0.0
