from __future__ import annotations

import csv
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from gossipvote.cli import EXIT_INVALID, EXIT_IO, EXIT_OK, main
from gossipvote.model import SimConfig
from gossipvote.scenario import Scenario, load_scenario, save_scenario

REPO_ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = REPO_ROOT / "data"
SCENARIO_DIR = REPO_ROOT / "scenarios"


def small_scenario_file(tmp_path, **sim_overrides) -> Path:
    sim_kwargs = dict(n=10, k=1, v=2, f=2, friend_prob=0.25, max_ticks=20, seed=5)
    sim_kwargs.update(sim_overrides)
    scenario = Scenario(sim=SimConfig(**sim_kwargs), replications=2, label="cli")
    path = tmp_path / "small.scenario"
    save_scenario(scenario, path)
    return path


class TestSimulateCommand:
    def test_end_to_end(self, tmp_path, capsys):
        scenario_path = small_scenario_file(tmp_path)
        out_dir = tmp_path / "out"
        code = main(["simulate", "--scenario", str(scenario_path), "--out", str(out_dir)])
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == [
            "metrics_rep000.csv",
            "metrics_rep001.csv",
            "summary.json",
            "trajectory_rep000.csv",
            "trajectory_rep001.csv",
        ]
        for name in names:
            assert name in stdout
        header = (out_dir / "trajectory_rep000.csv").read_text().splitlines()[0]
        assert header == "tick,value,count"
        header = (out_dir / "metrics_rep000.csv").read_text().splitlines()[0]
        assert header == "tick,winning_count,change_rate,friend_agreement,random_agreement"

    def test_invalid_scenario_parameter(self, tmp_path, capsys):
        path = tmp_path / "bad.scenario"
        good = json.loads(small_scenario_file(tmp_path).read_text())
        good["sim"]["v"] = 0
        path.write_text(json.dumps(good))
        code = main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "v" in err

    @pytest.mark.parametrize(
        "section, key, value",
        [
            (None, "replications", "3"),
            (None, "burn_in", "5"),
            (None, "label", 5),
            ("sim", "max_ticks", True),
            ("sim", "include_self", "no"),
            ("sim", "n", 20.0),
            ("sim", "seed", "abc"),
        ],
    )
    def test_wrong_value_type_is_one_error_line(self, tmp_path, capsys, section, key, value):
        payload = json.loads(small_scenario_file(tmp_path).read_text())
        (payload if section is None else payload[section])[key] = value
        path = tmp_path / "typed.scenario"
        path.write_text(json.dumps(payload))
        code = main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_INVALID
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {key} must be"), lines
        assert not (tmp_path / "o").exists()

    def test_missing_scenario_file(self, tmp_path, capsys):
        code = main(
            ["simulate", "--scenario", str(tmp_path / "absent.scenario"),
             "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_IO
        assert "i/o error" in capsys.readouterr().err

    def test_unwritable_out_dir(self, tmp_path, capsys):
        scenario_path = small_scenario_file(tmp_path)
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        code = main(
            ["simulate", "--scenario", str(scenario_path),
             "--out", str(blocker / "nested")]
        )
        assert code == EXIT_IO
        assert "i/o error" in capsys.readouterr().err


class TestSweepCommand:
    def test_end_to_end(self, tmp_path, capsys):
        scenario_path = small_scenario_file(tmp_path)
        out_dir = tmp_path / "sweep_out"
        code = main(
            ["sweep", "--scenario", str(scenario_path), "--grid", "v=2,3",
             "--out", str(out_dir)]
        )
        assert code == EXIT_OK
        captured = capsys.readouterr()
        assert "2 cells, 0 skipped" in captured.out
        assert "sweep.csv" in captured.out
        rows = list(csv.DictReader(io.StringIO((out_dir / "sweep.csv").read_text())))
        assert [int(r["v"]) for r in rows] == [2, 3]

    def test_skipped_cells_reported_on_stderr(self, tmp_path, capsys):
        scenario_path = small_scenario_file(tmp_path)
        out_dir = tmp_path / "sweep_out"
        code = main(
            ["sweep", "--scenario", str(scenario_path), "--grid", "f=2,500",
             "--out", str(out_dir)]
        )
        assert code == EXIT_OK
        captured = capsys.readouterr()
        assert "1 cells, 1 skipped" in captured.out
        assert "skipping cell" in captured.err
        assert "500" in captured.err

    def test_unknown_grid_key(self, tmp_path, capsys):
        scenario_path = small_scenario_file(tmp_path)
        code = main(
            ["sweep", "--scenario", str(scenario_path), "--grid", "votes=1,2",
             "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_INVALID
        assert "votes" in capsys.readouterr().err


class TestForecastCommand:
    def test_bundled_fixture_prints_the_table(self, capsys):
        code = main(
            ["forecast", str(DATA_DIR / "synthetic_predictions.csv"),
             str(DATA_DIR / "synthetic_actuals.csv"), "--seed", "0"]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert len(lines) == 2 + 6  # header, rule, six variants
        assert lines[0].split()[0] == "variant"
        for name in ("basic-dominant", "centralized-consensus", "dominant-mixed"):
            assert name in out

    def test_variant_subset(self, capsys):
        code = main(
            ["forecast", str(DATA_DIR / "synthetic_predictions.csv"),
             str(DATA_DIR / "synthetic_actuals.csv"),
             "--variants", "basic-dominant,centralized-consensus"]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 2 + 2
        assert "dominant-mixed" not in out

    def test_unknown_variant(self, capsys):
        code = main(
            ["forecast", str(DATA_DIR / "synthetic_predictions.csv"),
             str(DATA_DIR / "synthetic_actuals.csv"), "--variants", "psychic"]
        )
        assert code == EXIT_INVALID
        err = capsys.readouterr().err
        assert "psychic" in err

    def test_malformed_csv(self, tmp_path, capsys):
        bad = tmp_path / "p.csv"
        bad.write_text("day,source,prediction\nd1,a,not_a_number\n")
        act = tmp_path / "a.csv"
        act.write_text("day,actual\nd1,1\n")
        code = main(["forecast", str(bad), str(act)])
        assert code == EXIT_INVALID
        assert "error:" in capsys.readouterr().err

    def test_out_dir_writes_reports(self, tmp_path, capsys):
        out_dir = tmp_path / "reports"
        code = main(
            ["forecast", str(DATA_DIR / "synthetic_predictions.csv"),
             str(DATA_DIR / "synthetic_actuals.csv"), "--seed", "0",
             "--out", str(out_dir)]
        )
        assert code == EXIT_OK
        captured = capsys.readouterr()
        text_report = (out_dir / "report.txt").read_text()
        assert text_report == captured.out
        payload = json.loads((out_dir / "report.json").read_text())
        assert payload["seed"] == 0
        assert len(payload["variants"]) == 6
        assert "report.json" in captured.err


class TestBundledScenarios:
    def test_all_parse(self):
        paths = sorted(SCENARIO_DIR.glob("*.scenario"))
        assert len(paths) == 4
        for path in paths:
            scenario = load_scenario(path)
            assert scenario.sim.n == 500
            assert scenario.sim.max_ticks == 500
            assert scenario.replications == 5

    @pytest.mark.parametrize(
        "name, v, f, friend_prob",
        [
            ("baseline_3votes", 3, 0, 0.0),
            ("friends20_40pct", 3, 20, 0.4),
            ("votes20_friends10", 20, 10, 0.2),
            ("tuning_friends15", 3, 15, 0.4),
        ],
    )
    def test_pinned_parameters(self, name, v, f, friend_prob):
        scenario = load_scenario(SCENARIO_DIR / f"{name}.scenario")
        assert scenario.sim.v == v
        assert scenario.sim.f == f
        assert scenario.sim.friend_prob == friend_prob


class TestEntryPoints:
    def test_module_invocation(self, tmp_path):
        scenario_path = small_scenario_file(tmp_path)
        out_dir = tmp_path / "module_out"
        proc = subprocess.run(
            [sys.executable, "-m", "gossipvote", "simulate",
             "--scenario", str(scenario_path), "--out", str(out_dir)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert (out_dir / "summary.json").exists()

    def test_no_arguments_shows_usage(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2
        assert "usage" in capsys.readouterr().err
