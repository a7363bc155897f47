from __future__ import annotations

import ast
import csv
import io
import json
import multiprocessing
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from gossipvote import scenario as scenario_module
from gossipvote.cli import EXIT_INVALID, EXIT_IO, EXIT_OK, main
from gossipvote.forecast import load_dataset
from gossipvote.model import SimConfig
from gossipvote.output import json_text, write_atomic
from gossipvote.scenario import Scenario, load_scenario, scenario_to_dict

REPO_ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = REPO_ROOT / "data"
SCENARIO_DIR = REPO_ROOT / "scenarios"

# bytes no UTF-8 decoder accepts: a lone continuation byte, then an invalid lead
NOT_UTF8 = b"\x80\xff\xfe binary\n"

# runs `python -m gossipvote ARGS` in this process, then reports which of
# dataclasses and inspect (~1 MiB and ~8 ms of imports no command needs) it
# loaded, and whether numpy was loaded
NUMPY_GUARD = """
import runpy, sys
try:
    runpy.run_module("gossipvote", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print("machinery loaded:", sorted({"dataclasses", "inspect"} & set(sys.modules)))
print("numpy loaded:", "numpy" in sys.modules)
raise SystemExit(code)
"""

# the same with numpy blocked, so that an import of it in this process or in a
# helper process fails the command; reports whether multiprocessing was loaded
BLOCKED_NUMPY_GUARD = """
import runpy, sys
sys.modules["numpy"] = None
try:
    runpy.run_module("gossipvote", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print("machinery loaded:", sorted({"dataclasses", "inspect"} & set(sys.modules)))
print("pool loaded:", "multiprocessing" in sys.modules)
raise SystemExit(code)
"""


def assert_one_error_line(err: str, *parts: str) -> None:
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    for part in parts:
        assert part in lines[0]


def small_scenario_file(tmp_path, **sim_overrides) -> Path:
    sim_kwargs = dict(n=10, k=1, v=2, f=2, friend_prob=0.25, max_ticks=20, seed=5)
    sim_kwargs.update(sim_overrides)
    scenario = Scenario(sim=SimConfig(**sim_kwargs), replications=2, label="cli")
    path = tmp_path / "small.scenario"
    write_atomic(path, json_text(scenario_to_dict(scenario)))
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

    def test_non_utf8_scenario_file_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "binary.scenario"
        path.write_bytes(NOT_UTF8)
        code = main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_INVALID
        assert_one_error_line(capsys.readouterr().err, str(path), "utf-8")
        assert not (tmp_path / "o").exists()

    def test_a_k_too_large_for_memory_is_one_error_line(self, tmp_path, capsys):
        # the observer's [0] * (k + 1) fails its size check before asking for any memory
        path = tmp_path / "huge.scenario"
        path.write_text(json.dumps({"replications": 1,
                                    "sim": {"n": 2, "k": 2**62, "max_ticks": 1}}))
        code = main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == ""
        assert_one_error_line(captured.err, "out of memory")

    def test_a_k_above_64_bits_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "wide.scenario"
        path.write_text(json.dumps({"sim": {"n": 5, "k": 2**65, "max_ticks": 30}}))
        code = main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == ""
        assert_one_error_line(captured.err, f"k must satisfy 0 <= k <= 2**63 - 1, got {2**65}")
        assert not (tmp_path / "o").exists()


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

    def test_a_cell_with_k_above_64_bits_is_skipped(self, tmp_path, capsys):
        scenario_path = small_scenario_file(tmp_path)
        code = main(["sweep", "--scenario", str(scenario_path), "--grid", f"k=1,{2**65}",
                     "--out", str(tmp_path / "sweep_out")])
        assert code == EXIT_OK
        captured = capsys.readouterr()
        assert "1 cells, 1 skipped" in captured.out
        assert "k must satisfy 0 <= k <= 2**63 - 1" in captured.err

    def test_a_grid_with_no_valid_cell_is_one_error_line(self, tmp_path, capsys):
        scenario_path = small_scenario_file(tmp_path)  # n=10, so f <= 9
        out_dir = tmp_path / "sweep_out"
        code = main(
            ["sweep", "--scenario", str(scenario_path), "--grid", "f=10,11",
             "--out", str(out_dir)]
        )
        assert code == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == ""
        assert_one_error_line(captured.err, "no grid cell is valid", "{'f': 10}", "got f=10",
                              "{'f': 11}", "got f=11")
        assert not out_dir.exists()

    @pytest.mark.parametrize("grid, chunk", [("v=3,3", "'3'"),
                                             ("friend_prob=0.4,0.40;f=2", "'0.40'")])
    def test_a_repeated_grid_value_is_one_error_line(self, tmp_path, capsys, grid, chunk):
        scenario_path = small_scenario_file(tmp_path)
        out_dir = tmp_path / "sweep_out"
        code = main(["sweep", "--scenario", str(scenario_path), "--grid", grid,
                     "--out", str(out_dir)])
        assert code == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == ""
        assert_one_error_line(captured.err, f"duplicate value {chunk}")
        assert not out_dir.exists()

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="only a forked helper inherits the patched job")
    def test_a_helper_that_dies_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(scenario_module, "_usable_cpus", lambda: 2)
        main_pid, run_replication = os.getpid(), scenario_module._run_replication

        def job(args):  # ends a helper at its first job; this process's take 0.2 s
            if os.getpid() != main_pid:
                os._exit(9)
            time.sleep(0.2)
            return run_replication(args)

        monkeypatch.setattr(scenario_module, "_run_replication", job)
        # two draw groups (f differs) of two replications: four jobs
        code = main(["sweep", "--scenario", str(small_scenario_file(tmp_path)),
                     "--grid", "f=1,2", "--out", str(tmp_path / "o"), "--workers", "2"])
        assert code == EXIT_IO
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "i/o error: a helper process ended with exit code 9\n")
        assert not (tmp_path / "o").exists()
        assert multiprocessing.active_children() == []

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

    def test_error_after_a_blank_line_names_the_physical_line(self, tmp_path, capsys):
        pred = tmp_path / "pred.csv"
        pred.write_text("day,source,prediction\nd1,a,1\n")
        act = tmp_path / "act.csv"
        act.write_text("day,actual\nd1,5\n\nd2,6\nd3,x\n")
        code = main(["forecast", str(pred), str(act)])
        assert code == EXIT_INVALID
        assert_one_error_line(capsys.readouterr().err,
                              f"{act}:5: actual must be an integer, got 'x'")

    def test_error_after_a_quoted_line_break_names_the_physical_line(self, tmp_path, capsys):
        pred = tmp_path / "pred.csv"
        pred.write_text('day,source,prediction\nd1,"two\nlines",1\nd1,b,x\n')
        act = tmp_path / "act.csv"
        act.write_text("day,actual\nd1,5\n")
        code = main(["forecast", str(pred), str(act)])
        assert code == EXIT_INVALID
        assert_one_error_line(capsys.readouterr().err,
                              f"{pred}:4: prediction must be an integer, got 'x'")

    @pytest.mark.parametrize("which", ["predictions", "actuals"])
    def test_non_utf8_csv_is_one_error_line(self, tmp_path, capsys, which):
        paths = {"predictions": tmp_path / "p.csv", "actuals": tmp_path / "a.csv"}
        paths["predictions"].write_text("day,source,prediction\nd1,a,1\n")
        paths["actuals"].write_text("day,actual\nd1,1\n")
        paths[which].write_bytes(paths[which].read_bytes() + NOT_UTF8)
        code = main(["forecast", str(paths["predictions"]), str(paths["actuals"])])
        assert code == EXIT_INVALID
        assert_one_error_line(capsys.readouterr().err, str(paths[which]), "utf-8")

    def test_help_names_the_headers_the_loader_accepts(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["forecast", "--help"])
        assert excinfo.value.code == 0
        help_text = capsys.readouterr().out
        headers = {
            arg: re.search(rf"^\s+{arg}\s+CSV with columns (\S+)$", help_text, re.M).group(1)
            for arg in ("predictions", "actuals")
        }
        assert headers == {"predictions": "day,source,prediction", "actuals": "day,actual"}
        pred = tmp_path / "p.csv"
        pred.write_text(headers["predictions"] + "\nd1,a,1\n")
        act = tmp_path / "a.csv"
        act.write_text(headers["actuals"] + "\nd1,1\n")
        assert load_dataset(str(pred), str(act)).sources == {"a": {"d1": 1}}

    def test_predictions_spread_beyond_64_bits_name_the_day(self, tmp_path, capsys):
        # the day's k is its largest prediction minus its smallest
        pred, act = tmp_path / "p.csv", tmp_path / "a.csv"
        pred.write_text("day,source,prediction\nd1,a,99999999999999999999999\nd1,b,0\n")
        act.write_text("day,actual\nd1,3\n")
        assert main(["forecast", str(pred), str(act)]) == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == ""
        assert_one_error_line(captured.err, "day 'd1': k must satisfy 0 <= k <= 2**63 - 1")
        # variants without gossip build no run, so no k bounds them
        argv = ["forecast", str(pred), str(act), "--variants",
                "basic-dominant,centralized-consensus"]
        assert main(argv) == EXIT_OK

    def test_duplicate_variant_names(self, capsys):
        code = main(
            ["forecast", str(DATA_DIR / "synthetic_predictions.csv"),
             str(DATA_DIR / "synthetic_actuals.csv"),
             "--variants", "basic-dominant,dominant-mixed, basic-dominant"]
        )
        assert code == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == ""
        assert_one_error_line(captured.err, "'basic-dominant'")

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


def _negative_seed_scenario(tmp_path) -> tuple[list[str], str]:
    # replications of base seed -2 would run seeds -2..2, and Random(-s) is Random(s)
    path = tmp_path / "negative.scenario"
    path.write_text(json.dumps({"replications": 5, "sim": {"n": 4, "seed": -2}}))
    return ["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")], \
        "seed must be >= 0, got -2"


def _negative_forecast_seed(tmp_path) -> tuple[list[str], str]:
    return ["forecast", str(DATA_DIR / "synthetic_predictions.csv"),
            str(DATA_DIR / "synthetic_actuals.csv"), "--seed", "-3"], \
        "error: seed must be >= 0, got -3"


def _negative_forecast_seed_without_gossip(tmp_path) -> tuple[list[str], str]:
    # refused whichever variants run, as a negative scenario seed is
    return ["forecast", str(DATA_DIR / "synthetic_predictions.csv"),
            str(DATA_DIR / "synthetic_actuals.csv"), "--seed", "-3",
            "--variants", "basic-dominant", "--out", str(tmp_path / "o")], \
        "error: seed must be >= 0, got -3"


def _too_deep_scenario(tmp_path) -> tuple[list[str], str]:
    path = tmp_path / "deep.scenario"
    path.write_text("[" * 100_000)
    return ["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")], \
        f"{path} is not valid JSON: maximum recursion depth exceeded"


def _repeated_sim_key(tmp_path) -> tuple[list[str], str]:
    # json.load would keep the last value and run n=50
    path = tmp_path / "repeated.scenario"
    path.write_text('{"sim": {"n": 5, "n": 50, "max_ticks": 5, "seed": 1}, "replications": 1}')
    return ["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")], \
        f"{path}: duplicate key 'n'"


def _repeated_top_level_key(tmp_path) -> tuple[list[str], str]:
    path = tmp_path / "repeated.scenario"
    path.write_text('{"sim": {"n": 5, "max_ticks": 5}, "replications": 1, "replications": 2}')
    return ["sweep", "--scenario", str(path), "--grid", "v=1,2", "--out", str(tmp_path / "o")], \
        f"{path}: duplicate key 'replications'"


def _oversized_csv_field(tmp_path) -> tuple[list[str], str]:
    pred, act = tmp_path / "p.csv", tmp_path / "a.csv"
    pred.write_text(f"day,source,prediction\nd1,{'a' * (csv.field_size_limit() + 1)},1\n")
    act.write_text("day,actual\nd1,1\n")
    return ["forecast", str(pred), str(act)], \
        f"{pred}:2: field larger than field limit ({csv.field_size_limit()})"


def _header_only_csvs(tmp_path) -> tuple[list[str], str]:
    pred, act = tmp_path / "p.csv", tmp_path / "a.csv"
    pred.write_text("day,source,prediction\n")
    act.write_text("day,actual\n")
    return ["forecast", str(pred), str(act)], f"{act}: no days"


def _unknown_variant(tmp_path) -> tuple[list[str], str]:
    return ["forecast", str(DATA_DIR / "synthetic_predictions.csv"),
            str(DATA_DIR / "synthetic_actuals.csv"), "--variants", "psychic"], \
        "unknown variant 'psychic'; known: basic-dominant, centralized-consensus, " \
        "decentralized-consensus, decentralized-consensus-friends, " \
        "dominant-decentralized, dominant-mixed"


class TestMalformedInputs:
    @pytest.mark.parametrize("case", [
        _negative_seed_scenario, _negative_forecast_seed, _negative_forecast_seed_without_gossip,
        _too_deep_scenario, _repeated_sim_key, _repeated_top_level_key, _oversized_csv_field,
        _header_only_csvs, _unknown_variant,
    ], ids=lambda case: case.__name__.lstrip("_"))
    def test_is_one_error_line_and_exit_1(self, tmp_path, case):
        argv, message = case(tmp_path)
        proc = subprocess.run([sys.executable, "-m", "gossipvote", *argv],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")})
        assert proc.returncode == EXIT_INVALID, proc.stderr
        assert proc.stdout == "" and "Traceback" not in proc.stderr
        assert_one_error_line(proc.stderr, message)
        assert not (tmp_path / "o").exists()


def _forecast_files(tmp_path, predictions: str = "d1,a,1\n", actuals: str = "d1,1\n"):
    pred, act = tmp_path / "p.csv", tmp_path / "a.csv"
    pred.write_text("day,source,prediction\n" + predictions, encoding="utf-8")
    act.write_text("day,actual\n" + actuals, encoding="utf-8")
    return ["forecast", str(pred), str(act)]


def _empty_day(tmp_path) -> tuple[list[str], str]:
    return _forecast_files(tmp_path, actuals=" ,3\n"), f"{tmp_path / 'a.csv'}:2: empty day"


def _empty_source(tmp_path) -> tuple[list[str], str]:
    return _forecast_files(tmp_path, "d1, ,1\n"), f"{tmp_path / 'p.csv'}:2: empty source"


def _extra_field(tmp_path) -> tuple[list[str], str]:
    return _forecast_files(tmp_path, "d1,a,1,9\n"), \
        f"{tmp_path / 'p.csv'}:2: wrong number of fields"


def _no_variant_names(tmp_path) -> tuple[list[str], str]:
    return [*_forecast_files(tmp_path), "--variants", " , "], \
        "--variants given but no variant names found"


def _sweep_grid(tmp_path, grid: str) -> list[str]:
    return ["sweep", "--scenario", str(small_scenario_file(tmp_path)), "--grid", grid,
            "--out", str(tmp_path / "o")]


def _grid_entry_without_values(tmp_path) -> tuple[list[str], str]:
    return _sweep_grid(tmp_path, "v3"), "grid entry 'v3' must look like key=v1,v2,..."


# int() and float() alone would read the numbers below as 10, 3 and 0.15
def _underscore_actual(tmp_path) -> tuple[list[str], str]:
    return _forecast_files(tmp_path, actuals="d1,1_0\n"), \
        f"{tmp_path / 'a.csv'}:2: actual must be an integer, got '1_0'"


def _non_ascii_prediction(tmp_path) -> tuple[list[str], str]:
    return _forecast_files(tmp_path, "d1,a,\u0663\n"), \
        f"{tmp_path / 'p.csv'}:2: prediction must be an integer, got '\u0663'"


def _underscore_grid_value(tmp_path) -> tuple[list[str], str]:
    return _sweep_grid(tmp_path, "v=1_0,\u0663"), "bad value '1_0' for grid key 'v'"


def _non_ascii_grid_value(tmp_path) -> tuple[list[str], str]:
    return _sweep_grid(tmp_path, "v=2,\u0663"), "bad value '\u0663' for grid key 'v'"


def _underscore_grid_float(tmp_path) -> tuple[list[str], str]:
    return _sweep_grid(tmp_path, "friend_prob=0.1_5;f=2"), \
        "bad value '0.1_5' for grid key 'friend_prob'"


# str.strip() would take the no-break space (U+00A0) off and read these as 3 and 4
def _no_break_space_grid_value(tmp_path) -> tuple[list[str], str]:
    return _sweep_grid(tmp_path, "v=3\u00a0"), "bad value '3\\xa0' for grid key 'v'"


def _no_break_space_prediction(tmp_path) -> tuple[list[str], str]:
    return _forecast_files(tmp_path, "d1,a,4\u00a0\n"), \
        f"{tmp_path / 'p.csv'}:2: prediction must be an integer, got '4\\xa0'"


# str.strip() would also take a Unicode space off a grid key or entry: both would be {"v": [3]}
def _no_break_space_grid_key(tmp_path) -> tuple[list[str], str]:
    return _sweep_grid(tmp_path, "\u00a0v=3"), \
        "cannot sweep '\\xa0v'; sweepable: n, k, v, f, friend_prob"


def _em_space_grid_entry(tmp_path) -> tuple[list[str], str]:
    return _sweep_grid(tmp_path, "v=3;\u2003"), \
        "grid entry '\\u2003' must look like key=v1,v2,..."


# str.strip() would take the no-break space off a forecast header, day or variant name,
# and each of these would run
def _no_break_space_header(tmp_path) -> tuple[list[str], str]:
    argv = _forecast_files(tmp_path)
    (tmp_path / "a.csv").write_text("day\u00a0,actual\nd1,1\n", encoding="utf-8")
    return argv, f"{tmp_path / 'a.csv'}:1: expected header 'day,actual', got 'day\\xa0,actual'"


def _no_break_space_day(tmp_path) -> tuple[list[str], str]:
    return _forecast_files(tmp_path, "2020-01-01,a,1\n", "2020-01-01\u00a0,1\n"), \
        f"{tmp_path / 'p.csv'}:2: day '2020-01-01' has no actual"


def _no_break_space_variant(tmp_path) -> tuple[list[str], str]:
    return [*_forecast_files(tmp_path), "--variants", "basic-dominant\u00a0"], \
        "unknown variant 'basic-dominant\\xa0'; known: basic-dominant, " \
        "centralized-consensus, decentralized-consensus, decentralized-consensus-friends, " \
        "dominant-decentralized, dominant-mixed"


# argparse's type=int alone would run these at seed 10 and with one worker
def _underscore_forecast_seed(tmp_path) -> tuple[list[str], str]:
    return [*_forecast_files(tmp_path), "--seed", "1_0"], \
        "argument --seed: invalid int value: '1_0'"


def _non_ascii_simulate_workers(tmp_path) -> tuple[list[str], str]:
    return ["simulate", "--scenario", str(small_scenario_file(tmp_path)), "--out",
            str(tmp_path / "o"), "--workers", "\u0661"], \
        "argument --workers: invalid int value: '\u0661'"


def _underscore_sweep_workers(tmp_path) -> tuple[list[str], str]:
    return [*_sweep_grid(tmp_path, "v=2,3"), "--workers", "1_0"], \
        "argument --workers: invalid int value: '1_0'"


class TestErrorMessages:
    @pytest.mark.parametrize("case", [
        _empty_day, _empty_source, _extra_field, _no_variant_names, _grid_entry_without_values,
        _underscore_actual, _non_ascii_prediction, _underscore_grid_value, _non_ascii_grid_value,
        _underscore_grid_float, _underscore_forecast_seed, _non_ascii_simulate_workers,
        _underscore_sweep_workers, _no_break_space_grid_value, _no_break_space_prediction,
        _no_break_space_grid_key, _em_space_grid_entry, _no_break_space_header,
        _no_break_space_day, _no_break_space_variant,
    ], ids=lambda case: case.__name__.lstrip("_"))
    def test_is_exactly_one_error_line(self, tmp_path, capsys, case):
        argv, message = case(tmp_path)
        assert main(argv) == EXIT_INVALID
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")
        assert not (tmp_path / "o").exists()


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
        assert main([]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err == "error: the following arguments are required: command\n"

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--scenario", "s", "--out", "o", "--workers", "abc"],
         "argument --workers: invalid int value: 'abc'"),
        (["simulate", "--scenario", "s"], "the following arguments are required: --out"),
        (["forecast", "p.csv"], "the following arguments are required: actuals"),
        (["tally"], "argument command: invalid choice: 'tally'"),
        (["sweep", "--scenario", "s", "--grid", "v=3", "--out", "o", "--extra"],
         "unrecognized arguments: --extra"),
    ])
    def test_usage_errors_are_one_error_line_and_exit_1(self, argv, message, capsys):
        assert main(argv) == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == ""
        assert_one_error_line(captured.err, message)

    @pytest.mark.parametrize("argv, stdout_part", [
        (["forecast", str(DATA_DIR / "synthetic_predictions.csv"),
          str(DATA_DIR / "synthetic_actuals.csv")], "dominant-mixed"),
        (["--help"], "usage: gossipvote"),
        (["simulate", "--help"], "usage: gossipvote simulate"),
    ])
    def test_forecast_and_help_never_load_numpy(self, argv, stdout_part):
        proc = subprocess.run(
            [sys.executable, "-c", NUMPY_GUARD, *argv],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        *output, machinery_loaded, numpy_loaded = proc.stdout.splitlines()
        assert stdout_part in "\n".join(output)
        assert machinery_loaded == "machinery loaded: []"
        assert numpy_loaded == "numpy loaded: False"

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_simulate_and_sweep_never_load_numpy(self, tmp_path, command, workers):
        scenario_path = small_scenario_file(tmp_path)
        argv = [command, "--scenario", str(scenario_path), "--out", str(tmp_path / "out"),
                "--workers", str(workers)]
        if command == "sweep":
            argv += ["--grid", "v=2,3"]  # one draw group: one job per replication
        proc = subprocess.run(
            [sys.executable, "-c", BLOCKED_NUMPY_GUARD, *argv],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        # two replications fan out only where two CPUs are usable
        pooled = workers > 1 and len(os.sched_getaffinity(0)) > 1
        assert proc.stdout.splitlines()[-2:] == ["machinery loaded: []", f"pool loaded: {pooled}"]

    def test_utf8_inputs_give_the_same_bytes_under_an_ascii_locale(self, tmp_path):
        scenario = Scenario(sim=SimConfig(n=10, k=1, v=2, f=2, friend_prob=0.25, max_ticks=20),
                            label="Gruppe für Abstimmung")
        scenario_path = tmp_path / "u.scenario"
        # raw UTF-8, not the \u escapes json_text writes
        scenario_path.write_bytes(json.dumps(scenario_to_dict(scenario), ensure_ascii=False)
                                  .encode("utf-8"))
        predictions = tmp_path / "predictions.csv"
        predictions.write_bytes("day,source,prediction\nd1,Météo,3\nd1,b,4\nd2,Météo,5\n"
                                "d2,b,5\n".encode("utf-8"))
        actuals = tmp_path / "actuals.csv"
        actuals.write_bytes(b"day,actual\nd1,3\nd2,5\n")
        locales = {
            "utf8": ({"LC_ALL": "C.UTF-8"}, "utf8=1"),
            "ascii": ({"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}, "utf8=0"),
        }
        # each run's working directory is its output directory, so src goes on the path absolute
        path = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))
        outputs = {}
        for name, (env, mode) in locales.items():
            out = tmp_path / name
            out.mkdir()
            stdout = b""
            # relative output paths, so that both runs print the same lines
            for argv in (["simulate", "--scenario", str(scenario_path), "--out", "sim"],
                         ["forecast", str(predictions), str(actuals), "--out", "fc"]):
                proc = subprocess.run([sys.executable, "-X", mode, "-m", "gossipvote", *argv],
                                      capture_output=True, timeout=120, cwd=out,
                                      env={**os.environ, **env, "PYTHONPATH": path})
                assert proc.returncode == EXIT_OK, proc.stderr
                stdout += proc.stdout
            outputs[name] = stdout, {str(p.relative_to(out)): p.read_bytes()
                                     for p in sorted(out.rglob("*")) if p.is_file()}
        assert len(outputs["utf8"][1]) == 5
        assert outputs["ascii"] == outputs["utf8"]


PUBLIC_NAMES = [
    "Comparison", "ConfigError", "DatasetError", "EvalReport", "ForecastDataset", "FriendGraph",
    "GossipParams", "Observation", "Scenario", "SimConfig", "SimState", "TickEvents", "Trajectory",
    "VARIANTS", "VariantSpec", "convergence_tick", "dissent_change_rate", "evaluate",
    "live_change_rate", "load_dataset", "load_scenario", "make_friend_graph", "observe",
    "parse_grid", "run",
    "simulate_scenario", "steady_change_rate", "step", "sweep_scenario",
]

# What a module other than the engine may import from it: the one entry point,
# the draw-group split batches use to share out jobs, and the record the observer
# reads; forecast also imports step, which the benchmark's tracer test reads there.
ENGINE_IMPORTS = {"run", "draw_groups", "Trajectory"}
FORECAST_ENGINE_IMPORTS = {"step"}


class TestPackageExports:
    def test_names_resolve_on_first_use(self):
        import gossipvote
        from gossipvote import observe, simulate_scenario
        from gossipvote.metrics import observe as defined_observe
        from gossipvote.scenario import simulate_scenario as defined_simulate

        assert observe is defined_observe
        assert simulate_scenario is defined_simulate
        assert gossipvote.__all__ == PUBLIC_NAMES
        namespace: dict = {}
        exec("from gossipvote import *", namespace)
        assert set(gossipvote.__all__) <= set(namespace)
        assert set(gossipvote.__all__) <= set(dir(gossipvote))
        assert all(getattr(gossipvote, name) is namespace[name] for name in gossipvote.__all__)

    def test_records_reject_attribute_assignment(self):
        import gossipvote as gv
        from gossipvote.forecast import compare_cell, compare_report
        from gossipvote.scenario import RunRecord

        config = gv.SimConfig(n=6, k=1, v=2, max_ticks=3, seed=1)
        (traj,) = gv.run([config])
        records = [
            config, gv.Scenario(sim=config), traj, traj.events[0], gv.observe(traj),
            RunRecord({}, 0.0, {}),
            gv.load_dataset(str(DATA_DIR / "synthetic_predictions.csv"),
                            str(DATA_DIR / "synthetic_actuals.csv")),
            gv.GossipParams(), gv.VARIANTS[-1], compare_cell(1.0, 2.0),
            compare_report(1.0, {"a": 2.0}),
        ]
        for record in records:
            first = record._fields[0]
            with pytest.raises(AttributeError):
                setattr(record, first, None)
            with pytest.raises(AttributeError):
                record.extra = None

    def test_unknown_name_is_an_attribute_error(self):
        import gossipvote

        with pytest.raises(AttributeError, match="no_such_name"):
            gossipvote.no_such_name
        with pytest.raises(ImportError):
            exec("from gossipvote import no_such_name", {})

    @pytest.mark.parametrize(
        "name", ["KnowledgeValue", "run_variant", "save_scenario", "init", "run_states",
                 "compare_cell", "compare_report", "mae"])
    def test_removed_names_are_attribute_errors(self, name):
        import gossipvote

        with pytest.raises(AttributeError, match=name):
            getattr(gossipvote, name)

    def test_only_the_engine_builds_runs(self):
        """No module or script but the engine imports more of it than ENGINE_IMPORTS,
        directly or through the package, so none builds a state or shares a draw."""
        import gossipvote

        sources = [*sorted((REPO_ROOT / "src" / "gossipvote").glob("*.py")),
                   *sorted((REPO_ROOT / "scripts").glob("*.py"))]
        assert len(sources) > 10
        imported: dict[str, set[str]] = {}
        for path in sources:
            if path.name == "engine.py":
                continue
            names = imported.setdefault(path.name, set())
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    assert "gossipvote.engine" not in [alias.name for alias in node.names], path
                elif isinstance(node, ast.ImportFrom):
                    module = ("." * node.level) + (node.module or "")
                    aliases = {alias.name for alias in node.names}
                    assert "engine" not in aliases or module not in (".", "gossipvote"), path
                    if module in (".engine", "gossipvote.engine"):
                        names |= aliases
                    elif module == "gossipvote":  # the package's names that the engine defines
                        names |= {name for name in aliases
                                  if gossipvote._MODULE_OF.get(name) == "engine"}
        for name, names in imported.items():
            allowed = ENGINE_IMPORTS | (FORECAST_ENGINE_IMPORTS if name == "forecast.py" else set())
            assert names <= allowed, (name, names - allowed)
        # the parse finds the imports it guards
        assert imported["scenario.py"] == {"run", "draw_groups"}
        assert imported["forecast.py"] == {"run", "step"}
