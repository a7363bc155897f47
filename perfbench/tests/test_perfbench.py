"""Self-tests of the benchmark.

    python3 -m pytest perfbench/tests -q

Run from the root of a gossipvote checkout. Every workload runs once at a
tiny size, plain and traced, and must pass its own output checks.
"""

from __future__ import annotations

import inspect
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import MODULES, Tracer  # noqa: E402

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_workload_passes_its_checks(name, trace):
    cpus = os.sched_getaffinity(0)
    outcome = run.run_workload(ROOT, name, seed=3, seconds=0, trace=trace, tiny=True)
    assert os.sched_getaffinity(0) == cpus
    assert outcome.correct, outcome.errors
    assert outcome.attempted >= 1 + trace and outcome.agent_ticks > 0
    if trace:
        assert list(outcome.metrics) == [m[0] for m in layers.LAYER_METRICS]
        assert outcome.metrics["engine.agent_ticks"] == outcome.agent_ticks
    else:
        assert list(outcome.metrics) == list(run.END_TO_END_UNITS)
        assert all(value > 0 for value in outcome.metrics.values())
        assert (outcome.metrics["wall_s"] * outcome.metrics["agent_ticks_per_s"]
                == pytest.approx(outcome.agent_ticks))
    json.loads(run.result_json(outcome))


def test_traced_sweep_gathers_worker_spans():
    outcome = run.run_workload(ROOT, "sweep_grid", seed=5, seconds=0, trace=1, tiny=True)
    assert outcome.correct, outcome.errors
    assert outcome.metrics["scenario.workers"] == workloads.SWEEP_WORKERS
    assert outcome.metrics["scenario.worker_busy_s"] > 0
    reps, ticks = workloads.TINY["sweep_grid"]["replications"], 30
    assert outcome.metrics["engine.step.calls"] == len(workloads.SWEEP_CELLS) * reps * ticks


def test_inputs_depend_on_the_seed_only(tmp_path):
    def files(seed, sub):
        workloads.prepare("forecast_ensemble", seed, str(tmp_path / sub))
        return {p: (tmp_path / sub / p).read_bytes() for p in ("predictions.csv", "actuals.csv")}

    assert files(1, "a") == files(1, "b")
    assert files(1, "a") != files(2, "c")


def _functions() -> dict[tuple[int, str], object]:
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "gossipvote" or name.startswith("gossipvote."):
            for owner in [module, *(v for v in vars(module).values() if inspect.isclass(v))]:
                for attr, value in list(vars(owner).items()):
                    if inspect.isfunction(value):
                        found[(id(owner), attr)] = value
    return found


def test_tracer_restores_the_original_functions(tmp_path):
    import gossipvote
    from gossipvote import engine, forecast

    for short in MODULES:
        __import__(f"gossipvote.{short}")
    before = _functions()
    original_step = engine.step
    tracer = Tracer(str(tmp_path))
    tracer.install()
    try:
        assert engine.step is not original_step
        assert forecast.step is engine.step and gossipvote.step is engine.step
        assert engine.SimState.snapshot.__wrapped__ is not None
    finally:
        tracer.restore()
    after = _functions()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_cli_import_clock_starts_before_numpy_is_loaded():
    # traced_cli times `import gossipvote.cli` first thing in _main, so the
    # module itself must import none of the program's dependencies.
    probe = ("import sys; import traced_cli; "
             "print(sorted({'numpy', 'gossipvote', 'tracer'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", probe], cwd=BENCH_DIR, capture_output=True,
                          text=True, timeout=60, env={**os.environ, "PYTHONPATH": BENCH_DIR})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_reference_loop_uses_nothing_of_the_program():
    # A change to gossipvote must not move the host-speed scale.
    probe = ("import sys, calibrate; calibrate.reference_loop(); "
             "print(sorted(name for name in sys.modules if name.startswith('gossipvote')))")
    done = subprocess.run([sys.executable, "-c", probe], cwd=BENCH_DIR, capture_output=True,
                          text=True, timeout=60, env={**os.environ, "PYTHONPATH": BENCH_DIR})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_metric_names_and_benchmark_json_agree():
    bench = _benchmark_json()
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert all(METRIC_NAME.fullmatch(name) for name in names), names
    assert len(names) == len(set(names))
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END_UNITS.items())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        m[:3] for m in layers.LAYER_METRICS]
    assert {w["name"]: w["why"] for w in bench["workloads"]} == workloads.WHY
    assert list(workloads.WHY) == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scenario_n500", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
