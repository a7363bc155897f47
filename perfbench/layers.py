"""Per-layer metrics: their definitions and their derivation from traced spans.

A layer is one of gossipvote's modules. LAYER_METRICS lists every per-layer
metric with the end-to-end metric it should move and the workloads that do
the work it measures (the rest do little or none of it); BENCHMARK.json's
per_layer list is this table's first three columns.
"""

from __future__ import annotations

import statistics

import numpy as np

from tracer import MODULES

# (name, unit, better, end-to-end metrics it should move, workloads doing the work)
LAYER_METRICS = [
    ("engine.step.calls", "count", "lower", "agent_ticks_per_s", "scenario_n500 sweep_grid"),
    ("engine.step.total_s", "s", "lower", "agent_ticks_per_s wall_s", "scenario_n500 sweep_grid"),
    ("engine.step.self_s", "s", "lower", "agent_ticks_per_s wall_s", "scenario_n500 sweep_grid"),
    ("engine.step.us_per_agent_tick.p50", "us", "lower", "agent_ticks_per_s wall_s", "scenario_n500 forecast_ensemble"),
    ("engine.step.us_per_agent_tick.tail", "us", "lower", "agent_ticks_per_s wall_s", "scenario_n500 forecast_ensemble"),
    ("engine.agent_ticks", "count", "lower", "agent_ticks_per_s", "all"),
    ("engine.init.calls", "count", "lower", "wall_s", "scenario_n500 sweep_grid"),
    ("engine.init.total_s", "s", "lower", "wall_s", "scenario_n500 sweep_grid"),
    ("model.make_friend_graph.calls", "count", "lower", "wall_s", "forecast_ensemble"),
    ("model.make_friend_graph.total_s", "s", "lower", "wall_s", "forecast_ensemble"),
    ("engine.snapshot.calls", "count", "lower", "wall_s peak_rss_mb", "scenario_n500"),
    ("engine.snapshot.total_s", "s", "lower", "wall_s peak_rss_mb", "scenario_n500"),
    ("engine.snapshot_bytes", "B", "lower", "peak_rss_mb", "scenario_n500"),
    ("engine.is_absorbing.total_s", "s", "lower", "wall_s", "forecast_ensemble scenario_n500"),
    ("model.select_target.calls", "count", "lower", "agent_ticks_per_s", "scenario_n500 sweep_grid"),
    ("model.select_target.total_s", "s", "lower", "agent_ticks_per_s", "scenario_n500 sweep_grid"),
    ("engine.sent", "count", "lower", "agent_ticks_per_s", "scenario_n500 sweep_grid"),
    ("engine.integrations", "count", "lower", "agent_ticks_per_s", "scenario_n500 sweep_grid"),
    ("engine.changed", "count", "lower", "agent_ticks_per_s", "scenario_n500 sweep_grid"),
    ("engine.changed_per_integration", "ratio", "higher", "agent_ticks_per_s", "scenario_n500 sweep_grid"),
    ("integration.dominant_value.calls", "count", "lower", "agent_ticks_per_s", "scenario_n500 sweep_grid"),
    ("integration.dominant_value.total_s", "s", "lower", "agent_ticks_per_s", "scenario_n500 sweep_grid"),
    ("integration.consensus_value.calls", "count", "lower", "agent_ticks_per_s", "forecast_ensemble"),
    ("integration.consensus_value.total_s", "s", "lower", "agent_ticks_per_s", "forecast_ensemble"),
    ("integration.mixed_integrate.calls", "count", "lower", "agent_ticks_per_s", "forecast_ensemble"),
    ("metrics.tick_metrics.calls", "count", "lower", "wall_s", "scenario_n500 sweep_grid"),
    ("metrics.tick_metrics.total_s", "s", "lower", "wall_s", "scenario_n500 sweep_grid"),
    ("metrics.tick_metrics.calls_per_snapshot", "ratio", "lower", "wall_s", "scenario_n500 sweep_grid"),
    ("metrics.clustering_gap.total_s", "s", "lower", "wall_s", "sweep_grid"),
    ("scenario.trajectory_csv.total_s", "s", "lower", "wall_s", "scenario_n500"),
    ("scenario.trajectory_csv.bytes", "B", "lower", "wall_s", "scenario_n500"),
    ("scenario.metrics_csv.total_s", "s", "lower", "wall_s", "scenario_n500"),
    ("scenario.metrics_csv.bytes", "B", "lower", "wall_s", "scenario_n500"),
    ("scenario.simulate_scenario.self_s", "s", "lower", "wall_s", "scenario_n500"),
    ("scenario.workers", "count", "higher", "wall_s", "sweep_grid"),
    ("scenario.worker_busy_s", "s", "lower", "wall_s", "sweep_grid"),
    ("scenario.fanout_efficiency", "ratio", "higher", "wall_s", "sweep_grid"),
    ("scenario.load_scenario.total_s", "s", "lower", "setup_s", "scenario_n500 sweep_grid"),
    ("forecast.load_dataset.total_s", "s", "lower", "setup_s", "forecast_ensemble"),
    ("cli.import_s", "s", "lower", "setup_s", "all"),
    ("forecast.run_variant.total_s", "s", "lower", "wall_s agent_ticks_per_s", "forecast_ensemble"),
    ("forecast.gossip_days", "count", "lower", "wall_s agent_ticks_per_s", "forecast_ensemble"),
    ("forecast.gossip_ticks", "count", "lower", "wall_s agent_ticks_per_s", "forecast_ensemble"),
] + [
    (f"{module}.self_s", "s", "lower", "wall_s", "all") for module in MODULES
] + [
    ("trace.spans", "count", "lower", "none (tracing cost)", "all"),
    ("trace.overhead_s", "s", "lower", "none (tracing cost)", "all"),
    ("trace.overhead_frac", "ratio", "lower", "none (tracing cost)", "all"),
]

# Metric prefixes whose span has another name (methods carry their class).
SPAN_NAMES = {
    "engine.snapshot": "engine.SimState.snapshot",
    "engine.is_absorbing": "engine.SimState.is_absorbing",
}

# The tail percentile is the highest of these with at least this many ticks beyond it.
TAIL_LEVELS = (99.9, 99.0, 90.0, 50.0)
TAIL_BEYOND = 10


def span_stats(procs: list[dict]) -> dict:
    """calls, total_s, self_s and summed size ("bytes") per span name.

    A span's self time is its duration minus the durations of its direct
    children; a span's children are always in its own process.
    """
    stats: dict[str, dict[str, float]] = {}
    for proc in procs:
        fid, parent = proc["fid"], proc["parent"]
        if not fid.size:
            continue
        dur = proc["end"] - proc["start"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=fid.size)
        own = dur - child
        count = len(proc["names"])
        sums = {
            "calls": np.bincount(fid, minlength=count),
            "total_s": np.bincount(fid, weights=dur, minlength=count),
            "self_s": np.bincount(fid, weights=own, minlength=count),
            "bytes": np.bincount(fid, weights=proc["size"], minlength=count),
        }
        for index, name in enumerate(proc["names"]):
            entry = stats.setdefault(name, dict.fromkeys(sums, 0.0))
            for key, values in sums.items():
                entry[key] += float(values[index])
    return stats


def derive(procs: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one run traced with every wrapper installed."""
    stats = span_stats(procs)
    zero = {"calls": 0.0, "total_s": 0.0, "self_s": 0.0, "bytes": 0.0}

    def span(prefix: str) -> dict[str, float]:
        return stats.get(SPAN_NAMES.get(prefix, prefix), zero)

    out: dict[str, float] = {}
    for name, *_ in LAYER_METRICS:
        prefix, _, field = name.rpartition(".")
        if field in zero:
            out[name] = span(prefix)[field]
    for module in MODULES:
        out[f"{module}.self_s"] = sum(s["self_s"] for n, s in stats.items()
                                      if n.split(".", 1)[0] == module)

    counters: dict[str, float] = {}
    for proc in procs:
        for key, value in proc["counters"].items():
            counters[key] = counters.get(key, 0.0) + value
    for key in ("sent", "integrations", "changed"):
        out[f"engine.{key}"] = counters.get(f"engine.{key}", 0.0)
    out["engine.changed_per_integration"] = _ratio(out["engine.changed"], out["engine.integrations"])
    out["engine.agent_ticks"] = span("engine.step")["bytes"]  # its size is the agent count
    out["engine.snapshot_bytes"] = span("engine.snapshot")["bytes"]
    out["metrics.tick_metrics.calls_per_snapshot"] = _ratio(
        span("metrics.tick_metrics")["calls"], span("engine.snapshot")["calls"])
    out["cli.import_s"] = sum(proc["import_s"] for proc in procs)
    out["forecast.gossip_days"] = span("forecast._gossip_day")["calls"]

    gossip_ticks = 0
    busy = 0.0
    worker_pids = set()
    for proc in procs:
        names = proc["names"]
        if not proc["fid"].size:
            continue
        fid, parent = proc["fid"], proc["parent"]
        is_step = _is(fid, names, "engine.step")
        dur = proc["end"] - proc["start"]
        gossip_ticks += int(np.count_nonzero(is_step & _under(fid, parent, names, "forecast._gossip_day")))
        if proc["role"] == "worker":
            worker_pids.add(proc["pid"])
            busy += float(dur[parent < 0].sum())
    out["forecast.gossip_ticks"] = float(gossip_ticks)
    out["scenario.workers"] = float(len(worker_pids))
    out["scenario.worker_busy_s"] = busy
    pooled = span("scenario._map_jobs")["total_s"] if worker_pids else 0.0
    out["scenario.fanout_efficiency"] = _ratio(busy, len(worker_pids) * pooled)
    out["trace.spans"] = float(sum(proc["fid"].size for proc in procs))
    return out


def step_timing(procs: list[dict]) -> tuple[float, np.ndarray]:
    """engine.step's total seconds and its µs per agent-tick, one value per step.

    Read from a run traced with engine.step alone, so that the wrappers of
    the functions step calls do not count toward its duration.
    """
    total = 0.0
    step_us = [np.zeros(0)]
    for proc in procs:
        is_step = _is(proc["fid"], proc["names"], "engine.step")
        dur = (proc["end"] - proc["start"])[is_step]
        total += float(dur.sum())
        step_us.append(dur / proc["size"][is_step] * 1e6)
    return total, np.concatenate(step_us)


def combine(runs: list[dict[str, float]], step_runs: list[tuple[float, np.ndarray]],
            traced_walls: list[float], plain_walls: list[float]) -> dict[str, float]:
    """Median of each metric over the fully traced runs; engine.step's total
    and per-tick percentiles from the step-only runs, with all their steps
    pooled; and the tracing overhead from the full-trace and plain walls."""
    out = {name: statistics.median(run[name] for run in runs) for name in runs[0]}
    out["engine.step.total_s"] = statistics.median(total for total, _ in step_runs)
    ticks = np.concatenate([us for _, us in step_runs])
    out["engine.step.us_per_agent_tick.p50"] = float(np.median(ticks)) if ticks.size else 0.0
    out["engine.step.us_per_agent_tick.tail"] = (
        float(np.percentile(ticks, tail_level(ticks.size))) if ticks.size else 0.0)
    plain = statistics.median(plain_walls)
    out["trace.overhead_s"] = statistics.median(traced_walls) - plain
    out["trace.overhead_frac"] = out["trace.overhead_s"] / plain
    return {name: out[name] for name, *_ in LAYER_METRICS}


def tail_level(samples: int) -> float:
    for level in TAIL_LEVELS:
        if samples * (100.0 - level) / 100.0 >= TAIL_BEYOND:
            return level
    return TAIL_LEVELS[-1]


def _is(fid: np.ndarray, names: list[str], name: str) -> np.ndarray:
    return fid == names.index(name) if name in names else np.zeros(fid.size, bool)


def _under(fid: np.ndarray, parent: np.ndarray, names: list[str], name: str) -> np.ndarray:
    """Spans that have a span called `name` among their ancestors."""
    marked = _is(fid, names, name)
    inside = np.zeros(fid.size, bool)
    has_parent = parent >= 0
    while True:
        step = np.zeros(fid.size, bool)
        step[has_parent] = inside[parent[has_parent]] | marked[parent[has_parent]]
        if (step == inside).all():
            return inside
        inside = step


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
