"""End-to-end acceptance gate.

Eight checks, in fixed order, each printing one summary line and enforcing
a wall-clock budget.  Statistical checks pin their seeds so reruns are
exactly reproducible; where a check compares paired runs, both arms share
a seed so the draw sequences differ only through the parameter under test.
"""
from __future__ import annotations

import dataclasses
import itertools
import random
from pathlib import Path
from statistics import mean, median
from time import perf_counter

from oracles import median_cost_oracle, mode_oracle

from gossipvote.engine import Trajectory, init, run, run_state, step
from gossipvote.forecast import (
    compare_report,
    evaluate_variant,
    load_dataset,
    run_variant,
    variant_by_name,
)
from gossipvote.integration import VoteSet, consensus_value, dominant_value
from gossipvote.metrics import (
    clustering_gap,
    convergence_tick,
    dissent_change_rate,
    steady_change_rate,
)
from gossipvote.model import SimConfig
from gossipvote.scenario import Scenario, simulate_scenario

REPO_ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = REPO_ROOT / "data"


def _report(line: str, elapsed: float, budget: float) -> None:
    print(f"[acceptance] {line} ({elapsed:.1f}s; budget {budget:.0f}s)")
    assert elapsed < budget, f"runtime {elapsed:.1f}s exceeded the {budget:.0f}s budget"


def test_a01_dominant_value_matches_brute_force_oracle():
    rng = random.Random(20240818)
    cases = 10_000
    t0 = perf_counter()
    for _ in range(cases):
        values = tuple(rng.randint(0, 9) for _ in range(rng.randint(1, 25)))
        own = rng.choice((None, rng.randint(0, 9)))
        got = dominant_value(VoteSet(values, own=own))
        want = mode_oracle(values, own)
        assert got == want, f"values={values} own={own}: got {got}, oracle {want}"
    _report(f"dominant-value oracle: {cases}/{cases} matched", perf_counter() - t0, 5.0)


def test_a02_consensus_matches_exhaustive_cost_scan():
    t0 = perf_counter()
    checked = 0
    for size in range(1, 6):
        for values in itertools.combinations_with_replacement(range(5), size):
            got = consensus_value(VoteSet(values), k=4)
            want = median_cost_oracle(values, 4)
            assert got == want, f"values={values}: got {got}, oracle {want}"
            checked += 1
    _report(f"consensus oracle: {checked}/{checked} multisets matched", perf_counter() - t0, 5.0)


def _live_change_rate(traj: Trajectory, burn_in: int) -> float:
    """Mean per-agent change rate over ticks burn_in+1 .. convergence_tick(traj)."""
    converged_at = convergence_tick(traj)
    live = traj.events[burn_in:converged_at]
    if not live:
        return 0.0
    return sum(e.changed for e in live) / (len(live) * traj.config.n)


def _vote_count_arm(v: int) -> tuple[dict[str, list[float]], str]:
    """Three rates of each of one arm's 30 seeded runs, and a convergence summary."""
    rates: dict[str, list[float]] = {"dissent": [], "live": [], "steady": []}
    converged = []
    for s in range(30):
        traj = run(SimConfig(
            n=500, k=1, v=v, f=0, friend_prob=0.0, activation_prob=0.5,
            strategy="dominant", max_ticks=500, seed=1000 + s,
        ))
        rates["dissent"].append(dissent_change_rate(traj, burn_in=50))
        rates["live"].append(_live_change_rate(traj, burn_in=50))
        rates["steady"].append(steady_change_rate(traj, burn_in=50))
        tick = convergence_tick(traj)
        if tick is not None:
            converged.append(tick)
    where = f"median tick {median(converged):g}" if converged else "no median"
    return rates, f"{len(converged)}/30 unanimous, {where}"


def test_a03_smaller_vote_sets_sustain_higher_change_rates():
    """After the burn-in, three-vote sets change dissenting agents faster.

    The gated rate is value changes per dissenting agent-tick over ticks
    51-500: each tick's changes divided by the number of agents outside the
    largest camp before it. A per-tick rate per agent cannot show a sustained
    difference here. With k=1 every run of this configuration becomes
    unanimous inside the horizon, and the run then goes on (it stops only
    once every inbox is empty too), adding ticks in which nothing can change.
    So the full-horizon steady rate ranks the arms by how early they
    converge. Cut at unanimity, the per-tick rate still compares the arms in
    different states: by tick 51 a three-vote run has acted on most of its
    disagreement and has little left to change, while a twenty-vote run is
    still split. Dividing by the dissent present compares how fast each
    voting rule acts on the same amount of disagreement. The 50-tick burn-in
    keeps out the start-up phase in which a twenty-vote agent has not yet
    received its first twenty values.
    Both per-tick rates are printed next to it.
    """
    t0 = perf_counter()
    small, conv_small = _vote_count_arm(3)
    large, conv_large = _vote_count_arm(20)
    wins = {name: sum(a > b for a, b in zip(small[name], large[name])) for name in small}
    elapsed = perf_counter() - t0
    _report(
        f"vote-count effect (burn_in=50): changes per dissenting agent-tick "
        f"v=3 mean {mean(small['dissent']):.4f}, v=20 mean {mean(large['dissent']):.4f}; "
        f"v=3 higher in {wins['dissent']}/30 paired seeds. Per-tick rate up to "
        f"unanimity: v=3 {mean(small['live']):.5f}, v=20 {mean(large['live']):.5f}, "
        f"v=3 higher in {wins['live']}/30. Full-horizon steady rate: "
        f"v=3 {mean(small['steady']):.5f}, v=20 {mean(large['steady']):.5f}, "
        f"v=3 higher in {wins['steady']}/30. Convergence: v=3 {conv_small}; "
        f"v=20 {conv_large}",
        elapsed, 120.0,
    )
    assert wins["dissent"] >= 27, (
        f"changes per dissenting agent-tick at v=3 exceeded v=20 in only "
        f"{wins['dissent']}/30 paired seeds (means: v=3 {mean(small['dissent']):.4f}, "
        f"v=20 {mean(large['dissent']):.4f}). After the burn-in, a three-vote agent "
        "integrates about six times as often as a twenty-vote agent, so it should "
        "act on the same disagreement faster."
    )


def _mean_gap_after_burn_in(v: int, f: int, friend_prob: float, seed: int) -> float:
    config = SimConfig(
        n=500, k=1, v=v, f=f, friend_prob=friend_prob, activation_prob=0.5,
        strategy="dominant", max_ticks=200, seed=seed,
    )
    state = init(config)
    traj = run_state(state)
    last = traj.n_ticks
    ticks = range(50, last + 1) if last > 50 else [last]
    return mean(clustering_gap(traj, state.graph, t) for t in ticks)


def test_a04_friend_channels_create_positive_clustering_gap():
    t0 = perf_counter()
    with_friends = [_mean_gap_after_burn_in(3, 20, 0.4, 2000 + s) for s in range(30)]
    without = [_mean_gap_after_burn_in(3, 20, 0.0, 2000 + s) for s in range(30)]
    positive = sum(g > 0 for g in with_friends)
    elapsed = perf_counter() - t0
    _report(
        f"friend clustering: mean gap {mean(with_friends):.5f} with preferential "
        f"channels vs {mean(without):.5f} without; positive in {positive}/30 seeds",
        elapsed, 120.0,
    )
    assert mean(with_friends) > mean(without), (
        f"mean clustering gap {mean(with_friends):.6f} with preferential channels "
        f"did not exceed {mean(without):.6f} without them"
    )
    assert positive >= 24, f"gap positive in only {positive}/30 seeds"


def test_a05_unanimity_with_empty_inboxes_is_absorbing():
    rng = random.Random(20240505)
    t0 = perf_counter()
    for case in range(50):
        n = rng.randint(2, 50)
        k = rng.randint(0, 8)
        f = rng.randint(0, min(6, n - 1))
        strategy = rng.choice(("dominant", "consensus", "mixed"))
        config = SimConfig(
            n=n,
            k=k,
            v=rng.randint(1, 6),
            f=f,
            friend_prob=0.0 if f == 0 else rng.choice((0.0, 0.25, 0.5)),
            activation_prob=rng.uniform(0.1, 0.9),
            strategy=strategy,
            mixed_consensus_prob=0.5 if strategy == "mixed" else 0.0,
            include_self=rng.random() < 0.5,
            max_ticks=10,
            seed=rng.randint(0, 10_000),
        )
        state = init(config)
        value = rng.randint(0, k)
        state.values[:] = [value] * n
        for inbox in state.inboxes:
            inbox.clear()
        changed = sum(step(state).changed for _ in range(100))
        assert changed == 0, f"case {case}: {changed} changes after injected unanimity"
        assert state.values == [value] * n
    _report("absorption: 50 injected unanimous states, 100 ticks each, 0 changes",
            perf_counter() - t0, 10.0)


def test_a06_identical_seeds_reproduce_identical_csv_bytes(tmp_path):
    rng = random.Random(20240606)
    t0 = perf_counter()
    compared = 0
    for index in range(10):
        n = rng.randint(5, 40)
        f = rng.randint(0, min(5, n - 1))
        strategy = rng.choice(("dominant", "consensus", "mixed"))
        scenario = Scenario(
            sim=SimConfig(
                n=n,
                k=rng.randint(0, 6),
                v=rng.randint(1, 6),
                f=f,
                friend_prob=0.0 if f == 0 else 0.3,
                activation_prob=rng.uniform(0.3, 0.8),
                strategy=strategy,
                mixed_consensus_prob=0.5 if strategy == "mixed" else 0.0,
                max_ticks=rng.randint(30, 80),
                seed=rng.randint(0, 10_000),
            ),
            replications=rng.randint(1, 2),
            outputs=("trajectory_csv",),
        )
        dir_a = tmp_path / f"a{index}"
        dir_b = tmp_path / f"b{index}"
        simulate_scenario(scenario, dir_a)
        simulate_scenario(scenario, dir_b)
        files_a = sorted(dir_a.glob("trajectory_rep*.csv"))
        assert files_a, "no trajectory files written"
        for path_a in files_a:
            assert path_a.read_bytes() == (dir_b / path_a.name).read_bytes()
            compared += 1
    _report(f"determinism: {compared} trajectory CSVs byte-identical across reruns",
            perf_counter() - t0, 30.0)


def test_a07_bundled_fixture_mae_and_report_checks():
    t0 = perf_counter()
    data = load_dataset(
        str(DATA_DIR / "synthetic_predictions.csv"),
        str(DATA_DIR / "synthetic_actuals.csv"),
    )
    assert len(data.days) == 60
    assert sorted(data.sources) == ["bias_0", "bias_m1", "bias_m2", "bias_p1", "bias_p2"]
    out = run_variant(data, variant_by_name("basic-dominant"), seed=0)
    for day in data.days:
        values = tuple(p for _, p in data.predictions_for(day))
        assert out[day] == mode_oracle(values, own=None), f"day {day}"
    report = evaluate_variant(data, variant_by_name("basic-dominant"), seed=0)
    assert report.per_source_mae["bias_0"] == 0.0
    source_mean = mean(report.per_source_mae.values())
    synthetic = compare_report(source_mean, report.per_source_mae)
    assert synthetic.vs_avg.label == "equal", synthetic.vs_avg
    _report(
        f"fixture harness: 60/60 days match the mode oracle, zero-bias source "
        f"mae {report.per_source_mae['bias_0']:.1f}, system-at-source-mean renders "
        f"'{synthetic.vs_avg.label}'",
        perf_counter() - t0, 5.0,
    )


def _random_dataset(rng: random.Random):
    from gossipvote.forecast import ForecastDataset

    days = [f"day{d:02d}" for d in range(rng.randint(5, 15))]
    names = [f"src{j}" for j in range(rng.randint(3, 8))]
    sources: dict[str, dict[str, int]] = {name: {} for name in names}
    for day in days:
        covering = [name for name in names if rng.random() < 0.8] or [rng.choice(names)]
        for name in covering:
            sources[name][day] = rng.randint(-10, 30)
    return ForecastDataset(
        days=tuple(days),
        sources={name: by_day for name, by_day in sources.items() if by_day},
        actuals={day: rng.randint(-10, 30) for day in days},
    )


def _without_gossip(name: str):
    spec = variant_by_name(name)
    return dataclasses.replace(
        spec, gossip=dataclasses.replace(spec.gossip, gossip_ticks=0)
    )


def test_a08_zero_gossip_variants_collapse_to_direct_aggregation():
    t0 = perf_counter()
    checked = 0
    for index in range(20):
        data = _random_dataset(random.Random(800 + index))
        seed = index
        assert run_variant(data, _without_gossip("dominant-decentralized"), seed=seed) == (
            run_variant(data, variant_by_name("basic-dominant"), seed=seed)
        )
        assert run_variant(data, _without_gossip("decentralized-consensus"), seed=seed) == (
            run_variant(data, variant_by_name("centralized-consensus"), seed=seed)
        )
        checked += len(data.days)
    _report(
        f"zero-gossip equivalence: {checked} day-level outputs identical across "
        "20 random datasets for both operator families",
        perf_counter() - t0, 30.0,
    )
