from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from gossipvote import engine
from gossipvote.engine import init, step
from gossipvote.forecast import (
    ACTIVATION_PROB,
    INCLUDE_SELF,
    VARIANTS,
    DatasetError,
    ForecastDataset,
    GossipParams,
    VariantSpec,
    _run_days,
    compare_cell,
    compare_report,
    evaluate,
    load_dataset,
    mae,
    render_table,
    report_payload,
    variant_by_name,
)
from gossipvote.integration import integrate
from gossipvote.model import ConfigError, SimConfig

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def write_csvs(tmp_path, predictions: list[tuple[str, str, object]], actuals: list[tuple[str, object]]):
    pred_path = tmp_path / "predictions.csv"
    act_path = tmp_path / "actuals.csv"
    pred_path.write_text(
        "day,source,prediction\n"
        + "".join(f"{d},{s},{p}\n" for d, s, p in predictions)
    )
    act_path.write_text("day,actual\n" + "".join(f"{d},{a}\n" for d, a in actuals))
    return str(pred_path), str(act_path)


def tiny_dataset(**sources_by_day) -> ForecastDataset:
    """Build an in-memory dataset; kwargs map source -> {day: prediction}."""
    days = sorted({day for by_day in sources_by_day.values() for day in by_day})
    return ForecastDataset(
        days=tuple(days),
        sources={name: dict(by_day) for name, by_day in sources_by_day.items()},
        actuals={day: 0 for day in days},
    )


class TestLoadDataset:
    def test_well_formed(self, tmp_path):
        pred, act = write_csvs(
            tmp_path,
            [("d1", "a", 1), ("d1", "b", 2), ("d2", "a", 3),
             ("d2", "b", 4), ("d3", "a", 5), ("d3", "b", 6)],
            [("d1", 1), ("d2", 2), ("d3", 3)],
        )
        data = load_dataset(pred, act)
        assert data.days == ("d1", "d2", "d3")
        assert sum(len(by_day) for by_day in data.sources.values()) == 6
        assert data.actuals == {"d1": 1, "d2": 2, "d3": 3}

    def test_day_without_actual_names_row_and_day(self, tmp_path):
        pred, act = write_csvs(tmp_path, [("d1", "a", 1), ("d9", "a", 2)], [("d1", 1)])
        with pytest.raises(DatasetError, match=r":3.*d9"):
            load_dataset(pred, act)

    def test_non_integer_prediction_names_row(self, tmp_path):
        pred, act = write_csvs(tmp_path, [("d1", "a", "warm")], [("d1", 1)])
        with pytest.raises(DatasetError, match=r":2.*integer"):
            load_dataset(pred, act)

    def test_duplicate_source_day_pair(self, tmp_path):
        pred, act = write_csvs(tmp_path, [("d1", "a", 1), ("d1", "a", 2)], [("d1", 1)])
        with pytest.raises(DatasetError, match="duplicate"):
            load_dataset(pred, act)

    def test_duplicate_actual_day(self, tmp_path):
        pred, act = write_csvs(tmp_path, [("d1", "a", 1)], [("d1", 1), ("d1", 2)])
        with pytest.raises(DatasetError, match="duplicate"):
            load_dataset(pred, act)

    def test_wrong_header_is_rejected(self, tmp_path):
        pred = tmp_path / "p.csv"
        pred.write_text("source,day,prediction\nd1,a,1\n")
        act = tmp_path / "a.csv"
        act.write_text("day,actual\nd1,1\n")
        with pytest.raises(DatasetError, match="header"):
            load_dataset(str(pred), str(act))

    def test_header_cells_may_carry_spaces(self, tmp_path):
        pred = tmp_path / "p.csv"
        pred.write_text("day, source ,prediction\nd1,a, 1\t\n")  # ASCII spaces around numbers too
        act = tmp_path / "a.csv"
        act.write_text("day, actual\nd1,1 \n")
        data = load_dataset(str(pred), str(act))
        assert data.sources == {"a": {"d1": 1}} and data.actuals == {"d1": 1}

    def test_a_unicode_space_is_part_of_a_name(self, tmp_path):
        """Only ASCII whitespace is stripped, so a source "s\u00a0" is not "s"."""
        pred = tmp_path / "p.csv"
        pred.write_text("day,source,prediction\nd1,s,1\nd1,s\u00a0,2\n", encoding="utf-8")
        act = tmp_path / "a.csv"
        act.write_text("day,actual\nd1,1\n")
        data = load_dataset(str(pred), str(act))
        assert data.sources == {"s": {"d1": 1}, "s\u00a0": {"d1": 2}}

    def test_missing_file_is_an_io_error(self, tmp_path):
        with pytest.raises(OSError):
            load_dataset(str(tmp_path / "nope.csv"), str(tmp_path / "also_nope.csv"))

    def test_missing_cells_are_absent_not_zero(self, tmp_path):
        pred, act = write_csvs(
            tmp_path, [("d1", "a", 1), ("d2", "a", 2), ("d1", "b", 5)], [("d1", 0), ("d2", 0)]
        )
        data = load_dataset(pred, act)
        assert "d2" not in data.sources["b"]
        assert data.predictions_for("d2") == [("a", 2)]


class TestRunVariant:
    def test_basic_dominant_is_the_day_mode(self):
        data = tiny_dataset(a={"d1": 3}, b={"d1": 3}, c={"d1": 5})
        out = _run_days(data, [variant_by_name("basic-dominant")], 0)[0]
        assert out == {"d1": 3}

    def test_centralized_consensus_is_the_day_median(self):
        data = tiny_dataset(a={"d1": 1}, b={"d1": 3}, c={"d1": 9})
        out = _run_days(data, [variant_by_name("centralized-consensus")], 0)[0]
        assert out == {"d1": 3}

    def test_dropout_day_uses_remaining_sources(self):
        data = tiny_dataset(
            a={"d1": 2, "d2": 7}, b={"d1": 2}, c={"d1": 4, "d2": 7}
        )
        out = _run_days(data, [variant_by_name("basic-dominant")], 0)[0]
        assert out["d2"] == 7  # b is absent on d2; a and c agree

    def test_day_with_no_predictions_is_an_error(self):
        data = ForecastDataset(
            days=("d1", "d2"), sources={"a": {"d1": 1}}, actuals={"d1": 0, "d2": 0}
        )
        with pytest.raises(DatasetError, match="d2"):
            _run_days(data, [variant_by_name("basic-dominant")], 0)[0]

    def test_single_source_day_passes_through(self):
        data = tiny_dataset(a={"d1": -7})
        for spec in VARIANTS:
            assert _run_days(data, [spec], 0)[0] == {"d1": -7}

    def test_equal_predictions_day_passes_through(self):
        data = tiny_dataset(a={"d1": 4}, b={"d1": 4}, c={"d1": 4})
        for spec in VARIANTS:
            assert _run_days(data, [spec], 0)[0] == {"d1": 4}

    def test_negative_predictions_are_handled_via_shifting(self):
        data = tiny_dataset(a={"d1": -5}, b={"d1": -3}, c={"d1": -3})
        assert _run_days(data, [variant_by_name("basic-dominant")], 0)[0] == {"d1": -3}
        assert _run_days(data, [variant_by_name("centralized-consensus")], 0)[0] == {"d1": -3}

    def test_deterministic_in_seed(self):
        data = _random_dataset(random.Random(5), days=8, sources=6)
        spec = variant_by_name("dominant-decentralized")
        assert _run_days(data, [spec], 3)[0] == _run_days(data, [spec], 3)[0]

    def test_gossip_output_stays_in_day_span(self):
        rng = random.Random(9)
        data = _random_dataset(rng, days=10, sources=8)
        for name in ("dominant-decentralized", "decentralized-consensus-friends", "dominant-mixed"):
            out = _run_days(data, [variant_by_name(name)], 1)[0]
            for day, value in out.items():
                values = [p for _, p in data.predictions_for(day)]
                assert min(values) <= value <= max(values)

    def test_removing_a_source_keeps_uncovered_days_identical(self):
        rng = random.Random(11)
        data = _random_dataset(rng, days=12, sources=5)
        victim = sorted(data.sources)[0]
        uncovered = [d for d in data.days if d not in data.sources[victim]]
        # drop days from the victim so some days are genuinely uncovered
        if not uncovered:
            trimmed = dict(data.sources[victim])
            dropped = sorted(trimmed)[:4]
            for day in dropped:
                del trimmed[day]
            data = data._replace(sources={**data.sources, victim: trimmed})
            uncovered = dropped
        without = data._replace(
            sources={s: d for s, d in data.sources.items() if s != victim}
        )
        spec = variant_by_name("dominant-decentralized")
        full_out = _run_days(data, [spec], 4)[0]
        partial_out = _run_days(without, [spec], 4)[0]
        for day in uncovered:
            assert full_out[day] == partial_out[day]

    def test_unknown_variant_name(self):
        with pytest.raises(ConfigError, match="unknown variant"):
            variant_by_name("telepathy")


def _random_dataset(rng: random.Random, days: int, sources: int) -> ForecastDataset:
    day_labels = [f"2016-11-{d + 1:02d}" for d in range(days)]
    source_names = [f"src{j}" for j in range(sources)]
    table: dict[str, dict[str, int]] = {name: {} for name in source_names}
    for day in day_labels:
        covering = [name for name in source_names if rng.random() < 0.8]
        if not covering:
            covering = [rng.choice(source_names)]
        for name in covering:
            table[name][day] = rng.randint(-10, 30)
    table = {name: by_day for name, by_day in table.items() if by_day}
    return ForecastDataset(
        days=tuple(day_labels),
        sources=table,
        actuals={day: rng.randint(-10, 30) for day in day_labels},
    )


F = max(spec.gossip.f for spec in VARIANTS if spec.gossip is not None)


def _dataset_with_day_sizes(seed: int) -> ForecastDataset:
    """A random dataset plus days covered by exactly 1, 2 and f+1 sources.

    f is capped at n-1 on small days, so the gossip variants' shared graph
    has a different f from day to day.
    """
    rng = random.Random(seed)
    data = _random_dataset(rng, days=4, sources=F + 1)
    names = sorted(data.sources)
    sources = {name: dict(by_day) for name, by_day in data.sources.items()}
    extra = [f"2016-12-{size:02d}" for size in (1, 2, F + 1)]
    for day, size in zip(extra, (1, 2, F + 1)):
        for name in rng.sample(names, size):
            sources[name][day] = rng.randint(-10, 30)
    return ForecastDataset(
        days=data.days + tuple(extra),
        sources=sources,
        actuals={**data.actuals, **{day: rng.randint(-10, 30) for day in extra}},
    )


def _unshared_run_variant(data: ForecastDataset, spec: VariantSpec, seed: int) -> dict[str, int]:
    """Reference replay, one variant alone: every gossip day draws its own graph."""
    out = {}
    for index, day in enumerate(data.days):
        values = [pred for _, pred in data.predictions_for(day)]
        low = min(values)
        shifted = [value - low for value in values]
        if spec.gossip is not None:
            params = spec.gossip
            f = min(params.f, len(values) - 1)
            config = SimConfig(
                n=len(values), k=max(shifted), v=params.v, f=f,
                friend_prob=params.friend_prob if f > 0 else 0.0,
                activation_prob=ACTIVATION_PROB, strategy=params.strategy,
                mixed_consensus_prob=params.mixed_consensus_prob, include_self=INCLUDE_SELF,
                max_ticks=max(params.gossip_ticks, 1), seed=seed + index,
            )
            state = init(config, values=shifted)
            for _ in range(params.gossip_ticks):
                if state.settled and not any(state.inboxes):  # absorbing
                    break
                step(state)
            shifted = state.values
        out[day] = integrate(shifted, None, spec.supervisor) + low
    return out


class TestSharedDays:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_every_variant_matches_the_unshared_replay(self, seed):
        data = _dataset_with_day_sizes(seed)
        sizes = {len(data.predictions_for(day)) for day in data.days}
        assert {1, 2, F + 1} <= sizes and len(sizes) > 3
        for spec in VARIANTS:
            assert _run_days(data, [spec], seed)[0] == _unshared_run_variant(data, spec, seed)

    @pytest.mark.parametrize("seed", [4, 5, 6])
    def test_a_variant_row_does_not_depend_on_the_other_variants(self, seed):
        data = _dataset_with_day_sizes(seed)
        rows = evaluate(data, VARIANTS, seed)
        assert evaluate(data, VARIANTS[::-1], seed) == rows[::-1]
        for spec, row in zip(VARIANTS, rows):
            assert evaluate(data, [spec], seed) == [row]
            assert mae(_run_days(data, [spec], seed)[0], data.actuals) == row.system_mae

    def test_one_graph_per_day_and_distinct_friend_count(self, monkeypatch):
        data = _dataset_with_day_sizes(7)
        drawn = _count_graph_draws(monkeypatch, range(len(data.days)))
        evaluate(data, VARIANTS, seed=0)
        friend_counts = [spec.gossip.f for spec in VARIANTS if spec.gossip is not None]
        expected = [
            (index, f)
            for index, day in enumerate(data.days)
            for f in dict.fromkeys(min(f, len(data.predictions_for(day)) - 1) for f in friend_counts)
        ]
        assert drawn == expected

    def test_only_the_day_graphs_seed_an_rng(self, monkeypatch):
        # every other RNG of a day is a copy of a graph's RNG state, made without seeding
        data = load_dataset(str(DATA_DIR / "synthetic_predictions.csv"),
                            str(DATA_DIR / "synthetic_actuals.csv"))
        drawn, seeded = _count_graph_draws(monkeypatch, range(len(data.days))), []
        original_seed = random.Random.seed

        def counting_seed(self, *args, **kwargs):
            seeded.append(args)
            return original_seed(self, *args, **kwargs)

        monkeypatch.setattr(random.Random, "seed", counting_seed)
        evaluate(data, VARIANTS, seed=0)
        assert drawn and [args[0] for args in seeded] == [seed for seed, _ in drawn]


def _count_graph_draws(monkeypatch, seeds) -> list[tuple[int, int]]:
    """Route engine.make_friend_graph through a log of (seed, f) per graph drawn.

    A graph is its run RNG's first draw, so the RNG's state names the seed,
    one of seeds.
    """
    seed_at = {random.Random(seed).getstate(): seed for seed in seeds}
    make_friend_graph, drawn = engine.make_friend_graph, []

    def counting_make_friend_graph(n, f, rng, symmetric=False):
        drawn.append((seed_at[rng.getstate()], f))
        return make_friend_graph(n, f, rng, symmetric=symmetric)

    monkeypatch.setattr(engine, "make_friend_graph", counting_make_friend_graph)
    return drawn


class TestMae:
    def test_hand_arithmetic(self):
        assert mae({"a": 2, "b": 4}, {"a": 3, "b": 3}) == pytest.approx(1.0)

    def test_perfect_forecast(self):
        assert mae({"a": 3, "b": 5}, {"a": 3, "b": 5}) == 0.0

    def test_three_day_mean(self):
        assert mae(
            {"a": 0, "b": 0, "c": 3}, {"a": 1, "b": 2, "c": 3}
        ) == pytest.approx(1.0)

    def test_only_common_days_count(self):
        assert mae({"a": 0, "z": 99}, {"a": 1, "b": 5}) == pytest.approx(1.0)

    def test_empty_overlap_is_an_error(self):
        with pytest.raises(ValueError, match="overlap"):
            mae({"a": 1}, {"b": 2})


class TestCompareCell:
    def test_system_behind_best_source(self):
        cell = compare_cell(2.0, 1.78)
        assert cell.label == "89%"
        assert cell.ratio == pytest.approx(0.89)

    def test_system_ahead_of_worst_source(self):
        assert compare_cell(1.0, 1.17).label == "17% better"

    def test_equal_within_rounding(self):
        assert compare_cell(1.2, 1.2).label == "equal"
        assert compare_cell(1.0, 1.004).label == "equal"
        assert compare_cell(1.0, 0.996).label == "equal"

    def test_perfect_system_sentinel(self):
        cell = compare_cell(0.0, 1.5)
        assert cell.label == "perfect"
        assert cell.ratio is None
        assert compare_cell(0.0, 0.0).label == "equal"

    def test_zero_comparator_renders_zero_percent(self):
        assert compare_cell(2.0, 0.0).label == "0%"

    def test_rejects_negative_mae(self):
        with pytest.raises(ValueError, match="negative"):
            compare_cell(-1.0, 1.0)


class TestCompareReport:
    def test_builds_all_three_cells(self):
        report = compare_report(1.0, {"a": 0.5, "b": 2.0, "c": 0.5}, variant="x")
        assert report.vs_best.label == "50%"
        assert report.vs_worst.label == "100% better"
        assert report.vs_avg.label == "equal"  # mean is exactly 1.0

    def test_rejects_empty_sources(self):
        with pytest.raises(ValueError, match="source"):
            compare_report(1.0, {})


class TestZeroGossipEquivalence:
    def test_dominant_and_consensus_variants_collapse(self):
        rng = random.Random(31)
        data = _random_dataset(rng, days=10, sources=6)
        dom = variant_by_name("dominant-decentralized")
        dom = dom._replace(gossip=dom.gossip._replace(gossip_ticks=0))
        cons = variant_by_name("decentralized-consensus")
        cons = cons._replace(gossip=cons.gossip._replace(gossip_ticks=0))
        assert _run_days(data, [dom], 2)[0] == _run_days(
            data, [variant_by_name("basic-dominant")], 2
        )[0]
        assert _run_days(data, [cons], 2)[0] == _run_days(
            data, [variant_by_name("centralized-consensus")], 2
        )[0]


class TestEvaluate:
    def test_catalog_has_the_six_table_rows(self):
        assert [spec.name for spec in VARIANTS] == [
            "basic-dominant",
            "centralized-consensus",
            "decentralized-consensus",
            "decentralized-consensus-friends",
            "dominant-decentralized",
            "dominant-mixed",
        ]
        for spec in VARIANTS[:2]:
            assert spec.gossip is None

    def test_evaluate_variant_is_deterministic(self):
        data = _random_dataset(random.Random(17), days=10, sources=5)
        spec = variant_by_name("dominant-mixed")
        assert evaluate(data, [spec], seed=9) == evaluate(data, [spec], seed=9)

    def test_report_fields_are_consistent(self):
        data = _random_dataset(random.Random(23), days=10, sources=5)
        (report,) = evaluate(data, [variant_by_name("basic-dominant")], seed=0)
        assert report.system_mae >= 0.0
        assert set(report.per_source_mae) == set(data.sources)
        best = min(report.per_source_mae.values())
        worst = max(report.per_source_mae.values())
        if report.system_mae > 0:
            assert report.vs_best.ratio == pytest.approx(best / report.system_mae)
            assert report.vs_worst.ratio == pytest.approx(worst / report.system_mae)

    def test_render_table_and_payload(self):
        data = _random_dataset(random.Random(29), days=8, sources=4)
        reports = evaluate(data, VARIANTS, seed=0)
        table = render_table(reports)
        lines = table.strip().splitlines()
        assert len(lines) == 2 + len(VARIANTS)
        for spec in VARIANTS:
            assert spec.name in table
        payload = report_payload(reports, seed=0)
        decoded = json.loads(json.dumps(payload))
        assert decoded["seed"] == 0
        assert [v["variant"] for v in decoded["variants"]] == [s.name for s in VARIANTS]
        assert decoded["variants"][0]["vs_avg"]["ratio"] is not None


class TestGossipParams:
    def test_variant_specs_pin_the_stated_tuning(self):
        dom = variant_by_name("dominant-decentralized").gossip
        assert (dom.v, dom.f, dom.friend_prob, dom.strategy) == (3, 15, 0.4, "dominant")
        mixed = variant_by_name("dominant-mixed").gossip
        assert mixed.strategy == "mixed"
        assert mixed.mixed_consensus_prob == 0.5
        plain = variant_by_name("decentralized-consensus").gossip
        assert (plain.f, plain.friend_prob, plain.strategy) == (0, 0.0, "consensus")
        assert GossipParams().gossip_ticks == 50
