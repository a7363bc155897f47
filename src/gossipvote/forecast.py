"""Replay harness: aggregate per-day ensemble predictions through the protocol.

Three layers per day:

1. seeding — every source that issued a prediction for the day becomes one
   agent holding it (values are shifted so the day's min sits at 0, giving the
   engine its 0..k domain),
2. gossip — the agents run the configured protocol for a fixed number of
   ticks (skipped entirely for the centralized variants),
3. supervision — a supervisor integrates the final population into the day's
   single prediction (dominant or consensus, with no own-value preference)
   and the shift is undone.

Each day gets its own RNG derived from the harness seed and the day's index,
so appending days never perturbs earlier ones.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from .engine import init, step
from .integration import integrate
from .model import SimConfig

# the replay layer fixes these; only v/f/friend_prob/strategy vary by variant
ACTIVATION_PROB = 0.5
INCLUDE_SELF = True


class DatasetError(ValueError):
    """A forecast CSV is malformed or internally inconsistent."""


@dataclass(frozen=True)
class ForecastDataset:
    """Per-day integer predictions by named sources, plus the realized actuals.

    days preserves the actuals file order and drives per-day seed derivation.
    """

    days: tuple[str, ...]
    sources: dict[str, dict[str, int]]  # source -> day -> prediction
    actuals: dict[str, int]  # day -> actual

    def predictions_for(self, day: str) -> list[tuple[str, int]]:
        """(source, prediction) pairs available on a day, in source-name order."""
        return [
            (name, by_day[day])
            for name, by_day in sorted(self.sources.items())
            if day in by_day
        ]


def load_dataset(predictions_path: str, actuals_path: str) -> ForecastDataset:
    """Read the two CSVs (day,source,prediction and day,actual).

    Raises DatasetError with the offending file and row number for malformed
    rows, duplicate keys, or predictions on days missing from the actuals.
    """
    actuals: dict[str, int] = {}
    days: list[str] = []
    for row_no, row in _read_rows(actuals_path, ("day", "actual")):
        day = row["day"].strip()
        if not day:
            raise DatasetError(f"{actuals_path}:{row_no}: empty day")
        if day in actuals:
            raise DatasetError(f"{actuals_path}:{row_no}: duplicate day {day!r}")
        actuals[day] = _parse_int(row["actual"], actuals_path, row_no, "actual")
        days.append(day)

    sources: dict[str, dict[str, int]] = {}
    for row_no, row in _read_rows(predictions_path, ("day", "source", "prediction")):
        name = row["source"].strip()
        day = row["day"].strip()
        if not name:
            raise DatasetError(f"{predictions_path}:{row_no}: empty source")
        if day not in actuals:
            raise DatasetError(
                f"{predictions_path}:{row_no}: day {day!r} has no actual"
            )
        by_day = sources.setdefault(name, {})
        if day in by_day:
            raise DatasetError(
                f"{predictions_path}:{row_no}: duplicate prediction for "
                f"({name!r}, {day!r})"
            )
        by_day[day] = _parse_int(row["prediction"], predictions_path, row_no, "prediction")

    return ForecastDataset(days=tuple(days), sources=sources, actuals=actuals)


def _read_rows(path: str, columns: tuple[str, ...]) -> Iterable[tuple[int, dict[str, str]]]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames
        if header is None or [c.strip() for c in header] != list(columns):
            raise DatasetError(
                f"{path}:1: expected header {','.join(columns)!r}, got "
                f"{','.join(header) if header else '<empty file>'!r}"
            )
        for row_no, row in enumerate(reader, start=2):
            if None in row or any(value is None for value in row.values()):
                raise DatasetError(f"{path}:{row_no}: wrong number of fields")
            yield row_no, row


def _parse_int(text: str, path: str, row_no: int, column: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise DatasetError(
            f"{path}:{row_no}: {column} must be an integer, got {text!r}"
        ) from None


@dataclass(frozen=True)
class GossipParams:
    """Protocol knobs the decentralized variants expose."""

    v: int = 3
    f: int = 15
    friend_prob: float = 0.4
    strategy: str = "dominant"
    mixed_consensus_prob: float = 0.0
    gossip_ticks: int = 50


@dataclass(frozen=True)
class VariantSpec:
    """One aggregation variant: optional gossip layer plus a supervisor operator."""

    name: str
    supervisor: str  # "dominant" | "consensus"
    gossip: GossipParams | None = None


VARIANTS: tuple[VariantSpec, ...] = (
    VariantSpec("basic-dominant", supervisor="dominant"),
    VariantSpec("centralized-consensus", supervisor="consensus"),
    VariantSpec(
        "decentralized-consensus",
        supervisor="consensus",
        gossip=GossipParams(v=3, f=0, friend_prob=0.0, strategy="consensus"),
    ),
    VariantSpec(
        "decentralized-consensus-friends",
        supervisor="consensus",
        gossip=GossipParams(v=3, f=15, friend_prob=0.4, strategy="consensus"),
    ),
    VariantSpec(
        "dominant-decentralized",
        supervisor="dominant",
        gossip=GossipParams(v=3, f=15, friend_prob=0.4, strategy="dominant"),
    ),
    VariantSpec(
        "dominant-mixed",
        supervisor="dominant",
        gossip=GossipParams(
            v=3, f=15, friend_prob=0.4, strategy="mixed", mixed_consensus_prob=0.5
        ),
    ),
)


def variant_by_name(name: str) -> VariantSpec:
    for spec in VARIANTS:
        if spec.name == name:
            return spec
    raise KeyError(
        f"unknown variant {name!r}; known: {', '.join(s.name for s in VARIANTS)}"
    )


def run_variant(
    data: ForecastDataset, spec: VariantSpec, seed: int = 0
) -> dict[str, int]:
    """One integrated prediction per day for a variant. Pure in (data, spec, seed)."""
    out: dict[str, int] = {}
    for index, day in enumerate(data.days):
        available = data.predictions_for(day)
        if not available:
            raise DatasetError(f"day {day!r} has an actual but no predictions")
        values = [pred for _, pred in available]
        out[day] = _integrate_day(values, spec, seed + index)
    return out


def _integrate_day(values: list[int], spec: VariantSpec, seed: int) -> int:
    low = min(values)
    shifted = [value - low for value in values]
    k = max(shifted)
    if spec.gossip is not None:
        shifted = _gossip_day(shifted, k, spec.gossip, seed)
    return integrate(shifted, None, spec.supervisor) + low


def _gossip_day(values: list[int], k: int, params: GossipParams, seed: int) -> list[int]:
    n = len(values)
    f = min(params.f, n - 1)  # small days cannot support the full friend count
    friend_prob = params.friend_prob if f > 0 else 0.0
    config = SimConfig(
        n=n, k=k, v=params.v, f=f, friend_prob=friend_prob, activation_prob=ACTIVATION_PROB,
        strategy=params.strategy, mixed_consensus_prob=params.mixed_consensus_prob,
        include_self=INCLUDE_SELF, max_ticks=max(params.gossip_ticks, 1), seed=seed,
    )
    # the day's seed gives the graph first, then no value draws: values are given
    state = init(config, values=values)
    for _ in range(params.gossip_ticks):
        if state.is_absorbing():
            break
        step(state)
    return state.values


def mae(predictions: Mapping[str, float], actuals: Mapping[str, int]) -> float:
    """Mean absolute error over the days both mappings cover."""
    common = [day for day in actuals if day in predictions]
    if not common:
        raise ValueError("no overlapping days between predictions and actuals")
    return sum(abs(predictions[day] - actuals[day]) for day in common) / len(common)


@dataclass(frozen=True)
class Comparison:
    """How a comparator's MAE relates to the system's, as a Table-style cell.

    ratio is comparator_mae / system_mae (None when the system's MAE is 0).
    label renders it: "equal" at (rounded) parity, "N%" when the comparator is
    ahead (its error is N% of the system's), "N% better" when the system wins.
    """

    ratio: float | None
    label: str


def compare_cell(system_mae: float, comparator_mae: float) -> Comparison:
    """One table cell: the documented ratio reconstruction, isolated here."""
    if system_mae < 0 or comparator_mae < 0:
        raise ValueError("MAE cannot be negative")
    if system_mae == 0:
        # a perfect system cannot be expressed as a ratio denominator
        return Comparison(None, "equal" if comparator_mae == 0 else "perfect")
    ratio = comparator_mae / system_mae
    percent = math.floor(100 * ratio + 0.5)  # half-up, not banker's rounding
    if percent == 100:
        return Comparison(ratio, "equal")
    if percent < 100:
        return Comparison(ratio, f"{percent}%")
    return Comparison(ratio, f"{percent - 100}% better")


@dataclass(frozen=True)
class EvalReport:
    """One variant's standing against the individual sources."""

    variant: str
    system_mae: float
    per_source_mae: dict[str, float]
    vs_best: Comparison
    vs_worst: Comparison
    vs_avg: Comparison


def compare_report(
    system_mae: float, per_source_mae: Mapping[str, float], variant: str = "system"
) -> EvalReport:
    """Full report row: the system against the best/worst/average source MAE."""
    if not per_source_mae:
        raise ValueError("need at least one source MAE to compare against")
    source_maes = list(per_source_mae.values())
    return EvalReport(
        variant=variant,
        system_mae=system_mae,
        per_source_mae=dict(per_source_mae),
        vs_best=compare_cell(system_mae, min(source_maes)),
        vs_worst=compare_cell(system_mae, max(source_maes)),
        vs_avg=compare_cell(system_mae, sum(source_maes) / len(source_maes)),
    )


def evaluate_variant(
    data: ForecastDataset, spec: VariantSpec, seed: int = 0
) -> EvalReport:
    predictions = run_variant(data, spec, seed)
    system_mae = mae(predictions, data.actuals)
    per_source = {
        name: mae(by_day, data.actuals) for name, by_day in sorted(data.sources.items())
    }
    if not per_source:
        raise DatasetError("dataset has no sources")
    return compare_report(system_mae, per_source, variant=spec.name)


def evaluate(
    data: ForecastDataset, specs: Iterable[VariantSpec] = VARIANTS, seed: int = 0
) -> list[EvalReport]:
    return [evaluate_variant(data, spec, seed) for spec in specs]


def render_table(reports: list[EvalReport]) -> str:
    """Fixed-width text table, one row per variant."""
    headers = ("variant", "mae", "vs best src", "vs worst src", "vs avg src")
    rows = [
        (
            report.variant,
            f"{report.system_mae:.3f}",
            report.vs_best.label,
            report.vs_worst.label,
            report.vs_avg.label,
        )
        for report in reports
    ]
    widths = [
        max(len(headers[col]), *(len(row[col]) for row in rows)) if rows else len(headers[col])
        for col in range(len(headers))
    ]
    lines = [
        "  ".join(headers[col].ljust(widths[col]) for col in range(len(headers))).rstrip()
    ]
    lines.append("  ".join("-" * widths[col] for col in range(len(headers))))
    for row in rows:
        lines.append(
            "  ".join(row[col].ljust(widths[col]) for col in range(len(headers))).rstrip()
        )
    return "\n".join(lines) + "\n"


def report_payload(reports: list[EvalReport], seed: int) -> dict:
    """JSON-ready mirror of the rendered table."""
    return {
        "seed": seed,
        "variants": [
            {
                "variant": report.variant,
                "system_mae": report.system_mae,
                "per_source_mae": report.per_source_mae,
                "vs_best": _comparison_payload(report.vs_best),
                "vs_worst": _comparison_payload(report.vs_worst),
                "vs_avg": _comparison_payload(report.vs_avg),
            }
            for report in reports
        ],
    }


def _comparison_payload(comparison: Comparison) -> dict:
    return {"ratio": comparison.ratio, "label": comparison.label}
