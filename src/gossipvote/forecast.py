"""Replay harness: aggregate per-day ensemble predictions through the protocol.

Three layers per day:

1. seeding — every source that issued a prediction for the day becomes one
   agent holding it (values are shifted so the day's min sits at 0, giving the
   engine its 0..k domain),
2. gossip — the agents run the configured protocol for a fixed number of
   ticks (skipped entirely for the centralized variants and for
   gossip_ticks <= 0),
3. supervision — a supervisor integrates the final population into the day's
   single prediction (dominant or consensus, with no own-value preference)
   and the shift is undone.

Each day gets its own RNG derived from the harness seed and the day's index,
so appending days never perturbs earlier ones.

The harness walks the days once for all requested variants. A day's shift
is computed once, and its gossip variants run in one engine.run call, which
draws each distinct friend graph once and steps variants whose draws
coincide together; nothing is kept from one day to the next.
"""

from __future__ import annotations

import csv
import math
from typing import Iterable, Mapping, NamedTuple, Sequence

from .engine import run
from .engine import step  # noqa: F401  perfbench's tracer test reads forecast.step
from .integration import integrate
from .model import _ASCII_SPACE, ConfigError, SimConfig, _ascii_number

# the replay layer fixes these; only v/f/friend_prob/strategy vary by variant
ACTIVATION_PROB = 0.5
INCLUDE_SELF = True


class DatasetError(ValueError):
    """A forecast CSV is malformed or internally inconsistent."""


class ForecastDataset(NamedTuple):
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

    Raises DatasetError with the offending file and line for malformed rows
    (the physical line a row ends on, so blank lines and quoted line breaks
    count), duplicate keys, predictions on days missing from the actuals, or
    an actuals file without days.
    """
    actuals: dict[str, int] = {}
    days: list[str] = []
    for line, (day, actual) in _read_rows(actuals_path, ("day", "actual")):
        day = day.strip(_ASCII_SPACE)
        if not day:
            raise DatasetError(f"{actuals_path}:{line}: empty day")
        if day in actuals:
            raise DatasetError(f"{actuals_path}:{line}: duplicate day {day!r}")
        actuals[day] = _parse_int(actual, actuals_path, line, "actual")
        days.append(day)
    if not days:
        raise DatasetError(f"{actuals_path}: no days")

    sources: dict[str, dict[str, int]] = {}
    columns = ("day", "source", "prediction")
    for line, (day, name, prediction) in _read_rows(predictions_path, columns):
        name = name.strip(_ASCII_SPACE)
        day = day.strip(_ASCII_SPACE)
        if not name:
            raise DatasetError(f"{predictions_path}:{line}: empty source")
        if day not in actuals:
            raise DatasetError(
                f"{predictions_path}:{line}: day {day!r} has no actual"
            )
        by_day = sources.setdefault(name, {})
        if day in by_day:
            raise DatasetError(
                f"{predictions_path}:{line}: duplicate prediction for "
                f"({name!r}, {day!r})"
            )
        by_day[day] = _parse_int(prediction, predictions_path, line, "prediction")

    return ForecastDataset(days=tuple(days), sources=sources, actuals=actuals)


def _read_rows(path: str, columns: tuple[str, ...]) -> Iterable[tuple[int, list[str]]]:
    """Each non-blank row after the header, with the physical line it ends on."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            reader = csv.reader(fh)
            header = next(reader, None)
            if not header or [c.strip(_ASCII_SPACE) for c in header] != list(columns):
                raise DatasetError(
                    f"{path}:1: expected header {','.join(columns)!r}, got "
                    f"{','.join(header) if header else '<empty file>'!r}"
                )
            for row in reader:
                if not row:
                    continue  # a blank line
                if len(row) != len(columns):
                    raise DatasetError(f"{path}:{reader.line_num}: wrong number of fields")
                yield reader.line_num, row
        except UnicodeDecodeError as exc:
            raise DatasetError(f"{path} is not {exc.encoding} text: {exc.reason}") from None
        except csv.Error as exc:  # e.g. a field longer than csv.field_size_limit()
            raise DatasetError(f"{path}:{reader.line_num}: {exc}") from None


def _parse_int(text: str, path: str, line: int, column: str) -> int:
    try:
        return _ascii_number(text)
    except ValueError:
        raise DatasetError(
            f"{path}:{line}: {column} must be an integer, got {text!r}"
        ) from None


class GossipParams(NamedTuple):
    """Protocol knobs the decentralized variants expose."""

    v: int = 3
    f: int = 15
    friend_prob: float = 0.4
    strategy: str = "dominant"
    mixed_consensus_prob: float = 0.0
    gossip_ticks: int = 50


class VariantSpec(NamedTuple):
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
    raise ConfigError(
        f"unknown variant {name!r}; known: {', '.join(s.name for s in VARIANTS)}"
    )


def _run_days(
    data: ForecastDataset, specs: Sequence[VariantSpec], seed: int
) -> list[dict[str, int]]:
    """Each variant's prediction per day, walking the days once for all variants."""
    runs: list[dict[str, int]] = [{} for _ in specs]
    params = [spec.gossip for spec in specs]
    for index, day in enumerate(data.days):
        values = [pred for _, pred in data.predictions_for(day)]
        if not values:
            raise DatasetError(f"day {day!r} has an actual but no predictions")
        low = min(values)
        try:
            finals = _gossip_day([value - low for value in values], params, seed + index)
        except ConfigError as exc:  # e.g. predictions spread wider than SimConfig's k allows
            raise ConfigError(f"day {day!r}: {exc}") from None
        for spec, predictions, final in zip(specs, runs, finals):
            predictions[day] = integrate(final, None, spec.supervisor) + low
    return runs


def _gossip_day(
    values: list[int], params: Sequence[GossipParams | None], seed: int
) -> list[list[int]]:
    """Each variant's values after the day's gossip, one engine.run for the day.

    A variant without gossip (params None or gossip_ticks <= 0) keeps values.
    The values are given, so the runs draw nothing before their first tick,
    and each ends as it would alone, whichever other variants run.
    """
    gossip = [index for index, p in enumerate(params) if p is not None and p.gossip_ticks > 0]
    n, k = len(values), max(values)
    configs = []
    for p in (params[index] for index in gossip):
        f = min(p.f, n - 1)  # small days cannot support the full friend count
        configs.append(SimConfig(
            n=n, k=k, v=p.v, f=f, friend_prob=p.friend_prob if f > 0 else 0.0,
            activation_prob=ACTIVATION_PROB, strategy=p.strategy,
            mixed_consensus_prob=p.mixed_consensus_prob, include_self=INCLUDE_SELF,
            max_ticks=p.gossip_ticks, seed=seed,
        ))
    finals = [values] * len(params)
    for index, traj in zip(gossip, run(configs, values)):
        finals[index] = traj.final
    return finals


def mae(predictions: Mapping[str, float], actuals: Mapping[str, int]) -> float:
    """Mean absolute error over the days both mappings cover."""
    common = [day for day in actuals if day in predictions]
    if not common:
        raise ValueError("no overlapping days between predictions and actuals")
    return sum(abs(predictions[day] - actuals[day]) for day in common) / len(common)


class Comparison(NamedTuple):
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


class EvalReport(NamedTuple):
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


def evaluate(
    data: ForecastDataset, specs: Iterable[VariantSpec] = VARIANTS, seed: int = 0
) -> list[EvalReport]:
    """One report per variant, in order; the days are walked once for all of them."""
    if seed < 0:  # day i gossips at seed + i; refused whether or not a variant gossips
        raise ConfigError(f"seed must be >= 0, got {seed}")
    specs = list(specs)
    system_maes = [mae(predictions, data.actuals) for predictions in _run_days(data, specs, seed)]
    per_source = {
        name: mae(by_day, data.actuals) for name, by_day in sorted(data.sources.items())
    }
    if not per_source:
        raise DatasetError("dataset has no sources")
    return [
        compare_report(system_mae, per_source, variant=spec.name)
        for spec, system_mae in zip(specs, system_maes)
    ]


def render_table(reports: list[EvalReport]) -> str:
    """Fixed-width text table: a header row, a rule, then one row per variant."""
    rows = [("variant", "mae", "vs best src", "vs worst src", "vs avg src")] + [
        (report.variant, f"{report.system_mae:.3f}", report.vs_best.label,
         report.vs_worst.label, report.vs_avg.label)
        for report in reports
    ]
    widths = [max(map(len, column)) for column in zip(*rows)]
    lines = ["  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
             for row in rows]
    lines.insert(1, "  ".join("-" * width for width in widths))
    return "\n".join(lines) + "\n"


def report_payload(reports: list[EvalReport], seed: int) -> dict:
    """JSON-ready mirror of the rendered table: each report's fields, in EvalReport's order.

    json writes a NamedTuple as a list, so each report and its Comparisons become dicts here.
    """
    return {"seed": seed, "variants": [
        {name: value._asdict() if isinstance(value, Comparison) else value
         for name, value in report._asdict().items()}
        for report in reports]}
