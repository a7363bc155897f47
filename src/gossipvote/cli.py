"""Command-line front end: simulate, sweep, forecast.

Exit codes: 0 success, 1 invalid inputs (bad arguments, scenario, grid, CSV,
or variant name, or sizes too large for memory), 2 I/O failure (missing
files, an unwritable output directory, or a helper process that died).

Each command imports only the modules it runs, and none of them loads numpy.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import NoReturn, Sequence

from .model import _ASCII_SPACE, ConfigError, _ascii_number
from .output import json_text, write_atomic

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_IO = 2


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors end in main's one error: line and exit 1."""

    def error(self, message: str) -> NoReturn:
        raise ConfigError(message)


def _number(text: str, kind: type = int) -> int | float:
    """An argparse type: text read as kind by the rule the grid and CSV readers apply."""
    try:
        return _ascii_number(text, kind)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gossipvote",
        description="Agent-based gossip voting simulator and forecast aggregation harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a scenario's replications")
    sim.add_argument("--scenario", required=True, help="path to a .scenario JSON file")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--workers", type=_number, default=1,
                     help="processes that run replications, this one included")

    swp = sub.add_parser("sweep", help="run a scenario over a parameter grid")
    swp.add_argument("--scenario", required=True, help="path to a .scenario JSON file")
    swp.add_argument("--grid", required=True, help='parameter grid, e.g. "v=3,20;f=0,20"')
    swp.add_argument("--out", required=True, help="output directory")
    swp.add_argument("--workers", type=_number, default=1,
                     help="processes that run grid cells, this one included")

    fct = sub.add_parser("forecast", help="replay an ensemble dataset through the variants")
    fct.add_argument("predictions", help="CSV with columns day,source,prediction")
    fct.add_argument("actuals", help="CSV with columns day,actual")
    fct.add_argument(
        "--variants",
        default=None,
        help="comma-separated variant names (default: all)",
    )
    fct.add_argument("--seed", type=_number, default=0, help="harness seed")
    fct.add_argument("--out", default=None, help="also write report.txt/report.json here")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_forecast(args)
    except ValueError as exc:  # ConfigError and DatasetError are ValueErrors
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return EXIT_INVALID
    except MemoryError:  # e.g. the observer's histogram of a huge k
        print("error: out of memory: a size in the inputs (such as n or k) is too large",
              file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .scenario import load_scenario, simulate_scenario

    scenario = load_scenario(args.scenario)
    written = simulate_scenario(scenario, args.out, workers=args.workers)
    for path in written:
        print(path)
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .scenario import load_scenario, parse_grid, sweep_scenario

    scenario = load_scenario(args.scenario)
    grid = parse_grid(args.grid)
    rows, skipped = sweep_scenario(scenario, grid, args.out, workers=args.workers)
    for line in skipped:
        print(line, file=sys.stderr)
    print(os.path.join(args.out, "sweep.csv"))
    print(f"{len(rows)} cells, {len(skipped)} skipped")
    return EXIT_OK


def _cmd_forecast(args: argparse.Namespace) -> int:
    from . import forecast as fc

    data = fc.load_dataset(args.predictions, args.actuals)
    if args.variants is None:
        specs = list(fc.VARIANTS)
    else:
        names = list(filter(None, (name.strip(_ASCII_SPACE) for name in args.variants.split(","))))
        if not names:
            raise ConfigError("--variants given but no variant names found")
        for index, name in enumerate(names):
            if name in names[:index]:
                raise ConfigError(f"--variants names {name!r} more than once")
        specs = [fc.variant_by_name(name) for name in names]
    reports = fc.evaluate(data, specs, seed=args.seed)
    table = fc.render_table(reports)
    print(table, end="")
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        write_atomic(os.path.join(args.out, "report.txt"), table)
        write_atomic(os.path.join(args.out, "report.json"),
                     json_text(fc.report_payload(reports, args.seed)))
        print(os.path.join(args.out, "report.txt"), file=sys.stderr)
        print(os.path.join(args.out, "report.json"), file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
