#!/usr/bin/env python3
"""Regenerate the bundled synthetic forecast fixture.

Five sources shadow a deterministic daily temperature-like series with fixed
integer biases (-2, -1, 0, +1, +2), so every per-source MAE is known exactly
and the per-day mode is always the lowest-biased prediction (all five values
are distinct). The series itself is a closed-form wave — no RNG, so the files
are reproducible byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
from datetime import date, timedelta

from gossipvote.cli import _number

BIASES = {"bias_m2": -2, "bias_m1": -1, "bias_0": 0, "bias_p1": 1, "bias_p2": 2}


def actual_for(day_index: int) -> int:
    seasonal = 9.0 * math.sin(2.0 * math.pi * day_index / 60.0)
    weekly = 3.0 * math.sin(2.0 * math.pi * day_index / 7.0)
    return round(12.0 + seasonal + weekly)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--days", type=_number, default=60, help="number of days")
    parser.add_argument("--start", default="2016-10-01", help="first day (ISO date)")
    parser.add_argument("--out-dir", default="data", help="output directory")
    args = parser.parse_args()

    first = date.fromisoformat(args.start)
    days = [(first + timedelta(days=i)).isoformat() for i in range(args.days)]

    os.makedirs(args.out_dir, exist_ok=True)
    actuals_path = os.path.join(args.out_dir, "synthetic_actuals.csv")
    predictions_path = os.path.join(args.out_dir, "synthetic_predictions.csv")

    with open(actuals_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["day", "actual"])
        for i, day in enumerate(days):
            writer.writerow([day, actual_for(i)])

    with open(predictions_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["day", "source", "prediction"])
        for i, day in enumerate(days):
            for source, bias in sorted(BIASES.items()):
                writer.writerow([day, source, actual_for(i) + bias])

    print(actuals_path)
    print(predictions_path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
