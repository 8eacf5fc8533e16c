"""Seeded generator of prediction inputs in the rtp transient-log CSV schema.

The benchmark owns this generator, so a change to rtp's own corpus
synthesizer does not change the benchmark's predict inputs. Rows are valid
inputs, not physically consistent transients: dates span the four core
configurations, powers are log-uniform over the classifiable range with the
final power different from the initial one, and rod heights are uniform.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
import random
from pathlib import Path

HEADER = [
    "date",
    "start_time",
    "end_time",
    "initial_power_w",
    "final_power_w",
    "rod1_i",
    "rod2_i",
    "rod3_i",
    "reg_i",
    "rod1_f",
    "rod2_f",
    "rod3_f",
    "reg_f",
]

FIRST_DATE = dt.date(2013, 1, 7)
LAST_DATE = dt.date(2015, 10, 10)
MIN_POWER_W = 1.2
MAX_POWER_W = 200_000.0
MAX_ROD_IN = 24.0


def _power(rng: random.Random) -> float:
    value = math.exp(rng.uniform(math.log(MIN_POWER_W), math.log(MAX_POWER_W)))
    return min(max(value, MIN_POWER_W), MAX_POWER_W)


def generate_rows(n: int, seed: int) -> list[list[str]]:
    """n CSV records (without header); the same seed gives the same rows."""
    if n <= 0:
        raise ValueError("n must be positive")
    rng = random.Random(seed)
    n_days = (LAST_DATE - FIRST_DATE).days + 1
    rows = []
    for _ in range(n):
        date = FIRST_DATE + dt.timedelta(days=rng.randrange(n_days))
        start = rng.randrange(22 * 60)
        end = start + rng.randrange(5, 60)
        p_initial = _power(rng)
        p_final = _power(rng)
        while p_final == p_initial:
            p_final = _power(rng)
        rods = [rng.uniform(0.0, MAX_ROD_IN) for _ in range(8)]
        rows.append(
            [
                date.isoformat(),
                f"{start // 60:02d}:{start % 60:02d}",
                f"{end // 60:02d}:{end % 60:02d}",
                repr(p_initial),
                repr(p_final),
                *[repr(h) for h in rods],
            ]
        )
    return rows


def write_csv(rows: list[list[str]], path: Path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(HEADER)
        writer.writerows(rows)
