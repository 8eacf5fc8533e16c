"""Transient-log CSV parsing, exclusion filtering, and synthetic corpus generation."""

from __future__ import annotations

import csv
import datetime as dt
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, TextIO, Union

import numpy as np

from .domain import (
    DEFAULT_CONFIGS,
    FULL_POWER_W,
    MAX_ROD_TRAVEL_IN,
    CoreConfiguration,
    ReactorState,
    TransientObservation,
    reactivity_of_state,
)

CSV_HEADER = [
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

# A transient ending below this power is treated as a shutdown and excluded.
SHUTDOWN_POWER_W = 1.0

# Transients longer than one hour are excluded.
MAX_DURATION_MINUTES = 60.0

DEFAULT_POWER_ANCHORS = (2.0, 20.0, 200.0, 2000.0, 20_000.0, 200_000.0)

# Corpus power-law coupling: total rod reactivity at steady state rises
# affinely with ln(power), from RHO_AT_1W at 1 W to RHO_AT_FULL at full power.
# Staying well above 1 $ keeps the power-ratio relation on one side of its
# singularity.
RHO_AT_1W = 2.5
RHO_AT_FULL = 12.5
REACTIVITY_NOISE_DOLLARS = 0.4
POWER_JITTER_SIGMA = 0.5
MIN_CORPUS_POWER_W = 1.2

# Last day of synthetic operations (config 123 era).
CORPUS_END_DATE = dt.date(2015, 10, 10)


class ParseError(ValueError):
    """Malformed or out-of-range field in a transient-log CSV."""


class DataError(ValueError):
    """Structurally invalid input data (empty file, bad header, bad spec)."""


@dataclass(frozen=True)
class RawLogRow:
    """One parsed CSV row, prior to exclusion filtering."""

    row_index: int
    date: dt.date
    start_time: dt.time
    end_time: dt.time
    initial_power: float
    final_power: float
    initial_rods: tuple[float, float, float, float]
    final_rods: tuple[float, float, float, float]


@dataclass(frozen=True)
class CorpusSpec:
    """Parameters for the synthetic ground-truth corpus."""

    n_observations: int
    seed: int
    power_anchors: tuple[float, ...] = DEFAULT_POWER_ANCHORS
    rod_noise_scale: float = 0.15

    def __post_init__(self) -> None:
        if self.n_observations <= 0:
            raise DataError("n_observations must be positive")
        if not self.power_anchors:
            raise DataError("at least one power anchor required")
        for a in self.power_anchors:
            if not (0.0 < a <= FULL_POWER_W):
                raise DataError(f"anchor {a} W outside (0, {FULL_POWER_W}]")
        if len(self.power_anchors) < 2:
            raise DataError("need at least two anchors to form power changes")
        if self.rod_noise_scale < 0:
            raise DataError("rod_noise_scale must be non-negative")


@dataclass
class FilterCounts:
    """Exclusion tallies from filter_observations."""

    retained: int = 0
    too_long: int = 0
    shutdown: int = 0
    no_change: int = 0


def _parse_field(raw: str, kind: str, row_index: int, name: str):
    try:
        if kind == "date":
            return dt.date.fromisoformat(raw)
        if kind == "time":
            return dt.time.fromisoformat(raw)
        return float(raw)
    except ValueError as exc:
        raise ParseError(f"row {row_index}: field '{name}': cannot parse {raw!r}") from exc


def _check_range(value: float, lo: float, hi: float, row_index: int, name: str) -> float:
    if not (lo <= value <= hi):
        raise ParseError(f"row {row_index}: field '{name}': {value} outside [{lo}, {hi}]")
    return value


def parse_log(source: Union[str, Path, TextIO]) -> list[RawLogRow]:
    """Parse a transient-log CSV into RawLogRows.

    Row indices are 1-based over data rows (header excluded) so errors point
    at the offending line.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", newline="") as handle:
            return parse_log(handle)

    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise DataError("empty CSV: no header row") from None
    if header != CSV_HEADER:
        raise DataError(f"unexpected CSV header {header}; expected {CSV_HEADER}")

    rows: list[RawLogRow] = []
    for i, record in enumerate(reader, start=1):
        if not record:
            continue
        if len(record) != len(CSV_HEADER):
            raise ParseError(f"row {i}: expected {len(CSV_HEADER)} fields, got {len(record)}")
        date = _parse_field(record[0], "date", i, "date")
        start_time = _parse_field(record[1], "time", i, "start_time")
        end_time = _parse_field(record[2], "time", i, "end_time")
        if end_time < start_time:
            raise ParseError(f"row {i}: field 'end_time': {end_time} is before {start_time}")
        p_i = _parse_field(record[3], "float", i, "initial_power_w")
        p_f = _parse_field(record[4], "float", i, "final_power_w")
        if p_i <= 0:
            raise ParseError(f"row {i}: field 'initial_power_w': {p_i} must be positive")
        if p_f <= 0:
            raise ParseError(f"row {i}: field 'final_power_w': {p_f} must be positive")
        _check_range(p_i, 0.0, FULL_POWER_W, i, "initial_power_w")
        _check_range(p_f, 0.0, FULL_POWER_W, i, "final_power_w")
        rods = []
        for j, name in enumerate(CSV_HEADER[5:], start=5):
            h = _parse_field(record[j], "float", i, name)
            rods.append(_check_range(h, 0.0, MAX_ROD_TRAVEL_IN, i, name))
        rows.append(
            RawLogRow(
                row_index=i,
                date=date,
                start_time=start_time,
                end_time=end_time,
                initial_power=p_i,
                final_power=p_f,
                initial_rods=tuple(rods[:4]),
                final_rods=tuple(rods[4:]),
            )
        )
    if not rows:
        raise DataError("CSV contains a header but no data rows")
    return rows


def row_to_observation(row: RawLogRow) -> TransientObservation:
    return TransientObservation(
        date=row.date,
        start_time=row.start_time,
        end_time=row.end_time,
        initial=ReactorState(row.initial_power, row.initial_rods),
        final=ReactorState(row.final_power, row.final_rods),
    )


def filter_report(rows: Iterable[RawLogRow]) -> tuple[list[TransientObservation], FilterCounts]:
    """Apply the exclusion rules, returning survivors plus exclusion counts.

    Excluded: transients longer than one hour, shutdowns (final power below
    1 W), and zero-power-change rows.
    """
    counts = FilterCounts()
    kept: list[TransientObservation] = []
    for row in rows:
        start = row.start_time.hour * 60 + row.start_time.minute
        end = row.end_time.hour * 60 + row.end_time.minute
        if end - start > MAX_DURATION_MINUTES:
            counts.too_long += 1
            continue
        if row.final_power < SHUTDOWN_POWER_W:
            counts.shutdown += 1
            continue
        if row.final_power == row.initial_power:
            counts.no_change += 1
            continue
        kept.append(row_to_observation(row))
        counts.retained += 1
    return kept, counts


def filter_observations(rows: Iterable[RawLogRow]) -> list[TransientObservation]:
    """Exclusion filtering without the counts report."""
    kept, _ = filter_report(rows)
    return kept


def _era_bounds(
    configs: tuple[CoreConfiguration, ...],
) -> list[tuple[CoreConfiguration, int, int]]:
    ordered = sorted(configs, key=lambda c: c.start_date)
    bounds = []
    for idx, config in enumerate(ordered):
        start = config.start_date.toordinal()
        if idx + 1 < len(ordered):
            end = ordered[idx + 1].start_date.toordinal()
        else:
            end = CORPUS_END_DATE.toordinal() + 1
        bounds.append((config, start, end))
    return bounds


def _rho_of_power(power: float) -> float:
    frac = math.log(power) / math.log(FULL_POWER_W)
    return RHO_AT_1W + (RHO_AT_FULL - RHO_AT_1W) * frac


def _heights_for_reactivity(
    target: float, worths: tuple[float, ...], rng: np.random.Generator
) -> np.ndarray:
    """Random rod heights whose linear-worth reactivity equals `target`.

    Rods are visited in a random order; each draws a withdrawal fraction
    uniformly from the interval that keeps the remaining target reachable by
    the rods still to come, and the last rod closes the balance exactly.
    """
    worths_arr = np.asarray(worths, dtype=np.float64)
    if not (0.0 <= target <= float(worths_arr.sum())):
        raise DataError(f"infeasible reactivity target {target} $ for worths {worths}")
    order = rng.permutation(len(worths))
    fractions = np.zeros(len(worths))
    remaining = target
    for pos, rod in enumerate(order):
        w = worths_arr[rod]
        rest = float(worths_arr[order[pos + 1 :]].sum())
        lo = max(0.0, (remaining - rest) / w)
        hi = min(1.0, remaining / w)
        f = hi if pos == len(order) - 1 else rng.uniform(lo, hi)
        fractions[rod] = f
        remaining -= f * w
    return fractions * MAX_ROD_TRAVEL_IN


def _synth_state(
    power: float,
    config: CoreConfiguration,
    rng: np.random.Generator,
    rod_noise_scale: float,
) -> ReactorState:
    rho_target = _rho_of_power(power) + rng.normal(0.0, REACTIVITY_NOISE_DOLLARS)
    rho_target = float(np.clip(rho_target, 1.5, config.total_worth() - 0.2))
    heights = _heights_for_reactivity(rho_target, config.rod_worths, rng)
    if rod_noise_scale > 0:
        heights = heights + rng.normal(0.0, rod_noise_scale, size=heights.shape)
        heights = np.clip(heights, 0.0, MAX_ROD_TRAVEL_IN)
    return ReactorState(power, tuple(float(h) for h in heights))


def synthesize_corpus(
    spec: CorpusSpec, configs: tuple[CoreConfiguration, ...] = DEFAULT_CONFIGS
) -> list[TransientObservation]:
    """Generate a deterministic synthetic corpus of transient observations.

    Powers cluster around decade anchors; rod heights are allocated so total
    rod reactivity rises monotonically with the log of power, making the
    reactivity difference between states consistent with the power direction.
    """
    rng = np.random.default_rng(spec.seed)
    eras = _era_bounds(configs)
    anchors = np.asarray(spec.power_anchors)
    observations: list[TransientObservation] = []

    while len(observations) < spec.n_observations:
        config, lo, hi = eras[int(rng.integers(0, len(eras)))]
        date = dt.date.fromordinal(int(rng.integers(lo, hi)))

        idx_i, idx_f = rng.choice(len(anchors), size=2, replace=False)
        p_i = float(anchors[idx_i] * math.exp(rng.normal(0.0, POWER_JITTER_SIGMA)))
        p_f = float(anchors[idx_f] * math.exp(rng.normal(0.0, POWER_JITTER_SIGMA)))
        p_i = float(np.clip(p_i, MIN_CORPUS_POWER_W, FULL_POWER_W))
        p_f = float(np.clip(p_f, MIN_CORPUS_POWER_W, FULL_POWER_W))
        if p_f == p_i:
            continue

        state_i = state_f = None
        for _ in range(100):
            state_i = _synth_state(p_i, config, rng, spec.rod_noise_scale)
            state_f = _synth_state(p_f, config, rng, spec.rod_noise_scale)
            d_rho = reactivity_of_state(state_f, config) - reactivity_of_state(state_i, config)
            if d_rho != 0 and (d_rho > 0) == (p_f > p_i):
                break
        else:
            continue

        start_minute = int(rng.integers(0, 22 * 60))
        duration = int(rng.integers(5, 60))
        start = dt.time(start_minute // 60, start_minute % 60)
        end_minute = start_minute + duration
        end = dt.time(end_minute // 60, end_minute % 60)

        observations.append(
            TransientObservation(
                date=date, start_time=start, end_time=end, initial=state_i, final=state_f
            )
        )
    return observations


def observation_to_record(obs: TransientObservation) -> list[str]:
    return [
        obs.date.isoformat(),
        obs.start_time.strftime("%H:%M"),
        obs.end_time.strftime("%H:%M"),
        repr(obs.initial.power),
        repr(obs.final.power),
        *[repr(h) for h in obs.initial.rod_heights],
        *[repr(h) for h in obs.final.rod_heights],
    ]


def write_observations(observations: Iterable[TransientObservation], path: Union[str, Path]) -> None:
    """Write observations in the transient-log CSV schema."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_HEADER)
        for obs in observations:
            writer.writerow(observation_to_record(obs))


def read_observations(path: Union[str, Path]) -> list[TransientObservation]:
    """Parse and filter a transient-log CSV in one step."""
    return filter_observations(parse_log(path))
