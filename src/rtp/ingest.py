"""Transient-log CSV parsing, exclusion filtering, and synthetic corpus generation."""

from __future__ import annotations

import csv
import datetime as dt
import math
import operator
from dataclasses import dataclass, fields
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO, Union

import numpy as np

from .domain import (
    DEFAULT_CONFIGS,
    ERA_STARTS,
    FULL_POWER_W,
    LN_FULL_POWER,
    MAX_ROD_TRAVEL_IN,
    N_RODS,
    ReactorState,
    TransientObservation,
    is_nonnegative_integer,
    rod_reactivity,
    shown,
)
from .files import writing

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

# Corpus powers cluster around these decade anchors (W).
POWER_ANCHORS = (2.0, 20.0, 200.0, 2000.0, 20_000.0, 200_000.0)

# Corpus power-law coupling: total rod reactivity at steady state rises
# affinely with ln(power), from RHO_AT_1W at 1 W to RHO_AT_FULL at full power.
# Staying well above 1 $ keeps the power-ratio relation on one side of its
# singularity.
RHO_AT_1W = 2.5
RHO_AT_FULL = 12.5
REACTIVITY_NOISE_DOLLARS = 0.4
POWER_JITTER_SIGMA = 0.5
# Gaussian noise (inches) added to each corpus rod height.
ROD_NOISE_SCALE = 0.15
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

    def __post_init__(self) -> None:
        if self.n_observations <= 0:
            raise DataError("n_observations must be positive")
        if not is_nonnegative_integer(self.seed):
            raise DataError(f"seed must be an integer >= 0, got {self.seed!r}")


@dataclass
class FilterCounts:
    """Exclusion tallies from filter_report."""

    retained: int = 0
    too_long: int = 0
    shutdown: int = 0
    no_change: int = 0


@dataclass
class ObservationTable:
    """n transients as columns: row k of every array is one transient.

    `powers` holds the initial then the final power (W); `rods` holds the
    initial rod1, rod2, rod3 and regulating-rod heights (inches), then the
    final ones, in CSV column order. `row_index` is each row's 1-based CSV
    data-row number (blank lines count), which errors report.
    """

    row_index: np.ndarray  # (n,) int64
    date: np.ndarray  # (n,) int64 day ordinals
    times: np.ndarray  # (n, 2) object: start and end datetime.time
    powers: np.ndarray  # (n, 2) float64
    rods: np.ndarray  # (n, 8) float64

    def __len__(self) -> int:
        return self.row_index.shape[0]

    @classmethod
    def from_observations(cls, observations: Sequence[TransientObservation]) -> "ObservationTable":
        """The observations as a table, rows numbered from 1 in order."""
        n = len(observations)
        values = np.array(
            [
                (o.date.toordinal(), o.initial.power, o.final.power,
                 *o.initial.rod_heights, *o.final.rod_heights)
                for o in observations
            ],
            dtype=np.float64,
        ).reshape(n, 11)
        times = np.array([(o.start_time, o.end_time) for o in observations], dtype=object)
        return cls(
            np.arange(1, n + 1), values[:, 0].astype(np.int64), times.reshape(n, 2),
            values[:, 1:3], values[:, 3:],
        )

    @classmethod
    def concat(cls, tables: Sequence["ObservationTable"]) -> "ObservationTable":
        """The tables' rows one after another, each keeping its row_index."""
        return cls(*(np.concatenate([getattr(t, f.name) for t in tables]) for f in fields(cls)))

    def take(self, idx) -> "ObservationTable":
        """The rows at `idx` (indices or a boolean mask), in that order."""
        return ObservationTable(*(getattr(self, f.name)[idx] for f in fields(self)))

    @property
    def duration_minutes(self) -> np.ndarray:
        """Wall-clock minutes from start to end, counting whole minutes (seconds
        are ignored)."""
        return np.array(
            [(end.hour - start.hour) * 60 + end.minute - start.minute for start, end in self.times],
            dtype=np.float64,
        )

    def rows(self) -> list[RawLogRow]:
        """One RawLogRow per row."""
        return [
            RawLogRow(i, dt.date.fromordinal(d), start, end, p_i, p_f, tuple(r[:4]), tuple(r[4:]))
            for i, d, (start, end), (p_i, p_f), r in zip(
                self.row_index.tolist(), self.date.tolist(), self.times.tolist(),
                self.powers.tolist(), self.rods.tolist(),
            )
        ]


def _parse_column(raw: Sequence[str], parse, name: str, errors: list) -> list:
    """parse() of each value; on a failure, the values before it, and the
    failure's position and message appended to `errors`."""
    try:
        return list(map(parse, raw))
    except ValueError:
        for k, value in enumerate(raw):
            try:
                parse(value)
            except ValueError:
                errors.append((k, f"field '{name}': cannot parse {shown(value)}"))
                return list(map(parse, raw[:k]))
        raise


def _flag_first(bad, values: list, name: str, describe, errors: list) -> None:
    """Append the position and message of the first True in `bad`, if any;
    describe(value) words the fault."""
    hits = np.flatnonzero(bad)
    if hits.size:
        k = int(hits[0])
        errors.append((k, f"field '{name}': {describe(values[k])}"))


def _check_range(values: list, lo: float, hi: float, name: str, errors: list) -> np.ndarray:
    column = np.array(values, dtype=np.float64)
    outside = ~((lo <= column) & (column <= hi))
    _flag_first(outside, values, name, lambda v: f"{v} outside [{lo}, {hi}]", errors)
    return column


# Data rows that read_chunks parses at a time, so that only a chunk's raw
# strings are alive at once; and rows in a block of compose.run_stage's pass.
CHUNK_ROWS = 256


def read_log(source: Union[str, Path, TextIO]) -> ObservationTable:
    """Parse a transient-log CSV into a table, column by column, a chunk of
    read_chunks at a time.

    Rows are numbered from 1 over data rows (header excluded, blank lines
    counted) so errors point at the offending line. A failure raises
    ParseError for the first failing row and, within it, the first failing
    check in this order: field count, date, start and end time (each
    parsed, then refused if it has a UTC offset), end before start, both
    powers, power positivity, power range, then each rod height and its range.
    """
    return ObservationTable.concat(list(read_chunks(source)))


def parse_log(source: Union[str, Path, TextIO]) -> list[RawLogRow]:
    """read_log's rows as RawLogRows, built a chunk at a time."""
    return [row for chunk in read_chunks(source) for row in chunk.rows()]


def read_chunks(source: Union[str, Path, TextIO]) -> Iterator[ObservationTable]:
    """The tables of successive chunks of CHUNK_ROWS data rows of a
    transient-log CSV, the last taking a shorter remainder too, as
    compose.run_stage cuts a pass into blocks; each chunk is parsed and
    checked as read_log says before it is yielded."""
    if isinstance(source, (str, Path)):
        with open(source, "r", newline="") as handle:
            yield from read_chunks(handle)
        return

    records = _records(csv.reader(source))
    header = next(records, None)
    if header is None:
        raise DataError("empty CSV: no header row")
    if header != CSV_HEADER:
        # Each field as shown gives it; a header the csv module refused is its csv.Error.
        if isinstance(header, list):
            header = f"[{', '.join(map(shown, header))}]"
        raise DataError(f"unexpected CSV header {header}; expected {CSV_HEADER}")
    rows = ((i, record) for i, record in enumerate(records, start=1) if record)
    chunk = list(islice(rows, CHUNK_ROWS))
    if not chunk:
        raise DataError("CSV contains a header but no data rows")
    while chunk:
        # Only the next chunk's raw records are read ahead of the yield.
        ahead = list(islice(rows, CHUNK_ROWS))
        if len(ahead) < CHUNK_ROWS:
            chunk, ahead = chunk + ahead, []
        yield _parse_rows(*zip(*chunk))
        chunk = ahead


def _records(reader: Iterator[list[str]]) -> Iterator[Union[list[str], csv.Error]]:
    """The reader's records; one that the csv module refuses (a field over
    its size limit) ends them as its csv.Error."""
    while True:
        try:
            record = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            yield exc
            return
        yield record


def _parse_rows(
    row_index: tuple[int, ...], records: tuple[Union[list[str], csv.Error], ...]
) -> ObservationTable:
    """The table of non-blank CSV records, numbered by `row_index`. Every
    check runs on every record; a ParseError names the first failing row and
    check."""
    # (position, message) of each check's first failure, appended in the
    # per-row check order; each check sees the rows whose inputs parsed.
    errors: list[tuple[int, str]] = []
    width = len(CSV_HEADER)
    # A refused record fails the first check, as a record of the wrong width does.
    n = next(
        (k for k, record in enumerate(records)
         if isinstance(record, csv.Error) or len(record) != width),
        len(records),
    )
    if n < len(records):
        fault = records[n]
        if isinstance(fault, csv.Error):
            errors.append((n, str(fault)))
        else:
            errors.append((n, f"expected {width} fields, got {len(fault)}"))
    columns = list(zip(*records[:n])) or [()] * width

    dates = _parse_column(columns[0], dt.date.fromisoformat, "date", errors)
    # Durations count wall-clock minutes, so a time with a UTC offset is
    # refused; later checks see the times before the first such one.
    clock = []
    for j in (1, 2):
        parsed = _parse_column(columns[j], dt.time.fromisoformat, CSV_HEADER[j], errors)
        aware = [time.tzinfo is not None for time in parsed]
        _flag_first(aware, columns[j], CSV_HEADER[j], lambda v: f"{v!r} has a UTC offset", errors)
        clock.append(parsed[: aware.index(True)] if any(aware) else parsed)
    starts, ends = clock
    if any(map(operator.lt, ends, starts)):
        k = next(k for k, before in enumerate(map(operator.lt, ends, starts)) if before)
        errors.append((k, f"field 'end_time': {ends[k]} is before {starts[k]}"))
    powers = [_parse_column(columns[j], float, CSV_HEADER[j], errors) for j in (3, 4)]
    for values, name in zip(powers, CSV_HEADER[3:5]):
        _flag_first(np.array(values) <= 0, values, name, lambda v: f"{v} must be positive", errors)
    power_columns = [_check_range(values, 0.0, FULL_POWER_W, name, errors)
                     for values, name in zip(powers, CSV_HEADER[3:5])]
    rod_columns = []
    for j in range(5, width):
        values = _parse_column(columns[j], float, CSV_HEADER[j], errors)
        rod_columns.append(_check_range(values, 0.0, MAX_ROD_TRAVEL_IN, CSV_HEADER[j], errors))

    if errors:
        position, message = min(errors, key=lambda error: error[0])
        raise ParseError(f"row {row_index[position]}: {message}")
    times = np.empty((n, 2), dtype=object)
    times[:, 0], times[:, 1] = starts, ends
    return ObservationTable(
        row_index=np.array(row_index, dtype=np.int64),
        date=np.array(list(map(dt.date.toordinal, dates)), dtype=np.int64),
        times=times,
        powers=np.stack(power_columns, axis=1),
        rods=np.stack(rod_columns, axis=1),
    )


def row_to_observation(row: RawLogRow) -> TransientObservation:
    return TransientObservation(
        date=row.date,
        start_time=row.start_time,
        end_time=row.end_time,
        initial=ReactorState(row.initial_power, row.initial_rods),
        final=ReactorState(row.final_power, row.final_rods),
    )


def filter_report(table: ObservationTable) -> tuple[ObservationTable, FilterCounts]:
    """Apply the exclusion rules, returning the surviving rows plus exclusion counts.

    Excluded: transients longer than one hour, shutdowns (final power below
    1 W), and zero-power-change rows; a row is counted under the first rule
    it breaks, in that order.
    """
    too_long = table.duration_minutes > MAX_DURATION_MINUTES
    shutdown = ~too_long & (table.powers[:, 1] < SHUTDOWN_POWER_W)
    no_change = ~too_long & ~shutdown & (table.powers[:, 1] == table.powers[:, 0])
    kept = ~(too_long | shutdown | no_change)
    counts = FilterCounts(
        retained=int(kept.sum()),
        too_long=int(too_long.sum()),
        shutdown=int(shutdown.sum()),
        no_change=int(no_change.sum()),
    )
    return table.take(kept), counts


def _rho_of_power(power: float) -> float:
    frac = math.log(power) / LN_FULL_POWER
    return RHO_AT_1W + (RHO_AT_FULL - RHO_AT_1W) * frac


def _heights_for_reactivity(
    target: float, worths: tuple[float, ...], rng: np.random.Generator
) -> list[float]:
    """Random rod heights whose linear-worth reactivity equals `target`.

    Rods are visited in a random order; each draws a withdrawal fraction
    uniformly from the interval that keeps the remaining target reachable by
    the rods still to come, and the last rod closes the balance exactly.
    """
    w0, w1, w2, w3 = worths
    if not (0.0 <= target <= ((w0 + w1) + w2) + w3):
        raise DataError(f"infeasible reactivity target {target} $ for worths {worths}")
    order = rng.permutation(N_RODS).tolist()
    wa, wb, wc, wd = worths[order[0]], worths[order[1]], worths[order[2]], worths[order[3]]
    heights = [0.0] * N_RODS
    remaining = target
    # The first three rods, each with the worth of the rods after it, added
    # left to right.
    for rod, w, rest in zip(order, (wa, wb, wc), ((wb + wc) + wd, wc + wd, wd)):
        f = rng.uniform(max(0.0, (remaining - rest) / w), min(1.0, remaining / w))
        heights[rod] = f * MAX_ROD_TRAVEL_IN
        remaining -= f * w
    heights[order[3]] = min(1.0, remaining / wd) * MAX_ROD_TRAVEL_IN
    return heights


def _synth_state(
    power: float, worths: tuple[float, ...], total_worth: float, rng: np.random.Generator
) -> list[float]:
    """Rod heights of a state at `power`, for rods of `worths` that add up to
    `total_worth`."""
    rho_target = _rho_of_power(power) + rng.normal(0.0, REACTIVITY_NOISE_DOLLARS)
    # min(hi, max(lo, x)) picks what np.clip(x, lo, hi) picks, signed zeros too.
    rho_target = min(total_worth - 0.2, max(1.5, rho_target))
    heights = _heights_for_reactivity(rho_target, worths, rng)
    noise = rng.normal(0.0, ROD_NOISE_SCALE, size=N_RODS).tolist()
    return [min(MAX_ROD_TRAVEL_IN, max(0.0, h + e)) for h, e in zip(heights, noise)]


def synthesize_corpus(spec: CorpusSpec) -> ObservationTable:
    """Generate a deterministic synthetic corpus of transient observations,
    rows numbered from 1.

    Powers cluster around decade anchors; rod heights are allocated so total
    rod reactivity rises monotonically with the log of power, making the
    reactivity difference between states consistent with the power direction.
    """
    rng = np.random.default_rng(spec.seed)
    # Each era runs from its configuration's first day to the day before the
    # next one's; the last ends on CORPUS_END_DATE.
    era_ends = (*ERA_STARTS[1:], CORPUS_END_DATE.toordinal() + 1)
    # Each configuration's rod worths and their total_worth, computed once.
    era_worths = [(config.rod_worths, config.total_worth()) for config in DEFAULT_CONFIGS]
    values: list[tuple] = []  # day ordinal, both powers, both states' rod heights
    times: list[tuple[dt.time, dt.time]] = []

    while len(times) < spec.n_observations:
        era = int(rng.integers(0, len(DEFAULT_CONFIGS)))
        day = int(rng.integers(ERA_STARTS[era], era_ends[era]))

        idx_i, idx_f = rng.choice(len(POWER_ANCHORS), size=2, replace=False).tolist()
        p_i = POWER_ANCHORS[idx_i] * math.exp(rng.normal(0.0, POWER_JITTER_SIGMA))
        p_f = POWER_ANCHORS[idx_f] * math.exp(rng.normal(0.0, POWER_JITTER_SIGMA))
        p_i = min(FULL_POWER_W, max(MIN_CORPUS_POWER_W, p_i))
        p_f = min(FULL_POWER_W, max(MIN_CORPUS_POWER_W, p_f))
        if p_f == p_i:
            continue

        worths, total = era_worths[era]
        for _ in range(100):
            heights_i = _synth_state(p_i, worths, total, rng)
            heights_f = _synth_state(p_f, worths, total, rng)
            d_rho = rod_reactivity(heights_f, worths) - rod_reactivity(heights_i, worths)
            if d_rho != 0 and (d_rho > 0) == (p_f > p_i):
                break
        else:
            continue

        start_minute = int(rng.integers(0, 22 * 60))
        duration = int(rng.integers(5, 60))
        start = dt.time(start_minute // 60, start_minute % 60)
        end_minute = start_minute + duration
        end = dt.time(end_minute // 60, end_minute % 60)

        values.append((day, p_i, p_f, *heights_i, *heights_f))
        times.append((start, end))
    columns = np.array(values)
    return ObservationTable(
        np.arange(1, len(times) + 1), columns[:, 0].astype(np.int64),
        np.array(times, dtype=object), columns[:, 1:3], columns[:, 3:],
    )


def csv_line(fields: Iterable[str]) -> str:
    """One CSV record as the csv module writes it when no field needs quoting
    (names and numbers): comma-separated, with a CRLF line end."""
    return ",".join(fields) + "\r\n"


def write_observations(table: ObservationTable, path: Union[str, Path]) -> None:
    """Write the table in the transient-log CSV schema, each float as its repr
    so that reading the file back gives the same bits."""
    columns = [
        map(dt.date.isoformat, map(dt.date.fromordinal, table.date.tolist())),
        *([time.isoformat("minutes") for time in table.times[:, j]] for j in (0, 1)),
        *(map(repr, column) for column in np.hstack([table.powers, table.rods]).T.tolist()),
    ]
    with writing(path) as handle:
        handle.write(csv_line(CSV_HEADER))
        handle.writelines(map(csv_line, zip(*columns)))
