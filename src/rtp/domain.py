"""Core reactor data types and physical constants shared across the toolkit,
and the rule-table check that every settings dataclass runs."""

from __future__ import annotations

import bisect
import datetime as dt
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

FULL_POWER_W = 200_000.0
MAX_ROD_TRAVEL_IN = 24.0
N_RODS = 4

# Class bin ceilings in watts; the top ceiling is full power.
DEFAULT_CLASS_CEILINGS = (90.0, 900.0, 9000.0, 90_000.0, 200_000.0)


@dataclass(frozen=True)
class ReactorState:
    """One stable reactor operating point: power plus the four rod heights.

    Rod order is rod1, rod2, rod3, regulating rod. Heights are inches of
    withdrawal in [0, 24]; power is watts in (0, 200000].
    """

    power: float
    rod_heights: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        if not (0.0 < self.power <= FULL_POWER_W):
            raise ValueError(f"power {self.power} W outside (0, {FULL_POWER_W}]")
        if len(self.rod_heights) != N_RODS:
            raise ValueError(f"expected {N_RODS} rod heights, got {len(self.rod_heights)}")
        for i, h in enumerate(self.rod_heights):
            if not (0.0 <= h <= MAX_ROD_TRAVEL_IN):
                raise ValueError(f"rod {i + 1} height {h} in outside [0, {MAX_ROD_TRAVEL_IN}]")


@dataclass(frozen=True)
class TransientObservation:
    """A single power transient: two stable states on one calendar date."""

    date: dt.date
    start_time: dt.time
    end_time: dt.time
    initial: ReactorState
    final: ReactorState

    def __post_init__(self) -> None:
        if self.end_time < self.start_time:
            raise ValueError(f"end_time {self.end_time} before start_time {self.start_time}")


@dataclass(frozen=True)
class CoreConfiguration:
    """A core loadout: integral rod worths ($) and first operational date."""

    id: int
    rod_worths: tuple[float, float, float, float]
    start_date: dt.date

    def total_worth(self) -> float:
        return sum(self.rod_worths)


# Integral rod worths in dollars (beta = 0.006 already folded in) and the
# first operational date of each core loadout. Config 120 covers all dates
# before config 121 went critical.
DEFAULT_CONFIGS: tuple[CoreConfiguration, ...] = (
    CoreConfiguration(120, (6.387, 5.380, 2.963, 0.488), dt.date(2013, 1, 7)),
    CoreConfiguration(121, (6.387, 5.380, 2.963, 0.488), dt.date(2014, 1, 15)),
    CoreConfiguration(122, (6.597, 5.398, 2.963, 0.387), dt.date(2014, 10, 9)),
    CoreConfiguration(123, (6.583, 5.267, 3.017, 0.433), dt.date(2014, 10, 16)),
)


@dataclass(frozen=True)
class PowerClassBins:
    """Ordered power-class ceilings; classification is ceiling-inclusive."""

    ceilings: tuple[float, ...] = DEFAULT_CLASS_CEILINGS

    def __post_init__(self) -> None:
        if not self.ceilings:
            raise ValueError("at least one ceiling required")
        for lo, hi in zip(self.ceilings, self.ceilings[1:]):
            if hi <= lo:
                raise ValueError(f"ceilings not strictly increasing: {lo} >= {hi}")
        if self.ceilings[-1] != FULL_POWER_W:
            raise ValueError(f"last ceiling {self.ceilings[-1]} must equal {FULL_POWER_W}")

    @property
    def n_classes(self) -> int:
        return len(self.ceilings)


def direction_of(obs: TransientObservation) -> int:
    """+1 for a power increase, -1 for a decrease. Zero change is invalid here
    because zero-change transients are excluded during ingestion."""
    delta = obs.final.power - obs.initial.power
    if delta > 0:
        return 1
    if delta < 0:
        return -1
    raise ValueError("zero-change transient has no direction")


@lru_cache(maxsize=16)
def _eras(configs: tuple[CoreConfiguration, ...]):
    """Configurations sorted by start date, with read-only arrays of their
    start-date ordinals (k,) and rod worths (k, 4) in the same order."""
    ordered = tuple(sorted(configs, key=lambda c: c.start_date))
    starts = np.array([c.start_date.toordinal() for c in ordered])
    worths = np.array([c.rod_worths for c in ordered], dtype=np.float64)
    starts.setflags(write=False)
    worths.setflags(write=False)
    return ordered, starts, worths


def config_for_date(
    date: dt.date, configs: tuple[CoreConfiguration, ...] = DEFAULT_CONFIGS
) -> CoreConfiguration:
    """Resolve the core configuration operational on `date`.

    The latest configuration started on or before `date` applies; dates
    before the first start date fall back to the first, so the lookup is total.
    """
    ordered, starts, _ = _eras(tuple(configs))
    return ordered[max(bisect.bisect_right(starts, date.toordinal()) - 1, 0)]


def rod_worths_by_ordinal(
    ordinals: np.ndarray, configs: tuple[CoreConfiguration, ...] = DEFAULT_CONFIGS
) -> np.ndarray:
    """(n, 4) rod worths in force on each day ordinal, by config_for_date's rule."""
    _, starts, worths = _eras(tuple(configs))
    return worths[np.maximum(starts.searchsorted(ordinals, "right") - 1, 0)]


def reactivity_of_state(state: ReactorState, config: CoreConfiguration) -> float:
    """Total reactivity in dollars from rod withdrawal.

    Linear-worth approximation: withdrawal fraction (height / 24) times the
    rod's integral worth, summed over all four rods.
    """
    return sum(
        (h / MAX_ROD_TRAVEL_IN) * w for h, w in zip(state.rod_heights, config.rod_worths)
    )


def is_number(value, kind=numbers.Real) -> bool:
    """Whether `value` is a number of `kind`; a bool is not a number here."""
    return isinstance(value, kind) and not isinstance(value, bool)


def is_integer(value) -> bool:
    return is_number(value, numbers.Integral)


def is_count(value) -> bool:
    return is_integer(value) and value >= 1


def is_finite(value) -> bool:
    return is_number(value) and math.isfinite(value)


def is_finite_nonnegative(value) -> bool:
    return is_number(value) and 0.0 <= value < math.inf


def is_finite_positive(value) -> bool:
    return is_number(value) and 0.0 < value < math.inf


def check_settings(settings, rules: dict) -> None:
    """Raise ValueError naming the first field of `settings` that breaks its
    rule; `rules` maps a field name to (what it must be, test of a value)."""
    for name, (must_be, valid) in rules.items():
        value = getattr(settings, name)
        if not valid(value):
            raise ValueError(f"{name} must be {must_be}, got {value!r}")
