"""Core reactor data types and physical constants shared across the toolkit,
and the rule-table check that every settings dataclass runs."""

from __future__ import annotations

import bisect
import datetime as dt
import math
import numbers
from collections.abc import Sized
from dataclasses import dataclass, fields

import numpy as np

FULL_POWER_W = 200_000.0
LN_FULL_POWER = math.log(FULL_POWER_W)
MAX_ROD_TRAVEL_IN = 24.0
N_RODS = 4

# The power classes: ceilings in watts, increasing, the top one full power.
# A power belongs to the first class whose ceiling covers it.
CLASS_CEILINGS = (90.0, 900.0, 9000.0, 90_000.0, 200_000.0)
N_CLASSES = len(CLASS_CEILINGS)


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
        """The rod worths added one by one, in rod order, to 0.0."""
        total = 0.0
        for w in self.rod_worths:
            total += w
        return total


# Integral rod worths in dollars (beta = 0.006 already folded in) and the
# first operational date of each core loadout, in start-date order. Config
# 120 covers all dates before config 121 went critical.
DEFAULT_CONFIGS: tuple[CoreConfiguration, ...] = (
    CoreConfiguration(120, (6.387, 5.380, 2.963, 0.488), dt.date(2013, 1, 7)),
    CoreConfiguration(121, (6.387, 5.380, 2.963, 0.488), dt.date(2014, 1, 15)),
    CoreConfiguration(122, (6.597, 5.398, 2.963, 0.387), dt.date(2014, 10, 9)),
    CoreConfiguration(123, (6.583, 5.267, 3.017, 0.433), dt.date(2014, 10, 16)),
)

# The era table: each configuration's first day as a day ordinal, and its rod
# worths (k, 4), in DEFAULT_CONFIGS order.
ERA_STARTS = tuple(c.start_date.toordinal() for c in DEFAULT_CONFIGS)
_ERA_WORTHS = np.array([c.rod_worths for c in DEFAULT_CONFIGS], dtype=np.float64)
_ERA_WORTHS.setflags(write=False)


def config_for_date(date: dt.date) -> CoreConfiguration:
    """Resolve the core configuration operational on `date`.

    The latest configuration started on or before `date` applies; dates
    before the first start date fall back to the first, so the lookup is total.
    """
    return DEFAULT_CONFIGS[max(bisect.bisect_right(ERA_STARTS, date.toordinal()) - 1, 0)]


def rod_worths_by_ordinal(ordinals: np.ndarray) -> np.ndarray:
    """(n, 4) rod worths in force on each day ordinal, by config_for_date's rule."""
    return _ERA_WORTHS[np.maximum(np.searchsorted(ERA_STARTS, ordinals, "right") - 1, 0)]


def rod_reactivity(heights, worths) -> float:
    """Total reactivity in dollars of rods at `heights` with integral
    `worths`, by the linear-worth approximation: each rod's withdrawal
    fraction (height / 24) times its worth, the terms added one by one, in
    rod order, to 0.0."""
    rho = 0.0
    for h, w in zip(heights, worths):
        rho += (h / MAX_ROD_TRAVEL_IN) * w
    return rho


def is_number(value, kind=numbers.Real) -> bool:
    """Whether `value` is a number of `kind`; a bool is not a number here."""
    return isinstance(value, kind) and not isinstance(value, bool)


def is_integer(value) -> bool:
    return is_number(value, numbers.Integral)


def is_count(value) -> bool:
    return is_integer(value) and value >= 1


def is_nonnegative_integer(value) -> bool:
    """The rule for a root seed, among others: an integer >= 0."""
    return is_integer(value) and value >= 0


def is_finite_nonnegative(value) -> bool:
    return is_number(value) and 0.0 <= value < math.inf


def shown(value) -> str:
    """repr(value) for a message, or, when that is over 80 characters, the
    value's type and size, as in "a list of 29 items" or "a str of 79
    characters"."""
    text = repr(value)
    if len(text) <= 80:
        return text
    kind = type(value).__name__
    unit = "characters" if isinstance(value, str) else "items"
    size = f" of {len(value)} {unit}" if isinstance(value, Sized) else ""
    return f"{'an' if kind[0] in 'aeiou' else 'a'} {kind}{size}"


def check_settings(settings, rules: dict) -> None:
    """Raise ValueError naming the first field of `settings` that breaks its
    rule; `rules` maps a field name to (what it must be, test of a value)."""
    for name, (must_be, valid) in rules.items():
        value = getattr(settings, name)
        if not valid(value):
            raise ValueError(f"{name} must be {must_be}, got {shown(value)}")


def settings_from(cls, doc: dict):
    """cls(**doc) for a settings dataclass `cls`; ValueError names a key of
    `doc` that is not a field of cls."""
    unknown = [key for key in doc if key not in {f.name for f in fields(cls)}]
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r}")
    return cls(**doc)
