"""Scalar references for the tests: one power or one file at a time, by the
definitions that the columnar code in rtp must reproduce."""

import math

from rtp.domain import CLASS_CEILINGS, LN_FULL_POWER
from rtp.ingest import filter_report, read_log


class PowerRangeError(ValueError):
    """Power outside the classifiable range."""


def normalize_power(power: float) -> float:
    """ln(power) / ln(full power), as encode_table normalizes each power."""
    if power <= 0:
        raise ValueError(f"power {power} W must be positive for log normalization")
    return math.log(power) / LN_FULL_POWER


def classify_power(power: float) -> int:
    """Smallest class index whose ceiling covers the power (ceiling-inclusive)."""
    if power <= 0:
        raise PowerRangeError(f"power {power} W must be positive")
    for index, ceiling in enumerate(CLASS_CEILINGS):
        if power <= ceiling:
            return index
    raise PowerRangeError(f"power {power} W exceeds top ceiling {CLASS_CEILINGS[-1]} W")


def read_observations(path):
    """The rows of the transient-log CSV at `path` that the exclusion rules keep."""
    return filter_report(read_log(path))[0]
