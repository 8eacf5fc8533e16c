"""Scalar references for the tests: one power or one file at a time, by the
definitions that the columnar code in rtp must reproduce."""

import math

import numpy as np

from rtp.domain import CLASS_CEILINGS, LN_FULL_POWER, rod_reactivity
from rtp.engine import CHUNK_ROWS, run_layers
from rtp.ingest import ObservationTable, filter_report, read_chunks


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


def reactivity_of_state(state, config) -> float:
    """Total reactivity in dollars of a ReactorState under a
    CoreConfiguration, as the encoder's reactivity columns must give it."""
    return rod_reactivity(state.rod_heights, config.rod_worths)


def read_table(source):
    """The whole transient-log CSV at `source` as one table, its read_chunks
    chunks one after another."""
    return ObservationTable.concat(list(read_chunks(source)))


def read_observations(path):
    """The rows of the transient-log CSV at `path` that the exclusion rules keep."""
    return filter_report(read_table(path))[0]


def in_whole_passes(model, x):
    """run_layers' output on each row of `x` as the row gets it inside a
    CHUNK_ROWS-row pass: x's rows, repeated in order to fill whole passes,
    run one pass at a time. A one-row x is its own pass, which BLAS rounds
    as a matrix-vector product."""
    if len(x) == 1:
        return run_layers(model, x)
    n_passes = -(-len(x) // CHUNK_ROWS)
    filled = np.resize(x, (n_passes * CHUNK_ROWS, x.shape[1]))
    return np.concatenate([run_layers(model, rows) for rows in np.split(filled, n_passes)])[: len(x)]
