"""Normalization, class binning, undersampling, and feature encoding."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from .domain import (
    DEFAULT_CONFIGS,
    FULL_POWER_W,
    MAX_ROD_TRAVEL_IN,
    CoreConfiguration,
    PowerClassBins,
    TransientObservation,
    rod_worths_by_ordinal,
)
from .ingest import DataError

LN_FULL_POWER = math.log(FULL_POWER_W)

# Reactivity features are divided by this to keep them O(1) next to the
# [0, 1] power and rod features (max total worth is ~15.2 $).
REACTIVITY_FEATURE_SCALE = 16.0


class PowerRangeError(ValueError):
    """Power outside the classifiable range."""


class EmptyClassError(ValueError):
    """A class with no samples cannot be undersampled."""


@dataclass(frozen=True)
class FeatureLayout:
    """How one model variant sees an observation."""

    variant_id: str
    input_mode: str  # "separated" | "all_in_one"
    rod_feature: str  # "heights" | "reactivity"
    uses_direction: bool


# Flag matrix for the six classifier and four regressor variants.
LAYOUTS: dict[str, FeatureLayout] = {
    "a1": FeatureLayout("a1", "separated", "reactivity", True),
    "b1": FeatureLayout("b1", "separated", "heights", True),
    "c1": FeatureLayout("c1", "separated", "reactivity", False),
    "d1": FeatureLayout("d1", "separated", "heights", False),
    "e1": FeatureLayout("e1", "all_in_one", "reactivity", True),
    "f1": FeatureLayout("f1", "all_in_one", "heights", True),
    "a2": FeatureLayout("a2", "separated", "heights", True),
    "b2": FeatureLayout("b2", "separated", "reactivity", True),
    "c2": FeatureLayout("c2", "all_in_one", "heights", True),
    "d2": FeatureLayout("d2", "all_in_one", "reactivity", True),
}


@dataclass(frozen=True)
class EncodedTable:
    """Feature matrices and targets of n observations, as one layout sees them.

    For all-in-one layouts the whole feature matrix (direction included)
    is `initial` and `final` has no columns.
    """

    layout: FeatureLayout
    initial: np.ndarray  # (n, initial-branch width)
    final: np.ndarray  # (n, final-branch width)
    direction: np.ndarray  # (n,) +1 or -1
    class_index: np.ndarray  # (n,) power class of the final state
    target: np.ndarray  # (n,) normalized final power
    n_classes: int

    def __len__(self) -> int:
        return self.target.shape[0]

    def take(self, idx) -> "EncodedTable":
        """The rows at `idx`, in that order (indices may repeat)."""
        return replace(
            self,
            initial=self.initial[idx],
            final=self.final[idx],
            direction=self.direction[idx],
            class_index=self.class_index[idx],
            target=self.target[idx],
        )

    @property
    def class_onehot(self) -> np.ndarray:
        return np.eye(self.n_classes)[self.class_index]


def normalize_power(power: float) -> float:
    if power <= 0:
        raise ValueError(f"power {power} W must be positive for log normalization")
    return math.log(power) / LN_FULL_POWER


def denormalize_power(power_norm: float) -> float:
    return math.exp(power_norm * LN_FULL_POWER)


def classify_power(power: float, bins: PowerClassBins = PowerClassBins()) -> int:
    """Smallest bin index whose ceiling covers the power (ceiling-inclusive)."""
    if power <= 0:
        raise PowerRangeError(f"power {power} W must be positive")
    for index, ceiling in enumerate(bins.ceilings):
        if power <= ceiling:
            return index
    raise PowerRangeError(f"power {power} W exceeds top ceiling {bins.ceilings[-1]} W")


def undersample_indices(class_labels: Sequence[int], seed: int, n_classes: int = 5) -> list[int]:
    """Indices realizing a class-balanced subset of the labeled samples.

    The minority class is kept verbatim and in order; every other class is
    sampled uniformly WITH replacement (so indices can repeat), down to the
    minority count. Deterministic per seed.
    """
    by_class: list[list[int]] = [[] for _ in range(n_classes)]
    for i, label in enumerate(class_labels):
        by_class[label].append(i)
    for c, members in enumerate(by_class):
        if not members:
            raise EmptyClassError(f"class {c} has no samples")

    rng = np.random.default_rng(seed)
    size = min(len(members) for members in by_class)
    minority = min(range(n_classes), key=lambda c: len(by_class[c]))

    chosen: list[int] = []
    for c, members in enumerate(by_class):
        if c == minority:
            chosen.extend(members[:size])
        else:
            draws = rng.integers(0, len(members), size=size)
            chosen.extend(members[int(d)] for d in draws)
    return chosen


def undersample(table: EncodedTable, seed: int) -> EncodedTable:
    """Class-balance an encoded table to the minority-class count."""
    return table.take(undersample_indices(table.class_index.tolist(), seed, table.n_classes))


# Columns of the feature matrix that encode_tables builds once for all layouts.
_POWER, _RODS_I, _RODS_F, _RHO_I, _RHO_F, _DIRECTION = 0, [1, 2, 3, 4], [5, 6, 7, 8], 9, 10, 11


@lru_cache(maxsize=None)
def _layout_columns(layout: FeatureLayout) -> tuple[np.ndarray, np.ndarray]:
    """Feature-matrix columns of a layout's initial and final branch."""
    rods_i, rods_f = (_RODS_I, _RODS_F) if layout.rod_feature == "heights" else ([_RHO_I], [_RHO_F])
    initial, final = [_POWER, *rods_i], rods_f
    if layout.input_mode == "all_in_one":
        initial, final = initial + final + ([_DIRECTION] if layout.uses_direction else []), []
    return np.array(initial, dtype=np.intp), np.array(final, dtype=np.intp)


def encode_tables(
    observations: Sequence[TransientObservation],
    layouts: Sequence[FeatureLayout],
    configs: tuple[CoreConfiguration, ...] = DEFAULT_CONFIGS,
    bins: PowerClassBins = PowerClassBins(),
) -> list[EncodedTable]:
    """Encode the observations once, then pick each layout's columns.

    Initial power appears only in the initial branch; the final power is
    the target (class index and normalized regression value), never a
    feature. Each row's rod worths come from the configuration operational
    on its date. Errors name the row, counting from 1.
    """
    n = len(observations)
    # math.log per element, as normalize_power: np.log can differ in the last bit.
    raw = np.array(
        [
            (*o.initial.rod_heights, *o.final.rod_heights, math.log(o.initial.power),
             math.log(o.final.power), o.final.power - o.initial.power, o.final.power,
             o.date.toordinal())
            for o in observations
        ],
        dtype=np.float64,
    ).reshape(n, 13)
    features = np.empty((n, 12))
    rods = features[:, 1:9]
    np.divide(raw[:, :8], MAX_ROD_TRAVEL_IN, out=rods)
    power_norm = raw[:, 8:10] / LN_FULL_POWER
    features[:, _POWER] = power_norm[:, 0]
    # Rod by rod, in order, as reactivity_of_state sums them.
    terms = (rods.reshape(n, 2, 4) * rod_worths_by_ordinal(raw[:, 12], configs)[:, None, :]).T
    rho = ((terms[0] + terms[1]) + terms[2]) + terms[3]
    np.divide(rho.T, REACTIVITY_FEATURE_SCALE, out=features[:, _RHO_I : _RHO_F + 1])

    direction = np.sign(raw[:, 10]).astype(np.int64)
    if not direction.all():
        row = int(np.flatnonzero(direction == 0)[0]) + 1
        raise ValueError(f"row {row}: zero-change transient has no direction")
    features[:, _DIRECTION] = direction
    # Ceiling-inclusive, as classify_power; states never exceed the top ceiling.
    class_index = np.array(bins.ceilings).searchsorted(raw[:, 11], "left")
    target = power_norm[:, 1].copy()

    tables = []
    for layout in layouts:
        initial, final = _layout_columns(layout)
        tables.append(
            EncodedTable(
                layout=layout,
                initial=features[:, initial],
                final=features[:, final],
                direction=direction,
                class_index=class_index,
                target=target,
                n_classes=bins.n_classes,
            )
        )
    return tables


def encode_dataset(
    observations: Sequence[TransientObservation],
    layout: FeatureLayout,
    configs: tuple[CoreConfiguration, ...] = DEFAULT_CONFIGS,
    bins: PowerClassBins = PowerClassBins(),
) -> EncodedTable:
    """One layout's table of the observations."""
    return encode_tables(observations, [layout], configs, bins)[0]


def write_encoded(table: EncodedTable, path: Union[str, Path]) -> None:
    """Serialize an encoded table as JSON records, one per row."""
    with open(path, "w") as handle:
        for initial, final, direction, onehot, target in zip(
            table.initial.tolist(),
            table.final.tolist(),
            table.direction.tolist(),
            table.class_onehot.tolist(),
            table.target.tolist(),
        ):
            record = {
                "initial_branch": initial,
                "final_branch": final,
                "direction": direction,
                "class_onehot": onehot,
                "regression_target": target,
                "variant_id": table.layout.variant_id,
            }
            handle.write(json.dumps(record) + "\n")


_VECTOR_FIELDS = ("initial_branch", "final_branch", "class_onehot")
_RECORD_FIELDS = (*_VECTOR_FIELDS, "direction", "regression_target", "variant_id")


def _read_record(line: str, first: tuple | None) -> tuple:
    """(variant id, initial, final, one-hot, direction, target) of one record,
    checked against the first record's variant and vector widths."""
    record = json.loads(line)
    if not isinstance(record, dict):
        raise ValueError("expected a JSON object")
    missing = [name for name in _RECORD_FIELDS if name not in record]
    if missing:
        raise ValueError(f"missing field {missing[0]!r}")
    variant_id = record["variant_id"]
    if variant_id not in LAYOUTS:
        raise ValueError(f"unknown variant_id {variant_id!r}")
    vectors = [np.asarray(record[name], dtype=np.float64) for name in _VECTOR_FIELDS]
    for name, vector in zip(_VECTOR_FIELDS, vectors):
        if vector.ndim != 1:
            raise ValueError(f"field {name!r} must be a list of numbers")
    if not vectors[2].size:
        raise ValueError("field 'class_onehot' is empty")
    row = (variant_id, *vectors, int(record["direction"]), float(record["regression_target"]))
    if first is not None:
        if variant_id != first[0]:
            raise ValueError(f"variant_id {variant_id!r} differs from the first record's {first[0]!r}")
        for name, vector, expected in zip(_VECTOR_FIELDS, vectors, first[1:4]):
            if vector.size != expected.size:
                raise ValueError(f"field {name!r} has {vector.size} values, the first record {expected.size}")
    return row


def read_encoded(path: Union[str, Path]) -> EncodedTable:
    """Load a file written by write_encoded.

    A malformed, inconsistent or missing record raises DataError naming the
    file and line; so does a file with no records.
    """
    rows: list[tuple] = []
    with open(path) as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                rows.append(_read_record(line, rows[0] if rows else None))
            except (ValueError, TypeError) as exc:
                raise DataError(f"{path} line {line_no}: {exc}") from None
    if not rows:
        raise DataError(f"no encoded samples in {path}")
    variant_ids, initial, final, onehot, direction, target = zip(*rows)
    onehot = np.array(onehot)
    return EncodedTable(
        layout=LAYOUTS[variant_ids[0]],
        initial=np.array(initial),
        final=np.array(final).reshape(len(rows), -1),
        direction=np.array(direction, dtype=np.int64),
        class_index=np.argmax(onehot, axis=1),
        target=np.array(target),
        n_classes=onehot.shape[1],
    )
