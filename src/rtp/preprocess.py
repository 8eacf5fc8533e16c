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
from .ingest import DataError, ObservationTable

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
    """The (n, 12) feature matrix of n observations, with their targets.

    Every variant reads its inputs from the same matrix, at the columns
    that input_columns gives its layout.
    """

    features: np.ndarray  # (n, 12)
    class_index: np.ndarray  # (n,) power class of the final state
    target: np.ndarray  # (n,) normalized final power
    n_classes: int

    def __len__(self) -> int:
        return self.target.shape[0]

    def take(self, idx) -> "EncodedTable":
        """The rows at `idx`, in that order (indices may repeat)."""
        return replace(
            self,
            features=self.features[idx],
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


# Columns of the feature matrix that encode_table builds once for every variant.
_POWER, _RODS_I, _RODS_F, _RHO_I, _RHO_F, _DIRECTION = 0, [1, 2, 3, 4], [5, 6, 7, 8], 9, 10, 11


@lru_cache(maxsize=None)
def input_columns(layout: FeatureLayout) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """The feature-matrix columns a layout reads: each branch's, by branch
    name in network order, and the columns that open its aux vector (a
    regressor's class probabilities follow them).

    This is the one rule for which feature feeds which input. The initial
    branch takes the initial power and rods, the final branch the final
    rods, and the aux vector the direction; an all-in-one layout's "main"
    branch takes them all.
    """
    rods_i, rods_f = (_RODS_I, _RODS_F) if layout.rod_feature == "heights" else ([_RHO_I], [_RHO_F])
    direction = [_DIRECTION] if layout.uses_direction else []
    if layout.input_mode == "all_in_one":
        branches, aux = {"main": [_POWER, *rods_i, *rods_f, *direction]}, []
    else:
        branches, aux = {"initial": [_POWER, *rods_i], "final": rods_f}, direction
    columns = {name: np.array(c, dtype=np.intp) for name, c in branches.items()}
    return columns, np.array(aux, dtype=np.intp)


def encode_table(
    table: ObservationTable,
    configs: tuple[CoreConfiguration, ...] = DEFAULT_CONFIGS,
    bins: PowerClassBins = PowerClassBins(),
) -> EncodedTable:
    """Encode the table's rows into one feature matrix.

    The initial power is a feature; the final power is the target (class
    index and normalized regression value), never a feature. Each row's rod worths come from the configuration operational
    on its date. Errors name the row by the table's row index. encode_row
    builds one observation's feature row with the same bits.
    """
    n = len(table)
    powers = table.powers
    features = np.empty((n, 12))
    rods = features[:, 1:9]
    np.divide(table.rods, MAX_ROD_TRAVEL_IN, out=rods)
    # math.log per element, as normalize_power: np.log can differ in the last bit.
    logs = np.fromiter(map(math.log, powers.flat), np.float64, powers.size)
    power_norm = logs.reshape(n, 2) / LN_FULL_POWER
    features[:, _POWER] = power_norm[:, 0]
    # Rod by rod, in order, as reactivity_of_state sums them.
    terms = (rods.reshape(n, 2, 4) * rod_worths_by_ordinal(table.date, configs)[:, None, :]).T
    rho = ((terms[0] + terms[1]) + terms[2]) + terms[3]
    np.divide(rho.T, REACTIVITY_FEATURE_SCALE, out=features[:, _RHO_I : _RHO_F + 1])

    direction = np.sign(powers[:, 1] - powers[:, 0])
    if not direction.all():
        row = table.row_index[np.flatnonzero(direction == 0)[0]]
        raise ValueError(f"row {row}: zero-change transient has no direction")
    features[:, _DIRECTION] = direction
    # Ceiling-inclusive, as classify_power; states never exceed the top ceiling.
    class_index = np.array(bins.ceilings).searchsorted(powers[:, 1], "left")
    return EncodedTable(features, class_index, power_norm[:, 1].copy(), bins.n_classes)


def encode_row(obs: TransientObservation, config: CoreConfiguration) -> np.ndarray:
    """The (1, 12) feature row of one observation under `config`, with the
    bits encode_table gives that row: the same operations in the same order,
    in Python floats, because numpy's per-call cost dominates at one row."""
    p_i, p_f = obs.initial.power, obs.final.power
    if p_f == p_i:
        raise ValueError("row 1: zero-change transient has no direction")
    w0, w1, w2, w3 = config.rod_worths
    row = [0.0] * 12
    row[_POWER] = math.log(p_i) / LN_FULL_POWER
    states = ((obs.initial, _RODS_I, _RHO_I), (obs.final, _RODS_F, _RHO_F))
    for state, rod_columns, rho_column in states:
        r0, r1, r2, r3 = rods = [h / MAX_ROD_TRAVEL_IN for h in state.rod_heights]
        for column, r in zip(rod_columns, rods):
            row[column] = r
        row[rho_column] = (((r0 * w0 + r1 * w1) + r2 * w2) + r3 * w3) / REACTIVITY_FEATURE_SCALE
    row[_DIRECTION] = 1.0 if p_f > p_i else -1.0
    return np.array([row])


def encode_dataset(
    observations: Sequence[TransientObservation],
    layout: FeatureLayout,
    configs: tuple[CoreConfiguration, ...] = DEFAULT_CONFIGS,
    bins: PowerClassBins = PowerClassBins(),
) -> EncodedTable:
    """encode_table of the observations; `layout` is not read.

    Kept, with its old signature, only because perfbench/workloads.py
    (reference_answers) calls it.
    """
    return encode_table(ObservationTable.from_observations(observations), configs, bins)


def _record_columns(layout: FeatureLayout) -> tuple[np.ndarray, np.ndarray]:
    """The feature columns of a record's initial_branch and final_branch; an
    all-in-one layout writes its main vector as initial_branch."""
    branches = list(input_columns(layout)[0].values())
    return branches[0], branches[1] if len(branches) > 1 else np.empty(0, dtype=np.intp)


def write_encoded(table: EncodedTable, layout: FeatureLayout, path: Union[str, Path]) -> None:
    """Serialize a layout's view of an encoded table as JSON records, one per row."""
    initial, final = _record_columns(layout)
    with open(path, "w") as handle:
        for initial_values, final_values, direction, onehot, target in zip(
            table.features[:, initial].tolist(),
            table.features[:, final].tolist(),
            table.features[:, _DIRECTION].astype(np.int64).tolist(),
            table.class_onehot.tolist(),
            table.target.tolist(),
        ):
            record = {
                "initial_branch": initial_values,
                "final_branch": final_values,
                "direction": direction,
                "class_onehot": onehot,
                "regression_target": target,
                "variant_id": layout.variant_id,
            }
            handle.write(json.dumps(record) + "\n")


_VECTOR_FIELDS = ("initial_branch", "final_branch", "class_onehot")
_RECORD_FIELDS = (*_VECTOR_FIELDS, "direction", "regression_target", "variant_id")


def _read_record(line: str, first: tuple | None) -> tuple:
    """(variant id, initial, final, one-hot, direction, target) of one record,
    checked against its layout's widths and the first record's variant and
    class count."""
    record = json.loads(line)
    if not isinstance(record, dict):
        raise ValueError("expected a JSON object")
    missing = [name for name in _RECORD_FIELDS if name not in record]
    if missing:
        raise ValueError(f"missing field {missing[0]!r}")
    variant_id = record["variant_id"]
    if variant_id not in LAYOUTS:
        raise ValueError(f"unknown variant_id {variant_id!r}")
    if first is not None and variant_id != first[0]:
        raise ValueError(f"variant_id {variant_id!r} differs from the first record's {first[0]!r}")
    vectors = [np.asarray(record[name], dtype=np.float64) for name in _VECTOR_FIELDS]
    target = np.float64(record["regression_target"])
    for name, vector in zip(_VECTOR_FIELDS, vectors):
        if vector.ndim != 1:
            raise ValueError(f"field {name!r} must be a list of numbers")
    for name, values in (*zip(_VECTOR_FIELDS, vectors), ("regression_target", target)):
        if not np.isfinite(values).all():
            raise ValueError(f"field {name!r} holds a non-finite number")
    for name, vector, columns in zip(_VECTOR_FIELDS, vectors, _record_columns(LAYOUTS[variant_id])):
        if vector.size != columns.size:
            raise ValueError(
                f"field {name!r} has {vector.size} values, the {variant_id} layout {columns.size}"
            )
    onehot = vectors[2]
    if np.count_nonzero(onehot) != 1 or onehot.sum() != 1.0:
        raise ValueError("field 'class_onehot' is not one-hot")
    if first is not None and onehot.size != first[3].size:
        raise ValueError(
            f"field 'class_onehot' has {onehot.size} values, the first record {first[3].size}"
        )
    direction = record["direction"]
    if direction not in (-1, 1):
        raise ValueError(f"field 'direction' must be -1 or 1, got {direction!r}")
    return (variant_id, *vectors, int(direction), float(target))


def read_encoded(path: Union[str, Path], variant_id: str) -> EncodedTable:
    """Load a file written by write_encoded, for training `variant_id`.

    Each record's values go to their feature columns; the columns its layout
    does not write hold NaN. A malformed, inconsistent or missing record
    raises DataError naming the file and line; so does a file with no
    records, or one whose layout lacks a column that `variant_id` reads.
    """
    rows: list[tuple] = []
    try:
        with open(path) as handle:
            for line_no, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                try:
                    rows.append(_read_record(line, rows[0] if rows else None))
                except (ValueError, TypeError) as exc:
                    raise DataError(f"{path} line {line_no}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: {exc}") from None
    if not rows:
        raise DataError(f"no encoded samples in {path}")
    variant_ids, initial, final, onehot, direction, target = zip(*rows)
    written = LAYOUTS[variant_ids[0]]
    initial_columns, final_columns = _record_columns(written)
    branches, aux = input_columns(LAYOUTS[variant_id])
    read = np.concatenate([*branches.values(), aux])
    if not np.isin(read, [*initial_columns, *final_columns, _DIRECTION]).all():
        raise DataError(
            f"{path}: its {written.variant_id} layout lacks features that variant {variant_id} reads"
        )
    features = np.full((len(rows), 12), np.nan)
    features[:, _DIRECTION] = direction
    features[:, initial_columns] = initial
    features[:, final_columns] = final
    onehot = np.array(onehot)
    return EncodedTable(features, np.argmax(onehot, axis=1), np.array(target), onehot.shape[1])
