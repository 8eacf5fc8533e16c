"""Normalization, class binning, undersampling, and feature encoding."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple, Sequence

import numpy as np

from .domain import (
    CLASS_CEILINGS,
    LN_FULL_POWER,
    MAX_ROD_TRAVEL_IN,
    N_CLASSES,
    CoreConfiguration,
    TransientObservation,
    rod_worths_by_ordinal,
)
from .engine import HEAD_SIGMOID, HEAD_SOFTMAX
from .ingest import DataError, ObservationTable

# Reactivity features are divided by this to keep them O(1) next to the
# [0, 1] power and rod features (max total worth is ~15.2 $).
REACTIVITY_FEATURE_SCALE = 16.0


class EmptyClassError(DataError):
    """A class with no samples cannot be undersampled."""


@dataclass(frozen=True)
class EncodedTable:
    """The (n, 12) feature matrix of n observations, with their targets.

    Every variant reads its inputs from the same matrix, at its table row's
    columns.
    """

    features: np.ndarray  # (n, 12)
    class_index: np.ndarray  # (n,) power class of the final state
    target: np.ndarray  # (n,) normalized final power

    def __len__(self) -> int:
        return self.target.shape[0]

    @classmethod
    def concat(cls, tables: Sequence["EncodedTable"]) -> "EncodedTable":
        """The tables' rows one after another."""
        return cls(*(np.concatenate([getattr(t, f.name) for t in tables]) for f in fields(cls)))

    def take(self, idx) -> "EncodedTable":
        """The rows at `idx`, in that order (indices may repeat)."""
        return EncodedTable(*(getattr(self, f.name)[idx] for f in fields(self)))

    @property
    def class_onehot(self) -> np.ndarray:
        return np.eye(N_CLASSES)[self.class_index]


def denormalize_power(power_norm: float) -> float:
    return math.exp(power_norm * LN_FULL_POWER)


def undersample_indices(class_labels: Sequence[int], seed: int) -> list[int]:
    """Indices realizing a class-balanced subset of the labeled samples.

    The minority class is kept verbatim and in order; every other class is
    sampled uniformly WITH replacement (so indices can repeat), down to the
    minority count. Deterministic per seed.
    """
    labels = np.asarray(class_labels)
    by_class = [np.flatnonzero(labels == c) for c in range(N_CLASSES)]
    for c, members in enumerate(by_class):
        if not members.size:
            raise EmptyClassError(f"class {c} has no samples")

    rng = np.random.default_rng(seed)
    size = min(members.size for members in by_class)
    minority = min(range(N_CLASSES), key=lambda c: by_class[c].size)
    # Every class but the minority draws, in class order, which fixes the output per seed.
    chosen = [
        members[:size] if c == minority else members[rng.integers(0, members.size, size=size)]
        for c, members in enumerate(by_class)
    ]
    return np.concatenate(chosen).tolist()


def undersample(table: EncodedTable, seed: int) -> EncodedTable:
    """Class-balance an encoded table to the minority-class count."""
    return table.take(undersample_indices(table.class_index.tolist(), seed))


# Columns of the feature matrix that encode_table builds once for every variant.
_POWER, _RODS_I, _RODS_F, _RHO_I, _RHO_F, _DIRECTION = 0, [1, 2, 3, 4], [5, 6, 7, 8], 9, 10, 11


def input_columns(variant: "Variant") -> tuple[dict[str, np.ndarray], np.ndarray]:
    """The feature-matrix columns a variant reads: each branch's, by branch
    name in network order, and the columns that open its aux vector (a
    regressor's class probabilities follow them).

    This is the one rule for which feature feeds which input. The initial
    branch takes the initial power and rods, the final branch the final
    rods, and the aux vector the direction; an all-in-one variant's "main"
    branch takes them all.
    """
    heights = variant.rod_feature == "heights"
    rods_i, rods_f = (_RODS_I, _RODS_F) if heights else ([_RHO_I], [_RHO_F])
    direction = [_DIRECTION] if variant.uses_direction else []
    if variant.input_mode == "all_in_one":
        branches, aux = {"main": [_POWER, *rods_i, *rods_f, *direction]}, []
    else:
        branches, aux = {"initial": [_POWER, *rods_i], "final": rods_f}, direction
    columns = {name: np.array(c, dtype=np.intp) for name, c in branches.items()}
    return columns, np.array(aux, dtype=np.intp)


class Task(NamedTuple):
    head: str  # the model-file head name
    metrics: tuple[str, ...]  # the validation metrics the head reports
    early_stop_min_delta: float


# What every variant of one task shares (README "Model variants").
TASKS = {
    "classifier": Task(HEAD_SOFTMAX, ("val_accuracy", "val_loss"), 0.005),
    "regressor": Task(HEAD_SIGMOID, ("val_loss", "val_mse"), 0.0005),
}


@dataclass(frozen=True)
class Variant:
    """One model variant: how it sees an observation and how it trains."""

    variant_id: str
    task: str  # "classifier" | "regressor"
    input_mode: str  # "separated" | "all_in_one"
    rod_feature: str  # "heights" | "reactivity"
    uses_direction: bool
    pair: str | None  # a regressor's stage-1 classifier
    optimizer: str  # "adam" | "sgd"
    monitored_metric: str
    # Its input_columns, branch by branch then aux, as one index.
    columns: np.ndarray = field(init=False, repr=False, compare=False)
    # Each branch's input width by name, in network order.
    branch_widths: dict[str, int] = field(init=False, repr=False, compare=False)
    # The aux vector's width at the merge point: the aux columns, then a
    # regressor's N_CLASSES class probabilities.
    aux_width: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        branches, aux = input_columns(self)
        n_probs = N_CLASSES if self.task == "regressor" else 0
        object.__setattr__(self, "columns", np.concatenate([*branches.values(), aux]))
        object.__setattr__(self, "branch_widths", {k: c.size for k, c in branches.items()})
        object.__setattr__(self, "aux_width", aux.size + n_probs)

    @property
    def layout(self) -> "Variant":
        """The row itself; kept only because perfbench/workloads.py
        (reference_answers) passes it to encode_dataset."""
        return self


# The six classifier and four regressor variants (README "Model variants").
VARIANTS = {
    v.variant_id: v
    for v in (
        Variant("a1", "classifier", "separated", "reactivity", True, None, "adam", "val_accuracy"),
        Variant("b1", "classifier", "separated", "heights", True, None, "adam", "val_accuracy"),
        Variant("c1", "classifier", "separated", "reactivity", False, None, "adam", "val_accuracy"),
        Variant("d1", "classifier", "separated", "heights", False, None, "adam", "val_accuracy"),
        Variant("e1", "classifier", "all_in_one", "reactivity", True, None, "sgd", "val_accuracy"),
        Variant("f1", "classifier", "all_in_one", "heights", True, None, "sgd", "val_accuracy"),
        Variant("a2", "regressor", "separated", "heights", True, "b1", "adam", "val_loss"),
        Variant("b2", "regressor", "separated", "reactivity", True, "a1", "adam", "val_loss"),
        Variant("c2", "regressor", "all_in_one", "heights", True, "f1", "adam", "val_mse"),
        Variant("d2", "regressor", "all_in_one", "reactivity", True, "e1", "adam", "val_mse"),
    )
}


def encode_table(table: ObservationTable) -> EncodedTable:
    """Encode the table's rows into one feature matrix.

    The initial power is a feature; the final power is the target (class
    index and normalized regression value), never a feature. Each row's rod
    worths come from the configuration operational on its date. Errors name
    the row by the table's row index. encode_row builds one observation's
    feature row with the same bits.
    """
    n = len(table)
    powers = table.powers
    features = np.empty((n, 12))
    rods = features[:, 1:9]
    np.divide(table.rods, MAX_ROD_TRAVEL_IN, out=rods)
    # math.log per element, as encode_row takes it: np.log can differ in the last bit.
    logs = np.fromiter(map(math.log, powers.flat), np.float64, powers.size)
    power_norm = logs.reshape(n, 2) / LN_FULL_POWER
    features[:, _POWER] = power_norm[:, 0]
    # Rod by rod, in order, as domain.rod_reactivity sums them.
    terms = (rods.reshape(n, 2, 4) * rod_worths_by_ordinal(table.date)[:, None, :]).T
    rho = ((terms[0] + terms[1]) + terms[2]) + terms[3]
    np.divide(rho.T, REACTIVITY_FEATURE_SCALE, out=features[:, _RHO_I : _RHO_F + 1])

    direction = np.sign(powers[:, 1] - powers[:, 0])
    if not direction.all():
        row = table.row_index[np.flatnonzero(direction == 0)[0]]
        raise DataError(f"row {row}: zero-change transient has no direction")
    features[:, _DIRECTION] = direction
    # The first class whose ceiling covers the power, a power on a ceiling
    # included; states never exceed the top ceiling.
    class_index = np.searchsorted(CLASS_CEILINGS, powers[:, 1], "left")
    return EncodedTable(features, class_index, power_norm[:, 1].copy())


def encode_row(obs: TransientObservation, config: CoreConfiguration) -> np.ndarray:
    """The (1, 12) feature row of one observation under `config`, with the
    bits encode_table gives that row: the same operations in the same order,
    in Python floats, because numpy's per-call cost dominates at one row."""
    p_i, p_f = obs.initial.power, obs.final.power
    if p_f == p_i:
        raise DataError("row 1: zero-change transient has no direction")
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
    layout: Variant,
    configs: tuple[CoreConfiguration, ...],
) -> EncodedTable:
    """encode_table of the observations; neither `layout` nor `configs` is
    read (rod worths come from DEFAULT_CONFIGS by date).

    Kept, with its old signature, only because perfbench/workloads.py
    (reference_answers) calls it.
    """
    return encode_table(ObservationTable.from_observations(observations))
