"""Construction of the ten named model variants and their training defaults."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .engine import HEAD_SIGMOID, HEAD_SOFTMAX, DenseLayer, NetworkModel, init_layer
from .preprocess import LAYOUTS, EncodedTable, FeatureLayout, input_columns
from .training import TrainingConfig

CLASSIFIER_IDS = ("a1", "b1", "c1", "d1", "e1", "f1")
REGRESSOR_IDS = ("a2", "b2", "c2", "d2")

N_CLASSES = 5
HIDDEN_WIDTH = 64
DEFAULT_L2 = 1e-4


@dataclass(frozen=True)
class VariantSpec:
    variant_id: str
    task: str  # "classifier" | "regressor"
    layout: FeatureLayout


@lru_cache(maxsize=None)
def variant_spec(variant_id: str) -> VariantSpec:
    if variant_id not in LAYOUTS:
        raise ValueError(
            f"unknown variant {variant_id!r}; valid ids: {sorted(LAYOUTS)}"
        )
    task = "regressor" if variant_id in REGRESSOR_IDS else "classifier"
    return VariantSpec(variant_id, task, LAYOUTS[variant_id])


def branch_widths(layout: FeatureLayout) -> dict[str, int]:
    """Input width per branch for a layout, before any auxiliary inputs."""
    return {name: columns.size for name, columns in input_columns(layout)[0].items()}


def aux_width(variant_id: str) -> int:
    """Width of the auxiliary vector concatenated at the merge point.

    Separated layouts that use the direction take it here (all-in-one ones
    fold it into the main vector); regressors add the 5-vector classifier
    output.
    """
    spec = variant_spec(variant_id)
    return input_columns(spec.layout)[1].size + (N_CLASSES if spec.task == "regressor" else 0)


def build_variant(variant_id: str, seed: int) -> NetworkModel:
    """Seeded construction of a variant's untrained network."""
    spec = variant_spec(variant_id)
    rng = np.random.default_rng(seed)
    widths = branch_widths(spec.layout)
    aux = aux_width(variant_id)

    def stack(n_in: int, depth: int) -> list[DenseLayer]:
        layers = []
        for _ in range(depth):
            layers.append(init_layer(n_in, HIDDEN_WIDTH, "relu", rng, l2=DEFAULT_L2))
            n_in = HIDDEN_WIDTH
        return layers

    if spec.layout.input_mode == "separated":
        branches = {name: stack(width, 2) for name, width in widths.items()}
        merge_width = HIDDEN_WIDTH * len(branches) + aux
        trunk = stack(merge_width, 2)
        head_in = HIDDEN_WIDTH
    else:
        branches = {"main": []}
        trunk = stack(widths["main"] + aux, 4)
        head_in = HIDDEN_WIDTH

    if spec.task == "classifier":
        head = init_layer(head_in, N_CLASSES, "softmax", rng, l2=DEFAULT_L2)
        head_kind = HEAD_SOFTMAX
    else:
        head = init_layer(head_in, 1, "sigmoid", rng, l2=DEFAULT_L2)
        head_kind = HEAD_SIGMOID
    trunk.append(head)

    return NetworkModel(
        branches=branches, aux_width=aux, trunk=trunk, head=head_kind, variant_id=variant_id
    )


def pair_for_regressor(regressor_id: str) -> str:
    """Classifier whose inputs most closely resemble the regressor's.

    Matches on rod_feature and input_mode; among matching classifiers the
    direction-using one is preferred since every regressor uses direction.
    """
    spec = variant_spec(regressor_id)
    if spec.task != "regressor":
        raise ValueError(f"{regressor_id!r} is not a regressor")
    candidates = [
        cid
        for cid in CLASSIFIER_IDS
        if LAYOUTS[cid].rod_feature == spec.layout.rod_feature
        and LAYOUTS[cid].input_mode == spec.layout.input_mode
    ]
    candidates.sort(key=lambda cid: LAYOUTS[cid].uses_direction, reverse=True)
    return candidates[0]


def stage_inputs(
    features: np.ndarray, variant_id: str, class_probs: np.ndarray | None = None
) -> tuple[list[np.ndarray], np.ndarray | None]:
    """A variant's input matrices, picked from (n, 12) feature rows: each
    branch's, in branch_widths order, and the aux matrix (None when the
    variant takes none).

    Regressor variants require `class_probs`, the (n, 5) stage-1 output,
    which closes the aux matrix.
    """
    spec = variant_spec(variant_id)
    branches, aux_columns = input_columns(spec.layout)
    aux = features[:, aux_columns]
    if spec.task == "regressor":
        if class_probs is None:
            raise ValueError(f"regressor {variant_id!r} needs stage-1 class probabilities")
        aux = np.concatenate([aux, class_probs], axis=1)
    return [features[:, columns] for columns in branches.values()], aux if aux.size else None


def model_inputs(
    table: EncodedTable,
    variant_id: str,
    class_probs: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """stage_inputs of an encoded table, by input name, as forward and train take them."""
    branch_inputs, aux = stage_inputs(table.features, variant_id, class_probs)
    inputs = dict(zip(input_columns(variant_spec(variant_id).layout)[0], branch_inputs))
    if aux is not None:
        inputs["aux"] = aux
    return inputs


def training_targets(table: EncodedTable, variant_id: str) -> np.ndarray:
    """A classifier's one-hot classes (n, 5), or a regressor's normalized power (n, 1)."""
    if variant_spec(variant_id).task == "classifier":
        return table.class_onehot
    return table.target.reshape(-1, 1)


def default_training_config(variant_id: str, seed: int) -> TrainingConfig:
    """Per-variant training defaults.

    Classifiers monitor validation accuracy. Separated-input regressors
    monitor validation loss; AIO regressors monitor validation MSE.
    AIO classifiers train with plain SGD; every other variant uses Adam.
    """
    spec = variant_spec(variant_id)
    optimizer = "adam"
    if spec.task == "classifier":
        metric = "val_accuracy"
        min_delta = 0.005
        if spec.layout.input_mode == "all_in_one":
            optimizer = "sgd"
    else:
        metric = "val_loss" if spec.layout.input_mode == "separated" else "val_mse"
        min_delta = 0.0005
    return TrainingConfig(
        monitored_metric=metric,
        early_stop_min_delta=min_delta,
        optimizer=optimizer,
        seed=seed,
    )
