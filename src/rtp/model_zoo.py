"""Construction of the ten named model variants and their training defaults."""

from __future__ import annotations

import numpy as np

from .domain import N_CLASSES
from .engine import HEAD_LAYERS, DenseLayer, NetworkModel, init_layer
from .preprocess import TASKS, VARIANTS, EncodedTable, Variant, input_columns
from .training import TrainingConfig

CLASSIFIER_IDS = tuple(vid for vid, v in VARIANTS.items() if v.task == "classifier")
REGRESSOR_IDS = tuple(vid for vid, v in VARIANTS.items() if v.task == "regressor")

HIDDEN_WIDTH = 64
DEFAULT_L2 = 1e-4


def variant_spec(variant_id: str) -> Variant:
    """The variant's row of the table; ValueError names an unknown id."""
    if variant_id not in VARIANTS:
        raise ValueError(f"unknown variant {variant_id!r}; valid ids: {sorted(VARIANTS)}")
    return VARIANTS[variant_id]


def branch_widths(variant: Variant) -> dict[str, int]:
    """Input width per branch of a variant, before any auxiliary inputs."""
    return {name: columns.size for name, columns in input_columns(variant)[0].items()}


def aux_width(variant_id: str) -> int:
    """Width of the aux vector at the merge point: the direction, for a
    separated variant that uses it, then a regressor's 5 class probabilities."""
    spec = variant_spec(variant_id)
    return input_columns(spec)[1].size + (N_CLASSES if spec.task == "regressor" else 0)


def build_variant(variant_id: str, seed: int) -> NetworkModel:
    """Seeded construction of a variant's untrained network."""
    spec = variant_spec(variant_id)
    rng = np.random.default_rng(seed)
    widths = branch_widths(spec)
    aux = aux_width(variant_id)

    def stack(n_in: int, depth: int) -> list[DenseLayer]:
        layers = []
        for _ in range(depth):
            layers.append(init_layer(n_in, HIDDEN_WIDTH, "relu", rng, l2=DEFAULT_L2))
            n_in = HIDDEN_WIDTH
        return layers

    if spec.input_mode == "separated":
        branches = {name: stack(width, 2) for name, width in widths.items()}
        trunk = stack(HIDDEN_WIDTH * len(branches) + aux, 2)
    else:
        branches = {"main": []}
        trunk = stack(widths["main"] + aux, 4)

    head = TASKS[spec.task].head
    activation, width = HEAD_LAYERS[head]
    trunk.append(init_layer(HIDDEN_WIDTH, width, activation, rng, l2=DEFAULT_L2))
    return NetworkModel(
        branches=branches, aux_width=aux, trunk=trunk, head=head, variant_id=variant_id
    )


def pair_for_regressor(regressor_id: str) -> str:
    """The classifier whose outputs the regressor takes, from its table row."""
    pair = variant_spec(regressor_id).pair
    if pair is None:
        raise ValueError(f"{regressor_id!r} is not a regressor")
    return pair


def stage_inputs(
    features: np.ndarray, variant_id: str, class_probs: np.ndarray | None = None
) -> np.ndarray:
    """A variant's input matrix, picked from (n, 12) feature rows: each
    branch's columns, in branch_widths order, then the aux columns.

    Regressor variants require `class_probs`, the (n, 5) stage-1 output,
    which closes the aux columns.
    """
    spec = variant_spec(variant_id)
    x = features[:, spec.columns]
    if spec.task == "regressor":
        if class_probs is None:
            raise ValueError(f"regressor {variant_id!r} needs stage-1 class probabilities")
        x = np.concatenate([x, class_probs], axis=1)
    return x


def training_targets(table: EncodedTable, variant_id: str) -> np.ndarray:
    """A classifier's one-hot classes (n, 5), or a regressor's normalized power (n, 1)."""
    if variant_spec(variant_id).task == "classifier":
        return table.class_onehot
    return table.target.reshape(-1, 1)


def default_training_config(variant_id: str, seed: int) -> TrainingConfig:
    """A variant's optimizer and monitored metric from its table row, and its
    task's early-stopping min delta."""
    spec = variant_spec(variant_id)
    return TrainingConfig(
        monitored_metric=spec.monitored_metric,
        early_stop_min_delta=TASKS[spec.task].early_stop_min_delta,
        optimizer=spec.optimizer,
        seed=seed,
    )
