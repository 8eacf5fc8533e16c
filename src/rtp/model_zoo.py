"""Construction of the ten named model variants and their training settings."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .engine import HEAD_LAYERS, DenseLayer, NetworkModel, init_layer
from .preprocess import TASKS, VARIANTS, Variant
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


def build_variant(variant_id: str, seed: int) -> NetworkModel:
    """Seeded construction of a variant's untrained network."""
    spec = variant_spec(variant_id)
    rng = np.random.default_rng(seed)

    def stack(n_in: int, depth: int) -> list[DenseLayer]:
        layers = []
        for _ in range(depth):
            layers.append(init_layer(n_in, HIDDEN_WIDTH, "relu", rng, l2=DEFAULT_L2))
            n_in = HIDDEN_WIDTH
        return layers

    if spec.input_mode == "separated":
        branches = {name: stack(width, 2) for name, width in spec.branch_widths.items()}
        trunk = stack(HIDDEN_WIDTH * len(branches) + spec.aux_width, 2)
    else:
        branches = {"main": []}
        trunk = stack(spec.branch_widths["main"] + spec.aux_width, 4)

    head = TASKS[spec.task].head
    activation, width = HEAD_LAYERS[head]
    trunk.append(init_layer(HIDDEN_WIDTH, width, activation, rng, l2=DEFAULT_L2))
    return NetworkModel(
        branches=branches, aux_width=spec.aux_width, trunk=trunk, head=head, variant_id=variant_id
    )


def pair_for_regressor(regressor_id: str) -> str:
    """The classifier whose outputs the regressor takes, from its table row."""
    pair = variant_spec(regressor_id).pair
    if pair is None:
        raise ValueError(f"{regressor_id!r} is not a regressor")
    return pair


def stage_inputs(
    features: np.ndarray, variant_id: str, probs: np.ndarray | None = None
) -> np.ndarray:
    """A variant's input matrix, picked from (n, 12) feature rows: each
    branch's columns, in its row's branch_widths order, then the aux columns.

    Regressor variants require `probs`, the (n, 5) stage-1 output, which
    closes the aux columns.
    """
    spec = variant_spec(variant_id)
    x = features[:, spec.columns]
    if spec.task == "regressor":
        if probs is None:
            raise ValueError(f"regressor {variant_id!r} needs stage-1 class probabilities")
        x = np.concatenate([x, probs], axis=1)
    return x


def training_config(variant_id: str, seed: int, overrides: dict) -> TrainingConfig:
    """A variant's training settings: its row's optimizer and monitored
    metric, its task's early-stopping min delta, then `overrides`.
    ValueError names a setting that TrainingConfig refuses or a metric the
    head does not report."""
    spec = variant_spec(variant_id)
    task = TASKS[spec.task]
    defaults = TrainingConfig(
        monitored_metric=spec.monitored_metric,
        early_stop_min_delta=task.early_stop_min_delta,
        optimizer=spec.optimizer,
        seed=seed,
    )
    config = replace(defaults, **overrides)
    if config.monitored_metric not in task.metrics:
        raise ValueError(
            f"monitored_metric must be one of {task.metrics} for {spec.task} "
            f"{variant_id}, got {config.monitored_metric!r}"
        )
    return config
