"""Chain a trained classifier and regressor into one deployable two-stage model."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from .domain import CoreConfiguration, TransientObservation
from .engine import (
    FORMAT_VERSION,
    HEAD_SIGMOID,
    HEAD_SOFTMAX,
    ModelFormatError,
    NetworkModel,
    check_format_version,
    load_document,
    load_model,
    model_from_dict,
    model_to_dict,
    run_layers,
)
from .evaluate import (
    ClassMetrics,
    ConfusionMatrix,
    RegressionReport,
    class_metrics,
    confusion,
    regression_report,
)
from .model_zoo import aux_width, branch_widths, stage_inputs, variant_spec
from .preprocess import LAYOUTS, EncodedTable, denormalize_power, encode_row


class CompositionError(ValueError):
    """Stages cannot be chained (wrong heads or mismatched widths)."""


@dataclass(frozen=True)
class JointPrediction:
    class_probs: tuple[float, ...]
    predicted_class: int
    power_norm: float
    power_watts: float


_HEAD_BY_TASK = {"classifier": HEAD_SOFTMAX, "regressor": HEAD_SIGMOID}


def check_stage(stage: str, model: NetworkModel, task: str) -> None:
    """Raise CompositionError, naming `stage`, unless `model` is a known
    `task` variant whose head and input widths are its variant's."""
    vid = model.variant_id
    if vid not in LAYOUTS:
        raise CompositionError(f"{stage} has no recognized variant id")
    spec = variant_spec(vid)
    if spec.task != task:
        raise CompositionError(f"{stage} variant {vid} is not a {task}")
    if model.head != _HEAD_BY_TASK[task]:
        raise CompositionError(f"{stage} head is {model.head}, need {_HEAD_BY_TASK[task]}")
    expected = branch_widths(spec.layout)
    if list(model.branches) != list(expected):
        raise CompositionError(
            f"{stage} ({vid}) has branches {list(model.branches)}, its layout {list(expected)}"
        )
    for name, width in expected.items():
        if model.branch_input_width(name) != width:
            raise CompositionError(
                f"{stage} ({vid}) branch '{name}' takes {model.branch_input_width(name)} "
                f"inputs, the {vid} layout gives {width}"
            )
    if model.aux_width != aux_width(vid):
        raise CompositionError(
            f"{stage} ({vid}) aux width {model.aux_width} != expected {aux_width(vid)}"
        )


@dataclass
class TwoStageModel:
    stage1: NetworkModel
    stage2: NetworkModel

    def __post_init__(self) -> None:
        """Refuse stages that predict cannot run as they are."""
        check_stage("stage 1", self.stage1, "classifier")
        check_stage("stage 2", self.stage2, "regressor")


def compose_models(stage1: NetworkModel, stage2: NetworkModel) -> TwoStageModel:
    return TwoStageModel(stage1=stage1, stage2=stage2)


def compose(stage1_path: Union[str, Path], stage2_path: Union[str, Path]) -> TwoStageModel:
    """Load and validate the two stages from model files; a CompositionError
    names both files."""
    stage1, stage2 = load_model(stage1_path), load_model(stage2_path)
    try:
        return compose_models(stage1, stage2)
    except CompositionError as exc:
        raise CompositionError(f"stage 1 {stage1_path}, stage 2 {stage2_path}: {exc}") from None


def save_two_stage(model: TwoStageModel, path: Union[str, Path]) -> None:
    """Persist the composition with full copies of both stages embedded."""
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": "two-stage",
        "stage1": model_to_dict(model.stage1),
        "stage2": model_to_dict(model.stage2),
    }
    with open(path, "w") as handle:
        json.dump(doc, handle, sort_keys=True)
        handle.write("\n")


def two_stage_from_dict(doc: dict) -> TwoStageModel:
    if not isinstance(doc, dict) or doc.get("kind") != "two-stage":
        raise ModelFormatError("not a two-stage model file")
    check_format_version(doc.get("format_version"))
    stage1, stage2 = model_from_dict(doc["stage1"]), model_from_dict(doc["stage2"])
    try:
        return compose_models(stage1, stage2)
    except CompositionError as exc:
        raise ModelFormatError(str(exc)) from exc


def load_two_stage(path: Union[str, Path]) -> TwoStageModel:
    return load_document(path, two_stage_from_dict)


def load_any_model(path: Union[str, Path]) -> Union[TwoStageModel, NetworkModel]:
    """The two-stage model or the single network in `path`, by the document's kind."""

    def from_dict(doc):
        if isinstance(doc, dict) and doc.get("kind") == "two-stage":
            return two_stage_from_dict(doc)
        return model_from_dict(doc)

    return load_document(path, from_dict)


def _run_stages(model: TwoStageModel, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stage 1's class probabilities (n, 5) and stage 2's normalized powers
    (n, 1) on (n, 12) feature rows, the probabilities closing stage 2's aux
    vector. The only chaining of the two stages; nothing is checked, because
    TwoStageModel checked each stage's input widths when it was built."""
    probs = run_layers(model.stage1, *stage_inputs(features, model.stage1.variant_id))
    return probs, run_layers(model.stage2, *stage_inputs(features, model.stage2.variant_id, probs))


def predict_arrays(
    model: TwoStageModel, table: EncodedTable
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Class probabilities (n, 5), predicted classes (n,) and normalized
    powers (n,) for the rows of an encoded table.

    The arithmetic is the stage-1 forward pass, then the stage-2 one with the
    stage-1 probabilities as auxiliary input, so composed predictions are
    bitwise-identical to manual chaining.
    """
    probs, norm = _run_stages(model, table.features)
    return probs, np.argmax(probs, axis=1), norm[:, 0]


def predict_batch(
    model: TwoStageModel,
    stage1_table: EncodedTable,
    stage2_table: EncodedTable,
) -> list[JointPrediction]:
    """predict_arrays' rows as JointPredictions.

    The tables must hold the same feature rows; the two-table form is kept
    only because perfbench/workloads.py (reference_answers) calls it.
    """
    if not np.array_equal(stage1_table.features, stage2_table.features, equal_nan=True):
        raise CompositionError("the stage 1 and stage 2 tables hold different rows")
    probs, classes, norm = predict_arrays(model, stage1_table)
    return list(map(_joint, probs.tolist(), classes.tolist(), norm.tolist()))


def _joint(row_probs: list[float], predicted: int, p_norm: float) -> JointPrediction:
    return JointPrediction(
        class_probs=tuple(row_probs),
        predicted_class=predicted,
        power_norm=p_norm,
        power_watts=denormalize_power(p_norm),
    )


def predict(
    model: TwoStageModel, obs: TransientObservation, config: CoreConfiguration
) -> JointPrediction:
    """Joint prediction for one observation under `config`, with the bits
    predict_arrays gives its one-row table."""
    probs, norm = _run_stages(model, encode_row(obs, config))
    return _joint(probs[0].tolist(), int(probs.argmax()), float(norm[0, 0]))


@dataclass(frozen=True)
class TwoStageEvaluation:
    """Joint predictions on labelled rows, scored by class and by power."""

    true_classes: np.ndarray
    predicted_classes: np.ndarray
    confusion: ConfusionMatrix
    metrics: ClassMetrics
    regression: RegressionReport


def evaluate_two_stage(model: TwoStageModel, table: EncodedTable) -> TwoStageEvaluation:
    """Score joint predictions against the table's classes and targets; the
    regression report conditions on rows whose class stage 1 got right."""
    _, predicted, norms = predict_arrays(model, table)
    true = table.class_index
    cm = confusion(true, predicted)
    return TwoStageEvaluation(
        true_classes=true,
        predicted_classes=predicted,
        confusion=cm,
        metrics=class_metrics(cm),
        regression=regression_report(table.target, norms, predicted == true),
    )
