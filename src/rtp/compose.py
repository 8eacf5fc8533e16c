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
    forward,
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
from .model_zoo import aux_width, branch_widths, model_inputs, row_columns, variant_spec
from .preprocess import LAYOUTS, EncodedTable, FeatureLayout, denormalize_power, encode_row


class CompositionError(ValueError):
    """Stages cannot be chained (wrong heads or mismatched widths)."""


@dataclass(frozen=True)
class JointPrediction:
    class_probs: tuple[float, ...]
    predicted_class: int
    power_norm: float
    power_watts: float


@dataclass
class TwoStageModel:
    stage1: NetworkModel
    stage2: NetworkModel

    def __post_init__(self) -> None:
        """Refuse stages that predict cannot run as they are: wrong heads or
        tasks, or inputs that differ from their variant's layout."""
        if self.stage1.head != HEAD_SOFTMAX:
            raise CompositionError(f"stage 1 head is {self.stage1.head}, need {HEAD_SOFTMAX}")
        if self.stage2.head != HEAD_SIGMOID:
            raise CompositionError(f"stage 2 head is {self.stage2.head}, need {HEAD_SIGMOID}")
        stages = (("stage 1", self.stage1, "classifier"), ("stage 2", self.stage2, "regressor"))
        for stage, model, task in stages:
            vid = model.variant_id
            if vid not in LAYOUTS:
                raise CompositionError(f"{stage} has no recognized variant id")
            spec = variant_spec(vid)
            if spec.task != task:
                raise CompositionError(f"{stage} variant {vid} is not a {task}")
            expected = branch_widths(spec.layout)
            if list(model.branches) != list(expected):
                raise CompositionError(
                    f"{stage} ({vid}) has branches {list(model.branches)}, "
                    f"its layout {list(expected)}"
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

    @property
    def layouts(self) -> tuple[FeatureLayout, FeatureLayout]:
        """The feature layouts of stage 1 and stage 2."""
        return (
            variant_spec(self.stage1.variant_id).layout,
            variant_spec(self.stage2.variant_id).layout,
        )


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


def predict_arrays(
    model: TwoStageModel,
    stage1_table: EncodedTable,
    stage2_table: EncodedTable,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Class probabilities (n, 5), predicted classes (n,) and normalized
    powers (n,) for the rows of two aligned tables, one per stage layout.

    The arithmetic path is exactly stage-1 forward, then stage-2 forward with
    the stage-1 probabilities as auxiliary input, so composed predictions are
    bitwise-identical to manual chaining.
    """
    if len(stage1_table) != len(stage2_table):
        raise CompositionError("stage 1 and stage 2 row counts differ")
    # Table inputs are matrices, so forward returns (n, width) outputs.
    probs = forward(model.stage1, model_inputs(stage1_table, model.stage1.variant_id))
    norm = forward(model.stage2, model_inputs(stage2_table, model.stage2.variant_id, class_probs=probs))
    return probs, np.argmax(probs, axis=1), norm[:, 0]


def predict_batch(
    model: TwoStageModel,
    stage1_table: EncodedTable,
    stage2_table: EncodedTable,
) -> list[JointPrediction]:
    """predict_arrays' rows as JointPredictions."""
    probs, classes, norm = predict_arrays(model, stage1_table, stage2_table)
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
    predict_arrays gives its one-row tables.

    Both stages read encode_row's feature row and run without per-call
    checks: TwoStageModel checked each stage's input widths when it was built.
    """
    row = encode_row(obs, config)
    probs = _run_row(model.stage1, row)
    norm = _run_row(model.stage2, row, probs)
    return _joint(probs[0].tolist(), int(probs.argmax()), float(norm[0, 0]))


def _run_row(stage: NetworkModel, row: np.ndarray, class_probs: np.ndarray | None = None):
    """A stage's (1, width) output on a feature row, with the stage-1
    `class_probs` closing a regressor's aux vector."""
    branch_columns, aux_columns = row_columns(stage.variant_id)
    aux = row[:, aux_columns]
    if class_probs is not None:
        aux = np.concatenate([aux, class_probs], axis=1)
    branch_inputs = [row[:, columns] for columns in branch_columns]
    return run_layers(stage, branch_inputs, aux if aux.size else None)


@dataclass(frozen=True)
class TwoStageEvaluation:
    """Joint predictions on labelled rows, scored by class and by power."""

    true_classes: np.ndarray
    predicted_classes: np.ndarray
    confusion: ConfusionMatrix
    metrics: ClassMetrics
    regression: RegressionReport


def evaluate_two_stage(
    model: TwoStageModel, stage1_table: EncodedTable, stage2_table: EncodedTable
) -> TwoStageEvaluation:
    """Score joint predictions against the tables' classes and targets; the
    regression report conditions on rows whose class stage 1 got right."""
    _, predicted, norms = predict_arrays(model, stage1_table, stage2_table)
    true = stage1_table.class_index
    cm = confusion(true, predicted)
    return TwoStageEvaluation(
        true_classes=true,
        predicted_classes=predicted,
        confusion=cm,
        metrics=class_metrics(cm),
        regression=regression_report(stage2_table.target, norms, predicted == true),
    )
