"""Chain a trained classifier and regressor into one deployable two-stage model."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from .domain import CoreConfiguration, PowerClassBins, TransientObservation
from .engine import (
    FORMAT_VERSION,
    HEAD_SIGMOID,
    HEAD_SOFTMAX,
    ModelFormatError,
    NetworkModel,
    forward,
    load_document,
    load_model,
    model_from_dict,
    model_to_dict,
)
from .evaluate import (
    ClassMetrics,
    ConfusionMatrix,
    RegressionReport,
    class_metrics,
    confusion,
    regression_report,
)
from .model_zoo import aux_width, model_inputs, variant_spec
from .preprocess import LAYOUTS, EncodedTable, FeatureLayout, denormalize_power, encode_tables


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
        if self.stage1.head != HEAD_SOFTMAX:
            raise CompositionError(f"stage 1 head is {self.stage1.head}, need {HEAD_SOFTMAX}")
        if self.stage2.head != HEAD_SIGMOID:
            raise CompositionError(f"stage 2 head is {self.stage2.head}, need {HEAD_SIGMOID}")
        for stage, model in (("stage 1", self.stage1), ("stage 2", self.stage2)):
            if model.variant_id not in LAYOUTS:
                raise CompositionError(f"{stage} has no recognized variant id")
        spec2 = variant_spec(self.stage2.variant_id)
        if spec2.task != "regressor":
            raise CompositionError(f"stage 2 variant {self.stage2.variant_id} is not a regressor")
        expected_aux = aux_width(self.stage2.variant_id)
        if self.stage2.aux_width != expected_aux:
            raise CompositionError(
                f"stage 2 aux width {self.stage2.aux_width} != expected {expected_aux} "
                f"(5 class probabilities{' + direction' if expected_aux == 6 else ''})"
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
    """Load and validate the two stages from model files."""
    return compose_models(load_model(stage1_path), load_model(stage2_path))


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
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported format_version {version!r}; expected {FORMAT_VERSION}")
    return compose_models(model_from_dict(doc["stage1"]), model_from_dict(doc["stage2"]))


def load_two_stage(path: Union[str, Path]) -> TwoStageModel:
    return load_document(path, two_stage_from_dict)


def load_any_model(path: Union[str, Path]) -> Union[TwoStageModel, NetworkModel]:
    """The two-stage model or the single network in `path`, by the document's kind."""

    def from_dict(doc):
        if isinstance(doc, dict) and doc.get("kind") == "two-stage":
            return two_stage_from_dict(doc)
        return model_from_dict(doc)

    return load_document(path, from_dict)


def predict_batch(
    model: TwoStageModel,
    stage1_table: EncodedTable,
    stage2_table: EncodedTable,
) -> list[JointPrediction]:
    """Joint predictions for the rows of two aligned tables, one per stage layout.

    The arithmetic path is exactly stage-1 forward, then stage-2 forward with
    the stage-1 probabilities as auxiliary input, so composed predictions are
    bitwise-identical to manual chaining.
    """
    if len(stage1_table) != len(stage2_table):
        raise CompositionError("stage 1 and stage 2 row counts differ")
    probs = np.atleast_2d(forward(model.stage1, model_inputs(stage1_table, model.stage1.variant_id)))
    norm = np.atleast_2d(
        forward(
            model.stage2,
            model_inputs(stage2_table, model.stage2.variant_id, class_probs=probs),
        )
    )
    return [
        JointPrediction(
            class_probs=tuple(row_probs),
            predicted_class=predicted,
            power_norm=p_norm,
            power_watts=denormalize_power(p_norm),
        )
        for row_probs, predicted, p_norm in zip(
            probs.tolist(), np.argmax(probs, axis=1).tolist(), norm[:, 0].tolist()
        )
    ]


def predict(
    model: TwoStageModel,
    obs: TransientObservation,
    config: CoreConfiguration,
    bins: PowerClassBins = PowerClassBins(),
) -> JointPrediction:
    """Joint prediction for one observation under `config`, from one encoding
    of it laid out for both stages."""
    stage1_table, stage2_table = encode_tables([obs], model.layouts, (config,), bins)
    return predict_batch(model, stage1_table, stage2_table)[0]


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
    joint = predict_batch(model, stage1_table, stage2_table)
    true = stage1_table.class_index
    predicted = np.array([p.predicted_class for p in joint], dtype=np.int64)
    norms = np.array([p.power_norm for p in joint], dtype=np.float64)
    cm = confusion(true, predicted)
    return TwoStageEvaluation(
        true_classes=true,
        predicted_classes=predicted,
        confusion=cm,
        metrics=class_metrics(cm),
        regression=regression_report(stage2_table.target, norms, predicted == true),
    )
