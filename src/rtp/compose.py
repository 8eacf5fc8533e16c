"""Chain a trained classifier and regressor into one deployable two-stage model."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from .domain import CoreConfiguration, PowerClassBins, TransientObservation
from .engine import (
    FORMAT_VERSION,
    HEAD_SIGMOID,
    HEAD_SOFTMAX,
    ModelFormatError,
    NetworkModel,
    forward,
    load_model,
    model_from_dict,
    model_to_dict,
)
from .model_zoo import aux_width, model_inputs, variant_spec
from .preprocess import EncodedSample, denormalize_power, encode


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
            if model.variant_id is None or model.variant_id not in _known_variants():
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


def _known_variants() -> set[str]:
    from .preprocess import LAYOUTS

    return set(LAYOUTS)


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


def load_two_stage(path: Union[str, Path]) -> TwoStageModel:
    try:
        with open(path) as handle:
            doc = json.load(handle)
        if not isinstance(doc, dict) or doc.get("kind") != "two-stage":
            raise ModelFormatError("not a two-stage model file")
        version = doc.get("format_version")
        if version != FORMAT_VERSION:
            raise ModelFormatError(f"unsupported format_version {version!r}; expected {FORMAT_VERSION}")
        stage1, stage2 = model_from_dict(doc["stage1"]), model_from_dict(doc["stage2"])
    except (json.JSONDecodeError, KeyError, ModelFormatError) as exc:
        raise ModelFormatError(f"model file {path}: {exc}") from exc
    return compose_models(stage1, stage2)


def predict_batch(
    model: TwoStageModel,
    stage1_samples: Sequence[EncodedSample],
    stage2_samples: Sequence[EncodedSample],
) -> list[JointPrediction]:
    """Joint predictions for pre-encoded feature rows (aligned sequences).

    The arithmetic path is exactly stage-1 forward, then stage-2 forward with
    the stage-1 probabilities as auxiliary input, so composed predictions are
    bitwise-identical to manual chaining.
    """
    if len(stage1_samples) != len(stage2_samples):
        raise CompositionError("stage 1 and stage 2 sample counts differ")
    probs = np.atleast_2d(forward(model.stage1, model_inputs(stage1_samples, model.stage1.variant_id)))
    norm = np.atleast_2d(
        forward(
            model.stage2,
            model_inputs(stage2_samples, model.stage2.variant_id, class_probs=probs),
        )
    )
    predictions = []
    for row_probs, row_norm in zip(probs, norm):
        p_norm = float(row_norm[0])
        predictions.append(
            JointPrediction(
                class_probs=tuple(float(p) for p in row_probs),
                predicted_class=int(np.argmax(row_probs)),
                power_norm=p_norm,
                power_watts=denormalize_power(p_norm),
            )
        )
    return predictions


def predict(
    model: TwoStageModel,
    obs: TransientObservation,
    config: CoreConfiguration,
    bins: PowerClassBins = PowerClassBins(),
) -> JointPrediction:
    """Joint prediction for one observation, encoding per each stage's layout."""
    s1 = encode(obs, variant_spec(model.stage1.variant_id).layout, config, bins)
    s2 = encode(obs, variant_spec(model.stage2.variant_id).layout, config, bins)
    return predict_batch(model, [s1], [s2])[0]
