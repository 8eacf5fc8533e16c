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
    ModelFormatError,
    NetworkModel,
    check_fields,
    check_format_version,
    load_document,
    model_from_dict,
    model_to_dict,
    run_layers,
)
from .files import writing
from .ingest import CHUNK_ROWS
from .model_zoo import stage_inputs
from .preprocess import TASKS, VARIANTS, EncodedTable, denormalize_power, encode_row


class CompositionError(ValueError):
    """Stages cannot be chained (wrong heads or mismatched widths)."""


@dataclass(frozen=True)
class JointPrediction:
    class_probs: tuple[float, ...]
    predicted_class: int
    power_norm: float
    power_watts: float


def check_stage(stage: str, model: NetworkModel, task: str) -> None:
    """Raise CompositionError, naming `stage`, unless `model` is a known
    `task` variant whose head and input widths are its variant's."""
    vid = model.variant_id
    if vid not in VARIANTS:
        raise CompositionError(f"{stage} has no recognized variant id")
    spec = VARIANTS[vid]
    if spec.task != task:
        raise CompositionError(f"{stage} variant {vid} is not a {task}")
    if model.head != TASKS[task].head:
        raise CompositionError(f"{stage} head is {model.head}, need {TASKS[task].head}")
    expected = spec.branch_widths
    if list(model.branches) != list(expected):
        raise CompositionError(
            f"{stage} ({vid}) has branches {list(model.branches)}, its layout {list(expected)}"
        )
    for name, width in expected.items():
        if model.branch_widths[name] != width:
            raise CompositionError(
                f"{stage} ({vid}) branch '{name}' takes {model.branch_widths[name]} "
                f"inputs, the {vid} layout gives {width}"
            )
    if model.aux_width != spec.aux_width:
        raise CompositionError(
            f"{stage} ({vid}) aux width {model.aux_width} != expected {spec.aux_width}"
        )


@dataclass
class TwoStageModel:
    stage1: NetworkModel
    stage2: NetworkModel

    def __post_init__(self) -> None:
        """Refuse stages that predict cannot run as they are."""
        check_stage("stage 1", self.stage1, "classifier")
        check_stage("stage 2", self.stage2, "regressor")


def save_two_stage(model: TwoStageModel, path: Union[str, Path]) -> None:
    """Persist the composition with full copies of both stages embedded."""
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": "two-stage",
        "stage1": model_to_dict(model.stage1),
        "stage2": model_to_dict(model.stage2),
    }
    with writing(path) as handle:
        json.dump(doc, handle, sort_keys=True)
        handle.write("\n")


_STAGE_RULES = {name: ("an object", lambda x: isinstance(x, dict)) for name in ("stage1", "stage2")}


def two_stage_from_dict(doc: dict) -> TwoStageModel:
    if not isinstance(doc, dict) or doc.get("kind") != "two-stage":
        raise ModelFormatError("not a two-stage model file")
    check_format_version(doc.get("format_version"))
    try:
        check_fields(doc, _STAGE_RULES)
    except ValueError as exc:
        raise ModelFormatError(f"corrupt model document: {exc}") from exc
    stages = []
    for name in _STAGE_RULES:
        try:
            stages.append(model_from_dict(doc[name]))
        except ModelFormatError as exc:
            raise ModelFormatError(f"{name}: {exc}") from exc
    return TwoStageModel(*stages)


def load_two_stage(path: Union[str, Path]) -> TwoStageModel:
    return load_document(path, two_stage_from_dict)


def load_any_model(path: Union[str, Path]) -> Union[TwoStageModel, NetworkModel]:
    """The two-stage model or the single network in `path`, by the document's kind."""

    def from_dict(doc):
        if isinstance(doc, dict) and doc.get("kind") == "two-stage":
            return two_stage_from_dict(doc)
        return model_from_dict(doc)

    return load_document(path, from_dict)


def run_stage(
    model: NetworkModel, features: np.ndarray, probs: np.ndarray | None = None
) -> np.ndarray:
    """A trained network's output on (n, 12) feature rows: its variant's
    input matrix, closed by `probs` for a regressor, run through its layers.
    The only place a network meets feature rows; nothing is checked, so the
    model must take its variant's inputs, as build_variant's do and as
    check_stage makes sure of for a model read from a file. Rows run in
    blocks of CHUNK_ROWS, the last taking a shorter remainder too: every block
    but the last fills BLAS's 4-row kernel and none is a one-row tail, so each
    row gets the bits of one pass over all rows, in under 2 * CHUNK_ROWS."""
    x = stage_inputs(features, model.variant_id, probs)
    cuts = range(CHUNK_ROWS, len(x) - CHUNK_ROWS + 1, CHUNK_ROWS)
    outputs = [run_layers(model, block) for block in (np.split(x, cuts) if cuts else [x])]
    return np.concatenate(outputs) if cuts else outputs[0]


def _run_stages(model: TwoStageModel, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stage 1's class probabilities (n, 5) and stage 2's normalized powers
    (n, 1) on (n, 12) feature rows, the probabilities closing stage 2's aux
    vector. The only chaining of the two stages."""
    probs = run_stage(model.stage1, features)
    return probs, run_stage(model.stage2, features, probs)


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

