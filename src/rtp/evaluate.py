"""Confusion matrices, per-class precision/recall/F1, and regression error reports."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .domain import N_CLASSES

WITHIN_THRESHOLD = 0.10


@dataclass(frozen=True)
class ConfusionMatrix:
    """Rows are true classes, columns predicted."""

    counts: np.ndarray

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def to_lists(self) -> list[list[int]]:
        return [[int(v) for v in row] for row in self.counts]


@dataclass(frozen=True)
class ClassMetrics:
    precision: tuple[float, ...]
    recall: tuple[float, ...]
    f1: tuple[float, ...]
    macro_f1: float
    accuracy: float

    def to_dict(self) -> dict:
        return {
            "precision": list(self.precision),
            "recall": list(self.recall),
            "f1": list(self.f1),
            "macro_f1": self.macro_f1,
            "accuracy": self.accuracy,
        }


@dataclass(frozen=True)
class RegressionReport:
    abs_errors: np.ndarray  # normalized units, per sample
    mae: float
    within_tolerance: float  # fraction with |error| <= 0.10
    n_stage1_correct: int
    conditional_mae: float
    conditional_within_tolerance: float

    def to_dict(self) -> dict:
        return {
            "mae": self.mae,
            "within_0.10": self.within_tolerance,
            "n_samples": int(self.abs_errors.size),
            "n_stage1_correct": self.n_stage1_correct,
            "conditional_mae": self.conditional_mae,
            "conditional_within_0.10": self.conditional_within_tolerance,
        }


def confusion(true_classes: Sequence[int], predicted_classes: Sequence[int]) -> ConfusionMatrix:
    true_arr = np.asarray(true_classes, dtype=np.int64)
    pred_arr = np.asarray(predicted_classes, dtype=np.int64)
    if true_arr.shape != pred_arr.shape:
        raise ValueError(f"label lists differ in length: {true_arr.size} vs {pred_arr.size}")
    if true_arr.size and (
        true_arr.min() < 0
        or true_arr.max() >= N_CLASSES
        or pred_arr.min() < 0
        or pred_arr.max() >= N_CLASSES
    ):
        raise ValueError(f"class labels must lie in 0..{N_CLASSES - 1}")
    counts = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
    np.add.at(counts, (true_arr, pred_arr), 1)
    return ConfusionMatrix(counts=counts)


def _safe_div(num: float, den: float) -> float:
    # Unrepresented classes get metric 0 rather than NaN.
    return num / den if den > 0 else 0.0


def class_metrics(cm: ConfusionMatrix) -> ClassMetrics:
    counts = cm.counts
    if counts.sum() == 0:
        raise ValueError("confusion matrix is empty")
    diag = np.diag(counts).astype(float)
    col_sums = counts.sum(axis=0).astype(float)
    row_sums = counts.sum(axis=1).astype(float)

    precision = tuple(_safe_div(diag[c], col_sums[c]) for c in range(counts.shape[0]))
    recall = tuple(_safe_div(diag[c], row_sums[c]) for c in range(counts.shape[0]))
    f1 = tuple(
        _safe_div(2.0 * p * r, p + r) for p, r in zip(precision, recall)
    )
    return ClassMetrics(
        precision=precision,
        recall=recall,
        f1=f1,
        macro_f1=float(np.mean(f1)),
        accuracy=float(diag.sum() / counts.sum()),
    )


def regression_report(
    targets: Sequence[float],
    predictions: Sequence[float],
    stage1_correct: Sequence[bool],
) -> RegressionReport:
    targ = np.asarray(targets, dtype=np.float64)
    pred = np.asarray(predictions, dtype=np.float64)
    correct = np.asarray(stage1_correct, dtype=bool)
    if not (targ.shape == pred.shape == correct.shape):
        raise ValueError(
            f"length mismatch: targets {targ.shape}, predictions {pred.shape}, "
            f"flags {correct.shape}"
        )
    abs_errors = np.abs(pred - targ)
    cond = abs_errors[correct]
    return RegressionReport(
        abs_errors=abs_errors,
        mae=float(abs_errors.mean()) if abs_errors.size else 0.0,
        within_tolerance=float(np.mean(abs_errors <= WITHIN_THRESHOLD)) if abs_errors.size else 0.0,
        n_stage1_correct=int(correct.sum()),
        conditional_mae=float(cond.mean()) if cond.size else 0.0,
        conditional_within_tolerance=float(np.mean(cond <= WITHIN_THRESHOLD)) if cond.size else 0.0,
    )
