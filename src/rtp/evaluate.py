"""Scores as the report blocks they are written as: confusion counts, the
classification block (precision/recall/F1, accuracy) and the regression block."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .domain import N_CLASSES

WITHIN_THRESHOLD = 0.10


def confusion(true_classes: Sequence[int], predicted_classes: Sequence[int]) -> np.ndarray:
    """The (5, 5) int64 counts; rows are true classes, columns predicted."""
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
    return counts


def _safe_div(num: float, den: float) -> float:
    # Unrepresented classes get metric 0 rather than NaN.
    return num / den if den > 0 else 0.0


def class_metrics(counts: np.ndarray) -> dict:
    """The classification block of confusion counts: per-class `precision`,
    `recall` and `f1` lists, `macro_f1` and `accuracy`."""
    if counts.sum() == 0:
        raise ValueError("confusion matrix is empty")
    diag = np.diag(counts).astype(float)
    col_sums = counts.sum(axis=0).astype(float)
    row_sums = counts.sum(axis=1).astype(float)

    precision = [_safe_div(diag[c], col_sums[c]) for c in range(counts.shape[0])]
    recall = [_safe_div(diag[c], row_sums[c]) for c in range(counts.shape[0])]
    f1 = [_safe_div(2.0 * p * r, p + r) for p, r in zip(precision, recall)]
    return {
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "macro_f1": float(np.mean(f1)),
        "accuracy": float(diag.sum() / counts.sum()),
    }


def regression_report(abs_errors: Sequence[float], stage1_correct: Sequence[bool]) -> dict:
    """The regression block of per-sample absolute errors (normalized units):
    over all samples, and over those whose class stage 1 got right."""
    errors = np.asarray(abs_errors, dtype=np.float64)
    correct = np.asarray(stage1_correct, dtype=bool)
    if errors.shape != correct.shape:
        raise ValueError(f"length mismatch: errors {errors.shape}, flags {correct.shape}")
    cond = errors[correct]
    return {
        "mae": float(errors.mean()) if errors.size else 0.0,
        "within_0.10": float(np.mean(errors <= WITHIN_THRESHOLD)) if errors.size else 0.0,
        "n_samples": int(errors.size),
        "n_stage1_correct": int(correct.sum()),
        "conditional_mae": float(cond.mean()) if cond.size else 0.0,
        "conditional_within_0.10": float(np.mean(cond <= WITHIN_THRESHOLD)) if cond.size else 0.0,
    }
