"""Tests for evaluation metrics against an independent brute-force oracle."""

import re
from pathlib import Path

import numpy as np
import pytest

from rtp.evaluate import class_metrics, confusion, regression_report


def brute_force_metrics(true, pred, n_classes=5):
    """Metric oracle written with plain loops, independent of the library."""
    counts = [[0] * n_classes for _ in range(n_classes)]
    for t, p in zip(true, pred):
        counts[t][p] += 1
    precision, recall, f1 = [], [], []
    for c in range(n_classes):
        tp = counts[c][c]
        fp = sum(counts[r][c] for r in range(n_classes) if r != c)
        fn = sum(counts[c][r] for r in range(n_classes) if r != c)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        precision.append(prec)
        recall.append(rec)
        f1.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
    acc = sum(counts[c][c] for c in range(n_classes)) / len(true)
    macro = sum(f1) / n_classes
    return counts, precision, recall, f1, macro, acc


class TestConfusion:
    def test_hand_case(self):
        counts = confusion([0, 1, 1, 4], [0, 1, 0, 4])
        assert counts[0, 0] == 1
        assert counts[1, 1] == 1
        assert counts[1, 0] == 1
        assert counts[4, 4] == 1
        assert counts.sum() == 4

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion([0, 1], [0])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            confusion([0, 5], [0, 1])
        with pytest.raises(ValueError):
            confusion([0, 1], [-1, 1])

    def test_empty_matrix_rejected_by_metrics(self):
        with pytest.raises(ValueError):
            class_metrics(confusion([], []))


class TestClassMetrics:
    def test_perfect_prediction(self):
        metrics = class_metrics(confusion([0, 1, 2, 3, 4], [0, 1, 2, 3, 4]))
        assert metrics["accuracy"] == 1.0
        assert metrics["macro_f1"] == 1.0
        assert metrics["precision"] == [1.0] * 5

    def test_absent_class_scores_zero(self):
        # Class 4 never occurs; its precision/recall/F1 must be 0, not NaN.
        metrics = class_metrics(confusion([0, 1, 2, 3], [0, 1, 2, 3]))
        assert metrics["f1"][4] == 0.0
        assert metrics["macro_f1"] == pytest.approx(0.8)

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            n = int(rng.integers(5, 200))
            true = rng.integers(0, 5, size=n).tolist()
            pred = rng.integers(0, 5, size=n).tolist()
            cm = confusion(true, pred)
            metrics = class_metrics(cm)
            counts, precision, recall, f1, macro, acc = brute_force_metrics(true, pred)
            assert cm.tolist() == counts
            for c in range(5):
                assert abs(metrics["precision"][c] - precision[c]) <= 1e-12
                assert abs(metrics["recall"][c] - recall[c]) <= 1e-12
                assert abs(metrics["f1"][c] - f1[c]) <= 1e-12
            assert abs(metrics["macro_f1"] - macro) <= 1e-12
            assert abs(metrics["accuracy"] - acc) <= 1e-12

    def test_to_dict(self):
        doc = class_metrics(confusion([0, 1], [0, 1]))
        assert set(doc) == {"precision", "recall", "f1", "macro_f1", "accuracy"}


def abs_errors(targets, preds):
    return np.abs(np.subtract(preds, targets))


class TestRegressionReport:
    def test_hand_values(self):
        targets = [0.5, 0.5, 0.5, 0.5]
        preds = [0.55, 0.70, 0.48, 0.10]
        correct = [True, True, False, True]
        report = regression_report(abs_errors(targets, preds), correct)
        # [DERIVED] abs errors: 0.05, 0.20, 0.02, 0.40
        assert report["mae"] == pytest.approx((0.05 + 0.20 + 0.02 + 0.40) / 4, abs=1e-12)
        assert report["within_0.10"] == pytest.approx(0.5)
        assert report["n_stage1_correct"] == 3
        assert report["conditional_mae"] == pytest.approx((0.05 + 0.20 + 0.40) / 3, abs=1e-12)
        assert report["conditional_within_0.10"] == pytest.approx(1.0 / 3.0)

    def test_boundary_counts_as_within(self):
        report = regression_report(abs_errors([0.5], [0.6]), [True])
        assert report["within_0.10"] == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            regression_report([0.0, 0.1], [True])

    def test_empty(self):
        report = regression_report([], [])
        assert report["mae"] == 0.0
        assert report["n_stage1_correct"] == 0

    def test_to_dict(self):
        doc = regression_report(abs_errors([0.5], [0.55]), [True])
        assert doc["n_samples"] == 1
        assert doc["conditional_within_0.10"] == 1.0


def readme_report_blocks():
    """README's list of report blocks, as {block: the backquoted keys after
    the block's own name in its item}."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    paragraph = next(p for p in text.split("\n\n") if p.startswith("- `classification`"))
    blocks = {}
    for item in paragraph.split("\n- "):
        block, *keys = re.findall(r"`([^`]+)`", item)
        blocks[block] = keys
    return blocks


def test_readme_report_keys_match_the_code():
    assert readme_report_blocks() == {
        "classification": list(class_metrics(confusion([0], [0]))),
        "confusion": [],
        "regression": list(regression_report([0.0], [True])),
    }
