"""Tests for the per-variant steps that rtp train, rtp evaluate and the
pipeline share, and for the pipeline's settings."""

import numpy as np
import pytest

from rtp import pipeline
from rtp.domain import DEFAULT_CONFIGS
from rtp.engine import forward
from rtp.evaluate import class_metrics, confusion
from rtp.ingest import CorpusSpec, synthesize_corpus
from rtp.model_zoo import CLASSIFIER_IDS, REGRESSOR_IDS, build_variant, model_inputs
from rtp.pipeline import PipelineConfig, score_classifier, training_config
from rtp.preprocess import LAYOUTS, encode_tables
from rtp.training import MONITORED_METRICS


def encoded(variant_id):
    corpus = synthesize_corpus(CorpusSpec(n_observations=40, seed=5))
    (table,) = encode_tables(corpus, [LAYOUTS[variant_id]], DEFAULT_CONFIGS)
    return table


class TestTrainingConfig:
    @pytest.mark.parametrize("variant_id", CLASSIFIER_IDS + REGRESSOR_IDS)
    @pytest.mark.parametrize("metric", MONITORED_METRICS)
    def test_metric_must_be_one_the_head_reports(self, variant_id, metric):
        reports = {"val_accuracy": variant_id in CLASSIFIER_IDS,
                   "val_mse": variant_id in REGRESSOR_IDS, "val_loss": True}
        overrides = {"monitored_metric": metric}
        if reports[metric]:
            assert training_config(variant_id, 3, overrides).monitored_metric == metric
        else:
            message = f"monitored_metric must be one of .* {variant_id}, got '{metric}'"
            with pytest.raises(ValueError, match=message):
                training_config(variant_id, 3, overrides)

    def test_defaults_then_overrides(self):
        config = training_config("e1", 3, {"max_epochs": 7})
        assert (config.optimizer, config.max_epochs, config.seed) == ("sgd", 7, 3)

    def test_overrides_checked_without_variants(self):
        with pytest.raises(ValueError, match="batch_size must be"):
            PipelineConfig(
                classifier_ids=(), regressor_ids=(), training_overrides={"batch_size": 0}
            )


class TestPipelineConfig:
    def test_lists_become_tuples(self):
        config = PipelineConfig(
            classifier_ids=["a1"], regressor_ids=["b2"], compose_pair=["a1", "b2"]
        )
        assert (config.classifier_ids, config.regressor_ids, config.compose_pair) == (
            ("a1",), ("b2",), ("a1", "b2"))

    def test_bool_is_not_a_count(self):
        with pytest.raises(ValueError, match="corpus_n must be an integer >= 1, got True"):
            PipelineConfig(corpus_n=True)


class TestScoreClassifier:
    def test_scores_the_forward_pass(self):
        table = encoded("a1")
        model = build_variant("a1", seed=1)
        out, predicted, cm, metrics = score_classifier(model, table)
        expected = forward(model, model_inputs(table, "a1"))
        np.testing.assert_array_equal(out, expected)
        np.testing.assert_array_equal(predicted, np.argmax(expected, axis=1))
        assert cm.to_lists() == confusion(table.class_index, predicted).to_lists()
        assert metrics.to_dict() == class_metrics(cm).to_dict()

    def test_calls_train_through_the_module_global(self, monkeypatch):
        calls = []
        monkeypatch.setattr(pipeline, "train", lambda *args: calls.append(args) or args[:2])
        pipeline.fit_variant("a1", encoded("a1"), 0, {})
        assert len(calls) == 1
