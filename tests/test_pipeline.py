"""Tests for the per-variant steps that rtp train, rtp evaluate and the
pipeline share, and for the pipeline's settings."""

import numpy as np
import pytest

from rtp import pipeline, seeds
from rtp.compose import compose_models, evaluate_two_stage, load_two_stage
from rtp.domain import DEFAULT_CONFIGS
from rtp.engine import forward, load_model
from rtp.evaluate import class_metrics, confusion
from rtp.ingest import CorpusSpec, synthesize_corpus
from rtp.model_zoo import (
    CLASSIFIER_IDS,
    REGRESSOR_IDS,
    build_variant,
    model_inputs,
    pair_for_regressor,
)
from rtp.pipeline import PipelineConfig, run_pipeline, score_classifier, training_config
from rtp.preprocess import encode_table
from rtp.training import MONITORED_METRICS


def encoded():
    corpus = synthesize_corpus(CorpusSpec(n_observations=40, seed=5))
    return encode_table(corpus, DEFAULT_CONFIGS)


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
        table = encoded()
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
        pipeline.fit_variant("a1", encoded(), 0, {})
        assert len(calls) == 1


class TestRegressorScores:
    """A regressor is scored as the two-stage pair it forms with its paired
    classifier; the composed block scores compose_pair as given."""

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        config = PipelineConfig(
            out_dir=tmp_path_factory.mktemp("run"), corpus_n=300,
            classifier_ids=["a1", "e1"], regressor_ids=["b2", "d2"],
            compose_pair=["a1", "d2"], training_overrides={"max_epochs": 2},
        )
        report = run_pipeline(config)
        corpus = synthesize_corpus(
            CorpusSpec(n_observations=config.corpus_n, seed=seeds.subseed(config.seed, "corpus"))
        )
        perm = seeds.substream(config.seed, "split").permutation(len(corpus))
        test_rows = corpus.take(perm[: report["test_n"]])

        return config.out_dir, report, encode_table(test_rows, DEFAULT_CONFIGS)

    @pytest.mark.parametrize("regressor_id", ["b2", "d2"])
    def test_regression_block_is_the_paired_two_stage_score(self, run, regressor_id):
        out_dir, report, test_table = run
        cid = pair_for_regressor(regressor_id)
        pair = compose_models(
            load_model(out_dir / f"model_{cid}.json"),
            load_model(out_dir / f"model_{regressor_id}.json"),
        )
        scores = evaluate_two_stage(pair, test_table)
        assert report["regressors"][regressor_id]["regression"] == scores.regression.to_dict()
        assert report["classifiers"][cid]["test_accuracy"] == scores.metrics.accuracy

    def test_composed_block_scores_an_untrained_pair(self, run):
        out_dir, report, test_table = run
        assert pair_for_regressor("d2") != "a1"
        scores = evaluate_two_stage(load_two_stage(out_dir / "twostage.json"), test_table)
        assert report["composed"] == {
            "stage1": "a1",
            "stage2": "d2",
            "test_accuracy": scores.metrics.accuracy,
            "test_macro_f1": scores.metrics.macro_f1,
            "regression": scores.regression.to_dict(),
        }
        assert report["composed"]["regression"] != report["regressors"]["d2"]["regression"]
