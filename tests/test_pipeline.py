"""Tests for the per-variant steps that rtp train, rtp evaluate and the
pipeline share, and for the pipeline's settings."""

import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from rtp import pipeline, seeds
from rtp.compose import TwoStageModel, load_two_stage
from rtp.engine import forward, load_model
from rtp.evaluate import class_metrics, confusion
from rtp.ingest import CorpusSpec, synthesize_corpus
from rtp.model_zoo import (
    CLASSIFIER_IDS,
    REGRESSOR_IDS,
    build_variant,
    pair_for_regressor,
    stage_inputs,
    training_config,
)
from rtp.pipeline import PipelineConfig, run_pipeline, score
from rtp.preprocess import encode_table
from rtp.training import MONITORED_METRICS, TrainingConfig


def encoded():
    corpus = synthesize_corpus(CorpusSpec(n_observations=40, seed=5))
    return encode_table(corpus)


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


# Settings that are module constants now; no config may name them.
REMOVED_SETTINGS = {
    "test_fraction", "augment_change", "policy",
    "base_noise_sigma", "directional_bias", "reg_rod_scale", "max_delta_rho",
    "adam_betas", "adam_eps", "shuffle_each_epoch",
}


def readme_settings(opening: str) -> set[str]:
    """The backquoted names of README's paragraph that holds `opening`."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    paragraph = next(p for p in text.split("\n\n") if opening in p)
    return set(re.findall(r"`([^`]+)`", paragraph))


@pytest.mark.parametrize(
    "opening,settings",
    [("Training settings are checked", TrainingConfig), ("A `pipeline` config is", PipelineConfig)],
    ids=["training", "pipeline"],
)
def test_readme_names_every_setting_and_no_removed_one(opening, settings):
    named = readme_settings(opening)
    assert named & REMOVED_SETTINGS == set()
    assert {f.name for f in fields(settings)} - named == set()


class TestScoreClassifier:
    def test_scores_the_forward_pass(self):
        table = encoded()
        model = build_variant("a1", seed=1)
        predicted, abs_errors, report = score(model, table)
        assert abs_errors is None
        expected = forward(model, stage_inputs(table.features, "a1"))
        np.testing.assert_array_equal(predicted, np.argmax(expected, axis=1))
        cm = confusion(table.class_index, predicted)
        assert report == {"classification": class_metrics(cm), "confusion": cm.tolist()}

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

        return config.out_dir, report, encode_table(test_rows)

    @pytest.mark.parametrize("regressor_id", ["b2", "d2"])
    def test_regression_block_is_the_paired_two_stage_score(self, run, regressor_id):
        out_dir, report, test_table = run
        cid = pair_for_regressor(regressor_id)
        pair = TwoStageModel(
            load_model(out_dir / f"model_{cid}.json"),
            load_model(out_dir / f"model_{regressor_id}.json"),
        )
        _, _, scores = score(pair, test_table)
        assert report["regressors"][regressor_id]["regression"] == scores["regression"]
        assert report["classifiers"][cid]["test_accuracy"] == scores["classification"]["accuracy"]

    def test_composed_block_scores_an_untrained_pair(self, run):
        out_dir, report, test_table = run
        assert pair_for_regressor("d2") != "a1"
        _, _, scores = score(load_two_stage(out_dir / "twostage.json"), test_table)
        assert report["composed"] == {
            "stage1": "a1",
            "stage2": "d2",
            "test_accuracy": scores["classification"]["accuracy"],
            "test_macro_f1": scores["classification"]["macro_f1"],
            "regression": scores["regression"],
        }
        assert report["composed"]["regression"] != report["regressors"]["d2"]["regression"]


class TestChains:
    """The pipeline trains chain by chain: a classifier, then the listed
    regressors it feeds. A chain's models do not depend on which other
    chains run."""

    def test_fit_chain_returns_the_chain_in_order(self):
        table = encoded()
        chain = pipeline.fit_chain("a1", ["b2"], table, table, 0, {"max_epochs": 1})
        assert [(model.variant_id, row["variant"]) for model, row in chain] == [
            ("a1", "a1"), ("b2", "b2")]
        assert chain[1][1]["paired_classifier"] == "a1"

    @staticmethod
    def model_files(out_dir, classifier_ids, regressor_ids):
        run_pipeline(PipelineConfig(
            out_dir=out_dir, corpus_n=300, augment_n=50, classifier_ids=classifier_ids,
            regressor_ids=regressor_ids, training_overrides={"max_epochs": 2},
        ))
        return {path.name: path.read_bytes() for path in out_dir.glob("model_*.json")}

    def test_a_chain_trains_the_models_it_trains_alone(self, tmp_path):
        # b1's pair a2 is not listed, so b1 is a chain of its own.
        together = self.model_files(tmp_path / "together", ["a1", "b1"], ["b2"])
        assert sorted(together) == ["model_a1.json", "model_b1.json", "model_b2.json"]
        apart = {
            **self.model_files(tmp_path / "a1", ["a1"], ["b2"]),
            **self.model_files(tmp_path / "b1", ["b1"], []),
        }
        assert together == apart
