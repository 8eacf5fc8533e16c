"""Tests for variant construction, pairing, and input assembly."""

import datetime as dt
from pathlib import Path

import numpy as np
import pytest

from rtp import pipeline
from rtp.domain import DEFAULT_CONFIGS, ReactorState, TransientObservation
from rtp.engine import HEAD_SIGMOID, HEAD_SOFTMAX, forward
from rtp.model_zoo import (
    CLASSIFIER_IDS,
    HIDDEN_WIDTH,
    REGRESSOR_IDS,
    build_variant,
    pair_for_regressor,
    stage_inputs,
    training_config,
    variant_spec,
)
from rtp.preprocess import TASKS, VARIANTS, encode_dataset


def sample_batch(variant_id, n=6):
    observations = [
        TransientObservation(
            date=dt.date(2014, 6, 1),
            start_time=dt.time(9, 0),
            end_time=dt.time(9, 20),
            initial=ReactorState(100.0 * (i + 1), (6.0, 6.0, 6.0, 10.0)),
            final=ReactorState(1000.0 * (i + 1), (9.0, 9.0, 9.0, 10.0)),
        )
        for i in range(n)
    ]
    return encode_dataset(observations, VARIANTS[variant_id], DEFAULT_CONFIGS)


class TestVariantSpec:
    def test_tasks(self):
        for vid in CLASSIFIER_IDS:
            assert variant_spec(vid).task == "classifier"
        for vid in REGRESSOR_IDS:
            assert variant_spec(vid).task == "regressor"

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            variant_spec("z9")


class TestWidths:
    def test_branch_widths(self):
        # [DERIVED] power + rod features per state, direction folded into AIO.
        assert VARIANTS["a1"].branch_widths == {"initial": 2, "final": 1}
        assert VARIANTS["b1"].branch_widths == {"initial": 5, "final": 4}
        assert VARIANTS["c1"].branch_widths == {"initial": 2, "final": 1}
        assert VARIANTS["d1"].branch_widths == {"initial": 5, "final": 4}
        assert VARIANTS["e1"].branch_widths == {"main": 4}
        assert VARIANTS["f1"].branch_widths == {"main": 10}
        assert VARIANTS["a2"].branch_widths == {"initial": 5, "final": 4}
        assert VARIANTS["b2"].branch_widths == {"initial": 2, "final": 1}
        assert VARIANTS["c2"].branch_widths == {"main": 10}
        assert VARIANTS["d2"].branch_widths == {"main": 4}

    def test_aux_widths(self):
        expected = {
            "a1": 1, "b1": 1, "c1": 0, "d1": 0, "e1": 0, "f1": 0,
            "a2": 6, "b2": 6, "c2": 5, "d2": 5,
        }
        assert {vid: VARIANTS[vid].aux_width for vid in expected} == expected


class TestBuildVariant:
    def test_classifier_structure(self):
        model = build_variant("a1", seed=0)
        assert model.head == HEAD_SOFTMAX
        assert set(model.branches) == {"initial", "final"}
        for layers in model.branches.values():
            assert len(layers) == 2
            assert all(layer.activation == "relu" for layer in layers)
            assert all(layer.n_out == HIDDEN_WIDTH for layer in layers)
        assert len(model.trunk) == 3  # two hidden plus the head
        assert model.trunk[0].n_in == 2 * HIDDEN_WIDTH + 1
        assert model.trunk[-1].activation == "softmax"
        assert model.variant_id == "a1"

    def test_aio_structure(self):
        model = build_variant("f1", seed=0)
        assert model.branches == {"main": []}
        assert len(model.trunk) == 5  # four hidden plus the head
        assert model.trunk[0].n_in == 10
        assert model.branch_widths == {"main": 10}

    @pytest.mark.parametrize("vid", VARIANTS)
    def test_model_states_its_variants_branch_widths(self, vid):
        widths = build_variant(vid, seed=0).branch_widths
        assert list(widths.items()) == list(VARIANTS[vid].branch_widths.items())

    def test_regressor_head(self):
        model = build_variant("b2", seed=0)
        assert model.head == HEAD_SIGMOID
        assert model.trunk[-1].n_out == 1
        assert model.trunk[0].n_in == 2 * HIDDEN_WIDTH + 6

    def test_seeded_determinism(self):
        m1 = build_variant("a1", seed=7)
        m2 = build_variant("a1", seed=7)
        m3 = build_variant("a1", seed=8)
        for l1, l2 in zip(m1.all_layers(), m2.all_layers()):
            np.testing.assert_array_equal(l1.weights, l2.weights)
        assert not np.array_equal(m1.trunk[0].weights, m3.trunk[0].weights)

    def test_regularization_applied(self):
        model = build_variant("a1", seed=0)
        assert all(layer.l2 == 1e-4 for layer in model.all_layers())


class TestPairing:
    def test_pairs(self):
        # Each regressor pairs with the classifier sharing its input flags,
        # preferring the direction-using one.
        assert pair_for_regressor("a2") == "b1"
        assert pair_for_regressor("b2") == "a1"
        assert pair_for_regressor("c2") == "f1"
        assert pair_for_regressor("d2") == "e1"

    def test_not_a_regressor(self):
        with pytest.raises(ValueError):
            pair_for_regressor("a1")


def test_each_pair_is_the_direction_classifier_with_the_regressors_inputs():
    for rid in REGRESSOR_IDS:
        regressor, classifier = VARIANTS[rid], VARIANTS[pair_for_regressor(rid)]
        assert classifier.task == "classifier", rid
        assert classifier.input_mode == regressor.input_mode, rid
        assert classifier.rod_feature == regressor.rod_feature, rid
        assert classifier.uses_direction, rid
    assert all(VARIANTS[cid].pair is None for cid in CLASSIFIER_IDS)


def readme_tables():
    """The tables of README's "Model variants" section, by their first
    header cell, each as its header and body rows of cells."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    section = text.split("\n## Model variants\n")[1].split("\n## ")[0]
    tables = {}
    for block in section.split("\n\n"):
        rows = [
            [cell.strip() for cell in line.strip("|").split("|")]
            for line in block.splitlines()
            if line.startswith("|")
        ]
        if rows:
            tables[rows[0][0]] = [rows[0], *rows[2:]]  # less the header's rule
    return tables


def test_readme_variant_table_matches_the_code():
    header = ["id", "task", "inputs", "rod feature", "direction", "pair", "optimizer", "metric"]
    want = [header] + [
        [v.variant_id, v.task, v.input_mode, v.rod_feature, "yes" if v.uses_direction else "no",
         v.pair or "-", v.optimizer, v.monitored_metric]
        for v in VARIANTS.values()
    ]
    assert readme_tables()["id"] == want


def test_readme_task_table_matches_the_code():
    header = ["task", "head", "metrics reported", "early_stop_min_delta"]
    want = [header] + [
        [task, t.head, " ".join(t.metrics), repr(t.early_stop_min_delta)]
        for task, t in TASKS.items()
    ]
    assert readme_tables()["task"] == want


class TestModelInputs:
    def test_classifier_shapes(self):
        samples = sample_batch("a1")
        x = stage_inputs(samples.features, "a1")
        # initial (2), final (1), then aux (1) columns.
        assert x.shape == (6, 4)
        np.testing.assert_array_equal(x[:, 3], samples.features[:, 11])  # direction

    def test_no_aux_for_directionless(self):
        x = stage_inputs(sample_batch("c1").features, "c1")
        assert VARIANTS["c1"].aux_width == 0
        assert x.shape[1] == sum(VARIANTS["c1"].branch_widths.values())

    def test_regressor_requires_probs(self):
        samples = sample_batch("b2")
        with pytest.raises(ValueError):
            stage_inputs(samples.features, "b2")
        probs = np.full((6, 5), 0.2)
        x = stage_inputs(samples.features, "b2", probs)
        aux = x[:, sum(VARIANTS["b2"].branch_widths.values()) :]
        assert aux.shape == (6, 6)
        # Direction first, then the five probabilities.
        np.testing.assert_array_equal(aux[:, 1:], probs)

    def test_inputs_feed_forward(self):
        for vid in CLASSIFIER_IDS:
            model = build_variant(vid, seed=0)
            out = forward(model, stage_inputs(sample_batch(vid).features, vid))
            assert out.shape == (6, 5)
        probs = np.full((6, 5), 0.2)
        for vid in REGRESSOR_IDS:
            model = build_variant(vid, seed=0)
            out = forward(model, stage_inputs(sample_batch(vid).features, vid, probs))
            assert out.shape == (6, 1)


class TestTargets:
    """The targets that fit_variant trains a variant on."""

    @staticmethod
    def trained_on(monkeypatch, variant_id, table, stage1=None):
        calls = []
        monkeypatch.setattr(pipeline, "train", lambda *args: calls.append(args))
        pipeline.fit_variant(variant_id, table, 0, {}, stage1)
        return calls[0][2]

    def test_classification_targets(self, monkeypatch):
        targets = self.trained_on(monkeypatch, "a1", sample_batch("a1"))
        assert targets.shape == (6, 5)
        np.testing.assert_array_equal(targets.sum(axis=1), np.ones(6))

    def test_regression_targets(self, monkeypatch):
        table = sample_batch("a2")
        targets = self.trained_on(monkeypatch, "a2", table, build_variant("b1", seed=0))
        assert targets.shape == (6, 1)
        np.testing.assert_array_equal(targets[:, 0], table.target)


class TestDefaultTrainingConfig:
    def test_classifier_defaults(self):
        config = training_config("a1", 0, {})
        assert config.monitored_metric == "val_accuracy"
        assert config.early_stop_min_delta == 0.005
        assert config.optimizer == "adam"

    def test_aio_classifiers_use_sgd(self):
        assert training_config("e1", 0, {}).optimizer == "sgd"
        assert training_config("f1", 0, {}).optimizer == "sgd"
        assert training_config("b1", 0, {}).optimizer == "adam"

    def test_regressor_defaults(self):
        sep = training_config("a2", 0, {})
        aio = training_config("c2", 0, {})
        assert sep.monitored_metric == "val_loss"
        assert aio.monitored_metric == "val_mse"
        assert sep.early_stop_min_delta == 0.0005
        assert sep.optimizer == "adam"
        assert aio.optimizer == "adam"
