"""Tests for variant construction, pairing, and input assembly."""

import datetime as dt

import numpy as np
import pytest

from rtp.domain import DEFAULT_CONFIGS, ReactorState, TransientObservation
from rtp.engine import HEAD_SIGMOID, HEAD_SOFTMAX, forward
from rtp.model_zoo import (
    CLASSIFIER_IDS,
    HIDDEN_WIDTH,
    REGRESSOR_IDS,
    aux_width,
    branch_widths,
    build_variant,
    default_training_config,
    model_inputs,
    pair_for_regressor,
    training_targets,
    variant_spec,
)
from rtp.preprocess import LAYOUTS, encode_dataset


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
    return encode_dataset(observations, LAYOUTS[variant_id], DEFAULT_CONFIGS)


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
        assert branch_widths(LAYOUTS["a1"]) == {"initial": 2, "final": 1}
        assert branch_widths(LAYOUTS["b1"]) == {"initial": 5, "final": 4}
        assert branch_widths(LAYOUTS["c1"]) == {"initial": 2, "final": 1}
        assert branch_widths(LAYOUTS["d1"]) == {"initial": 5, "final": 4}
        assert branch_widths(LAYOUTS["e1"]) == {"main": 4}
        assert branch_widths(LAYOUTS["f1"]) == {"main": 10}
        assert branch_widths(LAYOUTS["a2"]) == {"initial": 5, "final": 4}
        assert branch_widths(LAYOUTS["b2"]) == {"initial": 2, "final": 1}
        assert branch_widths(LAYOUTS["c2"]) == {"main": 10}
        assert branch_widths(LAYOUTS["d2"]) == {"main": 4}

    def test_aux_widths(self):
        expected = {
            "a1": 1, "b1": 1, "c1": 0, "d1": 0, "e1": 0, "f1": 0,
            "a2": 6, "b2": 6, "c2": 5, "d2": 5,
        }
        assert {vid: aux_width(vid) for vid in expected} == expected


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
        assert model.branch_input_width("main") == 10

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


class TestModelInputs:
    def test_classifier_shapes(self):
        samples = sample_batch("a1")
        inputs = model_inputs(samples, "a1")
        assert inputs["initial"].shape == (6, 2)
        assert inputs["final"].shape == (6, 1)
        assert inputs["aux"].shape == (6, 1)

    def test_no_aux_for_directionless(self):
        inputs = model_inputs(sample_batch("c1"), "c1")
        assert "aux" not in inputs

    def test_regressor_requires_probs(self):
        samples = sample_batch("b2")
        with pytest.raises(ValueError):
            model_inputs(samples, "b2")
        probs = np.full((6, 5), 0.2)
        inputs = model_inputs(samples, "b2", class_probs=probs)
        assert inputs["aux"].shape == (6, 6)
        # Direction first, then the five probabilities.
        np.testing.assert_array_equal(inputs["aux"][:, 1:], probs)

    def test_inputs_feed_forward(self):
        for vid in CLASSIFIER_IDS:
            model = build_variant(vid, seed=0)
            out = forward(model, model_inputs(sample_batch(vid), vid))
            assert out.shape == (6, 5)
        probs = np.full((6, 5), 0.2)
        for vid in REGRESSOR_IDS:
            model = build_variant(vid, seed=0)
            out = forward(model, model_inputs(sample_batch(vid), vid, class_probs=probs))
            assert out.shape == (6, 1)


class TestTargets:
    def test_classification_targets(self):
        targets = training_targets(sample_batch("a1"), "a1")
        assert targets.shape == (6, 5)
        np.testing.assert_array_equal(targets.sum(axis=1), np.ones(6))

    def test_regression_targets(self):
        table = sample_batch("a2")
        targets = training_targets(table, "a2")
        assert targets.shape == (6, 1)
        np.testing.assert_array_equal(targets[:, 0], table.target)


class TestDefaultTrainingConfig:
    def test_classifier_defaults(self):
        config = default_training_config("a1", seed=0)
        assert config.monitored_metric == "val_accuracy"
        assert config.early_stop_min_delta == 0.005
        assert config.optimizer == "adam"

    def test_aio_classifiers_use_sgd(self):
        assert default_training_config("e1", seed=0).optimizer == "sgd"
        assert default_training_config("f1", seed=0).optimizer == "sgd"
        assert default_training_config("b1", seed=0).optimizer == "adam"

    def test_regressor_defaults(self):
        sep = default_training_config("a2", seed=0)
        aio = default_training_config("c2", seed=0)
        assert sep.monitored_metric == "val_loss"
        assert aio.monitored_metric == "val_mse"
        assert sep.early_stop_min_delta == 0.0005
        assert sep.optimizer == "adam"
        assert aio.optimizer == "adam"
