"""Tests for the training loop, optimizers, and early stopping."""

import math
import tracemalloc

import numpy as np
import pytest

from rtp.domain import settings_from
from rtp.engine import data_loss, forward, regularization_loss
from rtp.model_zoo import build_variant
from rtp.training import (
    Adam,
    DivergenceError,
    SGD,
    TrainingConfig,
    accuracy,
    train,
)


def toy_classifier_data(n=120, seed=0):
    """Linearly separable 5-class toy problem in the a1 input matrix: two
    initial columns, one final, then the aux column."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 5, size=n)
    centers = np.linspace(0.1, 0.9, 5)
    initial = np.column_stack([centers[labels] + rng.normal(0, 0.02, n), rng.random(n)])
    final = (centers[labels] + rng.normal(0, 0.02, n)).reshape(-1, 1)
    inputs = np.hstack([initial, final, rng.choice([-1.0, 1.0], size=(n, 1))])
    targets = np.zeros((n, 5))
    targets[np.arange(n), labels] = 1.0
    return inputs, targets


class TestTrainingConfig:
    def test_defaults(self):
        config = TrainingConfig()
        assert config.optimizer == "adam"
        assert config.batch_size == 32
        assert config.check_fraction == 0.33
        assert config.early_stop_patience == 5
        assert config.max_epochs == 1000

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainingConfig(optimizer="rmsprop")
        with pytest.raises(ValueError):
            TrainingConfig(check_fraction=1.5)
        with pytest.raises(ValueError):
            TrainingConfig(early_stop_patience=0)
        with pytest.raises(ValueError):
            TrainingConfig(monitored_metric="val_rmse")

    @pytest.mark.parametrize(
        "field,value",
        [
            ("batch_size", -3),
            ("batch_size", 0),
            ("batch_size", 2.5),
            ("batch_size", True),
            ("max_epochs", 0),
            ("max_epochs", "10"),
            ("early_stop_patience", 1.0),
            ("learning_rate", -1.0),
            ("learning_rate", math.nan),
            ("learning_rate", math.inf),
            ("learning_rate", "0.1"),
            ("adam_betas", (1.0, 0.999)),
            ("adam_betas", (0.9, -0.1)),
            ("adam_betas", (0.9,)),
            ("adam_betas", 0.9),
            ("adam_eps", 0.0),
            ("adam_eps", -1e-8),
            ("check_fraction", "0.3"),
            ("check_fraction", 1.5),
            ("early_stop_min_delta", "0.1"),
            ("early_stop_min_delta", -0.01),
            ("shuffle_each_epoch", "no"),
            ("seed", "x"),
            ("seed", -1),
        ],
    )
    def test_invalid_values_name_the_field(self, field, value):
        # The Adam constants and the reshuffle are no settings: any value of
        # theirs is refused as an unknown key.
        removed = field in ("adam_betas", "adam_eps", "shuffle_each_epoch")
        message = f"^unknown key '{field}'$" if removed else f"^{field} must be"
        with pytest.raises(ValueError, match=message):
            settings_from(TrainingConfig, {field: value})

    def test_boundary_values_accepted(self):
        # A zero learning rate freezes the weights; numpy integers are integers.
        TrainingConfig(learning_rate=0.0, batch_size=np.int64(1))


class TestOptimizers:
    def test_sgd_step(self):
        params = np.array([1.0, 0.5])
        SGD(learning_rate=0.1).step(params, np.array([2.0, 4.0]))
        assert params[0] == pytest.approx(0.8)
        assert params[1] == pytest.approx(0.1)

    def test_adam_first_step_is_lr_sized(self):
        # With bias correction the first update is learning_rate * sign(grad).
        params = np.array([1.0, 0.0])
        Adam(learning_rate=0.01).step(params, np.array([3.0, -2.0]))
        assert params[0] == pytest.approx(1.0 - 0.01, abs=1e-6)
        assert params[1] == pytest.approx(0.01, abs=1e-6)

    def test_adam_state_persists(self):
        opt = Adam(learning_rate=0.01)
        params = np.array([1.0, 0.0])
        opt.step(params, np.array([1.0, 1.0]))
        opt.step(params, np.array([1.0, 1.0]))
        assert opt.t == 2


def reference_sgd(params, grads, lr):
    """SGD as the whole-vector expression it replaces."""
    for grad in grads:
        params -= lr * grad


def reference_adam(params, grads, lr, betas, eps):
    """Adam as the whole-vector expressions it replaces."""
    beta1, beta2 = betas
    m, v = np.zeros_like(params), np.zeros_like(params)
    for t, grad in enumerate(grads, start=1):
        correction1 = 1.0 - beta1**t
        correction2 = 1.0 - beta2**t
        m *= beta1
        m += (1.0 - beta1) * grad
        v *= beta2
        v += (1.0 - beta2) * np.square(grad)
        params -= lr * (m / correction1) / (np.sqrt(v / correction2) + eps)


def step_grads(size, n_steps, seed):
    """Seeded gradients over eight decades, with zeros and a sign mix."""
    rng = np.random.default_rng(seed)
    grads = rng.normal(size=(n_steps, size)) * 10.0 ** rng.integers(-6, 2, size=(n_steps, size))
    grads[rng.random((n_steps, size)) < 0.05] = 0.0
    return grads


class TestInPlaceOptimizers:
    N_STEPS = 400

    def test_adam_matches_reference_bitwise(self):
        # Past about step 350 the first bias correction rounds to 1.0.
        assert 1.0 - 0.9**self.N_STEPS == 1.0 and 1.0 - 0.9**300 < 1.0
        grads = step_grads(257, self.N_STEPS, seed=1)
        start = np.random.default_rng(2).normal(size=257)
        params, expected = start.copy(), start.copy()
        opt = Adam(learning_rate=3e-3, betas=(0.9, 0.999), eps=1e-8)
        for grad in grads:
            opt.step(params, grad)
        reference_adam(expected, grads, 3e-3, (0.9, 0.999), 1e-8)
        np.testing.assert_array_equal(params, expected)
        assert not np.array_equal(params, start)

    def test_sgd_matches_reference_bitwise(self):
        grads = step_grads(257, self.N_STEPS, seed=3)
        start = np.random.default_rng(4).normal(size=257)
        params, expected = start.copy(), start.copy()
        opt = SGD(learning_rate=0.01)
        for grad in grads:
            opt.step(params, grad)
        reference_sgd(expected, grads, 0.01)
        np.testing.assert_array_equal(params, expected)

    def test_steps_leave_the_gradient_unchanged(self):
        grad = step_grads(64, 1, seed=5)[0]
        for opt in (Adam(learning_rate=1e-3), SGD(learning_rate=1e-3)):
            before = grad.copy()
            opt.step(np.zeros(64), grad)
            np.testing.assert_array_equal(grad, before)

    @pytest.mark.parametrize("optimizer", [Adam, SGD])
    def test_steps_after_the_first_allocate_nothing_parameter_sized(self, optimizer):
        params = build_variant("a1", seed=0).params
        grad = step_grads(params.size, 1, seed=6)[0]
        opt = optimizer(learning_rate=1e-3)
        opt.step(params, grad)
        tracemalloc.start()
        try:
            opt.step(params, grad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < params.nbytes / 10


def test_accuracy():
    pred = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]])
    targ = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    assert accuracy(pred, targ) == pytest.approx(2.0 / 3.0)


class TestTrain:
    def test_learns_toy_problem(self):
        inputs, targets = toy_classifier_data(n=400)
        model = build_variant("a1", seed=0)
        config = TrainingConfig(
            seed=0, max_epochs=60, early_stop_patience=10, early_stop_min_delta=0.0
        )
        trained, history = train(model, inputs, targets, config)
        assert history.records[-1]["val_accuracy"] >= history.records[0]["val_accuracy"]
        assert history.records[history.best_epoch - 1]["val_accuracy"] > 0.8

    def test_original_model_untouched(self):
        inputs, targets = toy_classifier_data()
        model = build_variant("a1", seed=0)
        before = [layer.weights.copy() for layer in model.all_layers()]
        train(model, inputs, targets, TrainingConfig(seed=0, max_epochs=2))
        for layer, w in zip(model.all_layers(), before):
            np.testing.assert_array_equal(layer.weights, w)

    def test_deterministic(self):
        inputs, targets = toy_classifier_data()
        config = TrainingConfig(seed=5, max_epochs=4)
        m1, h1 = train(build_variant("a1", seed=0), inputs, targets, config)
        m2, h2 = train(build_variant("a1", seed=0), inputs, targets, config)
        for l1, l2 in zip(m1.all_layers(), m2.all_layers()):
            np.testing.assert_array_equal(l1.weights, l2.weights)
        assert h1.records == h2.records

    def test_batch_loss_is_the_data_loss(self):
        # With a zero learning rate the weights never move, so the mean batch
        # loss is the data loss of the training split, without the L1/L2
        # penalty. Rebuild that split exactly as train() does.
        inputs, targets = toy_classifier_data()
        model = build_variant("a1", seed=0)
        config = TrainingConfig(optimizer="sgd", learning_rate=0.0, seed=0, max_epochs=1)
        _, history = train(model, inputs, targets, config)
        perm = np.random.default_rng(config.seed).permutation(targets.shape[0])
        train_idx = perm[max(1, round(config.check_fraction * targets.shape[0])) :]
        out = forward(model, inputs[train_idx])
        expected = data_loss(out, targets[train_idx], model.loss_kind)
        assert regularization_loss(model) > 1e-6
        assert history.records[0]["train_batch_loss"] == pytest.approx(expected, abs=1e-12)

    def test_empty_dataset(self):
        model = build_variant("a1", seed=0)
        empty = np.zeros((0, 4))
        with pytest.raises(ValueError):
            train(model, empty, np.zeros((0, 5)), TrainingConfig())

    def test_check_split_too_large(self):
        inputs, targets = toy_classifier_data(n=2)
        model = build_variant("a1", seed=0)
        with pytest.raises(ValueError):
            train(model, inputs, targets, TrainingConfig(check_fraction=0.9))


class TestEarlyStopping:
    def test_plateau_stops_within_patience(self):
        # Zero learning rate freezes the network, so the monitored metric
        # plateaus from epoch 1 onward and training must stop at epoch
        # 1 + patience.
        inputs, targets = toy_classifier_data()
        model = build_variant("a1", seed=0)
        config = TrainingConfig(
            optimizer="sgd", learning_rate=0.0, seed=0, early_stop_patience=5
        )
        trained, history = train(model, inputs, targets, config)
        assert history.stopped_early
        assert history.best_epoch == 1
        assert history.n_epochs == 1 + config.early_stop_patience

    def test_restored_weights_reproduce_best_metric(self):
        inputs, targets = toy_classifier_data()
        model = build_variant("a1", seed=0)
        config = TrainingConfig(seed=0, max_epochs=30)
        trained, history = train(model, inputs, targets, config)
        best = history.records[history.best_epoch - 1]

        # Rebuild the check split exactly as train() does and re-evaluate.
        rng = np.random.default_rng(config.seed)
        perm = rng.permutation(targets.shape[0])
        n_val = max(1, round(config.check_fraction * targets.shape[0]))
        val_idx = perm[:n_val]
        val_out = forward(trained, inputs[val_idx])
        val_acc = accuracy(np.atleast_2d(val_out), targets[val_idx])
        assert val_acc == best["val_accuracy"]

    def test_patience_respected_after_improvement(self):
        inputs, targets = toy_classifier_data()
        model = build_variant("a1", seed=0)
        config = TrainingConfig(seed=0, early_stop_patience=3, max_epochs=200)
        _, history = train(model, inputs, targets, config)
        if history.stopped_early:
            assert history.n_epochs == history.best_epoch + config.early_stop_patience


class TestDivergence:
    def test_nan_weights_raise(self):
        inputs, targets = toy_classifier_data()
        model = build_variant("a1", seed=0)
        model.trunk[0].weights[0, 0] = math.nan
        with pytest.raises(DivergenceError) as excinfo:
            train(model, inputs, targets, TrainingConfig(seed=0))
        assert excinfo.value.epoch == 1
        assert excinfo.value.batch == 1


class TestRegressorTraining:
    def test_monitored_mse_decreases(self):
        rng = np.random.default_rng(2)
        n = 90
        x = rng.random(size=(n, 10))
        targets = x[:, :1] * 0.5 + 0.25
        inputs = np.hstack([x, rng.random(size=(n, 5))])
        model = build_variant("c2", seed=0)
        config = TrainingConfig(
            monitored_metric="val_mse", early_stop_min_delta=0.0005, seed=0, max_epochs=40
        )
        _, history = train(model, inputs, targets, config)
        assert history.records[history.best_epoch - 1]["val_mse"] <= history.records[0]["val_mse"]
