"""Tests for the dense network engine: forward, backprop, serialization."""

import base64
import json
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rtp import engine
from rtp.domain import N_CLASSES
from rtp.engine import (
    CCE_CLAMP,
    CHUNK_ROWS,
    HEAD_LAYERS,
    HEAD_SIGMOID,
    HEAD_SOFTMAX,
    LOSS_CCE,
    LOSS_MAE,
    DenseLayer,
    ModelFormatError,
    NetworkModel,
    ShapeError,
    _views,
    backward_with_loss,
    clone_model,
    data_loss,
    forward,
    gradient_buffer,
    init_layer,
    load_model,
    model_from_dict,
    model_to_dict,
    regularization_loss,
    run_blocks,
    run_layers,
    save_model,
)
from rtp.model_zoo import build_variant
from rtp.training import TrainingConfig, train
from reference import in_whole_passes


def build_classifier(rng, n_initial=2, n_final=1, aux=1, hidden=6):
    branches = {
        "initial": [init_layer(n_initial, hidden, "relu", rng, l2=1e-4)],
        "final": [init_layer(n_final, hidden, "relu", rng, l2=1e-4)],
    }
    trunk = [
        init_layer(2 * hidden + aux, hidden, "relu", rng, l2=1e-4),
        init_layer(hidden, 5, "softmax", rng, l2=1e-4),
    ]
    return NetworkModel(branches=branches, aux_width=aux, trunk=trunk, head=HEAD_SOFTMAX)


def build_regressor(rng, n_main=4, aux=5, hidden=6):
    branches = {"main": [init_layer(n_main, hidden, "relu", rng, l1=1e-5, l2=1e-4)]}
    trunk = [
        init_layer(hidden + aux, hidden, "relu", rng, l2=1e-4),
        init_layer(hidden, 1, "sigmoid", rng, l2=1e-4),
    ]
    return NetworkModel(branches=branches, aux_width=aux, trunk=trunk, head=HEAD_SIGMOID)


def classifier_inputs(rng, n):
    """build_classifier's input matrix: initial (2), final (1), then aux (1) columns."""
    initial = rng.normal(size=(n, 2))
    final = rng.normal(size=(n, 1))
    return np.hstack([initial, final, rng.choice([-1.0, 1.0], size=(n, 1))])


def regressor_inputs(rng, n):
    """build_regressor's input matrix: main (4), then aux (5) columns."""
    main = rng.normal(size=(n, 4))
    return np.hstack([main, rng.random(size=(n, 5))])


def total_loss(model, inputs, target, kind):
    """Data loss of a fresh forward pass plus the L1/L2 penalty."""
    pred = np.atleast_2d(forward(model, inputs))
    return data_loss(pred, target, kind) + regularization_loss(model)


def reference_data_loss(pred, target, kind):
    """data_loss as the np.clip and np.mean expressions it replaces."""
    if kind == LOSS_CCE:
        clamped = np.clip(pred, CCE_CLAMP, 1.0)
        return float(-np.mean(np.sum(target * np.log(clamped), axis=1)))
    return float(np.mean(np.abs(pred - target)))


def variant_batch(model, rng, n):
    """n seeded input rows as wide as `model` takes, and targets for its head."""
    width = sum(model.branch_widths.values()) + model.aux_width
    inputs = rng.random((n, width))
    if model.loss_kind == LOSS_CCE:
        return inputs, np.eye(5)[rng.integers(0, 5, size=n)]
    return inputs, rng.random((n, 1))


def numeric_gradients(model, inputs, target, kind, step=1e-6):
    """Central finite differences of the total loss over every entry of model.params."""
    params = model.params
    grad = np.zeros_like(params)
    for k in range(params.size):
        orig = params[k]
        params[k] = orig + step
        up = total_loss(model, inputs, target, kind)
        params[k] = orig - step
        down = total_loss(model, inputs, target, kind)
        params[k] = orig
        grad[k] = (up - down) / (2.0 * step)
    return grad


class TestForward:
    def test_matches_cached_forward_bitwise(self):
        rng = np.random.default_rng(23)
        for model, inputs in (
            (build_classifier(rng, hidden=64), classifier_inputs(rng, 257)),
            (build_regressor(rng, hidden=64), regressor_inputs(rng, 257)),
        ):
            cached = run_layers(model, inputs, caches=[])
            assert forward(model, inputs).tobytes() == cached.tobytes()

    def test_branch_layers_read_packed_columns(self):
        # A branch's columns are a strided view of the input matrix; BLAS
        # rounds a.T @ dz differently on a strided `a`, so each branch with
        # layers must read a packed copy for training to keep its bits.
        rng = np.random.default_rng(35)
        model = build_classifier(rng)
        caches = []
        run_layers(model, classifier_inputs(rng, 9), caches)
        for cache in caches[:-1]:
            assert cache[0][0].flags.c_contiguous

    def test_hand_oracle_single_branch(self):
        # One relu layer plus a sigmoid head, checked against plain numpy.
        w1 = np.array([[0.5, -1.0], [2.0, 0.25]])
        b1 = np.array([0.1, -0.2])
        w2 = np.array([[1.5], [-0.5]])
        b2 = np.array([0.3])
        model = NetworkModel(
            branches={"main": [DenseLayer(w1, b1, "relu")]},
            aux_width=0,
            trunk=[DenseLayer(w2, b2, "sigmoid")],
            head=HEAD_SIGMOID,
        )
        x = np.array([[0.4, -0.7]])
        hidden = np.maximum(x @ w1 + b1, 0.0)
        expected = 1.0 / (1.0 + np.exp(-(hidden @ w2 + b2)))
        np.testing.assert_allclose(forward(model, x), expected, atol=1e-15)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        model = build_classifier(rng)
        out = forward(model, classifier_inputs(rng, 8))
        assert out.shape == (8, 5)
        np.testing.assert_allclose(out.sum(axis=1), np.ones(8), atol=1e-12)
        assert np.all(out > 0.0)

    def test_one_row_returns_one_row(self):
        rng = np.random.default_rng(1)
        model = build_classifier(rng)
        out = forward(model, np.array([[0.0, 0.0, 0.0, 1.0]]))
        assert out.shape == (1, 5)

    def test_batch_matches_per_sample(self):
        rng = np.random.default_rng(2)
        model = build_regressor(rng)
        inputs = regressor_inputs(rng, 5)
        batch = forward(model, inputs)
        for i in range(5):
            row = forward(model, inputs[i : i + 1])[0]
            # BLAS may pick different kernels for 1-row and n-row products,
            # so agreement is to rounding, not bitwise.
            np.testing.assert_allclose(batch[i], row, rtol=1e-12, atol=1e-15)

    def test_shape_errors(self):
        rng = np.random.default_rng(3)
        model = build_classifier(rng)
        good = classifier_inputs(rng, 4)
        with pytest.raises(ShapeError, match=r"\(4, 5\), expected \(n, 4\)"):
            forward(model, np.hstack([good, np.zeros((4, 1))]))  # one column too many
        with pytest.raises(ShapeError):
            forward(model, good[:, :3])  # the aux column missing
        with pytest.raises(ShapeError):
            forward(model, good[0])  # one 1-D row
        with pytest.raises(ShapeError):
            forward(model, good[np.newaxis])  # 3-D
        target = np.eye(5)[[0, 1, 2, 3]]
        with pytest.raises(ShapeError):
            backward_with_loss(model, good[:, :3], target)
        with pytest.raises(ShapeError, match="target shape"):
            backward_with_loss(model, good, target[:3])


# Rows around each block edge, and 1,119, the desk run's validation split.
BLOCK_CASES = [1, 2, 3, 255, 256, 257, 258, 259, 511, 512, 513, 514, 767, 1025, 1119]


class TestRunBlocks:
    """run_blocks cuts a pass into CHUNK_ROWS-row blocks, a lone last row
    joining the block before it, pads the last block of a pass of more than
    one row to a multiple of 4 rows, and gives each row the bits it gets
    inside a CHUNK_ROWS-row pass."""

    @pytest.fixture(scope="class")
    def variants(self):
        rng = np.random.default_rng(41)
        return [(model, variant_batch(model, rng, max(BLOCK_CASES))[0])
                for model in (build_variant("a1", seed=1), build_variant("b2", seed=2))]

    @staticmethod
    def counted(monkeypatch, call):
        """call()'s result, and the row count of each run_layers pass it made."""
        sizes = []

        def counting_run_layers(model, x):
            sizes.append(len(x))
            return run_layers(model, x)

        with monkeypatch.context() as patch:
            patch.setattr(engine, "run_layers", counting_run_layers)
            return call(), sizes

    @pytest.mark.parametrize("n", BLOCK_CASES)
    def test_blocks_give_the_bits_of_one_pass(self, variants, monkeypatch, n):
        for model, inputs in variants:
            reference = in_whole_passes(model, inputs[:n])
            blocked, sizes = self.counted(monkeypatch, lambda: run_blocks(model, inputs[:n]))
            assert blocked.tobytes() == reference.tobytes(), model.variant_id
            assert sum(sizes) == (n if n == 1 else n + -n % 4)
            assert max(sizes) <= CHUNK_ROWS + 4 and all(size % 4 == 0 or n == 1 for size in sizes)

    def test_forward_runs_blocked(self, variants, monkeypatch):
        for model, inputs in variants:
            out, sizes = self.counted(monkeypatch, lambda: forward(model, inputs))
            assert out.tobytes() == in_whole_passes(model, inputs).tobytes(), model.variant_id
            assert len(out) == len(inputs) == 4 * CHUNK_ROWS + 95
            assert sizes == [CHUNK_ROWS] * 4 + [96]


class TestLoss:
    def test_cce_hand_value(self):
        # [DERIVED] -(ln 0.7 + ln 0.2) / 2
        pred = np.array([[0.7, 0.1, 0.1, 0.05, 0.05], [0.2, 0.2, 0.2, 0.2, 0.2]])
        target = np.zeros((2, 5))
        target[0, 0] = 1.0
        target[1, 1] = 1.0
        expected = -(np.log(0.7) + np.log(0.2)) / 2.0
        assert data_loss(pred, target, LOSS_CCE) == pytest.approx(expected, abs=1e-12)

    def test_cce_clamp(self):
        pred = np.array([[1.0, 0.0, 0.0, 0.0, 0.0]])
        target = np.array([[0.0, 1.0, 0.0, 0.0, 0.0]])
        assert data_loss(pred, target, LOSS_CCE) == pytest.approx(-np.log(CCE_CLAMP))

    def test_mae_hand_value(self):
        pred = np.array([[0.5], [0.2]])
        target = np.array([[0.3], [0.6]])
        assert data_loss(pred, target, LOSS_MAE) == pytest.approx(0.3, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            data_loss(np.zeros((2, 5)), np.zeros((3, 5)), LOSS_CCE)

    @pytest.mark.parametrize("n", [1, 2, 7, 32, 33, 257])
    def test_cce_matches_clip_and_mean_bitwise(self, n):
        rng = np.random.default_rng(40 + n)
        for trial in range(50):
            logits = rng.normal(scale=rng.choice([0.1, 3.0, 40.0]), size=(n, 5))
            pred = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
            edits = rng.random((n, 5))
            pred[edits < 0.05] = 0.0
            pred[(edits >= 0.05) & (edits < 0.1)] = 1.0
            pred[(edits >= 0.1) & (edits < 0.15)] = rng.choice([1e-13, 1e-300, 5e-324, -0.0])
            if trial % 2:  # soft targets as well as one-hot rows
                target = rng.dirichlet(np.ones(5), size=n)
            else:
                target = np.eye(5)[rng.integers(0, 5, size=n)]
            if trial == 49:
                pred[rng.integers(n), rng.integers(5)] = np.nan
            got = data_loss(pred, target, LOSS_CCE)
            want = reference_data_loss(pred, target, LOSS_CCE)
            assert same_bits(np.float64(got), np.float64(want)), (n, trial)
        assert math.isnan(got)

    @pytest.mark.parametrize("shape", [(1, 1), (2, 1), (32, 1), (33, 1), (257, 1), (32, 5)])
    def test_mae_matches_mean_bitwise(self, shape):
        rng = np.random.default_rng(50 + shape[0] * shape[1])
        for trial in range(50):
            pred = rng.random(shape) * 10.0 ** rng.integers(-8, 3)
            target = rng.random(shape)
            ties = rng.random(shape) < 0.1
            pred[ties] = target[ties]
            if trial == 49:
                pred.flat[rng.integers(pred.size)] = np.nan
            got = data_loss(pred, target, LOSS_MAE)
            want = reference_data_loss(pred, target, LOSS_MAE)
            assert same_bits(np.float64(got), np.float64(want)), (shape, trial)
        assert math.isnan(got)

    def test_regularization_hand_value(self):
        w = np.array([[1.0, -2.0]])
        layer = DenseLayer(w, np.zeros(2), "linear", l1=0.1, l2=0.01)
        model = NetworkModel(
            branches={"main": []},
            aux_width=0,
            trunk=[layer, DenseLayer(np.ones((2, 1)), np.zeros(1), "sigmoid")],
            head=HEAD_SIGMOID,
        )
        # [DERIVED] l1: 0.1 * 3 = 0.3; l2: 0.01 * 5 = 0.05; head layer has none.
        assert regularization_loss(model) == pytest.approx(0.35, abs=1e-12)


class TestBackward:
    @pytest.mark.parametrize("kind", [LOSS_CCE, LOSS_MAE])
    def test_matches_finite_differences(self, kind):
        rng = np.random.default_rng(17)
        for _ in range(5):
            if kind == LOSS_CCE:
                model = build_classifier(rng, hidden=4)
                inputs = classifier_inputs(rng, 3)
                target = np.zeros((3, 5))
                target[np.arange(3), rng.integers(0, 5, size=3)] = 1.0
            else:
                model = build_regressor(rng, hidden=4)
                inputs = regressor_inputs(rng, 3)
                target = rng.random(size=(3, 1))
            assert model.loss_kind == kind
            analytic, _ = backward_with_loss(model, inputs, target)
            numeric = numeric_gradients(model, inputs, target, kind)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-7)

    def test_backward_with_loss_matches_forward_loss(self):
        # The returned loss is the data loss alone; the gradient still
        # includes the penalty (see test_matches_finite_differences).
        rng = np.random.default_rng(18)
        model = build_classifier(rng)
        inputs = classifier_inputs(rng, 6)
        target = np.zeros((6, 5))
        target[np.arange(6), rng.integers(0, 5, size=6)] = 1.0
        _, loss = backward_with_loss(model, inputs, target)
        direct = data_loss(np.atleast_2d(forward(model, inputs)), target, LOSS_CCE)
        assert loss == direct
        assert regularization_loss(model) > 0.0

    def test_gradient_count_matches_layers(self):
        rng = np.random.default_rng(19)
        model = build_classifier(rng)
        inputs = classifier_inputs(rng, 2)
        target = np.zeros((2, 5))
        target[:, 0] = 1.0
        grad, _ = backward_with_loss(model, inputs, target)
        n_params = sum(layer.weights.size + layer.biases.size for layer in model.all_layers())
        assert grad.shape == model.params.shape == (n_params,)

    def test_plain_calls_return_fresh_vectors(self):
        rng = np.random.default_rng(20)
        model = build_variant("a1", seed=0)
        inputs, target = variant_batch(model, rng, 4)
        first, _ = backward_with_loss(model, inputs, target)
        second, _ = backward_with_loss(model, inputs, target)
        assert not np.shares_memory(first, second)
        np.testing.assert_array_equal(first, second)

    @pytest.mark.parametrize("variant_id", ["a1", "b2", "f1"])
    def test_buffered_call_matches_plain_call_bitwise(self, variant_id):
        rng = np.random.default_rng(21)
        model = build_variant(variant_id, seed=0)
        model.params[...] = rng.normal(scale=0.3, size=model.params.size)
        buffer = gradient_buffer(model)
        for n in (1, 7, 32):
            inputs, target = variant_batch(model, rng, n)
            plain, plain_loss = backward_with_loss(model, inputs, target)
            buffered, loss = backward_with_loss(model, inputs, target, out=buffer)
            assert buffered is buffer[0]  # each call overwrites the last one's values
            np.testing.assert_array_equal(buffered, plain)
            assert same_bits(np.float64(loss), np.float64(plain_loss))


def with_penalty(model, l1, l2):
    """A model with the same parameters and every layer's L1/L2 set to l1, l2."""
    return NetworkModel(
        branches={name: [replace(lr, l1=l1, l2=l2) for lr in ls] for name, ls in model.branches.items()},
        aux_width=model.aux_width,
        trunk=[replace(layer, l1=l1, l2=l2) for layer in model.trunk],
        head=model.head,
    )


def traced_peak(call):
    """Peak bytes that numpy and Python allocate during one call."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPenaltyGradient:
    @pytest.mark.parametrize("kind", [LOSS_CCE, LOSS_MAE])
    def test_matches_whole_vector_formula_bitwise(self, kind):
        # The penalty is added per layer; the sum must equal, bit for bit, the
        # whole-vector formula data + l1*sign(params) + 2*l2*params.
        rng = np.random.default_rng(30)
        if kind == LOSS_CCE:
            data_model = with_penalty(build_classifier(rng, hidden=8), 0.0, 0.0)
            inputs = classifier_inputs(rng, 7)
            target = np.eye(5)[rng.integers(0, 5, size=7)]
        else:
            data_model = with_penalty(build_regressor(rng, hidden=8), 0.0, 0.0)
            inputs = regressor_inputs(rng, 7)
            target = rng.random(size=(7, 1))
        data_model.params[...] = rng.normal(scale=0.5, size=data_model.params.size)  # biases too
        model = with_penalty(data_model, 3e-3, 7e-3)
        assert model.loss_kind == kind
        data, _ = backward_with_loss(data_model, inputs, target)
        grad, _ = backward_with_loss(model, inputs, target)
        expected = data + model.l1 * np.sign(model.params)
        expected += 2.0 * model.l2 * model.params
        np.testing.assert_array_equal(grad, expected)
        biases = np.zeros(model.params.size, dtype=bool)
        for _, b in _views(model, biases):
            b[...] = True
        np.testing.assert_array_equal(grad[biases], data[biases])
        assert not np.array_equal(grad[~biases], data[~biases])


class TestStepAllocation:
    def test_one_row_step_allocates_less_than_two_params(self):
        # The returned gradient is the only parameter-sized array a step makes.
        model = build_variant("a1", seed=0)
        rng = np.random.default_rng(31)
        inputs = np.hstack([rng.random((1, 2)), rng.random((1, 1)), np.ones((1, 1))])
        target = np.eye(5)[[2]]
        backward_with_loss(model, inputs, target)
        peak = traced_peak(lambda: backward_with_loss(model, inputs, target))
        assert peak < 2 * model.params.nbytes

    def test_one_row_step_into_a_buffer_allocates_less_than_half_params(self):
        # The largest array left is one layer's L2 term: the trunk's first
        # weight matrix, 38% of a1's parameters.
        model = build_variant("a1", seed=0)
        inputs, target = variant_batch(model, np.random.default_rng(32), 1)
        buffer = gradient_buffer(model)
        backward_with_loss(model, inputs, target, out=buffer)
        peak = traced_peak(lambda: backward_with_loss(model, inputs, target, out=buffer))
        assert peak < model.params.nbytes / 2


class TestModelValidation:
    def test_unknown_head(self):
        with pytest.raises(ValueError):
            NetworkModel(
                branches={"main": []},
                aux_width=0,
                trunk=[DenseLayer(np.ones((2, 1)), np.zeros(1), "sigmoid")],
                head="tanh-1",
            )

    def test_head_layer_mismatch(self):
        with pytest.raises(ValueError):
            NetworkModel(
                branches={"main": []},
                aux_width=0,
                trunk=[DenseLayer(np.ones((2, 1)), np.zeros(1), "sigmoid")],
                head=HEAD_SOFTMAX,
            )

    def test_softmax_head_is_the_class_count_wide(self):
        # "softmax-5" is a model-file format name; it and the head width are
        # the class count.
        assert HEAD_SOFTMAX == f"softmax-{N_CLASSES}" == "softmax-5"
        assert HEAD_LAYERS[HEAD_SOFTMAX] == ("softmax", N_CLASSES)

    @pytest.mark.parametrize("head", ["softmax-4", HEAD_SOFTMAX])
    def test_file_of_another_class_count_is_refused(self, tmp_path, head):
        doc = model_to_dict(build_classifier(np.random.default_rng(44), hidden=6))
        # A four-class head: 6 x 4 weights and 4 biases, 7 values fewer.
        doc["layers"][-1]["shape"] = [6, 4]
        params = base64.b64decode(doc["params"])[: -7 * 8]
        doc["params"], doc["head"] = base64.b64encode(params).decode(), head
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match=r"invalid model: .*head"):
            load_model(path)

    def test_softmax_only_at_head(self):
        with pytest.raises(ValueError):
            NetworkModel(
                branches={"main": [DenseLayer(np.ones((2, 5)), np.zeros(5), "softmax")]},
                aux_width=0,
                trunk=[DenseLayer(np.ones((5, 1)), np.zeros(1), "sigmoid")],
                head=HEAD_SIGMOID,
            )

    def test_empty_trunk(self):
        with pytest.raises(ValueError):
            NetworkModel(branches={"main": []}, aux_width=0, trunk=[], head=HEAD_SIGMOID)

    def test_branch_layers_must_chain(self):
        rng = np.random.default_rng(30)
        model = build_regressor(rng)
        model.branches["main"].append(init_layer(5, 6, "relu", rng))  # 6 wide feeds 5
        with pytest.raises(ValueError, match="main"):
            NetworkModel(model.branches, model.aux_width, model.trunk, model.head)

    def test_trunk_layers_must_chain(self):
        rng = np.random.default_rng(31)
        model = build_regressor(rng)
        with pytest.raises(ValueError, match="trunk"):
            NetworkModel(model.branches, model.aux_width, model.trunk[1:] * 2, model.head)

    def test_trunk_input_must_match_merge(self):
        rng = np.random.default_rng(32)
        model = build_classifier(rng)
        with pytest.raises(ValueError, match="trunk input width"):
            NetworkModel(model.branches, model.aux_width + 1, model.trunk, model.head)

    def test_branch_without_layers_takes_the_width_left_over(self):
        rng = np.random.default_rng(33)
        branches = {"initial": [init_layer(2, 6, "relu", rng)], "final": []}
        trunk = [init_layer(6 + 3 + 1, 5, "softmax", rng)]
        model = NetworkModel(branches, 1, trunk, HEAD_SOFTMAX)
        assert list(model.branch_widths.items()) == [("initial", 2), ("final", 3)]
        assert forward(model, rng.random((4, 2 + 3 + 1))).shape == (4, 5)

    def test_at_most_one_branch_without_layers(self):
        head = DenseLayer(np.ones((2, 1)), np.zeros(1), "sigmoid")
        with pytest.raises(ValueError):
            NetworkModel({"a": [], "b": []}, 0, [head], HEAD_SIGMOID)

    def test_unknown_activation(self):
        with pytest.raises(ValueError):
            DenseLayer(np.ones((2, 2)), np.zeros(2), "swish")


class TestSnapshot:
    def test_snapshot_restore(self):
        rng = np.random.default_rng(20)
        model = build_regressor(rng)
        snap = model.params.copy()
        original = forward(model, np.ones((1, 9)))
        for layer in model.all_layers():
            layer.weights += 1.0
        model.params[...] = snap
        after = forward(model, np.ones((1, 9)))
        np.testing.assert_array_equal(original, after)

    def test_clone_is_independent(self):
        rng = np.random.default_rng(21)
        model = build_regressor(rng)
        twin = clone_model(model)
        twin.trunk[0].weights += 5.0
        assert not np.array_equal(model.trunk[0].weights, twin.trunk[0].weights)


def assert_layers_view_params(model):
    layers = model.all_layers()
    for layer in layers:
        assert np.shares_memory(layer.weights, model.params)
        assert np.shares_memory(layer.biases, model.params)
    packed = np.concatenate([np.append(layer.weights.ravel(), layer.biases) for layer in layers])
    np.testing.assert_array_equal(packed, model.params)


class TestParamsLayout:
    def test_layers_are_views_of_params(self):
        rng = np.random.default_rng(26)
        model = build_classifier(rng)
        assert_layers_view_params(model)
        assert model.params.size == sum(
            layer.weights.size + layer.biases.size for layer in model.all_layers()
        )

    def test_penalty_vectors_skip_biases(self):
        rng = np.random.default_rng(27)
        model = build_regressor(rng)
        start = 0
        for layer in model.all_layers():
            split = start + layer.weights.size
            end = split + layer.biases.size
            assert np.all(model.l1[start:split] == layer.l1)
            assert np.all(model.l2[start:split] == layer.l2)
            assert not model.l1[split:end].any() and not model.l2[split:end].any()
            start = end

    def test_write_through_layer_shows_in_forward(self):
        rng = np.random.default_rng(28)
        model = build_regressor(rng)
        inputs = np.ones((1, 9))
        before = forward(model, inputs)
        model.trunk[-1].biases += 1.0
        assert forward(model, inputs)[0, 0] > before[0, 0]
        model.params[-1] -= 1.0
        np.testing.assert_array_equal(forward(model, inputs), before)

    def test_clone_load_and_train_pack_their_own_buffer(self, tmp_path):
        rng = np.random.default_rng(29)
        model = build_classifier(rng)
        original = model.params.copy()
        path = tmp_path / "model.json"
        save_model(model, path)
        inputs = classifier_inputs(rng, 40)
        targets = np.eye(5)[rng.integers(0, 5, size=40)]
        trained, _ = train(model, inputs, targets, TrainingConfig(seed=0, max_epochs=2))
        for other in (clone_model(model), load_model(path), trained):
            assert other.params is not model.params
            assert not np.shares_memory(other.params, model.params)
            assert_layers_view_params(other)
        np.testing.assert_array_equal(model.params, original)
        assert_layers_view_params(model)


class TestSerialization:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(22)
        model = build_classifier(rng)
        model.variant_id = "a1"
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        inputs = classifier_inputs(rng, 10)
        np.testing.assert_array_equal(forward(model, inputs), forward(loaded, inputs))
        assert loaded.variant_id == "a1"

    def test_reserialization_byte_identical(self, tmp_path):
        rng = np.random.default_rng(23)
        model = build_regressor(rng)
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        save_model(model, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_dict_round_trip(self):
        rng = np.random.default_rng(24)
        model = build_classifier(rng)
        doc = model_to_dict(model)
        rebuilt = model_from_dict(doc)
        inputs = classifier_inputs(rng, 4)
        np.testing.assert_array_equal(forward(model, inputs), forward(rebuilt, inputs))

    def test_corrupt_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_wrong_version(self):
        rng = np.random.default_rng(25)
        doc = model_to_dict(build_regressor(rng))
        doc["format_version"] = 99
        with pytest.raises(ModelFormatError):
            model_from_dict(doc)

    def test_unchained_layers_rejected_at_load(self, tmp_path):
        rng = np.random.default_rng(33)
        path = tmp_path / "model.json"
        save_model(build_classifier(rng), path)
        doc = json.loads(path.read_text())
        first_trunk = next(i for i, layer in enumerate(doc["layers"]) if layer["branch"] == "trunk")
        del doc["layers"][first_trunk]
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="trunk input width"):
            load_model(path)

    def test_non_integer_aux_width(self):
        doc = model_to_dict(build_regressor(np.random.default_rng(34)))
        doc["merge_topology"]["aux_width"] = "five"
        with pytest.raises(ModelFormatError):
            model_from_dict(doc)

    def test_missing_fields(self):
        with pytest.raises(ModelFormatError):
            model_from_dict({"format_version": 1})

    def test_not_a_model(self):
        with pytest.raises(ModelFormatError):
            model_from_dict([1, 2, 3])


FIXTURES = Path(__file__).parent / "fixtures"


def fixture_params(size, seed):
    """The parameter vector the committed format-1 fixtures were written with:
    seeded values over twelve decades, led by a negative zero, the smallest
    subnormal, the smallest normal and values that need 17 digits."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=size) * 10.0 ** rng.integers(-12, 1, size=size)
    values[:6] = [-0.0, 5e-324, 2.2250738585072014e-308, 1 / 3, 0.1, 0.123456789]
    return values


def same_bits(a, b):
    return a.shape == b.shape and bool((a.view(np.uint64) == b.view(np.uint64)).all())


class TestModelFormat:
    def test_format1_fixture_loads_bit_identical(self):
        # model_a1_v1.json was written by the format-1 save_model: values as
        # JSON numbers inside each layer record.
        doc = json.loads((FIXTURES / "model_a1_v1.json").read_text())
        assert doc["format_version"] == 1 and "params" not in doc
        model = load_model(FIXTURES / "model_a1_v1.json")
        assert same_bits(model.params, fixture_params(48, 1))
        assert [layer.weights.shape for layer in model.all_layers()] == [(2, 3), (1, 2), (6, 5)]
        assert (model.variant_id, model.head, model.aux_width) == ("a1", HEAD_SOFTMAX, 1)
        assert model.l2.max() == 1e-4

    def test_round_trip_is_bit_exact(self, tmp_path):
        model = build_regressor(np.random.default_rng(40))
        model.params[:] = fixture_params(model.params.size, 40)
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        assert doc["format_version"] == 2
        assert all(set(layer) == {"branch", "shape", "activation", "l1", "l2"} for layer in doc["layers"])
        assert len(base64.b64decode(doc["params"])) == 8 * model.params.size
        loaded = load_model(path)
        assert same_bits(loaded.params, model.params)
        assert same_bits(loaded.l1, model.l1) and same_bits(loaded.l2, model.l2)

    def test_params_are_little_endian_float64(self):
        model = build_classifier(np.random.default_rng(41))
        raw = base64.b64decode(model_to_dict(model)["params"])
        assert same_bits(np.frombuffer(raw, dtype="<f8"), model.params)

    def test_format1_document_rewrites_as_format2(self):
        doc = json.loads((FIXTURES / "model_a1_v1.json").read_text())
        rewritten = model_to_dict(model_from_dict(doc))
        assert rewritten["format_version"] == 2
        assert same_bits(model_from_dict(rewritten).params, fixture_params(48, 1))

    @pytest.mark.parametrize(
        "params, message",
        [
            ("not base64!", "corrupt model document"),
            (base64.b64encode(b"\0" * 7).decode(), "corrupt model document"),
            (base64.b64encode(b"\0" * 8).decode(), "fewer than the layers need"),
        ],
    )
    def test_corrupt_params_name_the_file(self, tmp_path, params, message):
        doc = model_to_dict(build_classifier(np.random.default_rng(42)))
        doc["params"] = params
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match=message):
            load_model(path)

    def test_spare_params_rejected(self, tmp_path):
        model = build_classifier(np.random.default_rng(43))
        doc = model_to_dict(model)
        doc["params"] = base64.b64encode(np.append(model.params, 1.0).astype("<f8").tobytes()).decode()
        with pytest.raises(ModelFormatError, match=f"params has {model.params.size + 1} values"):
            model_from_dict(doc)

    def test_format1_two_stage_fixture_loads_bit_identical(self):
        from rtp.compose import load_two_stage

        model = load_two_stage(FIXTURES / "twostage_v1.json")
        assert same_bits(model.stage1.params, fixture_params(48, 1))
        assert same_bits(model.stage2.params, fixture_params(25, 2))
        assert (model.stage1.variant_id, model.stage2.variant_id) == ("a1", "b2")
