"""Acceptance gate: one test per release criterion, at pinned tolerances.

Each test prints a single PASS line on success; pytest -v shows one
pass/fail line per criterion either way. The desk-scale pipeline runs once
(seed 0, default configuration) and is shared by the end-to-end criteria.
"""

import time

import numpy as np
import pytest

from rtp.augment import over_sample
from rtp.compose import TwoStageModel, predict_batch
from rtp.domain import (
    FULL_POWER_W,
    MAX_ROD_TRAVEL_IN,
    config_for_date,
    reactivity_of_state,
)
from rtp.engine import (
    HEAD_SIGMOID,
    HEAD_SOFTMAX,
    LOSS_CCE,
    LOSS_MAE,
    NetworkModel,
    backward_with_loss,
    data_loss,
    forward,
    init_layer,
    load_model,
    regularization_loss,
)
from rtp.evaluate import class_metrics, confusion
from rtp.ingest import (
    SHUTDOWN_POWER_W,
    CorpusSpec,
    row_to_observation,
    synthesize_corpus,
)
from rtp.model_zoo import build_variant, stage_inputs
from rtp.pipeline import PipelineConfig, run_pipeline
from rtp.preprocess import (
    denormalize_power,
    encode_table,
    undersample_indices,
)
from rtp.training import TrainingConfig, accuracy, train
from reference import normalize_power, read_observations

ACCEPTANCE_SEED = 0


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("acceptance")
    started = time.monotonic()
    report = run_pipeline(PipelineConfig(out_dir=out_dir, seed=ACCEPTANCE_SEED))
    elapsed = time.monotonic() - started
    return report, out_dir, elapsed


def _random_classifier(rng):
    hidden = 5
    branches = {
        "initial": [init_layer(2, hidden, "relu", rng, l2=1e-4)],
        "final": [init_layer(1, hidden, "relu", rng, l2=1e-4)],
    }
    trunk = [
        init_layer(2 * hidden + 1, hidden, "relu", rng, l2=1e-4),
        init_layer(hidden, 5, "softmax", rng, l2=1e-4),
    ]
    return NetworkModel(branches=branches, aux_width=1, trunk=trunk, head=HEAD_SOFTMAX)


def _random_regressor(rng):
    hidden = 5
    branches = {"main": [init_layer(4, hidden, "relu", rng, l1=1e-5, l2=1e-4)]}
    trunk = [
        init_layer(hidden + 5, hidden, "relu", rng, l2=1e-4),
        init_layer(hidden, 1, "sigmoid", rng, l2=1e-4),
    ]
    return NetworkModel(branches=branches, aux_width=5, trunk=trunk, head=HEAD_SIGMOID)


def _finite_difference_grads(model, inputs, target, kind, step=1e-6):
    """Central differences of data loss plus penalty over every entry of model.params."""

    def total_loss():
        pred = np.atleast_2d(forward(model, inputs))
        return data_loss(pred, target, kind) + regularization_loss(model)

    params = model.params
    grad = np.zeros_like(params)
    for k in range(params.size):
        orig = params[k]
        params[k] = orig + step
        up = total_loss()
        params[k] = orig - step
        down = total_loss()
        params[k] = orig
        grad[k] = (up - down) / (2.0 * step)
    return grad


def test_criterion_01_gradient_correctness():
    """Analytic backprop matches central finite differences (1e-6 step)
    within relative error 1e-5 over 100 triples per loss type, under 30 s."""
    started = time.monotonic()
    rng = np.random.default_rng(101)
    for kind in (LOSS_CCE, LOSS_MAE):
        for _ in range(100):
            if kind == LOSS_CCE:
                model = _random_classifier(rng)
                initial = rng.normal(size=(2, 2))
                final = rng.normal(size=(2, 1))
                inputs = np.hstack([initial, final, rng.choice([-1.0, 1.0], size=(2, 1))])
                target = np.zeros((2, 5))
                target[np.arange(2), rng.integers(0, 5, size=2)] = 1.0
            else:
                model = _random_regressor(rng)
                main = rng.normal(size=(2, 4))
                inputs = np.hstack([main, rng.random(size=(2, 5))])
                target = rng.random(size=(2, 1))
            analytic, _ = backward_with_loss(model, inputs, target)
            numeric = _finite_difference_grads(model, inputs, target, kind)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-7)
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"gradient check took {elapsed:.1f} s"
    print(f"criterion 1 PASS: gradients match finite differences ({elapsed:.1f} s)")


def test_criterion_02_sampler_constraints():
    """100% of 1e5 augmented samples keep rods in [0, 24], powers in
    (0, 200000], and per-state |delta rho| <= 0.5 $, under 30 s."""
    started = time.monotonic()
    corpus = synthesize_corpus(CorpusSpec(n_observations=1, seed=4))
    (source,) = map(row_to_observation, corpus.rows())
    config = config_for_date(source.date)
    rho_src = {
        "initial": reactivity_of_state(source.initial, config),
        "final": reactivity_of_state(source.final, config),
    }
    generated = over_sample(corpus, n=100_000, seed=202)
    assert len(generated) == 100_000
    for obs in map(row_to_observation, generated.rows()):
        for key, state in (("initial", obs.initial), ("final", obs.final)):
            assert 0.0 < state.power <= FULL_POWER_W
            for h in state.rod_heights:
                assert 0.0 <= h <= MAX_ROD_TRAVEL_IN
            assert abs(reactivity_of_state(state, config) - rho_src[key]) <= 0.5 + 1e-12
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"sampler check took {elapsed:.1f} s"
    print(f"criterion 2 PASS: 100000 samples satisfy all constraints ({elapsed:.1f} s)")


def test_criterion_03_normalization_round_trip():
    """|denorm(norm(P)) - P| / P <= 1e-9 for 1e4 log-spaced powers;
    rod height round trips exact to 1e-12."""
    for p in np.logspace(0.0, np.log10(FULL_POWER_W), 10_000):
        p = float(p)
        assert abs(denormalize_power(normalize_power(p)) - p) / p <= 1e-9
    for h in np.linspace(0.0, MAX_ROD_TRAVEL_IN, 1000):
        h = float(h)
        assert abs((h / MAX_ROD_TRAVEL_IN) * MAX_ROD_TRAVEL_IN - h) <= 1e-12
    print("criterion 3 PASS: power and rod normalization round-trip")


def test_criterion_04_undersampling_balance():
    """Class counts (73, 94, 100, 126, 149) balance to exactly 73 per class."""
    labels = [0] * 73 + [1] * 94 + [2] * 100 + [3] * 126 + [4] * 149
    idx = undersample_indices(labels, seed=ACCEPTANCE_SEED)
    counts = [0] * 5
    for i in idx:
        counts[labels[i]] += 1
    assert counts == [73, 73, 73, 73, 73]
    assert len(idx) == 365
    print("criterion 4 PASS: balanced to 73 per class, 365 total")


def test_criterion_05_metric_oracle_equivalence():
    """Confusion/precision/recall/F1/macro-F1 match a brute-force oracle
    to 1e-12 on 100 random label sets."""

    def brute_force(true, pred, n_classes=5):
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
        return counts, precision, recall, f1, sum(f1) / n_classes, acc

    rng = np.random.default_rng(505)
    for _ in range(100):
        n = int(rng.integers(5, 500))
        true = rng.integers(0, 5, size=n).tolist()
        pred = rng.integers(0, 5, size=n).tolist()
        cm = confusion(true, pred)
        metrics = class_metrics(cm)
        counts, precision, recall, f1, macro, acc = brute_force(true, pred)
        assert cm.tolist() == counts
        for c in range(5):
            assert abs(metrics["precision"][c] - precision[c]) <= 1e-12
            assert abs(metrics["recall"][c] - recall[c]) <= 1e-12
            assert abs(metrics["f1"][c] - f1[c]) <= 1e-12
        assert abs(metrics["macro_f1"] - macro) <= 1e-12
        assert abs(metrics["accuracy"] - acc) <= 1e-12
    print("criterion 5 PASS: metrics match the brute-force oracle on 100 sets")


def test_criterion_06_desk_scale_end_to_end(pipeline_run):
    """Desk-scale pipeline (n = 5000, seed 0): a1 reaches at least 0.85
    accuracy and 0.80 macro-F1; reactivity variants beat height variants in
    macro-F1; separated variants beat AIO variants by at least 0.10 accuracy;
    total runtime under 5 minutes."""
    report, _, elapsed = pipeline_run
    assert report["corpus_n"] == 5000
    rows = report["classifiers"]
    acc = {vid: rows[vid]["test_accuracy"] for vid in rows}
    f1 = {vid: rows[vid]["test_macro_f1"] for vid in rows}

    assert acc["a1"] >= 0.85, f"a1 accuracy {acc['a1']:.3f}"
    assert f1["a1"] >= 0.80, f"a1 macro-F1 {f1['a1']:.3f}"
    assert min(f1["a1"], f1["c1"]) > max(f1["b1"], f1["d1"]), (
        f"reactivity F1 ({f1['a1']:.3f}, {f1['c1']:.3f}) does not beat "
        f"heights F1 ({f1['b1']:.3f}, {f1['d1']:.3f})"
    )
    separated = np.mean([acc[v] for v in ("a1", "b1", "c1", "d1")])
    aio = np.mean([acc[v] for v in ("e1", "f1")])
    assert separated - aio >= 0.10, f"separated {separated:.3f} vs AIO {aio:.3f}"
    assert elapsed < 300.0, f"pipeline took {elapsed:.1f} s"
    print(
        f"criterion 6 PASS: a1 {acc['a1']:.3f}/{f1['a1']:.3f}, "
        f"separated-AIO gap {separated - aio:.3f} ({elapsed:.1f} s)"
    )


def test_criterion_07_desk_scale_regression(pipeline_run):
    """Conditional on a correct stage-1 class, at least 80% of regression
    predictions fall within 0.10 absolute normalized error."""
    report, _, _ = pipeline_run
    for vid, row in report["regressors"].items():
        within = row["regression"]["conditional_within_0.10"]
        assert within >= 0.80, f"{vid} conditional within-0.10 is {within:.3f}"
    print(
        "criterion 7 PASS: conditional within-0.10 "
        + ", ".join(
            f"{vid} {row['regression']['conditional_within_0.10']:.3f}"
            for vid, row in sorted(report["regressors"].items())
        )
    )


def test_criterion_08_composition_exactness(pipeline_run):
    """Composed two-stage output is bitwise identical to manual chaining on
    100 random inputs."""
    _, out_dir, _ = pipeline_run
    stage1 = load_model(out_dir / "model_a1.json")
    stage2 = load_model(out_dir / "model_b2.json")
    composed = TwoStageModel(stage1, stage2)

    observations = read_observations(out_dir / "corpus.csv").take(slice(100))
    table = encode_table(observations)

    joint = predict_batch(composed, table, table)
    probs = np.atleast_2d(forward(stage1, stage_inputs(table.features, "a1")))
    norm = np.atleast_2d(forward(stage2, stage_inputs(table.features, "b2", probs)))
    for i, p in enumerate(joint):
        assert p.class_probs == tuple(float(v) for v in probs[i])  # bitwise
        assert p.power_norm == float(norm[i, 0])  # bitwise
        assert p.predicted_class == int(np.argmax(probs[i]))
    print("criterion 8 PASS: composed output bitwise-identical on 100 inputs")


def test_criterion_09_early_stopping():
    """On a constructed plateau, training halts within patience + 1 epochs of
    the plateau and the restored weights reproduce the best metric exactly."""
    rng = np.random.default_rng(909)
    n = 120
    labels = rng.integers(0, 5, size=n)
    initial = rng.random(size=(n, 2))
    final = rng.random(size=(n, 1))
    inputs = np.hstack([initial, final, rng.choice([-1.0, 1.0], size=(n, 1))])
    targets = np.zeros((n, 5))
    targets[np.arange(n), labels] = 1.0

    # Zero learning rate: the metric plateaus from epoch 1 onward.
    config = TrainingConfig(
        optimizer="sgd", learning_rate=0.0, seed=0, early_stop_patience=5
    )
    trained, history = train(build_variant("a1", seed=0), inputs, targets, config)
    plateau_start = 1
    assert history.stopped_early
    assert history.n_epochs <= plateau_start + config.early_stop_patience + 1
    assert history.best_epoch == plateau_start

    best = history.records[history.best_epoch - 1]
    split_rng = np.random.default_rng(config.seed)
    perm = split_rng.permutation(n)
    n_val = max(1, round(config.check_fraction * n))
    val_idx = perm[:n_val]
    val_out = np.atleast_2d(forward(trained, inputs[val_idx]))
    assert accuracy(val_out, targets[val_idx]) == best["val_accuracy"]  # exact
    print(
        f"criterion 9 PASS: stopped at epoch {history.n_epochs} "
        f"(patience {config.early_stop_patience}), best metric reproduced"
    )


def test_criterion_10_determinism(pipeline_run, tmp_path):
    """Re-running the full pipeline with the same root seed produces
    byte-identical model files and reports."""
    _, first_dir, _ = pipeline_run
    second_dir = tmp_path / "rerun"
    run_pipeline(PipelineConfig(out_dir=second_dir, seed=ACCEPTANCE_SEED))

    first_files = sorted(p.name for p in first_dir.iterdir())
    second_files = sorted(p.name for p in second_dir.iterdir())
    assert first_files == second_files
    for name in first_files:
        assert (first_dir / name).read_bytes() == (second_dir / name).read_bytes(), name
    print(f"criterion 10 PASS: {len(first_files)} artifacts byte-identical across reruns")
