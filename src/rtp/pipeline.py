"""End-to-end experiment: synthesize, augment, balance, train, compose, evaluate.

All randomness flows from one root seed via named substreams so each stage is
independently reproducible and a rerun with the same seed is byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Union

import numpy as np

from . import seeds
from .augment import over_sample
from .compose import TwoStageModel, predict_arrays, run_stage, save_two_stage
from .domain import check_settings, is_count, is_nonnegative_integer, settings_from
from .engine import save_model
from .evaluate import class_metrics, confusion, regression_report
from .files import writing
from .ingest import CorpusSpec, ObservationTable, synthesize_corpus, write_observations
from .model_zoo import (
    CLASSIFIER_IDS,
    REGRESSOR_IDS,
    build_variant,
    pair_for_regressor,
    stage_inputs,
    training_config,
)
from .preprocess import EmptyClassError, encode_table, undersample_indices
from .training import TrainingConfig, train


# The share of the corpus held out as the test split.
TEST_FRACTION = 0.3


def _ids_from(known: tuple[str, ...]):
    return lambda x: isinstance(x, (tuple, list)) and all(v in known and x.count(v) == 1 for v in x)


# What each setting must be, and the test for it, in field order.
_CONFIG_RULES = {
    # The OS refuses a path with a NUL character in it.
    "out_dir": ("a path", lambda x: isinstance(x, (str, Path)) and "\0" not in str(x)),
    "seed": ("an integer >= 0", is_nonnegative_integer),
    "corpus_n": ("an integer >= 1", is_count),
    "augment_n": ("an integer >= 0", is_nonnegative_integer),
    "classifier_ids": (f"a list of distinct ids from {CLASSIFIER_IDS}", _ids_from(CLASSIFIER_IDS)),
    "regressor_ids": (f"a list of distinct ids from {REGRESSOR_IDS}", _ids_from(REGRESSOR_IDS)),
    "compose_pair": (
        "a classifier id, then a regressor id",
        lambda x: isinstance(x, (tuple, list))
        and len(x) == 2
        and x[0] in CLASSIFIER_IDS
        and x[1] in REGRESSOR_IDS,
    ),
    "training_overrides": ("an object of training settings", lambda x: isinstance(x, dict)),
}


@dataclass
class PipelineConfig:
    out_dir: Union[str, Path] = "artifacts"
    seed: int = 0
    corpus_n: int = 5000
    augment_n: int = 1000
    classifier_ids: tuple[str, ...] = CLASSIFIER_IDS
    regressor_ids: tuple[str, ...] = REGRESSOR_IDS
    compose_pair: tuple[str, str] = ("a1", "b2")
    training_overrides: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_settings(self, _CONFIG_RULES)
        for vid in self.regressor_ids:
            if (cid := pair_for_regressor(vid)) not in self.classifier_ids:
                raise ValueError(
                    f"regressor_ids: {vid} needs its paired classifier {cid} in classifier_ids"
                )
        check_overrides(self.training_overrides, (*self.classifier_ids, *self.regressor_ids))
        for key in ("classifier_ids", "regressor_ids", "compose_pair"):
            setattr(self, key, tuple(getattr(self, key)))


def check_overrides(overrides: dict, variant_ids) -> dict:
    """`overrides`, once TrainingConfig and the training config of each of
    `variant_ids` take them; ValueError names an unknown or refused one."""
    settings_from(TrainingConfig, overrides)
    for vid in variant_ids:
        training_config(vid, 0, overrides)
    return overrides


def fit_variant(variant_id: str, table, seed: int, overrides: dict, stage1=None):
    """Train one variant on an encoded table; returns (model, history).

    The weights and the training run draw from the variant's own substreams
    of `seed`, under training_config's settings with `overrides`. A
    classifier learns the table's one-hot classes. A regressor learns its
    normalized powers, and takes `stage1`, its trained stage-1 classifier,
    whose outputs on the same rows close the regressor's inputs.
    """
    model = build_variant(variant_id, seeds.subseed(seed, f"init/{variant_id}"))
    config = training_config(variant_id, seeds.subseed(seed, f"train/{variant_id}"), overrides)
    if stage1 is None:
        x, targets = stage_inputs(table.features, variant_id), table.class_onehot
    else:
        probs = run_stage(stage1, table.features)
        x, targets = stage_inputs(table.features, variant_id, probs), table.target.reshape(-1, 1)
    return train(model, x, targets, config)


def score(model, table):
    """The predicted classes on a table's rows, their absolute power errors
    (normalized units) and the report that scores them against the table's
    classes and targets: the `classification` and `confusion` blocks, and for
    a TwoStageModel the `regression` block, conditioned on rows whose class
    stage 1 got right. A classifier has no power errors (None). The model
    must take its variant's inputs, as compose.run_stage says."""
    if isinstance(model, TwoStageModel):
        _, predicted, norms = predict_arrays(model, table)
        abs_errors = np.abs(norms - table.target)
    else:
        predicted, abs_errors = np.argmax(run_stage(model, table.features), axis=1), None
    counts = confusion(table.class_index, predicted)
    report = {"classification": class_metrics(counts), "confusion": counts.tolist()}
    if abs_errors is not None:
        report["regression"] = regression_report(abs_errors, predicted == table.class_index)
    return predicted, abs_errors, report


def fit_chain(classifier_id, regressor_ids, train_table, test_table, seed: int, overrides: dict):
    """Train and score one chain, a classifier and then each of
    `regressor_ids` fed by it, under fit_variant's `seed` and `overrides`;
    returns each variant's (model, report row) in chain order and writes no
    file. A row summarizes the history, with the best epoch's validation
    metrics (a regressor's val_mse is the Table-5 analogue of its "accuracy"
    column), and the test score: a regressor's is its two-stage pair's."""

    def fit(variant_id, stage1=None):
        trained, history = fit_variant(variant_id, train_table, seed, overrides, stage1)
        best = history.records[history.best_epoch - 1]
        return trained, {
            "variant": variant_id,
            "epochs": history.n_epochs,
            "best_epoch": history.best_epoch,
            "stopped_early": history.stopped_early,
            **{f"best_{k}": v for k, v in best.items() if k.startswith("val_")},
        }

    classifier, row = fit(classifier_id)
    _, _, scores = score(classifier, test_table)
    metrics = scores["classification"]
    row.update(test_accuracy=metrics["accuracy"], test_macro_f1=metrics["macro_f1"])
    row.update(confusion=scores["confusion"], per_class=metrics)
    chain = [(classifier, row)]
    for vid in regressor_ids:
        model, row = fit(vid, classifier)
        _, _, scores = score(TwoStageModel(classifier, model), test_table)
        row.update(regression=scores["regression"], paired_classifier=classifier_id)
        chain.append((model, row))
    return chain


def run_pipeline(config: PipelineConfig) -> dict:
    """Run every stage and return the summary report (also written to disk)."""
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    # Stage 1: synthetic ground-truth corpus.
    corpus = synthesize_corpus(
        CorpusSpec(n_observations=config.corpus_n, seed=seeds.subseed(config.seed, "corpus"))
    )

    # Stage 2: held-out test split (the "real observations" analogue).
    split_rng = seeds.substream(config.seed, "split")
    perm = split_rng.permutation(len(corpus))
    n_test = round(TEST_FRACTION * len(corpus))
    test_rows = corpus.take(perm[:n_test])
    train_rows = corpus.take(perm[n_test:])

    # Stage 3: physics-guided augmentation of the training portion.
    augmented = over_sample(
        train_rows, n=config.augment_n, seed=seeds.subseed(config.seed, "augment")
    )
    # Each pool row keeps its row number in corpus.csv or augmented.csv.
    train_pool = ObservationTable.concat([train_rows, augmented])

    # Stage 4: encode the training pool and the test split once each, into
    # the one feature matrix that every variant reads its columns from, then
    # class-balance the pool's rows.
    pool = encode_table(train_pool)
    try:
        balanced_idx = undersample_indices(
            pool.class_index.tolist(), seeds.subseed(config.seed, "balance")
        )
    except EmptyClassError as exc:
        raise EmptyClassError(
            f"balance stage: {exc} in the training pool of {len(train_pool)} rows; "
            f"corpus_n ({config.corpus_n}) and augment_n ({config.augment_n}) size the pool"
        ) from None
    # Written only once the pool balances, so a refused pool leaves neither.
    write_observations(corpus, out_dir / "corpus.csv")
    write_observations(augmented, out_dir / "augmented.csv")
    encoded_train = pool.take(balanced_idx)
    del pool  # training keeps only the balanced rows
    encoded_test = encode_table(test_rows)

    report: dict = {
        "seed": config.seed,
        "corpus_n": len(corpus),
        "train_n": len(train_rows),
        "augmented_n": len(augmented),
        "balanced_n": len(balanced_idx),
        "test_n": len(test_rows),
        # In config order, as --verbose prints them; filled chain by chain.
        "classifiers": dict.fromkeys(config.classifier_ids),
        "regressors": dict.fromkeys(config.regressor_ids),
    }

    # Stages 5 and 6: one chain per classifier, in classifier_ids order.
    models = {}
    shared = (encoded_train, encoded_test, config.seed, config.training_overrides)
    for cid in config.classifier_ids:
        feeds = [vid for vid in config.regressor_ids if pair_for_regressor(vid) == cid]
        for model, row in fit_chain(cid, feeds, *shared):
            vid = model.variant_id
            models[vid] = model
            save_model(model, out_dir / f"model_{vid}.json")
            report["classifiers" if vid == cid else "regressors"][vid] = row

    # Stage 7: compose the selected pair and sanity-run it on the test set.
    stage1_id, stage2_id = config.compose_pair
    if stage1_id in models and stage2_id in models:
        two_stage = TwoStageModel(models[stage1_id], models[stage2_id])
        save_two_stage(two_stage, out_dir / "twostage.json")
        _, _, scores = score(two_stage, encoded_test)
        report["composed"] = {
            "stage1": stage1_id,
            "stage2": stage2_id,
            "test_accuracy": scores["classification"]["accuracy"],
            "test_macro_f1": scores["classification"]["macro_f1"],
            "regression": scores["regression"],
        }

    with writing(out_dir / "report.json") as handle:
        json.dump(report, handle, sort_keys=True, indent=2)
        handle.write("\n")
    return report
