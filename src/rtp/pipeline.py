"""End-to-end experiment: synthesize, augment, balance, train, compose, evaluate.

All randomness flows from one root seed via named substreams so each stage is
independently reproducible and a rerun with the same seed is byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Union

import numpy as np

from . import seeds
from .augment import PerturbationPolicy, over_sample
from .compose import compose_models, evaluate_two_stage, save_two_stage
from .domain import (
    DEFAULT_CONFIGS,
    check_settings,
    is_count,
    is_integer,
    is_nonnegative_integer,
    is_number,
)
from .engine import forward, save_model
from .evaluate import class_metrics, confusion
from .ingest import CorpusSpec, ObservationTable, synthesize_corpus, write_observations
from .model_zoo import (
    CLASSIFIER_IDS,
    REGRESSOR_IDS,
    build_variant,
    default_training_config,
    model_inputs,
    pair_for_regressor,
    training_targets,
    variant_spec,
)
from .preprocess import EmptyClassError, encode_table, undersample_indices
from .training import TrainingConfig, train


def _ids_from(known: tuple[str, ...]):
    return lambda x: isinstance(x, (tuple, list)) and all(v in known for v in x)


# What each setting must be, and the test for it, in field order.
_CONFIG_RULES = {
    "out_dir": ("a path", lambda x: isinstance(x, (str, Path))),
    "seed": ("an integer >= 0", is_nonnegative_integer),
    "corpus_n": ("an integer >= 1", is_count),
    "test_fraction": ("a number in (0, 1)", lambda x: is_number(x) and 0.0 < x < 1.0),
    "augment_n": ("an integer >= 0", is_nonnegative_integer),
    "augment_change": ("one of -1, 0, 1", lambda x: is_integer(x) and x in (-1, 0, 1)),
    "policy": ("an object of perturbation settings", lambda x: isinstance(x, PerturbationPolicy)),
    "classifier_ids": (f"a list of ids from {CLASSIFIER_IDS}", _ids_from(CLASSIFIER_IDS)),
    "regressor_ids": (f"a list of ids from {REGRESSOR_IDS}", _ids_from(REGRESSOR_IDS)),
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
    test_fraction: float = 0.3
    augment_n: int = 1000
    augment_change: int = 0
    policy: PerturbationPolicy = field(default_factory=PerturbationPolicy)
    classifier_ids: tuple[str, ...] = CLASSIFIER_IDS
    regressor_ids: tuple[str, ...] = REGRESSOR_IDS
    compose_pair: tuple[str, str] = ("a1", "b2")
    training_overrides: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_settings(self, _CONFIG_RULES)
        for vid in self.regressor_ids:
            if pair_for_regressor(vid) not in self.classifier_ids:
                raise ValueError(
                    f"regressor_ids: {vid} needs its paired classifier "
                    f"{pair_for_regressor(vid)} in classifier_ids"
                )
        check_overrides(self.training_overrides, (*self.classifier_ids, *self.regressor_ids))
        for key in ("classifier_ids", "regressor_ids", "compose_pair"):
            setattr(self, key, tuple(getattr(self, key)))

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "PipelineConfig":
        with open(path) as handle:
            doc = json.load(handle)
        if not isinstance(doc, dict):
            raise ValueError("expected a JSON object")
        if isinstance(doc.get("policy"), dict):
            doc["policy"] = PerturbationPolicy(**doc["policy"])
        return cls(**doc)


# The validation metrics each head reports, which early stopping can monitor.
MONITORED_BY_TASK = {
    "classifier": ("val_accuracy", "val_loss"),
    "regressor": ("val_loss", "val_mse"),
}


def training_config(variant_id: str, seed: int, overrides: dict) -> TrainingConfig:
    """A variant's training defaults, then `overrides`. ValueError names a
    setting that TrainingConfig refuses or a metric the head does not report."""
    config = replace(default_training_config(variant_id, seed), **overrides)
    task = variant_spec(variant_id).task
    if config.monitored_metric not in MONITORED_BY_TASK[task]:
        raise ValueError(
            f"monitored_metric must be one of {MONITORED_BY_TASK[task]} for {task} "
            f"{variant_id}, got {config.monitored_metric!r}"
        )
    return config


def check_overrides(overrides: dict, variant_ids) -> None:
    """Raise ValueError naming a training override that TrainingConfig, or
    the training config of any of `variant_ids`, refuses."""
    replace(TrainingConfig(), **overrides)
    for vid in variant_ids:
        training_config(vid, 0, overrides)


def fit_variant(variant_id: str, table, seed: int, overrides: dict, class_probs=None):
    """Train one variant on an encoded table; returns (model, history).

    The weights and the training run draw from the variant's own substreams
    of `seed`; its training defaults apply first, then `overrides`. A
    regressor takes its paired classifier's (n, 5) outputs as `class_probs`.
    """
    model = build_variant(variant_id, seeds.subseed(seed, f"init/{variant_id}"))
    config = training_config(variant_id, seeds.subseed(seed, f"train/{variant_id}"), overrides)
    inputs = model_inputs(table, variant_id, class_probs=class_probs)
    return train(model, inputs, training_targets(table, variant_id), config)


def score_classifier(model, table):
    """A classifier's outputs on a table, its predicted classes, the confusion
    matrix against the table's classes, and the metrics of that matrix."""
    out = forward(model, model_inputs(table, model.variant_id))
    predicted = np.argmax(out, axis=1)
    cm = confusion(table.class_index, predicted)
    return out, predicted, cm, class_metrics(cm)


def _train_variant(variant_id, train_table, config: PipelineConfig, class_probs=None):
    """fit_variant under the pipeline's seed and overrides; returns the model
    and its history summary, with the best epoch's validation metrics (a
    regressor's val_mse is the Table-5 analogue of its "accuracy" column)."""
    trained, history = fit_variant(
        variant_id, train_table, config.seed, config.training_overrides, class_probs
    )
    best = history.records[history.best_epoch - 1]
    summary = {
        "variant": variant_id,
        "epochs": history.n_epochs,
        "best_epoch": history.best_epoch,
        "stopped_early": history.stopped_early,
    }
    summary.update({f"best_{k}": v for k, v in best.items() if k.startswith("val_")})
    return trained, summary


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
    n_test = round(config.test_fraction * len(corpus))
    test_rows = corpus.take(perm[:n_test])
    train_rows = corpus.take(perm[n_test:])

    # Stage 3: physics-guided augmentation of the training portion.
    augmented = over_sample(
        train_rows,
        DEFAULT_CONFIGS,
        n=config.augment_n,
        change=config.augment_change,
        policy=config.policy,
        seed=seeds.subseed(config.seed, "augment"),
    )
    # Each pool row keeps its row number in corpus.csv or augmented.csv.
    train_pool = ObservationTable.concat([train_rows, augmented])

    # Stage 4: encode the training pool and the test split once each, into
    # the one feature matrix that every variant reads its columns from, then
    # class-balance the pool's rows.
    pool = encode_table(train_pool, DEFAULT_CONFIGS)
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
    encoded_test = encode_table(test_rows, DEFAULT_CONFIGS)

    report: dict = {
        "seed": config.seed,
        "corpus_n": len(corpus),
        "train_n": len(train_rows),
        "augmented_n": len(augmented),
        "balanced_n": len(balanced_idx),
        "test_n": len(test_rows),
        "classifiers": {},
        "regressors": {},
    }

    # Stage 5: classifiers, each scored on the test split.
    classifier_models = {}
    for vid in config.classifier_ids:
        model, summary = _train_variant(vid, encoded_train, config)
        _, _, cm, metrics = score_classifier(model, encoded_test)
        summary["test_accuracy"] = metrics.accuracy
        summary["test_macro_f1"] = metrics.macro_f1
        summary["confusion"] = cm.to_lists()
        summary["per_class"] = metrics.to_dict()
        classifier_models[vid] = model
        save_model(model, out_dir / f"model_{vid}.json")
        report["classifiers"][vid] = summary

    # Stage 6: regressors, fed by their paired classifier's output and scored
    # on the test split as that two-stage pair.
    regressor_models = {}
    for vid in config.regressor_ids:
        cid = pair_for_regressor(vid)
        train_probs = forward(classifier_models[cid], model_inputs(encoded_train, cid))
        model, summary = _train_variant(vid, encoded_train, config, train_probs)
        pair = compose_models(classifier_models[cid], model)
        scores = evaluate_two_stage(pair, encoded_test)
        summary["regression"] = scores.regression.to_dict()
        summary["paired_classifier"] = cid
        regressor_models[vid] = model
        save_model(model, out_dir / f"model_{vid}.json")
        report["regressors"][vid] = summary

    # Stage 7: compose the selected pair and sanity-run it on the test set.
    stage1_id, stage2_id = config.compose_pair
    if stage1_id in classifier_models and stage2_id in regressor_models:
        two_stage = compose_models(classifier_models[stage1_id], regressor_models[stage2_id])
        save_two_stage(two_stage, out_dir / "twostage.json")
        scores = evaluate_two_stage(two_stage, encoded_test)
        report["composed"] = {
            "stage1": stage1_id,
            "stage2": stage2_id,
            "test_accuracy": scores.metrics.accuracy,
            "test_macro_f1": scores.metrics.macro_f1,
            "regression": scores.regression.to_dict(),
        }

    with open(out_dir / "report.json", "w") as handle:
        json.dump(report, handle, sort_keys=True, indent=2)
        handle.write("\n")
    return report
