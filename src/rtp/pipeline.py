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
from .domain import DEFAULT_CONFIGS, PowerClassBins
from .engine import forward, save_model
from .evaluate import class_metrics, confusion, regression_report
from .ingest import CorpusSpec, synthesize_corpus, write_observations
from .model_zoo import (
    CLASSIFIER_IDS,
    REGRESSOR_IDS,
    build_variant,
    classification_targets,
    default_training_config,
    model_inputs,
    pair_for_regressor,
    regression_targets,
    variant_spec,
)
from .preprocess import LAYOUTS, encode_tables, undersample_indices
from .training import TrainingConfig, train


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
        if not (0.0 < self.test_fraction < 1.0):
            raise ValueError("test_fraction must be in (0, 1)")
        if self.corpus_n <= 0:
            raise ValueError("corpus_n must be positive")
        replace(TrainingConfig(), **self.training_overrides)  # unknown or invalid keys raise here

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "PipelineConfig":
        with open(path) as handle:
            doc = json.load(handle)
        if not isinstance(doc, dict):
            raise ValueError("expected a JSON object")
        policy = PerturbationPolicy(**doc.pop("policy", {}))
        for key in ("classifier_ids", "regressor_ids", "compose_pair"):
            if key in doc:
                doc[key] = tuple(doc[key])
        return cls(policy=policy, **doc)


def _train_variant(variant_id, train_table, test_table, config: PipelineConfig,
                   train_probs=None, test_probs=None):
    model = build_variant(variant_id, seeds.subseed(config.seed, f"init/{variant_id}"))
    tc = default_training_config(variant_id, seeds.subseed(config.seed, f"train/{variant_id}"))
    if config.training_overrides:
        tc = replace(tc, **config.training_overrides)
    inputs = model_inputs(train_table, variant_id, class_probs=train_probs)
    spec = variant_spec(variant_id)
    if spec.task == "classifier":
        targets = classification_targets(train_table)
    else:
        targets = regression_targets(train_table)
    trained, history = train(model, inputs, targets, tc)

    best = history.records[history.best_epoch - 1]
    summary = {
        "variant": variant_id,
        "epochs": history.n_epochs,
        "best_epoch": history.best_epoch,
        "stopped_early": history.stopped_early,
        "best_val_loss": best["val_loss"],
    }
    test_inputs = model_inputs(test_table, variant_id, class_probs=test_probs)
    test_out = np.atleast_2d(forward(trained, test_inputs))
    if spec.task == "classifier":
        summary["best_val_accuracy"] = best["val_accuracy"]
        cm = confusion(test_table.class_index, np.argmax(test_out, axis=1))
        metrics = class_metrics(cm)
        summary["test_accuracy"] = metrics.accuracy
        summary["test_macro_f1"] = metrics.macro_f1
        summary["confusion"] = cm.to_lists()
        summary["per_class"] = metrics.to_dict()
    else:
        # Table-5 analogue: the regressor "accuracy" column is really MSE.
        summary["best_val_mse"] = best["val_mse"]
        summary["best_val_mae"] = best["val_mae"]
        stage1_correct = np.argmax(test_probs, axis=1) == test_table.class_index
        report = regression_report(test_table.target, test_out[:, 0], stage1_correct)
        summary["regression"] = report.to_dict()
    return trained, test_out, summary


def run_pipeline(config: PipelineConfig) -> dict:
    """Run every stage and return the summary report (also written to disk)."""
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    bins = PowerClassBins()

    # Stage 1: synthetic ground-truth corpus.
    corpus = synthesize_corpus(
        CorpusSpec(n_observations=config.corpus_n, seed=seeds.subseed(config.seed, "corpus"))
    )
    write_observations(corpus, out_dir / "corpus.csv")

    # Stage 2: held-out test split (the "real observations" analogue).
    split_rng = seeds.substream(config.seed, "split")
    perm = split_rng.permutation(len(corpus))
    n_test = round(config.test_fraction * len(corpus))
    test_obs = [corpus[i] for i in perm[:n_test]]
    train_obs = [corpus[i] for i in perm[n_test:]]

    # Stage 3: physics-guided augmentation of the training portion.
    augmented = over_sample(
        train_obs,
        DEFAULT_CONFIGS,
        n=config.augment_n,
        change=config.augment_change,
        policy=config.policy,
        seed=seeds.subseed(config.seed, "augment"),
    )
    write_observations(augmented, out_dir / "augmented.csv")
    train_pool = train_obs + augmented

    # Stage 4: encode the training pool and the test split once for every
    # variant's layout, then class-balance the pool's rows (the same rows for
    # every variant). With no variants, one layout still supplies the labels.
    variant_ids = sorted(set(config.classifier_ids) | set(config.regressor_ids))
    layouts = [variant_spec(vid).layout for vid in variant_ids]
    pool_tables = encode_tables(train_pool, layouts or [LAYOUTS["a1"]], DEFAULT_CONFIGS, bins)
    balanced_idx = undersample_indices(
        pool_tables[0].class_index.tolist(), seeds.subseed(config.seed, "balance")
    )
    encoded_train = {vid: table.take(balanced_idx) for vid, table in zip(variant_ids, pool_tables)}
    del pool_tables  # training keeps only the balanced rows
    encoded_test = dict(zip(variant_ids, encode_tables(test_obs, layouts, DEFAULT_CONFIGS, bins)))

    report: dict = {
        "seed": config.seed,
        "corpus_n": len(corpus),
        "train_n": len(train_obs),
        "augmented_n": len(augmented),
        "balanced_n": len(balanced_idx),
        "test_n": len(test_obs),
        "classifiers": {},
        "regressors": {},
    }

    # Stage 5: classifiers.
    classifier_models = {}
    classifier_test_probs = {}
    classifier_train_probs = {}
    for vid in config.classifier_ids:
        model, test_out, summary = _train_variant(
            vid, encoded_train[vid], encoded_test[vid], config
        )
        classifier_models[vid] = model
        classifier_test_probs[vid] = test_out
        save_model(model, out_dir / f"model_{vid}.json")
        report["classifiers"][vid] = summary

    # Stage 6: regressors, fed by their paired classifier's output.
    regressor_models = {}
    for vid in config.regressor_ids:
        cid = pair_for_regressor(vid)
        if cid not in classifier_models:
            raise ValueError(f"regressor {vid} needs classifier {cid}, which was not trained")
        train_probs = np.atleast_2d(
            forward(classifier_models[cid], model_inputs(encoded_train[cid], cid))
        )
        model, _, summary = _train_variant(
            vid,
            encoded_train[vid],
            encoded_test[vid],
            config,
            train_probs=train_probs,
            test_probs=classifier_test_probs[cid],
        )
        regressor_models[vid] = model
        save_model(model, out_dir / f"model_{vid}.json")
        summary["paired_classifier"] = cid
        report["regressors"][vid] = summary

    # Stage 7: compose the selected pair and sanity-run it on the test set.
    stage1_id, stage2_id = config.compose_pair
    if stage1_id in classifier_models and stage2_id in regressor_models:
        two_stage = compose_models(classifier_models[stage1_id], regressor_models[stage2_id])
        save_two_stage(two_stage, out_dir / "twostage.json")
        scores = evaluate_two_stage(two_stage, encoded_test[stage1_id], encoded_test[stage2_id])
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
