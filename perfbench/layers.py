"""Where the traced run wraps each rtp layer, and the per-layer metrics.

Every wrapper is installed at the name its caller looks up: ``rtp.pipeline``
imports ``train`` into its own namespace, so the pipeline's training calls are
wrapped at ``rtp.pipeline.train``; ``rtp.cli`` imports ``encode`` inside a
function from ``rtp.preprocess``, so that one is wrapped at
``rtp.preprocess.encode``. No file of rtp changes.
"""

from __future__ import annotations

import os
from collections import Counter, defaultdict
from importlib import import_module

from spans import NO_PARENT, Span, Tracer, ancestor_named, outermost, self_times


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _one(args, kwargs, result):
    return 1, None


def _len_result(args, kwargs, result):
    return len(result), None


def _rows_encode_dataset(args, kwargs, result):
    return len(_arg(args, kwargs, 0, "observations")), None


def _rows_predict_batch(args, kwargs, result):
    return len(_arg(args, kwargs, 1, "stage1_samples")), None


def _rows_forward(args, kwargs, result):
    first = next(iter(_arg(args, kwargs, 1, "inputs").values()))
    return (first.shape[0] if first.ndim > 1 else 1), None


def _train(args, kwargs, result):
    model = _arg(args, kwargs, 0, "model")
    return result[1].n_epochs, model.variant_id


def _step(args, kwargs, result):
    model = _arg(args, kwargs, 0, "model")
    return len(_arg(args, kwargs, 2, "target")), model.variant_id


def _file_size(args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 1, "path")), None


# (span name, module, attribute or Class.method, describe)
PATCHES = [
    ("pipeline", "rtp.pipeline", "run_pipeline", None),
    ("ingest.synthesize", "rtp.pipeline", "synthesize_corpus", None),
    ("ingest.write", "rtp.pipeline", "write_observations", None),
    ("ingest.parse", "rtp.cli", "parse_log", _len_result),
    ("ingest.parse", "rtp.cli", "row_to_observation", None),
    ("augment.over_sample", "rtp.pipeline", "over_sample", None),
    ("preprocess.balance", "rtp.pipeline", "classify_power", None),
    ("preprocess.balance", "rtp.pipeline", "undersample_indices", None),
    ("preprocess.encode", "rtp.pipeline", "encode_dataset", _rows_encode_dataset),
    ("preprocess.encode", "rtp.preprocess", "encode", _one),
    ("preprocess.encode", "rtp.compose", "encode", _one),
    ("domain.config_lookup", "rtp.domain", "config_for_date", None),
    ("domain.config_lookup", "rtp.cli", "config_for_date", None),
    ("domain.config_lookup", "rtp.augment", "config_for_date", None),
    ("model_zoo.inputs", "rtp.pipeline", "model_inputs", None),
    ("model_zoo.inputs", "rtp.compose", "model_inputs", None),
    ("training.train", "rtp.pipeline", "train", _train),
    ("training.step", "rtp.training", "backward_with_loss", _step),
    ("training.optimizer", "rtp.training", "Adam.step", None),
    ("training.optimizer", "rtp.training", "SGD.step", None),
    ("training.epoch_eval", "rtp.training", "forward", None),
    ("training.snapshot", "rtp.training", "clone_model", None),
    ("training.snapshot", "rtp.training", "snapshot_params", None),
    ("training.snapshot", "rtp.training", "restore_params", None),
    ("engine.reg_loss", "rtp.engine", "regularization_loss", None),
    ("engine.reg_loss", "rtp.training", "regularization_loss", None),
    ("engine.forward", "rtp.pipeline", "forward", _rows_forward),
    ("engine.forward", "rtp.compose", "forward", _rows_forward),
    ("compose.predict", "rtp.pipeline", "predict_batch", _rows_predict_batch),
    ("compose.predict", "rtp.cli", "predict_batch", _rows_predict_batch),
    ("compose.predict", "rtp.compose", "predict_batch", _rows_predict_batch),
    ("compose.predict", "rtp.compose", "predict", _one),
    ("engine.save", "rtp.pipeline", "save_model", _file_size),
    ("engine.save", "rtp.pipeline", "save_two_stage", _file_size),
    ("engine.load", "rtp.cli", "load_two_stage", None),
    ("engine.load", "rtp.compose", "load_two_stage", None),
    ("evaluate", "rtp.pipeline", "confusion", None),
    ("evaluate", "rtp.pipeline", "class_metrics", None),
    ("evaluate", "rtp.pipeline", "regression_report", None),
    ("cli", "rtp.cli", "main", None),
]

# (metric, unit, better); BENCHMARK.json lists the same metrics.
PER_LAYER = [
    ("ingest.synthesize_s", "s", "lower"),
    ("ingest.write_s", "s", "lower"),
    ("augment.over_sample_s", "s", "lower"),
    ("preprocess.balance_s", "s", "lower"),
    ("evaluate.s", "s", "lower"),
    ("pipeline.self_s", "s", "lower"),
    ("ingest.parse_s", "s", "lower"),
    ("ingest.parse_rows", "count", "higher"),
    ("cli.predict_self_s", "s", "lower"),
    ("preprocess.encode_s", "s", "lower"),
    ("preprocess.encode_calls", "count", "lower"),
    ("preprocess.encode_rows", "count", "lower"),
    ("domain.config_lookup_s", "s", "lower"),
    ("domain.config_lookup_calls", "count", "lower"),
    ("model_zoo.inputs_s", "s", "lower"),
    ("model_zoo.inputs_calls", "count", "lower"),
    ("training.train_s", "s", "lower"),
    ("training.critical_path_s", "s", "lower"),
    ("training.epochs", "count", "lower"),
    ("training.epoch_eval_s", "s", "lower"),
    ("training.snapshot_s", "s", "lower"),
    ("training.steps", "count", "lower"),
    ("training.samples", "count", "lower"),
    ("training.step_s", "s", "lower"),
    ("training.optimizer_s", "s", "lower"),
    ("training.optimizer_calls", "count", "lower"),
    ("engine.reg_loss_s", "s", "lower"),
    ("engine.reg_loss_calls", "count", "lower"),
    ("engine.step_flops", "flop", "lower"),
    ("engine.step_gflops", "Gflop/s", "higher"),
    ("engine.forward_s", "s", "lower"),
    ("engine.forward_calls", "count", "lower"),
    ("engine.forward_rows", "count", "lower"),
    ("compose.predict_s", "s", "lower"),
    ("compose.predict_calls", "count", "lower"),
    ("compose.rows_per_call", "rows/call", "higher"),
    ("engine.save_s", "s", "lower"),
    ("engine.save_bytes", "B", "lower"),
    ("engine.load_s", "s", "lower"),
]


def install(tracer: Tracer) -> list[str]:
    """Wrap every entry of PATCHES for the life of the process.

    Returns the entries that rtp no longer has; their layers read 0 and the
    report names them as unmeasured.
    """
    missing = []
    for name, module_name, attribute, describe in PATCHES:
        owner = import_module(module_name)
        *path, leaf = attribute.split(".")
        try:
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
        except AttributeError:
            missing.append(f"{module_name}.{attribute}")
            continue
        setattr(owner, leaf, tracer.wrap(name, original, describe))
    return missing


def step_flops_per_row(variant_id: str) -> int:
    """Flops of one training row's matrix products, from the layer shapes.

    Forward, weight gradient and input gradient are each one matrix product
    of n_in x n_out per layer, at two flops per multiply-add. Element-wise
    work is left out, so this is a computed lower bound, not a measurement.
    """
    from rtp.model_zoo import build_variant

    layers = build_variant(variant_id, 0).all_layers()
    return 6 * sum(layer.n_in * layer.n_out for layer in layers)


def _chain_time(train_s: dict[str, float]) -> float:
    """Longest classifier -> paired regressor chain of one pipeline run."""
    from rtp.model_zoo import pair_for_regressor, variant_spec

    longest = 0.0
    for vid, seconds in train_s.items():
        if variant_spec(vid).task == "regressor":
            seconds += train_s.get(pair_for_regressor(vid), 0.0)
        longest = max(longest, seconds)
    return longest


def layer_metrics(spans: list[Span]) -> tuple[dict[str, float], dict]:
    """Per-layer metrics of PER_LAYER, plus per-variant detail."""
    own = self_times(spans)
    top = outermost(spans)
    seconds: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    work: Counter = Counter()
    for index, span in enumerate(spans):
        if top[index]:
            seconds[span.name] += span.duration
            self_s[span.name] += own[index]
            calls[span.name] += 1
            work[span.name] += span.count

    variant_s: dict[str, float] = defaultdict(float)
    variant_epochs: Counter = Counter()
    per_pipeline: dict = defaultdict(lambda: defaultdict(float))
    flops = 0
    flops_cache: dict[str, int] = {}
    for index, span in enumerate(spans):
        if span.name == "training.train" and top[index]:
            variant_s[span.tag] += span.duration
            variant_epochs[span.tag] += span.count
            run = ancestor_named(spans, index, "pipeline")
            # A train call outside any pipeline is a chain of its own.
            group = run if run != NO_PARENT else f"train {index}"
            per_pipeline[group][span.tag] += span.duration
        elif span.name == "training.step" and top[index]:
            if span.tag not in flops_cache:
                flops_cache[span.tag] = step_flops_per_row(span.tag)
            flops += span.count * flops_cache[span.tag]

    step_s = seconds["training.step"]
    metrics = {
        "ingest.synthesize_s": seconds["ingest.synthesize"],
        "ingest.write_s": seconds["ingest.write"],
        "augment.over_sample_s": seconds["augment.over_sample"],
        "preprocess.balance_s": seconds["preprocess.balance"],
        "evaluate.s": seconds["evaluate"],
        "pipeline.self_s": self_s["pipeline"],
        "ingest.parse_s": seconds["ingest.parse"],
        "ingest.parse_rows": work["ingest.parse"],
        "cli.predict_self_s": self_s["cli"],
        "preprocess.encode_s": seconds["preprocess.encode"],
        "preprocess.encode_calls": calls["preprocess.encode"],
        "preprocess.encode_rows": work["preprocess.encode"],
        "domain.config_lookup_s": seconds["domain.config_lookup"],
        "domain.config_lookup_calls": calls["domain.config_lookup"],
        "model_zoo.inputs_s": seconds["model_zoo.inputs"],
        "model_zoo.inputs_calls": calls["model_zoo.inputs"],
        "training.train_s": seconds["training.train"],
        "training.critical_path_s": sum(_chain_time(run) for run in per_pipeline.values()),
        "training.epochs": work["training.train"],
        "training.epoch_eval_s": seconds["training.epoch_eval"],
        "training.snapshot_s": seconds["training.snapshot"],
        "training.steps": calls["training.step"],
        "training.samples": work["training.step"],
        "training.step_s": step_s,
        "training.optimizer_s": seconds["training.optimizer"],
        "training.optimizer_calls": calls["training.optimizer"],
        "engine.reg_loss_s": seconds["engine.reg_loss"],
        "engine.reg_loss_calls": calls["engine.reg_loss"],
        "engine.step_flops": flops,
        "engine.step_gflops": flops / step_s / 1e9 if step_s > 0 else 0.0,
        "engine.forward_s": seconds["engine.forward"],
        "engine.forward_calls": calls["engine.forward"],
        "engine.forward_rows": work["engine.forward"],
        "compose.predict_s": seconds["compose.predict"],
        "compose.predict_calls": calls["compose.predict"],
        "compose.rows_per_call": (
            work["compose.predict"] / calls["compose.predict"] if calls["compose.predict"] else 0.0
        ),
        "engine.save_s": seconds["engine.save"],
        "engine.save_bytes": work["engine.save"],
        "engine.load_s": seconds["engine.load"],
    }
    detail = {
        "train_s_by_variant": dict(sorted(variant_s.items())),
        "epochs_by_variant": dict(sorted(variant_epochs.items())),
        "spans": len(spans),
    }
    return metrics, detail
