"""Command-line entry point for the full prediction pipeline and its stages.

Exit codes: 0 success, 1 usage error, 2 data error (a malformed input, or a
path that cannot be read or written), 3 numeric divergence.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from itertools import count

from .augment import PerturbationPolicy, ProgressError, over_sample
from .compose import (
    CompositionError,
    TwoStageModel,
    check_stage,
    compose,
    evaluate_two_stage,
    load_any_model,
    load_two_stage,
    predict_arrays,
    save_two_stage,
)
from .domain import DEFAULT_CONFIGS, is_nonnegative_integer
from .engine import ModelFormatError, ShapeError, forward, load_model, save_model
from .ingest import (
    CorpusSpec,
    DataError,
    ParseError,
    csv_line,
    filter_report,
    read_log,
    synthesize_corpus,
    write_observations,
)
from .model_zoo import model_inputs, variant_spec
from .pipeline import PipelineConfig, check_overrides, fit_variant, run_pipeline, score_classifier
from .preprocess import (
    LAYOUTS,
    LN_FULL_POWER,
    encode_table,
    read_encoded,
    undersample,
    write_encoded,
)
from .training import DivergenceError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_DIVERGENCE = 3

CHANGE_BY_NAME = {"up": 1, "down": -1, "none": 0}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; the CLI contract says 1.
    def error(self, message):
        raise UsageError(message)


def _effective_seed(args) -> int:
    """The root seed: --seed, else RTP_SEED, else 0; an integer >= 0."""
    if args.seed is not None:
        seed, source = args.seed, "--seed"
    else:
        env = os.environ.get("RTP_SEED", "0")
        try:
            seed, source = int(env), "RTP_SEED"
        except ValueError:
            raise UsageError(f"RTP_SEED must be an integer >= 0, got {env!r}") from None
    if not is_nonnegative_integer(seed):
        raise UsageError(f"{source} must be an integer >= 0, got {seed}")
    return seed


def _cmd_synthesize(args) -> int:
    spec = CorpusSpec(n_observations=args.n, seed=_effective_seed(args))
    write_observations(synthesize_corpus(spec), args.out)
    if args.verbose:
        print(f"wrote {args.n} observations to {args.out}")
    return EXIT_OK


def _cmd_augment(args) -> int:
    if args.n < 0:
        raise UsageError(f"--n must be non-negative, got {args.n}")
    generated = over_sample(
        read_log(args.infile),
        DEFAULT_CONFIGS,
        n=args.n,
        change=CHANGE_BY_NAME[args.change],
        policy=PerturbationPolicy(),
        seed=_effective_seed(args),
    )
    write_observations(generated, args.out)
    if args.verbose:
        print(f"wrote {len(generated)} augmented observations to {args.out}")
    return EXIT_OK


def _cmd_preprocess(args) -> int:
    if args.layout not in LAYOUTS:
        raise UsageError(f"unknown layout {args.layout!r}; valid: {sorted(LAYOUTS)}")
    kept, counts = filter_report(read_log(args.infile))
    table = encode_table(kept, DEFAULT_CONFIGS)
    if args.balance:
        table = undersample(table, _effective_seed(args))
    write_encoded(table, LAYOUTS[args.layout], args.out)
    if args.verbose:
        print(
            f"encoded {len(table)} samples (excluded: {counts.too_long} long, "
            f"{counts.shutdown} shutdowns, {counts.no_change} unchanged)"
        )
    return EXIT_OK


def _cmd_train(args) -> int:
    seed = _effective_seed(args)
    spec = variant_spec(args.variant)
    overrides = {}
    if args.config:
        try:
            with open(args.config) as handle:
                overrides = json.load(handle)
            check_overrides(overrides, [args.variant])
        except (TypeError, ValueError) as exc:
            raise UsageError(f"config file {args.config}: {exc}") from exc
    table = read_encoded(args.data, args.variant)
    probs = None
    if spec.task == "regressor":
        if not args.stage1_model or not args.stage1_data:
            raise UsageError(
                f"variant {args.variant} is a regressor; --stage1-model and "
                "--stage1-data (encoded with the paired classifier layout) are required"
            )
        classifier = load_model(args.stage1_model)
        try:
            check_stage("stage 1", classifier, "classifier")
        except CompositionError as exc:
            raise CompositionError(f"model file {args.stage1_model}: {exc}") from None
        stage1_table = read_encoded(args.stage1_data, classifier.variant_id)
        if len(stage1_table) != len(table):
            raise DataError(
                f"stage-1 data rows ({len(stage1_table)}) do not align with "
                f"training rows ({len(table)})"
            )
        probs = forward(classifier, model_inputs(stage1_table, classifier.variant_id))

    trained, history = fit_variant(args.variant, table, seed, overrides, probs)
    save_model(trained, args.out)
    if args.verbose:
        best = history.records[history.best_epoch - 1]
        print(
            f"trained {args.variant}: {history.n_epochs} epochs, "
            f"best epoch {history.best_epoch}, val_loss {best['val_loss']:.4f}"
        )
    return EXIT_OK


def _cmd_compose(args) -> int:
    model = compose(args.stage1, args.stage2)
    save_two_stage(model, args.out)
    if args.verbose:
        print(f"composed {model.stage1.variant_id}+{model.stage2.variant_id} -> {args.out}")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    kept, _ = filter_report(read_log(args.data))
    model = load_any_model(args.model)
    table = encode_table(kept, DEFAULT_CONFIGS)

    report: dict
    columns: list[list]  # per row: true class, predicted class[, absolute error]
    if isinstance(model, TwoStageModel):
        scores = evaluate_two_stage(model, table)
        report = {
            "classification": scores.metrics.to_dict(),
            "confusion": scores.confusion.to_lists(),
            "regression": scores.regression.to_dict(),
        }
        columns = [
            scores.true_classes.tolist(),
            scores.predicted_classes.tolist(),
            scores.regression.abs_errors.tolist(),
        ]
        header = ["row", "true_class", "predicted_class", "abs_error_norm"]
    else:
        if model.variant_id not in LAYOUTS:
            raise DataError(f"model {args.model} has unknown variant id {model.variant_id!r}")
        if variant_spec(model.variant_id).task == "regressor":
            raise DataError(
                f"model file {args.model}: {model.variant_id} is a regressor, which is "
                "evaluated through a two-stage model (see rtp compose)"
            )
        _, predicted, cm, metrics = score_classifier(model, table)
        report = {"classification": metrics.to_dict(), "confusion": cm.to_lists()}
        columns = [table.class_index.tolist(), predicted.tolist()]
        header = ["row", "true_class", "predicted_class"]

    with open(args.out, "w") as handle:
        json.dump(report, handle, sort_keys=True, indent=2)
        handle.write("\n")
    if args.errors:
        with open(args.errors, "w", newline="") as handle:
            handle.write(csv_line(header))
            handle.writelines(csv_line(map(str, row)) for row in zip(count(1), *columns))
    if args.verbose:
        print(f"wrote report to {args.out}")
    return EXIT_OK


def _cmd_predict(args) -> int:
    model = load_two_stage(args.model)
    table = encode_table(read_log(args.infile), DEFAULT_CONFIGS)
    probs, classes, norm = predict_arrays(model, table)
    # Element by element as denormalize_power, so each value keeps its bits.
    watts = map(math.exp, (norm * LN_FULL_POWER).tolist())
    header = ["row", *[f"prob_{i}" for i in range(5)], "predicted_class", "power_norm", "power_watts"]
    with open(args.out, "w", newline="") as handle:
        handle.write(csv_line(header))
        handle.writelines(
            csv_line((str(i), *map(repr, row_probs), str(predicted), repr(p_norm), repr(w)))
            for i, row_probs, predicted, p_norm, w in zip(
                count(1), probs.tolist(), classes.tolist(), norm.tolist(), watts
            )
        )
    if args.verbose:
        print(f"wrote {len(norm)} predictions to {args.out}")
    return EXIT_OK


def _cmd_pipeline(args) -> int:
    if args.config:
        try:
            config = PipelineConfig.from_file(args.config)
        except (TypeError, ValueError) as exc:
            raise UsageError(f"config file {args.config}: {exc}") from exc
    else:
        config = PipelineConfig()
    if args.out_dir:
        config.out_dir = args.out_dir
    if args.seed is not None or os.environ.get("RTP_SEED"):
        config.seed = _effective_seed(args)
    report = run_pipeline(config)
    if args.verbose:
        for vid, row in report["classifiers"].items():
            print(f"{vid}: accuracy {row['test_accuracy']:.3f} macro-F1 {row['test_macro_f1']:.3f}")
        for vid, row in report["regressors"].items():
            print(f"{vid}: test MAE {row['regression']['mae']:.4f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rtp", description=__doc__)
    parser.add_argument("--seed", type=int, default=None, help="root seed (overrides RTP_SEED)")
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synthesize", help="generate a synthetic transient corpus")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser("augment", help="physics-guided oversampling of a corpus")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--change", choices=sorted(CHANGE_BY_NAME), default="none")
    p.set_defaults(func=_cmd_augment)

    p = sub.add_parser("preprocess", help="normalize, bin, and encode a corpus")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--layout", required=True)
    p.add_argument("--balance", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_preprocess)

    p = sub.add_parser("train", help="train one model variant")
    p.add_argument("--variant", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None, help="JSON TrainingConfig overrides")
    p.add_argument("--out", required=True)
    p.add_argument("--stage1-model", default=None, help="classifier model (regressors only)")
    p.add_argument("--stage1-data", default=None, help="aligned classifier-layout data")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("compose", help="chain a classifier and a regressor")
    p.add_argument("--stage1", required=True)
    p.add_argument("--stage2", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("evaluate", help="evaluate a model against a transient CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--errors", default=None, help="per-sample CSV output")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("predict", help="joint predictions from a two-stage model")
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("pipeline", help="run the full experiment")
    p.add_argument("--config", default=None, help="JSON PipelineConfig file")
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=_cmd_pipeline)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DivergenceError as exc:
        print(f"numeric divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (
        ParseError,
        DataError,
        ModelFormatError,
        CompositionError,
        ShapeError,
        ProgressError,
        OSError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
