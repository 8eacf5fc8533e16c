"""Command-line entry point for the full prediction pipeline and its stages.

Exit codes: 0 success, 1 usage error, 2 data error (a malformed input, a
path that cannot be read or written, or an allocation that cannot be made),
3 numeric divergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from collections import Counter
from contextlib import contextmanager
from itertools import count

from .augment import ProgressError, over_sample
from .compose import (
    CompositionError,
    TwoStageModel,
    check_stage,
    load_any_model,
    load_two_stage,
    predict_arrays,
    save_two_stage,
)
from .domain import N_CLASSES, is_nonnegative_integer, settings_from
from .engine import ModelFormatError, ShapeError, save_model
from .files import writing
from .ingest import (
    CorpusSpec,
    DataError,
    ObservationTable,
    ParseError,
    csv_line,
    filter_report,
    read_chunks,
    synthesize_corpus,
    write_observations,
)
from .model_zoo import REGRESSOR_IDS
from .pipeline import PipelineConfig, check_overrides, fit_variant, run_pipeline, score
from .preprocess import LN_FULL_POWER, VARIANTS, EncodedTable, encode_table, undersample
from .training import DivergenceError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_DIVERGENCE = 3

CHANGE_BY_NAME = {"up": 1, "down": -1, "none": 0}


class UsageError(Exception):
    pass


# The errors of a malformed input; the library's messages name no file.
INPUT_ERRORS = (ParseError, DataError, ModelFormatError, CompositionError)


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; the CLI contract says 1.
    def error(self, message):
        raise UsageError(message)


@contextmanager
def _reading(path):
    """Prefix `path: ` to an input error raised inside the block, keeping its
    type; a byte that is not UTF-8 becomes a DataError the same way."""
    try:
        yield
    except INPUT_ERRORS as exc:
        raise type(exc)(f"{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _read_config(path, build):
    """build() of the JSON object in the --config file `path` ({} if none); refusals exit 1."""
    if path is None:
        return build({})
    try:
        with open(path) as handle:
            doc = json.load(handle)
        if not isinstance(doc, dict):
            raise ValueError("expected a JSON object")
        return build(doc)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _load_stage(path, stage: str, task: str):
    """The network in `path`, checked as the `task` network of `stage`."""
    with _reading(path):
        model = load_any_model(path)
        if isinstance(model, TwoStageModel):
            raise CompositionError(
                f"a two-stage model file, not a network; {stage} needs a {task} network file"
            )
        check_stage(stage, model, task)
    return model


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
    if args.n < 1:
        raise UsageError(f"--n must be an integer >= 1, got {args.n}")
    spec = CorpusSpec(n_observations=args.n, seed=_effective_seed(args))
    write_observations(synthesize_corpus(spec), args.out)
    if args.verbose:
        print(f"wrote {args.n} observations to {args.out}")
    return EXIT_OK


def _cmd_augment(args) -> int:
    if args.n < 0:
        raise UsageError(f"--n must be an integer >= 0, got {args.n}")
    table = ObservationTable.concat(list(_kept_rows(args.infile, "augment")))
    generated = over_sample(
        table, n=args.n, change=CHANGE_BY_NAME[args.change], seed=_effective_seed(args)
    )
    write_observations(generated, args.out)
    if args.verbose:
        print(f"wrote {len(generated)} augmented observations to {args.out}")
    return EXIT_OK


def _kept_rows(path, verb: str):
    """The rows of the CSV at `path` that the exclusion rules keep, a chunk at
    a time; once the file is read, DataError names the exclusions if none is left."""
    n = Counter()
    with _reading(path):
        for chunk in read_chunks(path):
            kept, counts = filter_report(chunk)
            n.update(dataclasses.asdict(counts))
            yield kept
        if not n["retained"]:
            tally = "{too_long} too long, {shutdown} shutdowns, {no_change} unchanged".format_map(n)
            raise DataError(f"no row left to {verb} (excluded: {tally})")


def _cmd_train(args) -> int:
    seed = _effective_seed(args)
    spec = VARIANTS[args.variant]
    overrides = _read_config(args.config, lambda doc: check_overrides(doc, [args.variant]))
    if spec.task == "classifier" and args.stage1_model is not None:
        raise UsageError(f"variant {args.variant} is a classifier; --stage1-model is for regressors")
    if spec.task == "regressor" and args.stage1_model is None:
        raise UsageError(f"variant {args.variant} is a regressor; --stage1-model is required")
    table = EncodedTable.concat(list(map(encode_table, _kept_rows(args.data, "train"))))
    if args.balance:
        with _reading(args.data):
            table = undersample(table, seed)
    stage1 = None
    if spec.task == "regressor":
        stage1 = _load_stage(args.stage1_model, "stage 1", "classifier")

    with _reading(args.data):
        trained, history = fit_variant(args.variant, table, seed, overrides, stage1)
    save_model(trained, args.out)
    if args.verbose:
        best = history.records[history.best_epoch - 1]
        print(
            f"trained {args.variant}: {history.n_epochs} epochs, "
            f"best epoch {history.best_epoch}, val_loss {best['val_loss']:.4f}"
        )
    return EXIT_OK


def _cmd_compose(args) -> int:
    stage1 = _load_stage(args.stage1, "stage 1", "classifier")
    model = TwoStageModel(stage1, _load_stage(args.stage2, "stage 2", "regressor"))
    save_two_stage(model, args.out)
    if args.verbose:
        print(f"composed {model.stage1.variant_id}+{model.stage2.variant_id} -> {args.out}")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    if args.errors is not None and os.path.realpath(args.errors) == os.path.realpath(args.out):
        raise UsageError(f"--errors and --out name the same file: {args.errors}")
    table = EncodedTable.concat(list(map(encode_table, _kept_rows(args.data, "evaluate"))))
    with _reading(args.model):
        model = load_any_model(args.model)
        if not isinstance(model, TwoStageModel):
            if model.variant_id in REGRESSOR_IDS:
                raise DataError(
                    f"{model.variant_id} is a regressor, which is evaluated through a "
                    "two-stage model (see rtp compose)"
                )
            check_stage("model", model, "classifier")

    predicted, abs_errors, report = score(model, table)
    extra = {} if abs_errors is None else {"abs_error_norm": abs_errors.tolist()}

    with writing(args.out) as handle:
        json.dump(report, handle, sort_keys=True, indent=2)
        handle.write("\n")
    if args.errors:
        header = ["row", "true_class", "predicted_class", *extra]
        columns = (table.class_index.tolist(), predicted.tolist(), *extra.values())
        with writing(args.errors) as handle:
            handle.write(csv_line(header))
            handle.writelines(csv_line(map(str, row)) for row in zip(count(1), *columns))
    if args.verbose:
        print(f"wrote report to {args.out}")
    return EXIT_OK


def _cmd_predict(args) -> int:
    with _reading(args.model):
        model = load_two_stage(args.model)
    prob_columns = [f"prob_{i}" for i in range(N_CLASSES)]
    header = ["row", *prob_columns, "predicted_class", "power_norm", "power_watts"]
    # One chunk at a time: read, encode, run both stages, write its lines.
    rows = count(1)
    with writing(args.out) as handle, _reading(args.infile):
        handle.write(csv_line(header))
        for chunk in read_chunks(args.infile):
            probs, classes, norm = predict_arrays(model, encode_table(chunk))
            # Element by element as denormalize_power, so each value keeps its bits.
            watts = map(math.exp, (norm * LN_FULL_POWER).tolist())
            # `rows` comes last: zip stops at the first exhausted input, so
            # it draws a number only for a row that has one.
            handle.writelines(
                csv_line((str(i), *map(repr, row_probs), str(predicted), repr(p_norm), repr(w)))
                for row_probs, predicted, p_norm, w, i in zip(
                    probs.tolist(), classes.tolist(), norm.tolist(), watts, rows
                )
            )
    if args.verbose:
        print(f"wrote {next(rows) - 1} predictions to {args.out}")
    return EXIT_OK


def _cmd_pipeline(args) -> int:
    config = _read_config(args.config, lambda doc: settings_from(PipelineConfig, doc))
    if args.out_dir is not None:
        try:
            config = dataclasses.replace(config, out_dir=args.out_dir)
        except ValueError as exc:
            raise UsageError(f"--out-dir: {exc}") from exc
    if args.seed is not None or "RTP_SEED" in os.environ:
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

    p = sub.add_parser("augment", help="physics-guided oversampling of a corpus")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--change", choices=sorted(CHANGE_BY_NAME), default="none")

    p = sub.add_parser("train", help="train one model variant")
    p.add_argument("--variant", required=True, choices=VARIANTS)
    p.add_argument("--data", required=True, help="transient CSV")
    p.add_argument("--balance", action="store_true", help="undersample to the minority class")
    p.add_argument("--config", default=None, help="JSON TrainingConfig overrides")
    p.add_argument("--out", required=True)
    p.add_argument("--stage1-model", default=None, help="classifier model (regressors only)")

    p = sub.add_parser("compose", help="chain a classifier and a regressor")
    p.add_argument("--stage1", required=True)
    p.add_argument("--stage2", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("evaluate", help="evaluate a model against a transient CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--errors", default=None, help="per-sample CSV output")

    p = sub.add_parser("predict", help="joint predictions from a two-stage model")
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("pipeline", help="run the full experiment")
    p.add_argument("--config", default=None, help="JSON PipelineConfig file")
    p.add_argument("--out-dir", default=None)
    return parser


# The parser, built on the first main call rather than at import.
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        # Looked up by name on each call, not bound into the cached parser.
        return globals()[f"_cmd_{args.command}"](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DivergenceError as exc:
        print(f"numeric divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (*INPUT_ERRORS, ShapeError, ProgressError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
