"""The calls the benchmark (perfbench/workloads.py) makes into rtp: on a
small a1+b2 model its reference answers, its online caller and its rtp
predict call must agree row for row, and its training clock must time every
train call of a pipeline run."""

import sys
from pathlib import Path

import pytest

from rtp import pipeline, training
from rtp.compose import load_two_stage
from rtp.pipeline import PipelineConfig, run_pipeline

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import rowgen  # noqa: E402
import workloads  # noqa: E402

ROWS = 300


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """A trained a1+b2 model file, a CSV of generated rows, and those rows as observations."""
    root = tmp_path_factory.mktemp("bench")
    run_pipeline(PipelineConfig(
        out_dir=root, corpus_n=300, augment_n=50, training_overrides={"max_epochs": 2},
        **workloads.PREDICT_VARIANTS,
    ))
    rows_csv = root / "rows.csv"
    rowgen.write_csv(rowgen.generate_rows(ROWS, seed=3), rows_csv)
    return root / "twostage.json", rows_csv, workloads.load_observations(rows_csv)


def test_benchmark_calls_agree(served, tmp_path):
    model_path, rows_csv, observations = served
    want = workloads.reference_answers(model_path, observations)
    assert len(want) == ROWS

    out_csv = tmp_path / "predictions.csv"
    assert workloads.cli_predict(model_path, rows_csv, out_csv) == 0
    by_cli = workloads.read_cli_answers(out_csv)

    latencies, online = workloads.online_calls(load_two_stage(model_path), observations, 0, ROWS)
    assert len(latencies) == ROWS

    problems = workloads.answer_problems(by_cli, want, "rtp predict")
    problems += workloads.answer_problems(online, want, "online calls")
    assert problems == []


def test_train_clock_times_every_train_call(tmp_path, monkeypatch):
    # TrainClock replaces both names for good; monkeypatch puts them back.
    monkeypatch.setattr(pipeline, "train", pipeline.train)
    monkeypatch.setattr(training, "backward_with_loss", training.backward_with_loss)
    clock = workloads.TrainClock()
    config = PipelineConfig(
        out_dir=tmp_path, corpus_n=300, augment_n=50, training_overrides={"max_epochs": 2}
    )
    run_pipeline(config)

    variants = [*config.classifier_ids, *config.regressor_ids]
    # Chain by chain, in classifier_ids order: a classifier, then the
    # regressors it feeds.
    assert [vid for vid, _, _ in clock.calls] == [
        "a1", "b2", "b1", "a2", "c1", "d1", "e1", "d2", "f1", "c2"
    ]
    assert all(seconds > 0 and rows > 0 for _, seconds, rows in clock.calls)
    # Every epoch but a call's last is timed, so two epochs give one row each.
    assert sorted(vid for vid, _, _ in clock.epochs) == sorted(variants)
    assert all(seconds > 0 and rows > 0 for _, seconds, rows in clock.epochs)
