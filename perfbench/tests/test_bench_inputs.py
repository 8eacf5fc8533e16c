import json
from pathlib import Path

import pytest

import layers
import rowgen
import workloads

ROOT = Path(__file__).resolve().parents[2]


def test_generator_is_deterministic_per_seed():
    assert rowgen.generate_rows(300, 7) == rowgen.generate_rows(300, 7)
    assert rowgen.generate_rows(300, 7) != rowgen.generate_rows(300, 8)
    assert rowgen.generate_rows(50, 7) == rowgen.generate_rows(300, 7)[:50]


def test_generated_rows_parse_as_rtp_input(tmp_path):
    from rtp.ingest import CSV_HEADER, parse_log, row_to_observation

    assert rowgen.HEADER == CSV_HEADER
    path = tmp_path / "rows.csv"
    rowgen.write_csv(rowgen.generate_rows(2000, 3), path)
    observations = [row_to_observation(row) for row in parse_log(path)]
    assert len(observations) == 2000
    assert all(obs.final.power != obs.initial.power for obs in observations)


def test_answer_check_tolerance():
    want = [(2, 0.5), (4, 0.9)]
    assert workloads.answer_problems([(2, 0.5 + 1e-13), (4, 0.9)], want, "x") == []
    assert workloads.answer_problems([(2, 0.5 + 1e-9), (4, 0.9)], want, "x")
    assert workloads.answer_problems([(1, 0.5), (4, 0.9)], want, "x")
    assert workloads.answer_problems([(2, 0.5)], want, "x")


def _report(a1_acc=0.93, a1_f1=0.92, aio_acc=0.4, within=0.97):
    classifiers = {vid: {"test_accuracy": 0.9, "test_macro_f1": 0.9} for vid in ("b1", "c1", "d1")}
    classifiers["a1"] = {"test_accuracy": a1_acc, "test_macro_f1": a1_f1}
    classifiers.update({vid: {"test_accuracy": aio_acc, "test_macro_f1": 0.4} for vid in ("e1", "f1")})
    regressors = {"b2": {"regression": {"conditional_within_0.10": within}}}
    return {"classifiers": classifiers, "regressors": regressors, "composed": {}}


@pytest.mark.parametrize(
    "kwargs, failing",
    [({}, 0), ({"a1_acc": 0.84}, 1), ({"a1_f1": 0.79}, 1), ({"aio_acc": 0.85}, 1),
     ({"within": 0.5, "a1_acc": 0.5}, 2)],
)
def test_acceptance_thresholds(kwargs, failing):
    assert len(workloads.acceptance_problems(_report(**kwargs))) == failing


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == workloads.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == layers.PER_LAYER


def test_train_rate_is_an_equal_mix_of_variants():
    # b costs twice a's time per row; more epochs of b must not move the rate.
    one = {"train_calls": [("a", 1.0, 1000), ("b", 2.0, 1000)], "train_epochs": []}
    more_b = {"train_calls": [("a", 1.0, 1000), ("b", 6.0, 3000)], "train_epochs": []}
    assert workloads.train_rate([one]) == pytest.approx(2 / 0.003)
    assert workloads.train_rate([more_b]) == pytest.approx(workloads.train_rate([one]))
    slow = {"train_calls": [("a", 1.5, 1000), ("b", 3.0, 1000)], "train_epochs": []}
    assert workloads.train_rate([slow, one]) == pytest.approx(workloads.train_rate([one]))


def test_train_rate_prefers_timed_epochs():
    # a's epochs are timed (the fastest at 0.5 ms per row), b's are not.
    epochs = [("a", 0.05, 100), ("a", 0.09, 100), ("a", 0.07, 100)]
    stats = {"train_calls": [("a", 1.0, 1000), ("b", 2.0, 1000)], "train_epochs": epochs}
    assert workloads.train_rate([stats]) == pytest.approx(2 / (0.0005 + 0.002))
