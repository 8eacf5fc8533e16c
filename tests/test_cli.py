"""End-to-end tests for the command-line interface."""

import csv
import json

import numpy as np
import pytest

from rtp import compose, seeds
from rtp.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from rtp.domain import config_for_date
from rtp.ingest import read_observations
from rtp.pipeline import PipelineConfig, run_pipeline
from rtp.preprocess import classify_power, read_encoded


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A corpus plus every downstream artifact, produced via the CLI."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus.csv"
    assert main(["--seed", "0", "synthesize", "--n", "120", "--out", str(corpus)]) == EXIT_OK

    train_config = root / "train.json"
    train_config.write_text(json.dumps({"max_epochs": 3, "early_stop_patience": 2}))

    for layout in ("a1", "b2"):
        assert (
            main(
                [
                    "--seed", "0",
                    "preprocess",
                    "--in", str(corpus),
                    "--layout", layout,
                    "--balance",
                    "--out", str(root / f"enc_{layout}.jsonl"),
                ]
            )
            == EXIT_OK
        )

    assert (
        main(
            [
                "--seed", "0",
                "train",
                "--variant", "a1",
                "--data", str(root / "enc_a1.jsonl"),
                "--config", str(train_config),
                "--out", str(root / "model_a1.json"),
            ]
        )
        == EXIT_OK
    )
    assert (
        main(
            [
                "--seed", "0",
                "train",
                "--variant", "b2",
                "--data", str(root / "enc_b2.jsonl"),
                "--config", str(train_config),
                "--stage1-model", str(root / "model_a1.json"),
                "--stage1-data", str(root / "enc_a1.jsonl"),
                "--out", str(root / "model_b2.json"),
            ]
        )
        == EXIT_OK
    )
    assert (
        main(
            [
                "compose",
                "--stage1", str(root / "model_a1.json"),
                "--stage2", str(root / "model_b2.json"),
                "--out", str(root / "twostage.json"),
            ]
        )
        == EXIT_OK
    )
    return root


class TestArtifacts:
    def test_corpus_parses(self, workdir):
        assert len(read_observations(workdir / "corpus.csv")) == 120

    def test_balanced_encodings_align(self, workdir):
        a1 = read_encoded(workdir / "enc_a1.jsonl")
        b2 = read_encoded(workdir / "enc_b2.jsonl")
        assert len(a1) == len(b2) > 0
        # Same seed and labels, so the balanced row order matches across layouts.
        np.testing.assert_array_equal(a1.class_index, b2.class_index)

    def test_augment(self, workdir, tmp_path):
        out = tmp_path / "augmented.csv"
        code = main(
            [
                "--seed", "1",
                "augment",
                "--in", str(workdir / "corpus.csv"),
                "--out", str(out),
                "--n", "40",
                "--change", "up",
            ]
        )
        assert code == EXIT_OK
        assert len(read_observations(out)) == 40

    def test_evaluate_classifier(self, workdir, tmp_path):
        report_path = tmp_path / "report.json"
        errors_path = tmp_path / "errors.csv"
        code = main(
            [
                "evaluate",
                "--model", str(workdir / "model_a1.json"),
                "--data", str(workdir / "corpus.csv"),
                "--out", str(report_path),
                "--errors", str(errors_path),
            ]
        )
        assert code == EXIT_OK
        report = json.loads(report_path.read_text())
        assert 0.0 <= report["classification"]["accuracy"] <= 1.0
        with open(errors_path) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["row", "true_class", "predicted_class"]
        assert len(rows) == 121

    def test_evaluate_two_stage(self, workdir, tmp_path):
        report_path = tmp_path / "report.json"
        code = main(
            [
                "evaluate",
                "--model", str(workdir / "twostage.json"),
                "--data", str(workdir / "corpus.csv"),
                "--out", str(report_path),
            ]
        )
        assert code == EXIT_OK
        report = json.loads(report_path.read_text())
        assert "regression" in report
        assert report["regression"]["n_samples"] == 120

    def test_predict(self, workdir, tmp_path):
        out = tmp_path / "predictions.csv"
        code = main(
            [
                "predict",
                "--model", str(workdir / "twostage.json"),
                "--in", str(workdir / "corpus.csv"),
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        with open(out) as handle:
            rows = list(csv.reader(handle))
        assert rows[0][:2] == ["row", "prob_0"]
        assert len(rows) == 121
        probs = [float(v) for v in rows[1][1:6]]
        assert sum(probs) == pytest.approx(1.0, abs=1e-9)

    def test_predict_runs_the_file_in_one_batch(self, workdir, tmp_path, monkeypatch):
        calls = []
        original = compose.forward

        def counting_forward(model, inputs):
            calls.append(len(next(iter(inputs.values()))))
            return original(model, inputs)

        monkeypatch.setattr(compose, "forward", counting_forward)
        code = main(
            [
                "predict",
                "--model", str(workdir / "twostage.json"),
                "--in", str(workdir / "corpus.csv"),
                "--out", str(tmp_path / "predictions.csv"),
            ]
        )
        assert code == EXIT_OK
        assert calls == [120, 120]  # one forward per stage, over every row

    def test_predict_matches_per_row_predict(self, workdir, tmp_path):
        out = tmp_path / "predictions.csv"
        args = ["--model", str(workdir / "twostage.json"), "--in", str(workdir / "corpus.csv")]
        assert main(["predict", *args, "--out", str(out)]) == EXIT_OK
        with open(out) as handle:
            rows = list(csv.DictReader(handle))
        model = compose.load_two_stage(workdir / "twostage.json")
        observations = read_observations(workdir / "corpus.csv")
        assert len(rows) == len(observations)
        for row, obs in zip(rows, observations):
            single = compose.predict(model, obs, config_for_date(obs.date))
            assert int(row["predicted_class"]) == single.predicted_class
            assert abs(float(row["power_norm"]) - single.power_norm) <= 1e-12

    def test_predict_names_zero_change_row(self, workdir, tmp_path, capsys):
        with open(workdir / "corpus.csv") as handle:
            rows = list(csv.reader(handle))
        header = rows[0]
        rows[3][header.index("final_power_w")] = rows[3][header.index("initial_power_w")]
        bad = tmp_path / "zero.csv"
        with open(bad, "w", newline="") as handle:
            csv.writer(handle).writerows(rows)
        out = tmp_path / "predictions.csv"
        code = main(
            ["predict", "--model", str(workdir / "twostage.json"), "--in", str(bad), "--out", str(out)]
        )
        assert code == EXIT_DATA
        assert "row 3: zero-change transient has no direction" in capsys.readouterr().err


class TestPipelineCommand:
    def test_pipeline_with_config_file(self, tmp_path):
        out_dir = tmp_path / "artifacts"
        config = tmp_path / "pipeline.json"
        config.write_text(
            json.dumps(
                {
                    "out_dir": str(out_dir),
                    "seed": 0,
                    "corpus_n": 300,
                    "augment_n": 150,
                    "classifier_ids": ["a1"],
                    "regressor_ids": ["b2"],
                    "compose_pair": ["a1", "b2"],
                    "training_overrides": {"max_epochs": 2},
                }
            )
        )
        assert main(["pipeline", "--config", str(config)]) == EXIT_OK
        report = json.loads((out_dir / "report.json").read_text())
        assert set(report["classifiers"]) == {"a1"}
        assert set(report["regressors"]) == {"b2"}
        assert (out_dir / "twostage.json").exists()
        assert (out_dir / "corpus.csv").exists()


    def test_pipeline_without_variants_balances_the_pool(self, tmp_path):
        config = PipelineConfig(
            out_dir=tmp_path, corpus_n=300, augment_n=50, classifier_ids=(), regressor_ids=()
        )
        report = run_pipeline(config)
        assert report["classifiers"] == report["regressors"] == {}
        assert "composed" not in report
        pool = read_observations(tmp_path / "corpus.csv")
        augmented = read_observations(tmp_path / "augmented.csv")
        assert len(pool) == 300 and len(augmented) == 50
        # The balanced count is five times the minority class of the training
        # pool (training split plus augmentation), by the scalar class rule.
        split = seeds.substream(0, "split").permutation(300)
        train_pool = [pool[i] for i in split[round(0.3 * 300):]] + augmented
        counts = np.bincount([classify_power(o.final.power) for o in train_pool], minlength=5)
        assert report["balanced_n"] == 5 * counts.min() > 0


class TestExitCodes:
    def test_unknown_layout_is_usage_error(self, workdir):
        code = main(
            [
                "preprocess",
                "--in", str(workdir / "corpus.csv"),
                "--layout", "q9",
                "--out", "/dev/null",
            ]
        )
        assert code == EXIT_USAGE

    def test_missing_required_flag_is_usage_error(self):
        assert main(["synthesize", "--n", "10"]) == EXIT_USAGE

    def test_missing_file_is_data_error(self, tmp_path):
        code = main(
            [
                "preprocess",
                "--in", str(tmp_path / "nope.csv"),
                "--layout", "a1",
                "--out", str(tmp_path / "out.jsonl"),
            ]
        )
        assert code == EXIT_DATA

    def test_malformed_csv_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("nope\n")
        code = main(
            [
                "preprocess",
                "--in", str(bad),
                "--layout", "a1",
                "--out", str(tmp_path / "out.jsonl"),
            ]
        )
        assert code == EXIT_DATA

    def test_regressor_without_stage1_is_usage_error(self, workdir):
        code = main(
            [
                "train",
                "--variant", "b2",
                "--data", str(workdir / "enc_b2.jsonl"),
                "--out", "/dev/null",
            ]
        )
        assert code == EXIT_USAGE


    def test_train_on_record_without_field_names_file_and_line(self, workdir, tmp_path, capsys):
        lines = (workdir / "enc_a1.jsonl").read_text().splitlines()
        doc = json.loads(lines[1])
        del doc["initial_branch"]
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join([lines[0], json.dumps(doc), *lines[2:]]) + "\n")
        code = main(
            ["train", "--variant", "a1", "--data", str(bad), "--out", str(tmp_path / "m.json")]
        )
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "bad.jsonl line 2" in err and "initial_branch" in err
        assert "Traceback" not in err

    def test_train_on_csv_names_file_and_line(self, workdir, tmp_path, capsys):
        code = main(
            [
                "train",
                "--variant", "a1",
                "--data", str(workdir / "corpus.csv"),
                "--out", str(tmp_path / "m.json"),
            ]
        )
        assert code == EXIT_DATA
        assert "corpus.csv line 1:" in capsys.readouterr().err

    def test_unchained_model_file_is_data_error(self, workdir, tmp_path, capsys):
        doc = json.loads((workdir / "model_a1.json").read_text())
        first_trunk = next(i for i, layer in enumerate(doc["layers"]) if layer["branch"] == "trunk")
        del doc["layers"][first_trunk]
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))
        code = main(
            [
                "evaluate",
                "--model", str(broken),
                "--data", str(workdir / "corpus.csv"),
                "--out", str(tmp_path / "report.json"),
            ]
        )
        assert code == EXIT_DATA
        assert "broken.json" in capsys.readouterr().err

    def test_evaluate_names_model_file_that_is_not_json(self, workdir, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json\n")
        code = main(
            [
                "evaluate",
                "--model", str(bad),
                "--data", str(workdir / "corpus.csv"),
                "--out", str(tmp_path / "report.json"),
            ]
        )
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert f"model file {bad}: Expecting value" in err
        assert "Traceback" not in err

    def test_unknown_train_config_key_is_usage_error(self, workdir, tmp_path, capsys):
        config = tmp_path / "train.json"
        config.write_text(json.dumps({"bogus": 1}))
        code = main(
            [
                "train",
                "--variant", "a1",
                "--data", str(workdir / "enc_a1.jsonl"),
                "--config", str(config),
                "--out", str(tmp_path / "model.json"),
            ]
        )
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "bogus" in err and "train.json" in err

    def test_unknown_pipeline_config_key_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "pipeline.json"
        config.write_text(json.dumps({"bogus": 1}))
        assert main(["pipeline", "--config", str(config)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "bogus" in err and "pipeline.json" in err

    def test_unknown_training_override_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "pipeline.json"
        config.write_text(json.dumps({"training_overrides": {"bogus": 1}}))
        assert main(["pipeline", "--config", str(config)]) == EXIT_USAGE
        assert "bogus" in capsys.readouterr().err

    def test_negative_augment_count_is_usage_error(self, workdir, tmp_path):
        out = tmp_path / "augmented.csv"
        code = main(
            ["augment", "--in", str(workdir / "corpus.csv"), "--out", str(out), "--n", "-5"]
        )
        assert code == EXIT_USAGE
        assert not out.exists()


class TestSeedHandling:
    def test_non_integer_env_seed_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("RTP_SEED", "abc")
        code = main(["synthesize", "--n", "10", "--out", str(tmp_path / "corpus.csv")])
        assert code == EXIT_USAGE
        assert "RTP_SEED" in capsys.readouterr().err

    def test_env_seed_matches_flag(self, tmp_path, monkeypatch):
        by_flag = tmp_path / "flag.csv"
        by_env = tmp_path / "env.csv"
        main(["--seed", "5", "synthesize", "--n", "30", "--out", str(by_flag)])
        monkeypatch.setenv("RTP_SEED", "5")
        main(["synthesize", "--n", "30", "--out", str(by_env)])
        assert by_flag.read_bytes() == by_env.read_bytes()

    def test_flag_overrides_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RTP_SEED", "5")
        by_flag = tmp_path / "flag.csv"
        reference = tmp_path / "ref.csv"
        main(["--seed", "6", "synthesize", "--n", "30", "--out", str(by_flag)])
        monkeypatch.delenv("RTP_SEED")
        main(["--seed", "6", "synthesize", "--n", "30", "--out", str(reference)])
        assert by_flag.read_bytes() == reference.read_bytes()
