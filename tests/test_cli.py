"""End-to-end tests for the command-line interface."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rtp import cli, compose, seeds
from rtp.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from rtp.domain import DEFAULT_CONFIGS, config_for_date
from rtp.engine import forward, save_model
from rtp.ingest import ObservationTable, read_log, read_observations, row_to_observation
from rtp.model_zoo import build_variant, model_inputs, pair_for_regressor
from rtp.pipeline import PipelineConfig, run_pipeline
from rtp.preprocess import (
    LAYOUTS,
    classify_power,
    encode_table,
    read_encoded,
    undersample_indices,
    write_encoded,
)


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
        a1 = read_encoded(workdir / "enc_a1.jsonl", "a1")
        b2 = read_encoded(workdir / "enc_b2.jsonl", "b2")
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

    def test_evaluate_single_regressor_names_file(self, workdir, tmp_path, capsys):
        model = workdir / "model_b2.json"
        report_path = tmp_path / "report.json"
        code = main(["evaluate", "--model", str(model), "--data", str(workdir / "corpus.csv"),
                     "--out", str(report_path)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert f"model file {model}: b2 is a regressor" in err
        assert "two-stage model" in err and "Traceback" not in err
        assert not report_path.exists()

    @pytest.mark.parametrize("model", ["model_a1.json", "twostage.json"])
    def test_evaluate_errors_match_csv_writer(self, workdir, tmp_path, model):
        # Byte for byte what the csv module writes for the same rows.
        errors_path = tmp_path / "errors.csv"
        args = ["--model", str(workdir / model), "--data", str(workdir / "corpus.csv")]
        assert main(["evaluate", *args, "--out", str(tmp_path / "report.json"),
                     "--errors", str(errors_path)]) == EXIT_OK
        loaded = compose.load_any_model(workdir / model)
        observations = read_observations(workdir / "corpus.csv")
        table = encode_table(observations, DEFAULT_CONFIGS)
        expected = tmp_path / "expected.csv"
        with open(expected, "w", newline="") as handle:
            writer = csv.writer(handle)
            if isinstance(loaded, compose.TwoStageModel):
                scores = compose.evaluate_two_stage(loaded, table)
                writer.writerow(["row", "true_class", "predicted_class", "abs_error_norm"])
                writer.writerows(zip(
                    range(1, len(observations) + 1), scores.true_classes.tolist(),
                    scores.predicted_classes.tolist(), scores.regression.abs_errors.tolist(),
                ))
            else:
                out = forward(loaded, model_inputs(table, "a1"))
                writer.writerow(["row", "true_class", "predicted_class"])
                writer.writerows(zip(
                    range(1, len(observations) + 1), table.class_index.tolist(),
                    np.argmax(out, axis=1).tolist(),
                ))
        assert errors_path.read_bytes() == expected.read_bytes()

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
        original = compose.run_layers

        def counting_run_layers(model, branch_inputs, aux):
            calls.append(len(branch_inputs[0]))
            return original(model, branch_inputs, aux)

        monkeypatch.setattr(compose, "run_layers", counting_run_layers)
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
        for row, obs in zip(rows, map(row_to_observation, observations.rows())):
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


    def test_predict_output_matches_csv_writer(self, workdir, tmp_path):
        # Byte for byte what the csv module writes for the same predictions,
        # with repr of every float.
        out = tmp_path / "predictions.csv"
        args = ["--model", str(workdir / "twostage.json"), "--in", str(workdir / "corpus.csv")]
        assert main(["predict", *args, "--out", str(out)]) == EXIT_OK
        model = compose.load_two_stage(workdir / "twostage.json")
        table = encode_table(read_log(workdir / "corpus.csv"), DEFAULT_CONFIGS)
        expected = tmp_path / "expected.csv"
        with open(expected, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(
                ["row"] + [f"prob_{i}" for i in range(5)] + ["predicted_class", "power_norm", "power_watts"]
            )
            writer.writerows(
                [i, *[repr(v) for v in p.class_probs], p.predicted_class, repr(p.power_norm), repr(p.power_watts)]
                for i, p in enumerate(compose.predict_batch(model, table, table), start=1)
            )
        assert out.read_bytes() == expected.read_bytes()

    def test_predict_reads_format1_model_files(self, workdir, tmp_path):
        # The committed format-1 fixture and its format-2 rewrite predict the same bytes.
        v1 = Path(__file__).parent / "fixtures" / "twostage_v1.json"
        v2 = tmp_path / "twostage_v2.json"
        compose.save_two_stage(compose.load_two_stage(v1), v2)
        outputs = []
        for model in (v1, v2):
            out = tmp_path / f"{model.stem}.csv"
            args = ["--model", str(model), "--in", str(workdir / "corpus.csv"), "--out", str(out)]
            assert main(["predict", *args]) == EXIT_OK
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_zero_change_row_number_counts_blank_lines(self, workdir, tmp_path, capsys):
        with open(workdir / "corpus.csv") as handle:
            rows = list(csv.reader(handle))
        header = rows[0]
        rows[4][header.index("final_power_w")] = rows[4][header.index("initial_power_w")]
        bad = tmp_path / "zero.csv"
        with open(bad, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerows(rows[:4])
            handle.write("\r\n")  # data row 4 is blank; the zero-change row is data row 5
            writer.writerows(rows[4:])
        out = tmp_path / "predictions.csv"
        code = main(
            ["predict", "--model", str(workdir / "twostage.json"), "--in", str(bad), "--out", str(out)]
        )
        assert code == EXIT_DATA
        assert "error: row 5: zero-change transient has no direction" in capsys.readouterr().err


class TestPinnedOutputs:
    # sha256 of each file as the parent of the columnar pipeline wrote it; a
    # change to the corpus generator, the sampler or the CSV writer shows here.
    SYNTHESIZE_SHA256 = "2e24041dafd17296bf4d30c66057f381af0b62be0ee6a30e32c6050fb4490fe3"
    AUGMENT_SHA256 = "2d9bc4e1bf7d7de2c62aa3831e617b3368b22b418fcc81c3acd6e8d2300143eb"

    def test_synthesize_and_augment_bytes(self, tmp_path):
        corpus, augmented = tmp_path / "corpus.csv", tmp_path / "augmented.csv"
        assert main(["--seed", "0", "synthesize", "--n", "300", "--out", str(corpus)]) == EXIT_OK
        assert main(["--seed", "0", "augment", "--in", str(corpus), "--n", "100",
                     "--change", "up", "--out", str(augmented)]) == EXIT_OK
        assert hashlib.sha256(corpus.read_bytes()).hexdigest() == self.SYNTHESIZE_SHA256
        assert hashlib.sha256(augmented.read_bytes()).hexdigest() == self.AUGMENT_SHA256

    # sha256 of every file a small pipeline writes, taken before the training
    # step was made in place: Adam (a1, b2, d2) and SGD (e1), branched (a1, b2)
    # and all-in-one (e1, d2) models, and the report with every best_val_loss.
    # The digests hold for one BLAS thread on the same numpy build.
    PIPELINE_SHA256 = {
        "augmented.csv": "45afe6176368855ade5f130d1a58be54f21faf629cda9cff9efff972d5e29172",
        "corpus.csv": "0ab8c35e6ba3483330735e98b603201c01044aa8917867258481d8e7fe74a26d",
        "model_a1.json": "dea0c26ff85babccfafa1cb4b871274ba5421b5b8fcca91d3ce6b87b351cb7ee",
        "model_b2.json": "a8eb3475c7a1e8e819f1b6ace1782871f3b93acb58dc53abcd44d7d1d6eeccaa",
        "model_d2.json": "1c108ed9607f1eb0ab85d8a9b98d69cb4c0679e7223104058f958b40a1554349",
        "model_e1.json": "5f52b176511cfcf2bed56d5ff520bb32baebe9ea51b1b12031cb68bac5e641f9",
        "report.json": "68d3892cf69f3b3700a6f3a1886bbaa63b860d15a12395123a386b4182f9251b",
        "twostage.json": "56ba06799675d0e3fd5c88fee6bb7e264121d3a913cb4dd51eed0a9d425cb789",
    }

    # Two BLAS threads must give the one-thread bytes too.
    @pytest.mark.parametrize("blas_threads", ["1", "2"])
    def test_trained_pipeline_bytes(self, tmp_path, blas_threads):
        config = tmp_path / "pipeline.json"
        config.write_text(json.dumps({
            "seed": 0, "corpus_n": 600, "augment_n": 150,
            "classifier_ids": ["a1", "e1"], "regressor_ids": ["b2", "d2"],
        }))
        out_dir = tmp_path / "out"
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[name] = blas_threads
        subprocess.run(
            [sys.executable, "-m", "rtp.cli", "pipeline", "--config", str(config),
             "--out-dir", str(out_dir)],
            env=env, check=True, timeout=300,
        )
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in out_dir.iterdir()}
        assert digests == self.PIPELINE_SHA256


class TestPinnedCommandBytes:
    # sha256 of each command's output on the module's seed-0 corpus and
    # models, taken before encoding became one layout-free feature matrix.
    # The digests hold for the same numpy build.
    COMMANDS = {
        "preprocess-a1": ["preprocess", "--in", "{corpus}", "--layout", "a1", "--out", "{out}"],
        "preprocess-a1-balance": [
            "--seed", "3", "preprocess", "--in", "{corpus}", "--layout", "a1", "--balance", "--out", "{out}"
        ],
        "preprocess-e1": ["preprocess", "--in", "{corpus}", "--layout", "e1", "--out", "{out}"],
        "preprocess-e1-balance": [
            "--seed", "3", "preprocess", "--in", "{corpus}", "--layout", "e1", "--balance", "--out", "{out}"
        ],
        "predict": ["predict", "--model", "{twostage}", "--in", "{corpus}", "--out", "{out}"],
        "evaluate-two-stage": [
            "evaluate", "--model", "{twostage}", "--data", "{corpus}", "--out", "{out}", "--errors", "{errors}"
        ],
        "evaluate-classifier": [
            "evaluate", "--model", "{a1}", "--data", "{corpus}", "--out", "{out}", "--errors", "{errors}"
        ],
    }
    SHA256 = {
        "preprocess-a1": ["0e8a77b26abf15a4e79f41d5d15fca22feaef9a4d4b62ab86fc6bf64d2b141c2"],
        "preprocess-a1-balance": ["ff88d9223495cbd4e716e9d22ebc1723c92db0814e90cbc5a24164ecae0b0b4d"],
        "preprocess-e1": ["a0110918d91e925cd70b78f66c4086f64cf0c54317a4cc3fa458702c333d0e83"],
        "preprocess-e1-balance": ["3c240a2c476da393d6feff969f67438508fe44cb1490c51b41597d97156f423e"],
        "predict": ["4841dbfdf3fcd6fe07535dfa746c28512fc8c28c317cdd3a8a210aeb8d458b5a"],
        "evaluate-two-stage": [
            "35b4e381a0cf818b30f10f6b372f1ee8c1ae741ef209d00239a3fb6c03c2b64b",
            "556dbd6a50b0cf4e7f0c56c0fadc85f52ee6d3eee549dc5a71f6f0cc24f9d188",
        ],
        "evaluate-classifier": [
            "ce90173f67b883732337705e0f8a8e3a5ecfecced739604211a7ab1d16eb947a",
            "d1d12096aee74f4618c4f8a76ce9037ef49d809848a65513494929d75cb21107",
        ],
    }

    @pytest.mark.parametrize("name", COMMANDS)
    def test_command_output_bytes(self, workdir, tmp_path, name):
        paths = {
            "corpus": workdir / "corpus.csv",
            "twostage": workdir / "twostage.json",
            "a1": workdir / "model_a1.json",
            "out": tmp_path / "out",
            "errors": tmp_path / "errors",
        }
        assert main([arg.format(**paths) for arg in self.COMMANDS[name]]) == EXIT_OK
        digests = [hashlib.sha256(paths["out"].read_bytes()).hexdigest()]
        if paths["errors"].exists():
            digests.append(hashlib.sha256(paths["errors"].read_bytes()).hexdigest())
        assert digests == self.SHA256[name]


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
        train_pool = ObservationTable.concat([pool.take(split[round(0.3 * 300):]), augmented])
        counts = np.bincount([classify_power(p) for p in train_pool.powers[:, 1].tolist()], minlength=5)
        assert report["balanced_n"] == 5 * counts.min() > 0

    def test_train_writes_the_pipeline_models(self, tmp_path):
        # rtp train on the pipeline's own balanced rows writes the pipeline's
        # model files byte for byte: both take the same variant path.
        seed, ids = 7, ["a1", "e1", "b2", "d2"]
        pipeline_dir = tmp_path / "pipeline"
        overrides = {"max_epochs": 4}
        config = tmp_path / "pipeline.json"
        config.write_text(json.dumps({
            "out_dir": str(pipeline_dir), "corpus_n": 600, "augment_n": 100,
            "classifier_ids": ids[:2], "regressor_ids": ids[2:], "training_overrides": overrides,
        }))
        assert main(["--seed", str(seed), "pipeline", "--config", str(config)]) == EXIT_OK

        corpus = read_observations(pipeline_dir / "corpus.csv")
        split = seeds.substream(seed, "split").permutation(len(corpus))
        train_pool = ObservationTable.concat([
            corpus.take(split[round(0.3 * len(corpus)):]),
            read_observations(pipeline_dir / "augmented.csv"),
        ])
        table = encode_table(train_pool, DEFAULT_CONFIGS)
        balanced = undersample_indices(table.class_index.tolist(), seeds.subseed(seed, "balance"))
        train_config = tmp_path / "train.json"
        train_config.write_text(json.dumps(overrides))
        for vid in ids:
            write_encoded(table.take(balanced), LAYOUTS[vid], tmp_path / f"enc_{vid}.jsonl")
        for vid in ids:
            command = ["--seed", str(seed), "train", "--variant", vid,
                       "--data", str(tmp_path / f"enc_{vid}.jsonl"),
                       "--config", str(train_config), "--out", str(tmp_path / f"model_{vid}.json")]
            if vid in ids[2:]:
                cid = pair_for_regressor(vid)
                command += ["--stage1-model", str(tmp_path / f"model_{cid}.json"),
                            "--stage1-data", str(tmp_path / f"enc_{cid}.jsonl")]
            assert main(command) == EXIT_OK
            trained = (tmp_path / f"model_{vid}.json").read_bytes()
            assert trained == (pipeline_dir / f"model_{vid}.json").read_bytes(), vid


    def test_pool_missing_a_class_names_the_balance_stage(self, tmp_path, capsys):
        config = tmp_path / "pipeline.json"
        config.write_text(json.dumps({
            "out_dir": str(tmp_path / "out"), "corpus_n": 3, "augment_n": 10,
            "classifier_ids": ["a1"], "regressor_ids": [],
        }))
        assert main(["pipeline", "--config", str(config)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: balance stage: class ")
        assert err.endswith(
            "in the training pool of 12 rows; corpus_n (3) and augment_n (10) size the pool\n"
        )
        assert not (tmp_path / "out" / "corpus.csv").exists()
        assert not (tmp_path / "out" / "augmented.csv").exists()


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

    @pytest.mark.parametrize(
        "start, end, field",
        [
            ("10:00", "10:30+01:00", "end_time"),
            ("10:00+01:00", "10:30", "start_time"),
            ("10:00+00:00", "10:30+05:00", "start_time"),
        ],
    )
    def test_time_with_utc_offset_is_data_error(self, workdir, tmp_path, capsys, start, end, field):
        header = (workdir / "corpus.csv").read_text().splitlines()[0]
        bad = tmp_path / "offset.csv"
        bad.write_text(f"{header}\n2014-06-01,{start},{end},100.0,1000.0,5,5,5,5,6,6,6,6\n")
        code = main(["predict", "--model", str(workdir / "twostage.json"), "--in", str(bad),
                     "--out", str(tmp_path / "predictions.csv")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"error: row 1: field '{field}': ")
        assert "has a UTC offset" in err and "Traceback" not in err

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

    # Each command with a path it cannot read or write, and that path.
    PREDICT = ["predict", "--model", "{model}", "--in", "{rows}", "--out", "{out}"]
    AUGMENT = ["augment", "--in", "{dir}", "--out", "{out}", "--n", "5"]
    TRAIN = ["train", "--variant", "a1", "--data", "{latin}", "--out", "{out}"]
    PATH_ERRORS = {
        "model-is-a-directory": (PREDICT, {"model": "dir"}, "dir"),
        "out-is-a-directory": (PREDICT, {"out": "dir"}, "dir"),
        "in-is-a-directory": (AUGMENT, {}, "dir"),
        "out-dir-is-a-file": (["pipeline", "--out-dir", "{file}"], {}, "file"),
        "model-not-utf8": (PREDICT, {"model": "latin"}, "latin"),
        "csv-not-utf8": (PREDICT, {"rows": "latin"}, "latin"),
        "jsonl-not-utf8": (TRAIN, {}, "latin"),
    }

    @pytest.mark.parametrize("command,swap,named", PATH_ERRORS.values(), ids=PATH_ERRORS)
    def test_path_and_encoding_errors_are_data_errors(
        self, workdir, tmp_path, capsys, command, swap, named
    ):
        paths = {
            "model": workdir / "twostage.json",
            "rows": workdir / "corpus.csv",
            "out": tmp_path / "out",
            "dir": tmp_path / "a-directory",
            "file": tmp_path / "a-file",
            "latin": tmp_path / "latin.txt",
        }
        paths.update({flag: paths[name] for flag, name in swap.items()})
        paths["dir"].mkdir()
        paths["file"].write_text("")
        header = (workdir / "corpus.csv").read_bytes().splitlines()[0]
        paths["latin"].write_bytes(header + "\nДата\n".encode("cp1251"))
        assert main([arg.format(**paths) for arg in command]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(paths[named]) in err
        assert "Traceback" not in err
        if named == "latin":
            assert "'utf-8' codec can't decode byte 0xc4" in err

    @pytest.mark.parametrize(
        "stage1, message",
        [
            ("b2", "stage 1 variant b2 is not a classifier"),
            ("c1", "stage 1 (c1) aux width 1 != expected 0"),
        ],
    )
    def test_train_refuses_a_stage1_model_that_is_not_its_classifier(
        self, workdir, tmp_path, capsys, stage1, message
    ):
        model = tmp_path / f"model_{stage1}.json"
        if stage1 == "b2":
            model.write_bytes((workdir / "model_b2.json").read_bytes())
        else:
            relabelled = build_variant("a1", seed=0)
            relabelled.variant_id = "c1"  # a1 takes the direction as aux, c1 does not
            save_model(relabelled, model)
        out = tmp_path / "out.json"
        code = main([
            "train", "--variant", "b2", "--data", str(workdir / "enc_b2.jsonl"),
            "--stage1-model", str(model), "--stage1-data", str(workdir / "enc_a1.jsonl"),
            "--out", str(out),
        ])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == f"error: model file {model}: {message}\n"
        assert not out.exists()

    def test_train_data_without_the_variants_columns_names_file_and_variant(self, workdir, capsys):
        data = workdir / "enc_a1.jsonl"
        code = main(["train", "--variant", "b1", "--data", str(data), "--out", "/dev/null"])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == (
            f"error: {data}: its a1 layout lacks features that variant b1 reads\n"
        )

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

    @pytest.mark.parametrize(
        "stage, variant_id, message",
        [
            ("stage1", "zz", "stage 1 has no recognized variant id"),
            ("stage2", "a1", "stage 2 variant a1 is not a regressor"),
        ],
    )
    def test_two_stage_file_that_does_not_compose_names_file(
        self, workdir, tmp_path, capsys, stage, variant_id, message
    ):
        doc = json.loads((workdir / "twostage.json").read_text())
        doc[stage]["variant_id"] = variant_id
        bad = tmp_path / "twostage.json"
        bad.write_text(json.dumps(doc))
        data = str(workdir / "corpus.csv")
        commands = [
            ["predict", "--model", str(bad), "--in", data, "--out", str(tmp_path / "p.csv")],
            ["evaluate", "--model", str(bad), "--data", data, "--out", str(tmp_path / "r.json")],
        ]
        for command in commands:
            assert main(command) == EXIT_DATA
            err = capsys.readouterr().err
            assert f"error: model file {bad}: {message}" in err
            assert "Traceback" not in err

    def test_stage_with_another_layouts_widths_is_refused_at_load(
        self, workdir, tmp_path, monkeypatch, capsys
    ):
        relabelled = build_variant("a2", seed=0)
        relabelled.variant_id = "b2"  # a2 reads rod heights, b2 reactivities
        stage2 = tmp_path / "model_b2.json"
        save_model(relabelled, stage2)
        message = "stage 2 (b2) branch 'initial' takes 5 inputs, the b2 layout gives 2"

        composed = tmp_path / "composed.json"
        code = main(["compose", "--stage1", str(workdir / "model_a1.json"),
                     "--stage2", str(stage2), "--out", str(composed)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err == f"error: stage 1 {workdir / 'model_a1.json'}, stage 2 {stage2}: {message}\n"
        assert not composed.exists()

        bad = tmp_path / "twostage.json"
        bad.write_text(json.dumps({
            "format_version": 2, "kind": "two-stage",
            "stage1": json.loads((workdir / "model_a1.json").read_text()),
            "stage2": json.loads(stage2.read_text()),
        }))

        def no_read(path):
            raise AssertionError(f"read {path} before the model was checked")

        monkeypatch.setattr(cli, "read_log", no_read)
        code = main(["predict", "--model", str(bad), "--in", str(workdir / "corpus.csv"),
                     "--out", str(tmp_path / "predictions.csv")])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == f"error: model file {bad}: {message}\n"
        assert not (tmp_path / "predictions.csv").exists()

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

    INVALID_TRAINING = [
        ("batch_size", -3),
        ("batch_size", 0),
        ("batch_size", 2.5),
        ("learning_rate", -1.0),
        ("adam_betas", [1.0, 0.999]),
        ("adam_eps", 0.0),
        ("max_epochs", 0),
        ("early_stop_patience", True),
        ("check_fraction", "0.3"),
        ("early_stop_min_delta", "0.1"),
        ("seed", "x"),
    ]

    @pytest.mark.parametrize("key,value", INVALID_TRAINING)
    def test_invalid_training_override_is_usage_error(self, tmp_path, capsys, key, value):
        config = tmp_path / "pipeline.json"
        config.write_text(json.dumps({
            "out_dir": str(tmp_path / "out"), "corpus_n": 300,
            "classifier_ids": ["a1"], "regressor_ids": [],
            "training_overrides": {key: value},
        }))
        assert main(["pipeline", "--config", str(config)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"config file {config}: {key} must be" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key,value", INVALID_TRAINING)
    def test_invalid_train_config_is_usage_error(self, workdir, tmp_path, capsys, key, value):
        config = tmp_path / "train.json"
        config.write_text(json.dumps({key: value}))
        out = tmp_path / "model.json"
        code = main(
            [
                "train",
                "--variant", "a1",
                "--data", str(workdir / "enc_a1.jsonl"),
                "--config", str(config),
                "--out", str(out),
            ]
        )
        assert code == EXIT_USAGE
        assert f"config file {config}: {key} must be" in capsys.readouterr().err
        assert not out.exists()

    INVALID_PIPELINE = {
        "seed-string": ({"seed": "x"}, "seed"),
        "seed-negative": ({"seed": -1}, "seed"),
        "augment_n-negative": ({"augment_n": -5}, "augment_n"),
        "corpus_n-string": ({"corpus_n": "5"}, "corpus_n"),
        "test_fraction-string": ({"test_fraction": "0.3"}, "test_fraction"),
        "augment_change-7": ({"augment_change": 7}, "augment_change"),
        "classifier_ids-number": ({"classifier_ids": 5}, "classifier_ids"),
        "classifier_ids-unknown": ({"classifier_ids": ["zz"]}, "classifier_ids"),
        "regressor_ids-classifier": ({"regressor_ids": ["a1"]}, "regressor_ids"),
        "compose_pair-one-id": ({"compose_pair": ["a1"]}, "compose_pair"),
        "regressor_ids-unpaired": (
            {"classifier_ids": ["e1"], "regressor_ids": ["b2"]}, "regressor_ids"
        ),
        "policy-number": ({"policy": 5}, "policy"),
        "policy-field-string": ({"policy": {"base_noise_sigma": "0.1"}}, "base_noise_sigma"),
    }

    @pytest.mark.parametrize("doc,key", INVALID_PIPELINE.values(), ids=INVALID_PIPELINE)
    def test_invalid_pipeline_config_is_usage_error(self, tmp_path, capsys, doc, key):
        config = tmp_path / "pipeline.json"
        config.write_text(json.dumps({
            "out_dir": str(tmp_path / "out"), "corpus_n": 300, "augment_n": 50,
            "classifier_ids": ["a1"], "regressor_ids": [],
            "training_overrides": {"max_epochs": 1}, **doc,
        }))
        assert main(["pipeline", "--config", str(config)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"config file {config}: {key}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "classifiers,regressors,metric",
        [(["a1"], [], "val_mse"), (["a1"], ["b2"], "val_accuracy")],
    )
    def test_pipeline_metric_the_head_does_not_report_is_usage_error(
        self, tmp_path, capsys, classifiers, regressors, metric
    ):
        config = tmp_path / "pipeline.json"
        config.write_text(json.dumps({
            "out_dir": str(tmp_path / "out"), "corpus_n": 300,
            "classifier_ids": classifiers, "regressor_ids": regressors,
            "training_overrides": {"monitored_metric": metric},
        }))
        assert main(["pipeline", "--config", str(config)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"config file {config}: monitored_metric must be" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("variant,metric", [("a1", "val_mse"), ("b2", "val_accuracy")])
    def test_train_metric_the_head_does_not_report_is_usage_error(
        self, workdir, tmp_path, capsys, variant, metric
    ):
        config = tmp_path / "train.json"
        config.write_text(json.dumps({"monitored_metric": metric, "max_epochs": 2}))
        out = tmp_path / "model.json"
        code = main([
            "train", "--variant", variant, "--data", str(workdir / f"enc_{variant}.jsonl"),
            "--config", str(config), "--out", str(out),
            "--stage1-model", str(workdir / "model_a1.json"),
            "--stage1-data", str(workdir / "enc_a1.jsonl"),
        ])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"config file {config}: monitored_metric must be" in err
        assert "Traceback" not in err
        assert not out.exists()

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

    # Each command that draws from the root seed, with its output flag last.
    SEED_COMMANDS = {
        "synthesize": ["synthesize", "--n", "5", "--out"],
        "augment": ["augment", "--in", "{corpus}", "--n", "5", "--out"],
        "preprocess": ["preprocess", "--in", "{corpus}", "--layout", "a1", "--balance", "--out"],
        "train": ["train", "--variant", "a1", "--data", "{enc_a1}", "--out"],
        "pipeline": ["pipeline", "--out-dir"],
    }

    @pytest.mark.parametrize("source", ["--seed", "RTP_SEED"])
    @pytest.mark.parametrize("command", SEED_COMMANDS)
    def test_negative_root_seed_is_usage_error(
        self, workdir, tmp_path, monkeypatch, capsys, command, source
    ):
        out = tmp_path / "out"
        args = [arg.format(corpus=workdir / "corpus.csv", enc_a1=workdir / "enc_a1.jsonl")
                for arg in self.SEED_COMMANDS[command]]
        if source == "--seed":
            args = ["--seed", "-1", *args]
        else:
            monkeypatch.setenv("RTP_SEED", "-1")
        assert main([*args, str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"usage error: {source} must be an integer >= 0, got -1\n"
        assert not out.exists()

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
