"""End-to-end tests for the command-line interface."""

import base64
import csv
import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from rtp import cli, compose, engine, pipeline, seeds
from rtp.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from rtp.domain import config_for_date
from rtp.engine import forward, load_model, run_layers, save_model
from rtp.ingest import (
    CHUNK_ROWS,
    CSV_HEADER,
    CorpusSpec,
    ObservationTable,
    filter_report,
    row_to_observation,
    synthesize_corpus,
    write_observations,
)
from rtp.model_zoo import build_variant, pair_for_regressor, stage_inputs, training_config
from rtp.pipeline import PipelineConfig, run_pipeline
from rtp.preprocess import (
    LN_FULL_POWER,
    encode_table,
    undersample_indices,
)
from rtp.training import train
from reference import classify_power, read_observations, read_table

# The committed format-1 model file of an a1 classifier.
FORMAT1_MODEL = Path(__file__).parent / "fixtures" / "model_a1_v1.json"

# A value that deletes the field it is given for.
MISSING = object()

# Settings that are constants now, each with the value it always held: a
# config that names one is refused as an unknown key.
REMOVED_KEYS = {
    "test_fraction": 0.3,
    "augment_change": 0,
    "policy": {"base_noise_sigma": 0.15, "max_delta_rho": 0.5},
    "adam_betas": [0.9, 0.999],
    "adam_eps": 1e-8,
    "shuffle_each_epoch": True,
}


def _rows_with_a_long_one(workdir, n):
    """The header and the first `n` data lines of the workdir corpus, the
    last of them made to last 90 minutes, which the exclusion rules drop."""
    lines = (workdir / "corpus.csv").read_text().splitlines(True)[: n + 1]
    fields = lines[-1].split(",")
    fields[1:3] = ["10:00", "11:30"]
    lines[-1] = ",".join(fields)
    return lines


def _excluded_rows(workdir, n):
    """`n` data lines made from the workdir corpus's first one, each dropped
    by the exclusion rules: too long, a shutdown and unchanged in turn."""
    fields = (workdir / "corpus.csv").read_text().splitlines()[1].split(",")
    edits = [{1: "10:00", 2: "11:30"}, {4: "0.5"}, {4: fields[3]}]
    return [",".join(edits[k % 3].get(i, v) for i, v in enumerate(fields)) + "\n"
            for k in range(n)]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A corpus plus every downstream artifact, produced via the CLI."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus.csv"
    assert main(["--seed", "0", "synthesize", "--n", "120", "--out", str(corpus)]) == EXIT_OK

    train_config = root / "train.json"
    train_config.write_text(json.dumps({"max_epochs": 3, "early_stop_patience": 2}))

    assert (
        main(
            [
                "--seed", "0",
                "train",
                "--variant", "a1",
                "--data", str(corpus),
                "--balance",
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
                "--data", str(corpus),
                "--balance",
                "--config", str(train_config),
                "--stage1-model", str(root / "model_a1.json"),
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

    def test_balance_trains_on_the_undersampled_rows(self, workdir, tmp_path):
        # train --balance writes the model that train writes on a CSV of the
        # rows undersample keeps, in their order.
        rows, _ = filter_report(read_table(workdir / "corpus.csv"))
        balanced = rows.take(undersample_indices(encode_table(rows).class_index.tolist(), 0))
        write_observations(balanced, tmp_path / "balanced.csv")
        out = tmp_path / "model_a1.json"
        assert main(["--seed", "0", "train", "--variant", "a1",
                     "--data", str(tmp_path / "balanced.csv"),
                     "--config", str(workdir / "train.json"), "--out", str(out)]) == EXIT_OK
        assert out.read_bytes() == (workdir / "model_a1.json").read_bytes()

    def test_stage1_of_another_layout(self, workdir, tmp_path):
        # b2 reads reactivities, d1 rod heights; both come from the one CSV.
        d1, out = tmp_path / "model_d1.json", tmp_path / "model_b2.json"
        save_model(build_variant("d1", seed=3), d1)
        config = workdir / "train.json"
        assert main(["--seed", "0", "train", "--variant", "b2", "--data", str(workdir / "corpus.csv"),
                     "--config", str(config), "--stage1-model", str(d1),
                     "--out", str(out)]) == EXIT_OK
        table = encode_table(filter_report(read_table(workdir / "corpus.csv"))[0])
        probs = run_layers(load_model(d1), stage_inputs(table.features, "d1"))
        model = build_variant("b2", seeds.subseed(0, "init/b2"))
        overrides = json.loads(config.read_text())
        settings = training_config("b2", seeds.subseed(0, "train/b2"), overrides)
        x, targets = stage_inputs(table.features, "b2", probs), table.target.reshape(-1, 1)
        expected = tmp_path / "expected.json"
        save_model(train(model, x, targets, settings)[0], expected)
        assert out.read_bytes() == expected.read_bytes()

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

    def test_augment_draws_only_the_rows_the_exclusion_rules_keep(self, workdir, tmp_path):
        data, out = tmp_path / "two_rows.csv", tmp_path / "augmented.csv"
        data.write_text("".join(_rows_with_a_long_one(workdir, 2)))
        assert main(["--seed", "0", "augment", "--in", str(data), "--out", str(out),
                     "--n", "20"]) == EXIT_OK
        assert filter_report(read_table(out))[1].retained == 20

    def test_a_chunk_with_no_kept_row_changes_nothing(self, workdir, tmp_path):
        # Read in chunks of CHUNK_ROWS, a file whose first chunk is all
        # excluded rows gives what its kept rows alone give.
        lines = (workdir / "corpus.csv").read_text().splitlines(True)
        padded = tmp_path / "padded.csv"
        padded.write_text("".join([lines[0], *_excluded_rows(workdir, CHUNK_ROWS), *lines[1:]]))
        outputs = {}
        for name, data in [("plain", workdir / "corpus.csv"), ("padded", padded)]:
            report, errors, model, augmented = (
                tmp_path / f"{name}_{suffix}"
                for suffix in ["report.json", "errors.csv", "a1.json", "augmented.csv"]
            )
            assert main(["evaluate", "--model", str(workdir / "twostage.json"), "--data", str(data),
                         "--out", str(report), "--errors", str(errors)]) == EXIT_OK
            assert main(["--seed", "0", "train", "--variant", "a1", "--data", str(data),
                         "--config", str(workdir / "train.json"), "--out", str(model)]) == EXIT_OK
            assert main(["--seed", "0", "augment", "--in", str(data), "--out", str(augmented),
                         "--n", "20"]) == EXIT_OK
            outputs[name] = [path.read_bytes() for path in (report, errors, model, augmented)]
        assert outputs["padded"] == outputs["plain"]

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
        assert capsys.readouterr().err == (
            f"error: {model}: b2 is a regressor, which is evaluated through a two-stage model "
            "(see rtp compose)\n"
        )
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
        table = encode_table(observations)
        expected = tmp_path / "expected.csv"
        with open(expected, "w", newline="") as handle:
            writer = csv.writer(handle)
            if isinstance(loaded, compose.TwoStageModel):
                predicted, abs_errors, _ = pipeline.score(loaded, table)
                writer.writerow(["row", "true_class", "predicted_class", "abs_error_norm"])
                writer.writerows(zip(
                    range(1, len(observations) + 1), table.class_index.tolist(),
                    predicted.tolist(), abs_errors.tolist(),
                ))
            else:
                out = forward(loaded, stage_inputs(table.features, "a1"))
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
        assert capsys.readouterr().err == (
            f"error: {bad}: row 3: zero-change transient has no direction\n"
        )


    def test_predict_output_matches_csv_writer(self, workdir, tmp_path):
        # Byte for byte what the csv module writes for the same predictions,
        # with repr of every float.
        out = tmp_path / "predictions.csv"
        args = ["--model", str(workdir / "twostage.json"), "--in", str(workdir / "corpus.csv")]
        assert main(["predict", *args, "--out", str(out)]) == EXIT_OK
        model = compose.load_two_stage(workdir / "twostage.json")
        table = encode_table(read_table(workdir / "corpus.csv"))
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
        assert capsys.readouterr().err == (
            f"error: {bad}: row 5: zero-change transient has no direction\n"
        )


@pytest.fixture(scope="module")
def long_csv(tmp_path_factory):
    """A transient log of 2 * CHUNK_ROWS + 1 rows: a full chunk, then a last
    one that takes the one-row remainder too."""
    path = tmp_path_factory.mktemp("long") / "long.csv"
    write_observations(synthesize_corpus(CorpusSpec(2 * CHUNK_ROWS + 1, seed=5)), path)
    return path


class TestStreamedPredict:
    """rtp predict reads, encodes, runs and writes one chunk at a time, and
    its --out is written whole or not at all."""

    @staticmethod
    def predict(workdir, infile, out):
        return main(["predict", "--model", str(workdir / "twostage.json"),
                     "--in", str(infile), "--out", str(out)])

    def test_each_stage_runs_once_per_chunk(self, workdir, long_csv, tmp_path, monkeypatch):
        # No per-row network passes, no pass over more than one chunk, and a
        # one-row remainder joins the last chunk, which is padded to a
        # multiple of 4 rows.
        calls = []
        original = engine.run_layers

        def counting_run_layers(model, x):
            calls.append((model.variant_id, len(x)))
            return original(model, x)

        monkeypatch.setattr(engine, "run_layers", counting_run_layers)
        assert self.predict(workdir, long_csv, tmp_path / "predictions.csv") == EXIT_OK
        assert calls == [("a1", CHUNK_ROWS), ("b2", CHUNK_ROWS),
                         ("a1", CHUNK_ROWS + 4), ("b2", CHUNK_ROWS + 4)]

    def test_matches_the_whole_table(self, workdir, long_csv, tmp_path):
        # A chunk's rows get the bits of a whole-table pass.
        out = tmp_path / "predictions.csv"
        assert self.predict(workdir, long_csv, out) == EXIT_OK
        with open(out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        model = compose.load_two_stage(workdir / "twostage.json")
        probs, classes, norm = compose.predict_arrays(model, encode_table(read_table(long_csv)))
        assert [int(row["row"]) for row in rows] == list(range(1, 2 * CHUNK_ROWS + 2))
        got_probs = np.array([[float(row[f"prob_{i}"]) for i in range(5)] for row in rows])
        assert [int(row["predicted_class"]) for row in rows] == classes.tolist()
        assert np.array_equal(got_probs, probs)
        assert np.array_equal(np.array([float(row["power_norm"]) for row in rows]), norm)

    def test_out_may_name_the_input(self, workdir, long_csv, tmp_path):
        expected, same = tmp_path / "expected.csv", tmp_path / "same.csv"
        same.write_bytes(long_csv.read_bytes())
        assert self.predict(workdir, long_csv, expected) == EXIT_OK
        assert self.predict(workdir, same, same) == EXIT_OK
        assert same.read_bytes() == expected.read_bytes()

    def test_a_bad_last_row_leaves_the_old_output(self, workdir, long_csv, tmp_path, capsys):
        bad, out = tmp_path / "bad.csv", tmp_path / "predictions.csv"
        lines = long_csv.read_text().splitlines()
        bad.write_text("\n".join([*lines[:-1], "2014-13-01" + lines[-1][10:]]) + "\n")
        out.write_bytes(b"old output\r\n")
        assert self.predict(workdir, bad, out) == EXIT_DATA
        assert capsys.readouterr().err == (
            f"error: {bad}: row {2 * CHUNK_ROWS + 1}: field 'date': cannot parse '2014-13-01'\n"
        )
        assert out.read_bytes() == b"old output\r\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["bad.csv", "predictions.csv"]

    def test_out_may_be_dev_null(self, workdir, long_csv):
        assert self.predict(workdir, long_csv, os.devnull) == EXIT_OK

    @pytest.mark.parametrize(
        "zero_row, bad_row, reported",
        [
            (3, CHUNK_ROWS + 10, 3),  # a zero-change row in an earlier chunk comes first
            (3, CHUNK_ROWS - 10, CHUNK_ROWS - 10),  # a parse error in its chunk comes first
        ],
    )
    def test_errors_come_in_chunk_order(
        self, workdir, long_csv, tmp_path, capsys, zero_row, bad_row, reported
    ):
        with open(long_csv, newline="") as handle:
            rows = list(csv.reader(handle))
        header = rows[0]
        zero = rows[zero_row]
        zero[header.index("final_power_w")] = zero[header.index("initial_power_w")]
        rows[bad_row][header.index("rod1_i")] = "x"
        bad = tmp_path / "bad.csv"
        with open(bad, "w", newline="") as handle:
            csv.writer(handle).writerows(rows)
        assert self.predict(workdir, bad, tmp_path / "predictions.csv") == EXIT_DATA
        message = {
            zero_row: "zero-change transient has no direction",
            bad_row: "field 'rod1_i': cannot parse 'x'",
        }[reported]
        assert capsys.readouterr().err == f"error: {bad}: row {reported}: {message}\n"
        assert not (tmp_path / "predictions.csv").exists()


@pytest.fixture(scope="module")
def seed0_lines(tmp_path_factory):
    """The header and the first 1,025 data lines of the seed-0 corpus."""
    path = tmp_path_factory.mktemp("seed0") / "corpus.csv"
    write_observations(synthesize_corpus(CorpusSpec(1025, seed=0)), path)
    return path.read_text().splitlines(True)


class TestBlockRule:
    """A row's answer does not depend on how its file is cut: rtp predict's
    chunks and rtp evaluate's whole table give the bits of one pass over the
    whole file."""

    CASES = {"257-rows": (257, 0), "1025-rows": (1025, 0), "1025-rows-3-blank-lines": (1025, 3)}

    @pytest.fixture(params=CASES.values(), ids=CASES)
    def rows_csv(self, request, seed0_lines, tmp_path):
        n, blanks = request.param
        lines = seed0_lines[: n + 1]
        lines[300:300] = ["\r\n"] * blanks
        path = tmp_path / "rows.csv"
        path.write_text("".join(lines))
        return path

    @staticmethod
    def predicted(workdir, rows_csv, tmp_path):
        out = tmp_path / "predictions.csv"
        assert main(["predict", "--model", str(workdir / "twostage.json"),
                     "--in", str(rows_csv), "--out", str(out)]) == EXIT_OK
        with open(out, newline="") as handle:
            return list(csv.DictReader(handle))

    def test_predict_gives_the_whole_table_bits(self, workdir, rows_csv, tmp_path):
        rows = self.predicted(workdir, rows_csv, tmp_path)
        model = compose.load_two_stage(workdir / "twostage.json")
        probs, classes, norm = compose.predict_arrays(model, encode_table(read_table(rows_csv)))
        assert [int(row["row"]) for row in rows] == list(range(1, len(norm) + 1))
        assert [[float(row[f"prob_{i}"]) for i in range(5)] for row in rows] == probs.tolist()
        assert [int(row["predicted_class"]) for row in rows] == classes.tolist()
        assert [float(row["power_norm"]) for row in rows] == norm.tolist()

    def test_a_row_keeps_its_answer_at_every_file_length(self, workdir, seed0_lines, tmp_path):
        # Cutting the file anywhere leaves each row the line it gets in the
        # whole file, whatever the number of rows in the last chunk.
        rows_csv = tmp_path / "rows.csv"
        rows_csv.write_text("".join(seed0_lines))
        whole = self.predicted(workdir, rows_csv, tmp_path)
        for n in [2, 3, 5, 6, 7, 255, 258, 259, 510, *range(1010, 1025)]:
            rows_csv.write_text("".join(seed0_lines[: n + 1]))
            assert self.predicted(workdir, rows_csv, tmp_path) == whole[:n], n

    def test_evaluate_errors_match_predict(self, workdir, seed0_lines, tmp_path):
        rows_csv = tmp_path / "rows.csv"
        rows_csv.write_text("".join(seed0_lines))
        rows = self.predicted(workdir, rows_csv, tmp_path)
        errors = tmp_path / "errors.csv"
        assert main(["evaluate", "--model", str(workdir / "twostage.json"), "--data",
                     str(rows_csv), "--out", str(tmp_path / "report.json"),
                     "--errors", str(errors)]) == EXIT_OK
        with open(errors, newline="") as handle:
            got = [float(row["abs_error_norm"]) for row in csv.DictReader(handle)]
        target = encode_table(read_table(rows_csv)).target
        assert len(got) == len(rows) == 1025
        assert got == [abs(float(row["power_norm"]) - t) for row, t in zip(rows, target.tolist())]

    def test_evaluate_peak_memory(self, workdir, tmp_path):
        # 50,000 rows in a fresh process, which reports its own peak resident
        # memory. Not the pytest process's RUSAGE_CHILDREN, which keeps the
        # largest child seen so far, nor the child's own ru_maxrss, which
        # Linux carries across exec from the parent's peak: a child of a
        # 300 MB process reads 321 MB there. VmHWM is the peak since exec.
        sys.path.insert(0, str(Path(__file__).parents[1] / "perfbench"))
        try:
            import rowgen
        finally:
            sys.path.pop(0)
        rows_csv = tmp_path / "rows.csv"
        rowgen.write_csv(rowgen.generate_rows(50_000, seed=7), rows_csv)
        script = (
            "import sys\n"
            "from rtp.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(*(line.split()[1] for line in open('/proc/self/status')\n"
            "        if line.startswith('VmHWM:')))\n"
            "sys.exit(code)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        done = subprocess.run(
            [sys.executable, "-c", script, "evaluate", "--model", str(workdir / "twostage.json"),
             "--data", str(rows_csv), "--out", str(tmp_path / "report.json")],
            env=env, stdout=subprocess.PIPE, text=True, check=True, timeout=120,
        )
        # Parsing the whole file before filtering it peaked at 58.6 MiB (2
        # vCPU, Python 3.11, numpy 2.4, the seed-0 a1+b2 model); filtering and
        # encoding it a chunk at a time peaks at 52.3 MiB.
        assert int(done.stdout) < 55 * 1024  # VmHWM is in KiB


class TestDescriptorOut:
    """An output path that names an open descriptor, as /dev/stdout does, is
    written through it: a pipe gets the bytes a file would, a log opened for
    appending keeps its earlier lines, and a --verbose line follows the
    output."""

    COMMANDS = {
        "predict": ["predict", "--model", "{twostage}", "--in", "{corpus}", "--out", "{target}"],
        "evaluate-errors": [
            "evaluate", "--model", "{twostage}", "--data", "{corpus}", "--out", "{report}",
            "--errors", "{target}",
        ],
    }

    def command(self, workdir, tmp_path, name, target):
        paths = {
            "corpus": workdir / "corpus.csv",
            "twostage": workdir / "twostage.json",
            "report": tmp_path / "report.json",
            "target": target,
        }
        return [arg.format(**paths) for arg in self.COMMANDS[name]]

    def expected(self, workdir, tmp_path, name):
        target = tmp_path / "expected.csv"
        assert main(self.command(workdir, tmp_path, name, target)) == EXIT_OK
        return target.read_bytes()

    @staticmethod
    def run(argv, stdout):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        return subprocess.run(
            [sys.executable, "-m", "rtp.cli", *argv], stdout=stdout, env=env,
            check=True, timeout=120,
        ).stdout

    @pytest.mark.parametrize("name", COMMANDS)
    def test_a_pipe_gets_the_bytes_of_a_file(self, workdir, tmp_path, name):
        expected = self.expected(workdir, tmp_path, name)
        argv = self.command(workdir, tmp_path, name, "/dev/stdout")
        assert self.run(argv, subprocess.PIPE) == expected

    @pytest.mark.parametrize("name", COMMANDS)
    def test_an_appended_log_keeps_its_earlier_lines(self, workdir, tmp_path, name):
        expected = self.expected(workdir, tmp_path, name)
        log = tmp_path / "log"
        log.write_bytes(b"earlier line\n")
        with open(log, "ab") as handle:  # as the shell opens `>> log`
            self.run(self.command(workdir, tmp_path, name, "/dev/stdout"), handle)
        assert log.read_bytes() == b"earlier line\n" + expected

    def test_a_link_to_stdout_keeps_the_log(self, workdir, tmp_path):
        # `ln -s /dev/stdout lnk; rtp predict ... --out lnk >> log`
        expected = self.expected(workdir, tmp_path, "predict")
        log, link = tmp_path / "log", tmp_path / "lnk"
        log.write_bytes(b"earlier line\n")
        link.symlink_to("/dev/stdout")
        with open(log, "ab") as handle:
            self.run(self.command(workdir, tmp_path, "predict", link), handle)
        assert log.read_bytes() == b"earlier line\n" + expected
        assert link.is_symlink()

    def test_the_verbose_line_follows_the_output(self, workdir, tmp_path):
        expected = self.expected(workdir, tmp_path, "predict")
        log = tmp_path / "log"
        argv = ["--verbose", *self.command(workdir, tmp_path, "predict", "/dev/stdout")]
        with open(log, "wb") as handle:  # as the shell opens `> log`
            self.run(argv, handle)
        assert log.read_bytes() == expected + b"wrote 120 predictions to /dev/stdout\n"


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
    # A larger run, whose models change when branch layers train on strided
    # column views of the input instead of packed copies; the 600-row run
    # above does not show that.
    BRANCH_PIPELINE_SHA256 = {
        "augmented.csv": "aab4d340bcddfe747978a9cc6bbe56482d0c2c3a37ccf31c526b4f3678881fec",
        "corpus.csv": "9c19703b206a619cb826d7ddcc50508822a4f4987d043214f29cae2fb4db101c",
        "model_a1.json": "981aea3dcac6508a0e9328a6ea083e90fa042842b73a1c50cb3001d818bef891",
        "model_b2.json": "0ee6d77087671e625c678467047a99e16f8eb4f874e482be7e481962c3fbfb8c",
        "model_c1.json": "d50392b8318c90ab8d2713d3456ac290367b4a0c409d2b1163fd6d90dd0453a0",
        "report.json": "9dd3e3d0f9c110d9cec109927b8dfaaca62a2c09427fd7a4d67b8217a464ea68",
        "twostage.json": "fb81f99b7a5bddbb90c5743a8a97b4e7008d561b9a050159ed1cb21d3f320128",
    }
    # A run whose test split (600 rows) and balanced pool (1,340) are cut
    # into blocks by compose.run_stage, taken before blocking. The report's
    # digest was re-taken when the weight penalty came to be summed in a
    # fixed order: at one BLAS thread a1's best_val_loss moved by one digit,
    # to what two threads already gave.
    BLOCKED_PIPELINE_SHA256 = {
        "augmented.csv": "838fdf1acc73b358bf4a1f54c53ff17dc59e48f98c6f0797c999dec2d88d56ce",
        "corpus.csv": "3cd4c5188eabe989923f2b4bb7d40297c1e8c3a279adda32d508994f22013a8b",
        "model_a1.json": "d6715b1af3d92b0cb92b6fbbd5d06c90aaf576668c8ebea7c2d6be4f9fad94cd",
        "model_b2.json": "a4075bce7eeeaf7d697fdfd70c3728252dc70bb97d94ae7ecc77283ff74d5ac4",
        "report.json": "162af801c3a211e1f35830def042b094dac64f0630ced1d3f1a316d2d146011e",
        "twostage.json": "ea80321da63e82e0ef0b10ae38271f0f53c0821aeaf1a871303aeaef4f91cc12",
    }
    PIPELINES = {
        "600": (
            {"seed": 0, "corpus_n": 600, "augment_n": 150,
             "classifier_ids": ["a1", "e1"], "regressor_ids": ["b2", "d2"]},
            PIPELINE_SHA256,
        ),
        "1000": (
            {"seed": 0, "corpus_n": 1000, "augment_n": 200,
             "classifier_ids": ["a1", "c1"], "regressor_ids": ["b2"]},
            BRANCH_PIPELINE_SHA256,
        ),
        "2000": (
            {"seed": 0, "corpus_n": 2000, "augment_n": 400,
             "classifier_ids": ["a1"], "regressor_ids": ["b2"]},
            BLOCKED_PIPELINE_SHA256,
        ),
    }

    # Two BLAS threads must give the one-thread bytes too.
    @pytest.mark.parametrize(
        "rows,blas_threads",
        [("600", "1"), ("600", "2"), ("1000", "1"), ("1000", "2"), ("2000", "1"), ("2000", "2")],
        ids=["1", "2", "1000-rows-1", "1000-rows-2", "2000-rows-1", "2000-rows-2"],
    )
    def test_trained_pipeline_bytes(self, tmp_path, rows, blas_threads):
        doc, expected = self.PIPELINES[rows]
        config = tmp_path / "pipeline.json"
        config.write_text(json.dumps(doc))
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
        assert digests == expected


class TestPinnedCommandBytes:
    # sha256 of each command's output on the module's seed-0 corpus and
    # models, taken before encoding became one layout-free feature matrix and
    # before rtp train read the CSV itself. The digests hold for the same
    # numpy build.
    COMMANDS = {
        "predict": ["predict", "--model", "{twostage}", "--in", "{corpus}", "--out", "{out}"],
        "evaluate-two-stage": [
            "evaluate", "--model", "{twostage}", "--data", "{corpus}", "--out", "{out}", "--errors", "{errors}"
        ],
        "evaluate-classifier": [
            "evaluate", "--model", "{a1}", "--data", "{corpus}", "--out", "{out}", "--errors", "{errors}"
        ],
    }
    SHA256 = {
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

    # compose_pair keeps its default, a1 and b2: neither, or only a1, trains.
    @pytest.mark.parametrize("classifier_ids", [["c1"], ["a1"]], ids=["neither", "stage-1-only"])
    def test_no_composed_pair_unless_both_of_its_models_train(self, tmp_path, classifier_ids):
        out_dir = tmp_path / "artifacts"
        config = tmp_path / "pipeline.json"
        config.write_text(json.dumps({
            "out_dir": str(out_dir), "corpus_n": 300, "augment_n": 50,
            "classifier_ids": classifier_ids, "regressor_ids": [],
            "training_overrides": {"max_epochs": 2},
        }))
        assert main(["pipeline", "--config", str(config)]) == EXIT_OK
        report = json.loads((out_dir / "report.json").read_text())
        assert "composed" not in report
        assert sorted(path.name for path in out_dir.iterdir()) == [
            "augmented.csv", "corpus.csv", f"model_{classifier_ids[0]}.json", "report.json"]


    def test_verbose_lists_each_kind_in_config_order(self, tmp_path, capsys):
        # The chains train b1, a2, a1 and then b2; each kind prints in its
        # list's order.
        config = tmp_path / "pipeline.json"
        config.write_text(json.dumps({
            "out_dir": str(tmp_path / "out"), "corpus_n": 300, "augment_n": 50,
            "classifier_ids": ["b1", "a1"], "regressor_ids": ["b2", "a2"],
            "training_overrides": {"max_epochs": 1},
        }))
        assert main(["--verbose", "pipeline", "--config", str(config)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(": ", 1)[0] for line in lines] == ["b1", "a1", "b2", "a2"]
        assert [line.split(": ", 1)[1].split()[0] for line in lines] == [
            "accuracy", "accuracy", "test", "test"
        ]

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
        # rtp train on a CSV of the pipeline's own balanced rows writes the
        # pipeline's model files byte for byte: both take the same variant path.
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
        classes = encode_table(train_pool).class_index.tolist()
        balanced = undersample_indices(classes, seeds.subseed(seed, "balance"))
        write_observations(train_pool.take(balanced), tmp_path / "balanced.csv")
        train_config = tmp_path / "train.json"
        train_config.write_text(json.dumps(overrides))
        for vid in ids:
            command = ["--seed", str(seed), "train", "--variant", vid,
                       "--data", str(tmp_path / "balanced.csv"),
                       "--config", str(train_config), "--out", str(tmp_path / f"model_{vid}.json")]
            if vid in ids[2:]:
                cid = pair_for_regressor(vid)
                command += ["--stage1-model", str(tmp_path / f"model_{cid}.json")]
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
    def test_missing_required_flag_is_usage_error(self):
        assert main(["synthesize", "--n", "10"]) == EXIT_USAGE

    def test_missing_file_is_data_error(self, tmp_path):
        code = main(
            [
                "train",
                "--variant", "a1",
                "--data", str(tmp_path / "nope.csv"),
                "--out", str(tmp_path / "model.json"),
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
        assert err.startswith(f"error: {bad}: row 1: field '{field}': ")
        assert "has a UTC offset" in err and "Traceback" not in err

    def test_malformed_csv_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("nope\n")
        code = main(
            [
                "train",
                "--variant", "a1",
                "--data", str(bad),
                "--out", str(tmp_path / "model.json"),
            ]
        )
        assert code == EXIT_DATA

    # numpy refuses the arrays of this many rows before it allocates any.
    HUGE_N = 100_000_000_000_000

    def test_an_allocation_that_cannot_be_made_is_data_error(self, workdir, tmp_path, capsys):
        out = tmp_path / "augmented.csv"
        code = main(["augment", "--in", str(workdir / "corpus.csv"), "--out", str(out),
                     "--n", str(self.HUGE_N)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate ") and err.count("\n") == 1
        assert not out.exists()

    def test_a_pipeline_that_cannot_allocate_is_data_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"corpus_n": 100, "augment_n": self.HUGE_N}))
        code = main(["pipeline", "--config", str(config), "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate ") and err.count("\n") == 1

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
        "data-not-utf8": (TRAIN, {}, "latin"),
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
            "train", "--variant", "b2", "--data", str(workdir / "corpus.csv"),
            "--stage1-model", str(model), "--out", str(out),
        ])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == f"error: {model}: {message}\n"
        assert not out.exists()

    def test_regressor_without_stage1_is_usage_error(self, workdir, capsys):
        code = main(
            [
                "train",
                "--variant", "b2",
                "--data", str(workdir / "corpus.csv"),
                "--out", "/dev/null",
            ]
        )
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            "usage error: variant b2 is a regressor; --stage1-model is required\n"
        )

    @pytest.mark.parametrize("flag", ["--stage1-model"])
    def test_classifier_with_a_stage1_flag_is_usage_error(self, workdir, tmp_path, capsys, flag):
        out = tmp_path / "model.json"
        code = main([
            "train", "--variant", "a1", "--data", str(workdir / "corpus.csv"),
            flag, str(tmp_path / "nonexistent"), "--out", str(out),
        ])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"usage error: variant a1 is a classifier; {flag} is for regressors\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "relabel, message",
        [
            ("zz", "model has no recognized variant id"),
            ("c1", "model (c1) aux width 1 != expected 0"),
        ],
    )
    def test_evaluate_refuses_a_classifier_of_other_widths(
        self, workdir, tmp_path, capsys, relabel, message
    ):
        model = build_variant("a1", seed=0)
        model.variant_id = relabel
        path = tmp_path / "model.json"
        save_model(model, path)
        report = tmp_path / "report.json"
        code = main(["evaluate", "--model", str(path), "--data", str(workdir / "corpus.csv"),
                     "--out", str(report)])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not report.exists()

    @pytest.mark.parametrize("errors", ["report.json", "./report.json", "link.json", "/dev/null"])
    def test_evaluate_refuses_errors_at_the_report_path(self, tmp_path, capsys, errors):
        report = tmp_path / "report.json"
        report.write_bytes(b"kept\n")
        (tmp_path / "link.json").symlink_to(report)
        out = "/dev/null" if errors == "/dev/null" else str(report)
        errors = os.path.join(tmp_path, errors)  # an absolute path stays as it is
        # Neither the model nor the data exists: the paths are refused first.
        code = main(["evaluate", "--model", str(tmp_path / "none.json"),
                     "--data", str(tmp_path / "none.csv"), "--out", out, "--errors", errors])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"usage error: --errors and --out name the same file: {errors}\n"
        )
        assert report.read_bytes() == b"kept\n"

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
        assert capsys.readouterr().err == (
            f"error: {broken}: invalid model: trunk input width 64 != branches [64, 64] + aux 1\n"
        )

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
            assert err == f"error: {bad}: {message}\n"

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
        assert err == f"error: {stage2}: {message}\n"
        assert not composed.exists()

        bad = tmp_path / "twostage.json"
        bad.write_text(json.dumps({
            "format_version": 2, "kind": "two-stage",
            "stage1": json.loads((workdir / "model_a1.json").read_text()),
            "stage2": json.loads(stage2.read_text()),
        }))

        def no_read(path):
            raise AssertionError(f"read {path} before the model was checked")

        monkeypatch.setattr(cli, "read_chunks", no_read)
        code = main(["predict", "--model", str(bad), "--in", str(workdir / "corpus.csv"),
                     "--out", str(tmp_path / "predictions.csv")])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"
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
        assert capsys.readouterr().err == (
            f"error: {bad}: Expecting value: line 1 column 1 (char 0)\n"
        )

    def test_unknown_train_config_key_is_usage_error(self, workdir, tmp_path, capsys):
        config = tmp_path / "train.json"
        config.write_text(json.dumps({"bogus": 1}))
        code = main(
            [
                "train",
                "--variant", "a1",
                "--data", str(workdir / "corpus.csv"),
                "--config", str(config),
                "--out", str(tmp_path / "model.json"),
            ]
        )
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"usage error: {config}: unknown key 'bogus'\n"

    def test_unknown_pipeline_config_key_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "pipeline.json"
        config.write_text(json.dumps({"bogus": 1}))
        assert main(["pipeline", "--config", str(config)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"usage error: {config}: unknown key 'bogus'\n"

    def test_unknown_training_override_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "pipeline.json"
        config.write_text(json.dumps({"training_overrides": {"bogus": 1}}))
        assert main(["pipeline", "--config", str(config)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"usage error: {config}: unknown key 'bogus'\n"

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
        ("shuffle_each_epoch", True),
    ]

    @staticmethod
    def refusal(key):
        """The start of the message refusing a value of `key`: the whole line
        for a key that names no setting, whatever its value."""
        return f"unknown key '{key}'\n" if key in REMOVED_KEYS else f"{key} must be"

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
        assert err.startswith(f"usage error: {config}: {self.refusal(key)}")
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
                "--data", str(workdir / "corpus.csv"),
                "--config", str(config),
                "--out", str(out),
            ]
        )
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"usage error: {config}: {self.refusal(key)}")
        assert not out.exists()

    INVALID_PIPELINE = {
        "seed-string": ({"seed": "x"}, "seed"),
        "seed-negative": ({"seed": -1}, "seed"),
        "augment_n-negative": ({"augment_n": -5}, "augment_n"),
        "corpus_n-string": ({"corpus_n": "5"}, "corpus_n"),
        "test_fraction-string": ({"test_fraction": "0.3"}, "unknown key 'test_fraction'\n"),
        "augment_change-7": ({"augment_change": 7}, "unknown key 'augment_change'\n"),
        "classifier_ids-number": ({"classifier_ids": 5}, "classifier_ids"),
        "classifier_ids-unknown": ({"classifier_ids": ["zz"]}, "classifier_ids"),
        "regressor_ids-classifier": ({"regressor_ids": ["a1"]}, "regressor_ids"),
        "classifier_ids-repeated": (
            {"classifier_ids": ["a1", "a1"]}, "classifier_ids must be a list of distinct ids"
        ),
        "regressor_ids-repeated": (
            {"regressor_ids": ["b2", "b2"]}, "regressor_ids must be a list of distinct ids"
        ),
        "compose_pair-one-id": ({"compose_pair": ["a1"]}, "compose_pair"),
        "regressor_ids-unpaired": (
            {"classifier_ids": ["e1"], "regressor_ids": ["b2"]}, "regressor_ids"
        ),
        "policy-number": ({"policy": 5}, "unknown key 'policy'\n"),
        "policy-field-string": (
            {"policy": {"base_noise_sigma": "0.1"}}, "unknown key 'policy'\n"
        ),
        "out_dir-empty": ({"out_dir": ""}, "out_dir must be a non-empty path, got ''\n"),
    }

    @pytest.mark.parametrize("doc,message", INVALID_PIPELINE.values(), ids=INVALID_PIPELINE)
    def test_invalid_pipeline_config_is_usage_error(self, tmp_path, capsys, doc, message):
        config = tmp_path / "pipeline.json"
        config.write_text(json.dumps({
            "out_dir": str(tmp_path / "out"), "corpus_n": 300, "augment_n": 50,
            "classifier_ids": ["a1"], "regressor_ids": [],
            "training_overrides": {"max_epochs": 1}, **doc,
        }))
        assert main(["pipeline", "--config", str(config)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: {config}: {message}")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("with_config", [False, True])
    def test_empty_out_dir_flag_is_usage_error(self, tmp_path, monkeypatch, capsys, with_config):
        # An empty --out-dir would be the current directory; the flag, not
        # the config file, is named.
        config = tmp_path / "config" / "pipeline.json"
        config.parent.mkdir()
        config.write_text(json.dumps({"out_dir": str(tmp_path / "out")}))
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        args = ["pipeline", "--out-dir", "", *(["--config", str(config)] if with_config else [])]
        assert main(args) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "usage error: --out-dir: out_dir must be a non-empty path, got ''\n"
        )
        assert list(work.iterdir()) == [] and not (tmp_path / "out").exists()

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
        assert err.startswith(f"usage error: {config}: monitored_metric must be")
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
            "train", "--variant", variant, "--data", str(workdir / "corpus.csv"),
            "--config", str(config), "--out", str(out),
            "--stage1-model", str(workdir / "model_a1.json"),
        ])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: {config}: monitored_metric must be")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_synthesize_count_below_one_is_usage_error(self, tmp_path, capsys, n):
        out = tmp_path / "corpus.csv"
        code = main(["synthesize", "--n", n, "--out", str(out)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"usage error: --n must be an integer >= 1, got {n}\n"
        assert not out.exists()

    @pytest.mark.parametrize("model", ["twostage.json", "model_a1.json"])
    def test_evaluate_with_every_row_excluded_names_data_file(
        self, workdir, tmp_path, capsys, model
    ):
        lines = (workdir / "corpus.csv").read_text().splitlines()
        fields = lines[1].split(",")
        fields[4] = fields[3]  # final power equals initial: no change
        data = tmp_path / "unchanged.csv"
        data.write_text("\n".join([lines[0], ",".join(fields)]) + "\n")
        out = tmp_path / "report.json"
        code = main(["evaluate", "--model", str(workdir / model), "--data", str(data),
                     "--out", str(out)])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == (
            f"error: {data}: no row left to evaluate "
            "(excluded: 0 too long, 0 shutdowns, 1 unchanged)\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("balance", [[], ["--balance"]])
    def test_train_with_every_row_excluded_names_data_file(
        self, workdir, tmp_path, capsys, balance
    ):
        lines = (workdir / "corpus.csv").read_text().splitlines()
        fields = lines[1].split(",")
        fields[4] = fields[3]  # final power equals initial: no change
        data = tmp_path / "unchanged.csv"
        data.write_text("\n".join([lines[0], ",".join(fields)]) + "\n")
        out = tmp_path / "model.json"
        code = main(["train", "--variant", "a1", "--data", str(data), *balance,
                     "--out", str(out)])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == (
            f"error: {data}: no row left to train "
            "(excluded: 0 too long, 0 shutdowns, 1 unchanged)\n"
        )
        assert not out.exists()

    EVERY_ROW_EXCLUDED = [
        ["evaluate", "--model", "{dir}/twostage.json", "--data", "{data}", "--out", "{out}"],
        ["train", "--variant", "a1", "--data", "{data}", "--out", "{out}"],
        ["augment", "--in", "{data}", "--out", "{out}", "--n", "5"],
    ]

    @pytest.mark.parametrize("command", EVERY_ROW_EXCLUDED, ids=lambda command: command[0])
    def test_exclusions_are_counted_over_every_chunk(self, workdir, tmp_path, capsys, command):
        # 600 rows are read in chunks of 256, 256 and 88; the message counts
        # the rows of all three.
        header = (workdir / "corpus.csv").read_text().splitlines(True)[0]
        data, out = tmp_path / "excluded.csv", tmp_path / "out"
        data.write_text("".join([header, *_excluded_rows(workdir, 600)]))
        code = main([arg.format(dir=workdir, data=data, out=out) for arg in command])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == (
            f"error: {data}: no row left to {command[0]} "
            "(excluded: 200 too long, 200 shutdowns, 200 unchanged)\n"
        )
        assert not out.exists()

    def test_augment_with_every_row_excluded_names_data_file(self, workdir, tmp_path, capsys):
        data, out = tmp_path / "long.csv", tmp_path / "augmented.csv"
        data.write_text("".join(_rows_with_a_long_one(workdir, 1)))
        code = main(["augment", "--in", str(data), "--out", str(out), "--n", "5"])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == (
            f"error: {data}: no row left to augment "
            "(excluded: 1 too long, 0 shutdowns, 0 unchanged)\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--variant"])
    def test_unknown_variant_is_usage_error(self, workdir, tmp_path, capsys, flag):
        out = tmp_path / "out"
        args = ["train", flag, "zz", "--data", str(workdir / "corpus.csv")]
        code = main([*args, "--out", str(out)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: argument {flag}: invalid choice: 'zz'")
        assert "'a1'" in err and "'d2'" in err
        assert not out.exists()

    @pytest.mark.parametrize("n", ["-1", "-5"])
    def test_augment_count_below_zero_message(self, workdir, tmp_path, capsys, n):
        out = tmp_path / "augmented.csv"
        code = main(["augment", "--in", str(workdir / "corpus.csv"), "--out", str(out), "--n", n])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"usage error: --n must be an integer >= 0, got {n}\n"
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
        "train": ["train", "--variant", "a1", "--data", "{corpus}", "--balance", "--out"],
        "pipeline": ["pipeline", "--out-dir"],
    }

    @pytest.mark.parametrize("source", ["--seed", "RTP_SEED"])
    @pytest.mark.parametrize("command", SEED_COMMANDS)
    def test_negative_root_seed_is_usage_error(
        self, workdir, tmp_path, monkeypatch, capsys, command, source
    ):
        out = tmp_path / "out"
        args = [arg.format(corpus=workdir / "corpus.csv") for arg in self.SEED_COMMANDS[command]]
        if source == "--seed":
            args = ["--seed", "-1", *args]
        else:
            monkeypatch.setenv("RTP_SEED", "-1")
        assert main([*args, str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"usage error: {source} must be an integer >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", SEED_COMMANDS)
    def test_empty_env_seed_is_usage_error(self, workdir, tmp_path, monkeypatch, capsys, command):
        out = tmp_path / "out"
        args = [arg.format(corpus=workdir / "corpus.csv") for arg in self.SEED_COMMANDS[command]]
        monkeypatch.setenv("RTP_SEED", "")
        assert main([*args, str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == "usage error: RTP_SEED must be an integer >= 0, got ''\n"
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


class TestErrorsNameTheirInput:
    """An input error reads `error: <path>: <message>`, or `usage error:` for
    a --config file, and names the file once."""

    HEADER = ",".join(CSV_HEADER)
    BAD_CSVS = {
        "empty": ("", "empty CSV: no header row"),
        "header-only": (f"{HEADER}\n", "CSV contains a header but no data rows"),
        "wrong-header": (
            "date,time\n2014-06-01,08:00\n",
            f"unexpected CSV header ['date', 'time']; expected {CSV_HEADER}",
        ),
        "bad-date": (
            f"{HEADER}\n2014-13-01,10:00,10:30,100.0,1000.0,5,5,5,5,6,6,6,6\n",
            "row 1: field 'date': cannot parse '2014-13-01'",
        ),
        # Fields over the csv module's 131,072-character limit.
        "huge-field": (
            f"{HEADER}\n\n2014-06-01,10:00,10:30,100.0,1000.0,5,5,5,5,6,6,6,{'9' * 200_000}\n",
            "row 2: field larger than field limit (131072)",
        ),
        "bad-date-then-huge-field": (
            f"{HEADER}\n2014-13-01,10:00,10:30,100.0,1000.0,5,5,5,5,6,6,6,6\n"
            f"2014-06-01,10:00,10:30,100.0,1000.0,5,5,5,5,6,6,6,{'9' * 200_000}\n",
            "row 1: field 'date': cannot parse '2014-13-01'",
        ),
        "huge-header": (
            f"{'d' * 200_000}\n",
            f"unexpected CSV header field larger than field limit (131072); expected {CSV_HEADER}",
        ),
        # Values whose repr is over 80 characters are named by type and size.
        "long-header": (
            f"{'d' * 100_000}\n",
            f"unexpected CSV header [a str of 100000 characters]; expected {CSV_HEADER}",
        ),
        "long-field": (
            f"{HEADER}\n2014-06-01,10:00,10:30,100.0,1000.0,5,5,5,5,6,6,6,{'x' * 100_000}\n",
            "row 1: field 'reg_f': cannot parse a str of 100000 characters",
        ),
    }
    CSV_COMMANDS = {
        "predict": ["predict", "--model", "{twostage}", "--in", "{csv}", "--out", "{out}"],
        "evaluate": ["evaluate", "--model", "{a1}", "--data", "{csv}", "--out", "{out}"],
        "train": ["train", "--variant", "a1", "--data", "{csv}", "--out", "{out}"],
        "augment": ["augment", "--in", "{csv}", "--out", "{out}", "--n", "5"],
    }

    @staticmethod
    def run(command, **paths):
        return main([arg.format(**paths) for arg in command])

    @pytest.mark.parametrize("text,message", BAD_CSVS.values(), ids=BAD_CSVS)
    @pytest.mark.parametrize("command", CSV_COMMANDS.values(), ids=CSV_COMMANDS)
    def test_bad_csv(self, workdir, tmp_path, capsys, command, text, message):
        csv_path, out = tmp_path / "bad.csv", tmp_path / "out"
        csv_path.write_text(text)
        code = self.run(command, csv=csv_path, out=out, twostage=workdir / "twostage.json",
                        a1=workdir / "model_a1.json")
        assert code == EXIT_DATA
        assert capsys.readouterr().err == f"error: {csv_path}: {message}\n"
        assert not out.exists()

    def test_balance_of_a_csv_that_lacks_a_class(self, workdir, tmp_path, capsys):
        lines = (workdir / "corpus.csv").read_text().splitlines()
        one_row, out = tmp_path / "one_row.csv", tmp_path / "model.json"
        one_row.write_text("\n".join(lines[:2]) + "\n")
        missing = 1 if encode_table(read_table(one_row)).class_index[0] == 0 else 0
        code = main(["train", "--variant", "a1", "--data", str(one_row), "--balance",
                     "--out", str(out)])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == f"error: {one_row}: class {missing} has no samples\n"
        assert not out.exists()

    def test_data_too_small_for_the_check_split(self, workdir, tmp_path, capsys):
        one_row, out = tmp_path / "one_row.csv", tmp_path / "model.json"
        one_row.write_text("".join((workdir / "corpus.csv").read_text().splitlines(True)[:2]))
        code = main(["train", "--variant", "a1", "--data", str(one_row), "--out", str(out)])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == (
            f"error: {one_row}: check split of 1 of 1 rows leaves no training samples\n"
        )
        assert not out.exists()

    STAGE_FLAGS = {
        "train-stage1-model": (["train", "--variant", "b2", "--data", "{corpus}",
                                "--stage1-model", "{two}", "--out", "{out}"], "stage 1", "classifier"),
        "compose-stage1": (["compose", "--stage1", "{two}", "--stage2", "{b2}", "--out", "{out}"],
                           "stage 1", "classifier"),
        "compose-stage2": (["compose", "--stage1", "{a1}", "--stage2", "{two}", "--out", "{out}"],
                           "stage 2", "regressor"),
    }

    @pytest.mark.parametrize("command,stage,task", STAGE_FLAGS.values(), ids=STAGE_FLAGS)
    def test_a_two_stage_file_where_a_network_is_needed(
        self, workdir, tmp_path, capsys, command, stage, task
    ):
        two, out = workdir / "twostage.json", tmp_path / "out.json"
        paths = {"two": two, "out": out, "corpus": workdir / "corpus.csv",
                 "a1": workdir / "model_a1.json", "b2": workdir / "model_b2.json"}
        assert main([arg.format(**paths) for arg in command]) == EXIT_DATA
        assert capsys.readouterr().err == (
            f"error: {two}: a two-stage model file, not a network; "
            f"{stage} needs a {task} network file\n"
        )
        assert not out.exists()

    def test_compose_with_a_regressor_as_stage1(self, workdir, tmp_path, capsys):
        b2, out = workdir / "model_b2.json", tmp_path / "composed.json"
        code = main(["compose", "--stage1", str(b2), "--stage2", str(b2), "--out", str(out)])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == f"error: {b2}: stage 1 variant b2 is not a classifier\n"
        assert not out.exists()

    NOT_UTF8 = {
        "model": (["evaluate", "--model", "{latin}", "--data", "{corpus}", "--out", "{out}"],
                  EXIT_DATA, "error"),
        "csv": (["evaluate", "--model", "{a1}", "--data", "{latin}", "--out", "{out}"],
                EXIT_DATA, "error"),
        "train-data": (["train", "--variant", "a1", "--data", "{latin}", "--out", "{out}"],
                       EXIT_DATA, "error"),
        "config": (["train", "--variant", "a1", "--data", "{corpus}", "--config", "{latin}",
                    "--out", "{out}"], EXIT_USAGE, "usage error"),
    }

    @pytest.mark.parametrize("command,exit_code,prefix", NOT_UTF8.values(), ids=NOT_UTF8)
    def test_file_that_is_not_utf8(self, workdir, tmp_path, capsys, command, exit_code, prefix):
        latin, out = tmp_path / "latin.txt", tmp_path / "out"
        latin.write_bytes("{\"Дата\": 1}\n".encode("cp1251"))
        code = self.run(command, latin=latin, out=out, corpus=workdir / "corpus.csv",
                        a1=workdir / "model_a1.json")
        assert code == exit_code
        assert capsys.readouterr().err == (
            f"{prefix}: {latin}: 'utf-8' codec can't decode byte 0xc4 in position 2: "
            "invalid continuation byte\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("field", ["head", "variant_id"])
    @pytest.mark.parametrize("value", [[1], {"a": 1}], ids=["list", "object"])
    @pytest.mark.parametrize("kind", ["single", "two-stage"])
    def test_model_field_of_another_json_type(self, workdir, tmp_path, capsys, kind, value, field):
        bad, out = tmp_path / "model.json", tmp_path / "out"
        if kind == "single":
            doc = json.loads((workdir / "model_a1.json").read_text())
            doc[field] = value
            command = ["evaluate", "--model", str(bad), "--data", str(workdir / "corpus.csv")]
        else:
            doc = json.loads((workdir / "twostage.json").read_text())
            doc["stage2"][field] = value
            command = ["predict", "--model", str(bad), "--in", str(workdir / "corpus.csv")]
        bad.write_text(json.dumps(doc))
        assert main([*command, "--out", str(out)]) == EXIT_DATA
        message = {
            "head": f"invalid model: unknown head {value!r}",
            "variant_id": f"corrupt model document: variant_id must be a string or null, got {value!r}",
        }[field]
        if kind == "two-stage":
            message = f"stage2: {message}"
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"
        assert not out.exists()

    MODEL_FAULTS = {
        "unknown-head": ("softmax-4", None, "invalid model: unknown head 'softmax-4'"),
        "four-class-head": (
            "softmax-5",
            None,
            "invalid model: head layer (softmax, 4) does not match declared head softmax-5",
        ),
        "params-not-base64": (None, "not base64!", "corrupt model document: Only base64 data is allowed"),
        "params-seven-bytes": (
            None,
            base64.b64encode(b"\0" * 7).decode(),
            "corrupt model document: buffer size must be a multiple of element size",
        ),
        "params-one-value": (
            None,
            base64.b64encode(b"\0" * 8).decode(),
            "corrupt model document: params has 1 values, fewer than the layers need",
        ),
    }

    @pytest.mark.parametrize("head,params,message", MODEL_FAULTS.values(), ids=MODEL_FAULTS)
    def test_corrupt_model_file(self, workdir, tmp_path, capsys, head, params, message):
        doc = json.loads((workdir / "model_a1.json").read_text())
        if head is not None:
            # A four-class head: 64 x 4 weights and 4 biases, 65 values fewer.
            doc["layers"][-1]["shape"] = [64, 4]
            values = base64.b64decode(doc["params"])[: -65 * 8]
            doc["params"], doc["head"] = base64.b64encode(values).decode(), head
        else:
            doc["params"] = params
        bad, out = tmp_path / "model.json", tmp_path / "report.json"
        bad.write_text(json.dumps(doc))
        code = main(["evaluate", "--model", str(bad), "--data", str(workdir / "corpus.csv"),
                     "--out", str(out)])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"
        assert not out.exists()

    def test_least_positive_power_preprocesses_and_trains(self, workdir, tmp_path, capsys):
        # 5e-324 W, the least positive float, encodes to the lowest feature
        # encode_table writes, about -60.99, and trains without a warning.
        rows = (workdir / "corpus.csv").read_text().splitlines()
        fields = rows[1].split(",")
        fields[3] = "5e-324"
        corpus, model = tmp_path / "corpus.csv", tmp_path / "m.json"
        corpus.write_text("\n".join([rows[0], ",".join(fields), *rows[2:]]) + "\n")
        lowest = encode_table(read_table(corpus)).features[0, 0]
        assert lowest == math.log(5e-324) / LN_FULL_POWER
        config = tmp_path / "train.json"
        config.write_text(json.dumps({"max_epochs": 2}))
        train = ["train", "--variant", "a1", "--data", str(corpus), "--config", str(config)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*train, "--out", str(model)]) == EXIT_OK
        assert capsys.readouterr().err == ""

    MODEL_RECORD_FAULTS = {
        "shape-string": (
            ["layers", 1], "shape", [3, "2"],
            "layer 2: field 'shape' must be two integers >= 1, got [3, '2']",
        ),
        "topology-string": (
            [], "merge_topology", "initial",
            "field 'merge_topology' must be an object, got 'initial'",
        ),
        "branch-unlisted": (
            ["merge_topology"], "branches", ["first", "final"],
            "layer 1: field 'branch' must be one of ['first', 'final', 'trunk'], got 'initial'",
        ),
        "aux_width-negative": (
            ["merge_topology"], "aux_width", -1,
            "merge_topology: field 'aux_width' must be an integer >= 0, got -1",
        ),
        "layer-string": (["layers"], 0, "initial", "layer 1 must be an object, got 'initial'"),
        "activation-number": (
            ["layers", 0], "activation", 5, "layer 1: field 'activation' must be a string, got 5"
        ),
        "l2-string": (["layers", 6], "l2", "0", "layer 7: field 'l2' must be a number, got '0'"),
        # Only a format-1 record holds `weights` and `biases`; the fixture's
        # first layer is 2 x 3, its second 1 x 2.
        "weights-missing": (["layers", 0], "weights", MISSING, "layer 1: missing field 'weights'"),
        "weights-one-value": (
            ["layers", 0], "weights", [1.0],
            "layer 1: field 'weights' must be a list of 6 numbers, got [1.0]",
        ),
        "weights-nested": (
            ["layers", 1], "weights", [[1.0], [2.0]],
            "layer 2: field 'weights' must be a list of 2 numbers, got [[1.0], [2.0]]",
        ),
        "biases-string": (
            ["layers", 1], "biases", ["x", 1.0],
            "layer 2: field 'biases' must be a list of 2 numbers, got ['x', 1.0]",
        ),
        # The fixture is twostage_v1.json's stage 1; a value whose repr is
        # over 80 characters is shown by its type and size.
        "weights-one-short": (
            ["layers", 2], "weights", lambda weights: weights[:-1],
            "layer 3: field 'weights' must be a list of 30 numbers, got a list of 29 items",
        ),
    }

    @staticmethod
    def spoil(doc, path, key, value):
        """`doc` with doc[path...][key] set to `value`, or to value(old value)
        if it is a function, or deleted if MISSING."""
        record = doc
        for step in path:
            record = record[step]
        if value is MISSING:
            del record[key]
        else:
            record[key] = value(record[key]) if callable(value) else value
        return doc

    @pytest.mark.parametrize("path,key,value,message", MODEL_RECORD_FAULTS.values(),
                             ids=MODEL_RECORD_FAULTS)
    def test_malformed_model_record(self, workdir, tmp_path, capsys, path, key, value, message):
        source = FORMAT1_MODEL if key in ("weights", "biases") else workdir / "model_a1.json"
        doc = self.spoil(json.loads(source.read_text()), path, key, value)
        bad, out = tmp_path / "model.json", tmp_path / "report.json"
        bad.write_text(json.dumps(doc))
        code = main(["evaluate", "--model", str(bad), "--data", str(workdir / "corpus.csv"),
                     "--out", str(out)])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == f"error: {bad}: corrupt model document: {message}\n"
        assert not out.exists()

    TWO_STAGE_FAULTS = {
        "stage1-missing": ([], "stage1", MISSING, "corrupt model document: missing field 'stage1'"),
        "stage2-list": (
            [], "stage2", [1], "corrupt model document: field 'stage2' must be an object, got [1]"
        ),
        "stage1-unversioned": (
            ["stage1"], "format_version", MISSING,
            "stage1: not a model document: missing format_version",
        ),
        "stage2-layer-shape": (
            ["stage2", "layers", 1], "shape", [3, "2"],
            "stage2: corrupt model document: layer 2: field 'shape' must be two integers >= 1, "
            "got [3, '2']",
        ),
    }

    @pytest.mark.parametrize("path,key,value,message", TWO_STAGE_FAULTS.values(),
                             ids=TWO_STAGE_FAULTS)
    def test_malformed_two_stage_file(self, workdir, tmp_path, capsys, path, key, value, message):
        doc = self.spoil(json.loads((workdir / "twostage.json").read_text()), path, key, value)
        bad, out = tmp_path / "twostage.json", tmp_path / "out"
        bad.write_text(json.dumps(doc))
        data = str(workdir / "corpus.csv")
        for command in (["predict", "--model", str(bad), "--in", data],
                        ["evaluate", "--model", str(bad), "--data", data]):
            assert main([*command, "--out", str(out)]) == EXIT_DATA
            assert capsys.readouterr().err == f"error: {bad}: {message}\n"
            assert not out.exists()

    CONFIGS = {
        "train-list": ("train", [1], "expected a JSON object"),
        "pipeline-list": ("pipeline", [1], "expected a JSON object"),
        "policy-unknown-key": ("pipeline", {"policy": {"bogus": 1}}, "unknown key 'policy'"),
        "pipeline-50-unknown-ids": (
            "pipeline", {"classifier_ids": [f"x{i}" for i in range(50)]},
            "classifier_ids must be a list of distinct ids from "
            "('a1', 'b1', 'c1', 'd1', 'e1', 'f1'), got a list of 50 items",
        ),
        # The OS refuses it only once the pipeline makes the directory.
        "pipeline-nul-out-dir": (
            "pipeline", {"out_dir": "a\0b"}, "out_dir must be a non-empty path, got 'a\\x00b'"
        ),
        **{
            f"{command}-{key}": (command, {key: value}, f"unknown key {key!r}")
            for command in ("train", "pipeline")
            for key, value in REMOVED_KEYS.items()
        },
    }

    @pytest.mark.parametrize("command,doc,message", CONFIGS.values(), ids=CONFIGS)
    def test_refused_config_file(self, workdir, tmp_path, capsys, command, doc, message):
        config, out = tmp_path / "config.json", tmp_path / "out"
        config.write_text(json.dumps(doc))
        args = {
            "train": ["--variant", "a1", "--data", str(workdir / "corpus.csv"), "--out", str(out)],
            "pipeline": ["--out-dir", str(out)],
        }[command]
        assert main([command, "--config", str(config), *args]) == EXIT_USAGE
        assert capsys.readouterr().err == f"usage error: {config}: {message}\n"
        assert not out.exists()


def test_readme_quick_start_commands_parse():
    # Every rtp command that README's Quick start shows is one the parser takes.
    text = (Path(__file__).parents[1] / "README.md").read_text()
    section = text.split("## Quick start\n")[1].split("\n## ")[0]
    blocks = [block.split("```")[0] for block in section.split("```sh\n")[1:]]
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("rtp ")]
    parsed = {cli.build_parser().parse_args(argv).command for argv in commands}
    assert parsed == {"synthesize", "augment", "train", "compose", "evaluate", "predict", "pipeline"}


def test_a_bare_value_error_escapes_main(monkeypatch):
    # main maps only rtp's typed errors to exit codes; any other exception is
    # a bug in rtp and must show as a traceback, not as a data error.
    def broken(args):
        raise ValueError("not an input error")

    monkeypatch.setattr(cli, "_cmd_compose", broken)
    with pytest.raises(ValueError, match="not an input error"):
        main(["compose", "--stage1", "a.json", "--stage2", "b.json", "--out", "c.json"])
