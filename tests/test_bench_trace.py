"""The benchmark's traced run (perfbench/run.py --trace 1) wraps rtp's names
from outside, with perfbench/layers.install: a pipeline, an rtp predict call
and a one-row compose.predict must all still run under those wrappers, and
the scorers' blocks must be among the names they measure."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Run in a child process: install wraps rtp's names for the life of the process.
SCRIPT = """
import json, sys
from pathlib import Path

import layers, rowgen, workloads
from spans import Tracer
from rtp.compose import load_two_stage
from rtp.pipeline import PipelineConfig, run_pipeline

out = Path(sys.argv[1])
tracer = Tracer()
missing = layers.install(tracer)
rows_csv = out / "rows.csv"
rowgen.write_csv(rowgen.generate_rows(20, seed=3), rows_csv)
observations = workloads.load_observations(rows_csv)
tracer.active = True
run_pipeline(PipelineConfig(
    out_dir=out, corpus_n=300, augment_n=50, training_overrides={"max_epochs": 2}
))
model_path = out / "twostage.json"
code = workloads.cli_predict(model_path, rows_csv, out / "predictions.csv")
workloads.online_calls(load_two_stage(model_path), observations, 0, 1)
tracer.active = False
names = [span.name for span in tracer.finished()]
print(json.dumps({"missing": missing, "predict_exit": code,
                  "evaluate_spans": names.count("evaluate")}))
"""


def test_traced_run_completes_and_measures_the_scorers(tmp_path):
    paths = [str(ROOT / "perfbench"), str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["predict_exit"] == 0
    assert "rtp.pipeline.regression_report" not in result["missing"]
    # The wrappers of `forward` read a name-keyed dict of inputs, so neither
    # module may bind that name: a network takes one matrix.
    assert {"rtp.pipeline.forward", "rtp.compose.forward"} <= set(result["missing"])
    # Every scoring: confusion and class_metrics for each of the six
    # classifiers, and regression_report too for the four regressor pairs
    # and the composed pair.
    assert result["evaluate_spans"] == 2 * 6 + 3 * 4 + 3
