"""Checks that tracing leaves rtp's results alone, and reports its overhead.

    python3 perfbench/check_trace.py --seed 0 --seconds 10

Runs every workload untraced and traced at one seed, each in its own process
(the benchmark's own run.py), then compares:

- the sha256 of every artifact of each pipeline both runs made with the same
  seed (the desk pipeline at the run's seed, the predict workload's model):
  they must be identical;
- tracing overhead per workload: traced wall time over untraced wall time,
  minus 1, for the same unit of work (one run_pipeline call; one rtp
  predict call and one online call). The host's speed drifts, so the check
  runs PAIRS pairs, alternating which side runs first, and reports the
  median.

Exit code 1 when an artifact differs or a run fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
PAIRS = 3


# Per workload: the units of work whose traced and untraced times are compared.
UNITS = {
    "desk_pipeline": {"run_pipeline call": lambda d: d["pipelines"][0]["wall_s"]},
    "predict": {
        "rtp predict call": lambda d: statistics.median(d["batch_call_s"]),
        "online call": lambda d: d["online_mean_ms"] / 1e3,
    },
}


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(command[1:])} exited {proc.returncode}:\n{proc.stderr}")
    for line in proc.stdout.splitlines():
        if line.startswith("detail "):
            return json.loads(line[len("detail "):])
    raise RuntimeError(f"{' '.join(command[1:])} printed no detail line")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)

    ok = True
    summary = {}
    for workload in WORKLOADS:
        ratios: dict[str, list[float]] = {unit: [] for unit in UNITS[workload]}
        digests = set()
        for pair in range(PAIRS):
            order = (0, 1) if pair % 2 == 0 else (1, 0)
            runs = {trace: run(workload, args.seed, args.seconds, trace) for trace in order}
            for detail in runs.values():
                first = detail["pipelines"][0]
                digests.add(json.dumps([first["seed"], first["artifacts"]], sort_keys=True))
            for unit, seconds in UNITS[workload].items():
                ratios[unit].append(seconds(runs[1]) / seconds(runs[0]))
        same = len(digests) == 1
        ok &= same
        overhead = {unit: statistics.median(r) - 1.0 for unit, r in ratios.items()}
        summary[workload] = {"overhead": overhead, "ratios": ratios, "artifacts_identical": same}
        for unit, value in overhead.items():
            print(f"{workload:<14} {unit:<18} tracing overhead {value:+.3f} "
                  f"(median of {PAIRS} pairs)")
        print(f"{workload:<14} pipeline artifacts {'identical' if same else 'DIFFER'} "
              f"across {2 * PAIRS} runs")
    print(json.dumps(summary, sort_keys=True))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
