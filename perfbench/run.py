"""rtp benchmark: one workload, one seed, checked outputs, one result line.

    python3 perfbench/run.py --workload desk_pipeline --seed 0 --seconds 50 --trace 0

Run from the root of an rtp checkout; the benchmark imports rtp from its
``src`` directory. ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of a separate traced run. The last line of standard
output is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 1 when any output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

import environment
import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _format(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv: list[str] | None = None) -> int:
    environment.pin_blas()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rtp" / "__init__.py").is_file():
        print(f"error: no rtp package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    load_start = os.getloadavg()
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as work:
        result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                               ROOT, Path(work))
    env = environment.describe(ROOT)
    env["loadavg_start"] = load_start
    env["loadavg_end"] = os.getloadavg()

    if args.trace:
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
    else:
        units = dict(workloads.END_TO_END)
    outcome = result.outcome
    print(f"rtp benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for name, unit in units.items():
        note = result.notes.get(name, "")
        print(f"  {name:<28} {_format(result.metrics[name]):>14} {unit:<10} {note}")
    if args.trace:
        print("  engine.step_flops and engine.step_gflops are computed from layer shapes")
        for vid, seconds in result.detail["train_s_by_variant"].items():
            epochs = result.detail["epochs_by_variant"][vid]
            print(f"  training.train_s.{vid:<11} {seconds:>14.6g} s          {epochs} epochs")
        for entry in result.detail["unmeasured"]:
            print(f"  unmeasured: {entry} no longer exists in rtp")
    print(f"  {'error_rate':<28} {_format(outcome.failed / outcome.attempted):>14} ratio      "
          f"{outcome.failed} failed of {outcome.attempted} checked operations")
    for problem in outcome.problems:
        print(f"  check failed: {problem}")
    print("env " + json.dumps(env, sort_keys=True))
    print("detail " + json.dumps(result.detail, sort_keys=True))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": result.metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
