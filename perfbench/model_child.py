"""Builds the predict workload's a1+b2 model in a process of its own.

Started by ``workloads.model_in_child``. Prints one JSON line: the
pipeline's figures and, with ``--trace 1``, the spans it recorded.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import environment

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    environment.pin_blas()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", required=True, type=Path)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))

    import layers
    import workloads
    from spans import Tracer

    tracer = Tracer()
    if args.trace:
        layers.install(tracer)
    clock = workloads.TrainClock()
    tracer.active = bool(args.trace)
    stats = workloads.pipeline_phase(args.out_dir, args.seed, workloads.PREDICT_VARIANTS, clock)
    tracer.active = False
    print(json.dumps({"pipeline": stats, "spans": tracer.finished()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
