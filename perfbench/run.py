"""Benchmark of stip's three-party generation: throughput, latency, wire bytes.

    python3 perfbench/run.py --workload desk-decode --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the package from `src/`.
Prints a readable report, then as its last line one JSON object with
`correct`, `attempted`, `failed` and `metrics` (end-to-end metrics with
`--trace 0`, per-layer metrics with `--trace 1`). The full report, and for a
traced run its spans, go to `out/` beside this file. Exit codes: 0 correct, 1 a
wrong token, failed operation or failed gate, 2 usage or missing sources.
"""

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# Fixed and recorded: one vs two BLAS threads moved desk-model throughput over
# TCP by about 10% on a 2-core host. The parties alternate in a closed loop.
BLAS_THREADS = 1


def main(argv=None):
    if not (SRC / "stip" / "__init__.py").is_file():
        print(f"error: no stip sources at {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    os.environ["OPENBLAS_NUM_THREADS"] = str(min(BLAS_THREADS, nproc))
    sys.path.insert(0, str(SRC))
    import stip

    if Path(stip.__file__).resolve().parent != SRC / "stip":
        print(f"error: imported stip from {stip.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from driver import as_json, run_workload, write_outputs
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    status = 0
    for name in names:
        w = WORKLOADS[name]
        report, tracer = run_workload(w, args.seed, args.seconds, bool(args.trace))
        paths = write_outputs(report, tracer, HERE / "out")
        print_report(report, paths)
        print(json.dumps({
            "correct": report["correct"],
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": as_json(report["metrics"]),
        }), flush=True)
        if not report["correct"]:
            status = 1
    return status


def print_report(report, paths):
    env = report["env"]
    print(f"== {env['workload']} seed={env['seed']} trace={env['trace']} "
          f"transport={env['transport']} correct={report['correct']} "
          f"attempted={report['attempted']} failed={report['failed']}")
    for section in ("metrics", "extra"):
        for name, (value, unit) in report[section].items():
            print(f"  {name:34s} {value:>16.6g} {unit}")
    for name, value in report["checks"].items():
        print(f"  check {name:28s} {value}")
    print("  env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for path in paths:
        print(f"  wrote {path}")


if __name__ == "__main__":
    sys.exit(main())
