"""Paired before/after runs of the benchmark, summarized into a BENCH_<topic>.json.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload moe-prefill --pairs 10 --seed 201 --topic swiglu

Each pair runs `perfbench/run.py` once in the parent checkout and once in the
change checkout, as a black box: a fresh seed per pair (`--seed` + pair
index), and the side that runs first alternates from pair to pair. The last
stdout line of each run is its JSON result; the tool keeps every run's
metrics, `correct`, `failed` and wall time, then per side the median and
quartiles of each metric and the change's win count (direction from
`BENCHMARK.json`). For each end-to-end metric it also records whether the
change's median stays within the metric's `bound` of the parent's, and
whether the parent's own spread is wider than that bound. Results go under `workloads.<name>` (or
`traced.<name>` with `--trace 1`) of `BENCH_<topic>.json` in the current
directory; a file that already exists keeps its other workloads, so one file
collects several calls. A call for a workload the file already holds appends
its pairs after the earlier ones and summarizes all of them; if the earlier
runs used another `--seconds`, it exits 2 and leaves the file as it was.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")
# The CPU count in the summary comes from this checkout's `stip`.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def quartiles(values):
    """(q1, median, q3), linear interpolation between order statistics."""
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def summarize(runs, better, bounds=None):
    """Per-metric medians, quartiles and change wins over paired runs.

    `runs` holds dicts with `pair`, `side`, `wall_s`, `correct`, `failed` and
    `metrics` (name to number). `better` maps a metric name to "higher" or
    "lower"; `wall_s` is always lower-is-better. A pair counts when both of
    its runs report the metric; the change wins a pair when it is strictly
    better. `beyond_parent_iqr` says whether the medians differ by more than
    the parent's interquartile range.

    `bounds` maps an end-to-end metric to the fraction by which it may
    worsen. Such a metric also gets `within_bound`, whether the change's
    median is worse than the parent's by at most that fraction of the
    parent's median, and `unresolved`, whether the parent's IQR is wider
    than that fraction of the parent's median.
    """
    bounds = bounds or {}
    by_pair = {}
    for r in runs:
        values = dict(r.get("metrics") or {})
        values["wall_s"] = r["wall_s"]
        by_pair.setdefault(r["pair"], {})[r["side"]] = values
    names = sorted({n for sides in by_pair.values() for v in sides.values() for n in v})
    out = {
        "pairs": len(by_pair),
        "all_correct": all(r["correct"] for r in runs),
        "failed": {s: sum(r["failed"] or 0 for r in runs if r["side"] == s) for s in SIDES},
        "metrics": {},
    }
    for name in names:
        direction = "lower" if name == "wall_s" else better.get(name, "lower")
        pairs = [
            (sides["parent"][name], sides["change"][name])
            for sides in by_pair.values()
            if all(s in sides and name in sides[s] for s in SIDES)
        ]
        if not pairs:
            continue
        stats = {"better": direction, "pairs": len(pairs)}
        for i, side in enumerate(SIDES):
            q1, med, q3 = quartiles([p[i] for p in pairs])
            stats[side] = {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in pairs)
        stats["change_wins"] = f"{wins}/{len(pairs)}"
        p_med, c_med = stats["parent"]["median"], stats["change"]["median"]
        stats["change_over_parent"] = c_med / p_med if p_med else None
        stats["beyond_parent_iqr"] = abs(c_med - p_med) > stats["parent"]["iqr"]
        if name in bounds:
            allowed = bounds[name] * abs(p_med)
            stats["bound"] = bounds[name]
            stats["within_bound"] = sign * (p_med - c_med) <= allowed
            stats["unresolved"] = stats["parent"]["iqr"] > allowed
        out["metrics"][name] = stats
    return out


def run_once(checkout, workload, seed, seconds, trace):
    """One run.py run in `checkout`: its JSON result plus wall time."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True,
                              text=True, timeout=seconds * 10 + 600)
        code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired:
        code, stdout, stderr = None, "", "timed out"
    wall = time.perf_counter() - t0
    try:
        result = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "failed": None, "metrics": {},
                  "error": (stderr or stdout)[-2000:]}
    metrics = result.get("metrics") or {}
    return {
        "correct": bool(result.get("correct")) and code == 0,
        "failed": result.get("failed"),
        "attempted": result.get("attempted"),
        "wall_s": round(wall, 3),
        "metrics": {name: m["value"] for name, m in metrics.items()},
        **({"error": result["error"]} if "error" in result else {}),
    }


def metric_directions(checkout):
    spec = json.loads((Path(checkout) / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for key in ("end_to_end", "per_layer")
            for m in spec.get(key, [])}


def metric_bounds(checkout):
    """End-to-end metric name -> the fraction by which it may worsen."""
    spec = json.loads((Path(checkout) / "BENCHMARK.json").read_text())
    return {m["name"]: m["bound"] for m in spec.get("end_to_end", []) if "bound" in m}


def host():
    import numpy

    from stip.numerics import usable_cpus

    return {
        "OPENBLAS_NUM_THREADS": "1",
        "nproc": usable_cpus(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="checkout of the parent commit")
    p.add_argument("--change", required=True, help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--topic", required=True, help="writes BENCH_<topic>.json")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    out = Path(f"BENCH_{args.topic}.json")
    doc = json.loads(out.read_text()) if out.exists() else {"topic": args.topic}
    command = (f"python3 perfbench/run.py --workload {args.workload} --seed <seed> "
               f"--seconds {args.seconds:g} --trace {args.trace}")
    section = doc.setdefault("traced" if args.trace else "workloads", {})
    earlier = section.get(args.workload, {"command": command, "seeds": [], "runs": []})
    if earlier["command"] != command:
        p.error(f"{out} holds {args.workload} runs of `{earlier['command']}`; "
                f"runs of `{command}` do not pair with them")
    first_pair = len(earlier["seeds"])
    checkouts = {"parent": args.parent, "change": args.change}
    runs = []
    for i in range(args.pairs):
        pair, seed = first_pair + i, args.seed + i
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            r = run_once(checkouts[side], args.workload, seed, args.seconds, args.trace)
            runs.append({"pair": pair, "seed": seed, "side": side, "first": order[0], **r})
            print(f"pair {pair} seed {seed} {side}: correct={r['correct']} "
                  f"wall={r['wall_s']}s", file=sys.stderr, flush=True)
    doc["host"] = host()
    all_runs = earlier["runs"] + runs
    section[args.workload] = {
        "command": command,
        "seeds": earlier["seeds"] + [args.seed + i for i in range(args.pairs)],
        "summary": summarize(all_runs, metric_directions(args.change),
                             metric_bounds(args.change)),
        "runs": all_runs,
    }
    out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
