"""Latency of P2's first inference request after a deploy, against a warm one.

    python3 tools/first_request.py --checkout .         # one checkout, JSON lines
    python3 tools/first_request.py --parent ../parent --change . --rounds 3 \\
        --deploys 9 --topic wide                        # both, into BENCH_wide.json

In process, per benchmark workload (configs from `<checkout>/perfbench/
workloads.py`, weights from its MODEL_SEED): P1 deploys, P2 handles the
DEPLOY_MODEL frame, which is then dropped, and P3 takes the keys; then P2
serves the same TOP1 prefill of the workload's prompt length twice, each on a
fresh link cache. The first is the first request of the deployment, the
second a warm one. Per workload it reports the medians over `--deploys`
deployments of both serve times and of their per-deploy difference, which is
what the first request after a deploy pays beyond a warm one. A benchmark run
spreads that cost over its warm-up and timed sessions; this reports it alone.

With `--parent` and `--change`, each side runs in its own child process
(`OPENBLAS_NUM_THREADS=1`) once per round, the side that runs first
alternating by round, and the results go under `first_request` of
`BENCH_<topic>.json` in the current directory, beside what other tools wrote.
"""

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")


def workloads(checkout):
    path = Path(checkout) / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def first_request_ms(w, model_seed, deploys, seed):
    """Medians of the first and a warm prefill's serve time after each deploy."""
    import numpy as np

    from stip import wire
    from stip.model import gen_model
    from stip.protocol import DataOwnerParty, DeveloperParty, LinkCache, ServerParty

    params = gen_model(w.config, model_seed)
    p1 = DeveloperParty(params, session_seed=seed)
    p2 = ServerParty()
    p3 = DataOwnerParty(params.embedding, session_seed=seed + 1)
    rng = np.random.default_rng(seed)
    first, warm = [], []
    for i in range(deploys):
        to_p2, to_p3 = p1.initialize(seed + i)
        p2.handle_deploy(to_p2)
        del to_p2  # P2 keeps no container once it has acked
        p3.handle_deploy_keys(to_p3)
        prompt = rng.integers(0, w.config.vocab_size, w.prompt_len)
        req = p3.infer_request(prompt, mode=wire.ReplyMode.TOP1)
        for times in (first, warm):
            t0 = time.perf_counter()
            p2.serve(req, LinkCache())
            times.append(1e3 * (time.perf_counter() - t0))
    return {
        "deploys": deploys,
        "first_ms": statistics.median(first),
        "warm_ms": statistics.median(warm),
        "extra_ms": statistics.median(f - c for f, c in zip(first, warm)),
    }


def run_checkout(checkout, deploys, seed):
    """{workload: result} for one checkout, imported into this process."""
    src = Path(checkout).resolve() / "src"
    sys.path.insert(0, str(src))
    import stip

    if Path(stip.__file__).resolve().parent != src / "stip":
        raise SystemExit(f"imported stip from {stip.__file__}, not {src}")
    module = workloads(checkout)
    return {
        name: first_request_ms(w, module.MODEL_SEED, deploys, seed)
        for name, w in module.WORKLOADS.items()
    }


def run_child(checkout, deploys, seed):
    cmd = [sys.executable, __file__, "--checkout", checkout,
           "--deploys", str(deploys), "--seed", str(seed)]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--checkout", help="measure this checkout and print its JSON")
    p.add_argument("--parent", help="checkout of the parent commit")
    p.add_argument("--change", help="checkout of the change")
    p.add_argument("--rounds", type=int, default=3)
    p.add_argument("--deploys", type=int, default=9)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--topic", help="with --parent/--change: writes BENCH_<topic>.json")
    args = p.parse_args(argv)
    if args.checkout:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
        print(json.dumps(run_checkout(args.checkout, args.deploys, args.seed)))
        return 0
    if not (args.parent and args.change and args.topic):
        p.error("give --checkout, or all of --parent, --change and --topic")
    checkouts = {"parent": args.parent, "change": args.change}
    rounds = []
    for r in range(args.rounds):
        order = SIDES if r % 2 == 0 else SIDES[::-1]
        got = {side: run_child(checkouts[side], args.deploys, args.seed + r)
               for side in order}
        rounds.append({"round": r, "seed": args.seed + r, "first": order[0], **got})
        print(f"round {r} done", file=sys.stderr, flush=True)
    names = sorted(rounds[0]["parent"])
    summary = {
        name: {
            side: {
                key: statistics.median(rd[side][name][key] for rd in rounds)
                for key in ("first_ms", "warm_ms", "extra_ms")
            }
            for side in SIDES
        }
        for name in names
    }
    out = Path(f"BENCH_{args.topic}.json")
    doc = json.loads(out.read_text()) if out.exists() else {"topic": args.topic}
    doc["first_request"] = {
        "command": (f"python3 tools/first_request.py --parent <parent> --change <change> "
                    f"--rounds {args.rounds} --deploys {args.deploys} --seed {args.seed} "
                    f"--topic {args.topic}"),
        "summary": summary,
        "rounds": rounds,
    }
    out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
