"""One benchmark run of one workload: gate, set-up, warm-up, timed loop, check.

The untraced run times the end-to-end metrics. The traced run (`trace=True`)
first times an untraced half for the tracing-overhead figure, then a traced
half from which the per-layer metrics come. Every session's tokens are
compared with local `greedy_generate` after the clock stops; any mismatch,
Error frame or transport fault makes the run incorrect.
"""

import json
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from itertools import count
from pathlib import Path

import numpy as np

import stip
from stip.errors import StipError
from stip.model import gen_model
from stip.transform import gen_permutation_set, verify_equivalence

from harness import ThreeParty
from spans import Tracer, layer_metrics
from workloads import MODEL_SEED

GATE_TOL = 1e-4
GATE_TRIALS = 3
COVERAGE_TOL = 0.05
ITL_TAIL_MIN = 10  # report a percentile only with this many samples beyond it
CHECK_WORKERS = 2  # token checks run after timing, one process per core
CHECKER = Path(__file__).resolve().parent / "check_tokens.py"
SRC = Path(stip.__file__).resolve().parent.parent


def environment(w, seed, seconds, trace):
    """Flat record of what the numbers depend on: scalars and strings only."""
    env = {
        "workload": w.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "transport": w.transport,
        "prompt_len": w.prompt_len,
        "new_tokens": w.new_tokens,
        "rekey_every": w.rekey_every,
        "model_seed": MODEL_SEED,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", ""),
    }
    for key, value in vars(w.config).items():
        env[f"config.{key}"] = getattr(value, "value", value)
    return env


class _Run:
    def __init__(self, w, seed, tracer):
        self.w = w
        self.params = gen_model(w.config, MODEL_SEED)
        self.tracer = tracer
        prompt_rng = np.random.default_rng([seed, 0])
        key_rng = np.random.default_rng([seed, 1])
        vocab = w.config.vocab_size
        self.prompts = iter(
            lambda: prompt_rng.integers(0, vocab, w.prompt_len).tolist(), None
        )
        self.keys = iter(lambda: int(key_rng.integers(2**31)), None)
        self.session_ids = count()
        self.system = None
        self.deploys = 0
        self.failures = 0

    def set_up(self):
        """Fresh parties and links, then the first deployment; returns seconds."""
        if self.system is not None:
            self.system.close()
            self.system = None
        t0 = time.perf_counter()
        self.system = ThreeParty(self.params, self.w.transport)
        self.system.deploy(next(self.keys))
        dt = time.perf_counter() - t0
        self.deploys += 1
        return dt

    def drive(self, sessions=None, deadline=None):
        """Closed loop of sessions, re-keying on the workload's cadence.

        Returns (sessions, re-key seconds). Re-key time is not session time.
        """
        done, rekeys = [], []
        while True:
            k = len(done)
            try:
                if self.w.rekey_every and k and k % self.w.rekey_every == 0:
                    t0 = time.perf_counter()
                    self.system.deploy(next(self.keys))
                    rekeys.append(time.perf_counter() - t0)
                    self.deploys += 1
                if self.tracer is not None:
                    self.tracer.session = next(self.session_ids)
                done.append(self.system.session(next(self.prompts), self.w.new_tokens))
            except StipError:
                self.failures += 1
                break
            finally:
                if self.tracer is not None:
                    self.tracer.session = None
            if sessions is not None and len(done) >= sessions:
                break
            if deadline is not None and time.perf_counter() >= deadline:
                break
        return done, rekeys

    def close(self):
        if self.system is not None:
            self.system.close()
            self.system = None


def _mismatches(w, sessions):
    """Check every session after the clock stops, split over CHECK_WORKERS processes.

    Each worker is a plain child process that the run waits for on every path
    out, so none outlives the run.
    """
    pairs = [(s.prompt, s.tokens) for s in sessions]
    chunks = [pairs[i::CHECK_WORKERS] for i in range(CHECK_WORKERS)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    procs = []
    try:
        for _ in chunks:
            procs.append(subprocess.Popen(
                [sys.executable, str(CHECKER)],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                env=env,
            ))
        with ThreadPoolExecutor(len(procs)) as ex:
            outs = list(ex.map(
                lambda pc: pc[0].communicate(
                    pickle.dumps((w.config, w.new_tokens, pc[1]))
                )[0],
                zip(procs, chunks),
            ))
        if any(p.returncode for p in procs):
            raise RuntimeError("token check worker failed")
        return sum(int(out) for out in outs)
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
            p.wait()


def end_to_end(sessions, setup_times, rekeys, peak_rss_mb):
    """(metrics, extra): metrics are the guarded figures, extra the rest."""
    tokens = sum(len(s.tokens) for s in sessions)
    gen_s = sum(s.end - s.start for s in sessions)
    ttft = [1e3 * (s.reply_times[0] - s.start) for s in sessions]
    itl = [
        1e3 * (b - a)
        for s in sessions
        for a, b in zip(s.reply_times, s.reply_times[1:])
    ]
    wire = sum(s.request_bytes + s.response_bytes for s in sessions)
    metrics = {
        "tokens_per_s": (tokens / gen_s, "tokens/s"),
        "ttft_ms.p50": (statistics.median(ttft), "ms"),
        "itl_ms.p50": (statistics.median(itl), "ms"),
        "wire_bytes_per_token": (wire / tokens, "B/token"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    extra = {
        "sessions": (len(sessions), "count"),
        "tokens": (tokens, "count"),
        "ttft_samples": (len(ttft), "count"),
        "itl_samples": (len(itl), "count"),
        "setup_samples": (len(setup_times), "count"),
    }
    if len(itl) >= 20 * ITL_TAIL_MIN:
        extra["itl_ms.p95"] = (float(np.percentile(itl, 95)), "ms")
    if rekeys:
        extra["rekey_ms.p50"] = (1e3 * statistics.median(rekeys), "ms")
        extra["rekey_samples"] = (len(rekeys), "count")
    return metrics, extra


def run_workload(w, seed, seconds, trace):
    """Run one workload; returns (report, tracer or None).

    Report values are scalars and strings, nested in dicts, never lists.
    """
    tracer = Tracer() if trace else None
    run = _Run(w, seed, tracer)
    report = {"env": environment(w, seed, seconds, trace), "checks": {}}
    gate = verify_equivalence(
        run.params,
        gen_permutation_set(w.config, seed),
        trials=GATE_TRIALS,
        tol=GATE_TOL,
        seed=seed,
    )
    report["checks"]["gate.max_abs_diff"] = gate["max_abs_diff"]
    report["checks"]["gate.argmax_match_rate"] = gate["argmax_match_rate"]
    if not gate["passed"]:
        report.update(correct=False, attempted=1, failed=1, metrics={}, extra={})
        return report, tracer

    # Only the first set-up precedes the timed loop, so peak RSS covers one
    # deployment and the loop; the other set-ups follow it, for setup_s.
    all_sessions, timed, traced, rekeys = [], [], [], []
    half = seconds / 2 if trace else seconds
    try:
        if tracer is not None:
            tracer.install()
        setup_times = [run.set_up()]
        if tracer is not None:
            tracer.phase = "warmup"
        all_sessions += run.drive(sessions=w.warmup_sessions)[0]
        if tracer is not None:
            tracer.uninstall()
        if not run.failures:
            timed, rekeys = run.drive(deadline=time.perf_counter() + half)
            all_sessions += timed
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None and not run.failures:
            tracer.install()
            tracer.phase = "timed"
            tracer.reset_counters()
            traced = run.drive(deadline=time.perf_counter() + half)[0]
            all_sessions += traced
            tracer.phase = "setup"
        setup_times += [run.set_up() for _ in range(w.setup_reps - 1)]
    finally:
        if tracer is not None:
            tracer.uninstall()
        run.close()
    metrics, extra = ({}, {})
    if timed:
        metrics, extra = end_to_end(timed, setup_times, rekeys, peak_rss_mb)

    rounds = sum(len(s.tokens) for s in all_sessions)
    mismatched = _mismatches(w, all_sessions)
    error_frames = sum(s.error_frames for s in all_sessions)
    failed = run.failures + mismatched + error_frames
    attempted = rounds + run.deploys + run.failures
    report["checks"]["mismatched_tokens"] = mismatched
    report["checks"]["error_frames"] = error_frames
    correct = failed == 0 and bool(timed)

    if tracer is not None and correct:
        layers = layer_metrics(tracer, traced)
        traced_tps = sum(len(s.tokens) for s in traced) / sum(
            s.end - s.start for s in traced
        )
        layers["trace.tokens_per_s"] = (traced_tps, "tokens/s")
        layers["trace.overhead_tokens_per_s"] = (
            metrics["tokens_per_s"][0] - traced_tps,
            "tokens/s",
        )
        coverage = layers["trace.p2_serve_coverage"][0]
        report["checks"]["trace.p2_serve_coverage"] = coverage
        if abs(coverage - 1.0) > COVERAGE_TOL:
            correct = False
        extra = {f"untraced.{k}": v for k, v in {**metrics, **extra}.items()}
        metrics = layers
    extra["error_rate"] = (failed / max(attempted, 1), "ratio")

    report.update(
        correct=correct,
        attempted=attempted,
        failed=failed,
        metrics=metrics if correct else {},
        extra=extra,
    )
    return report, tracer


def as_json(metrics):
    """{name: (value, unit)} -> {name: {"value": value, "unit": unit}}."""
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def write_outputs(report, tracer, out_dir):
    """Report JSON, and for a traced run the spans as JSON lines."""
    os.makedirs(out_dir, exist_ok=True)
    env = report["env"]
    stem = os.path.join(out_dir, f"{env['workload']}-seed{env['seed']}-trace{env['trace']}")
    doc = dict(report)
    doc["metrics"] = as_json(report["metrics"])
    doc["extra"] = as_json(report["extra"])
    with open(stem + ".json", "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)
    paths = [stem + ".json"]
    if tracer is not None:
        tracer.write_jsonl(stem + ".spans.jsonl")
        paths.append(stem + ".spans.jsonl")
    return paths
