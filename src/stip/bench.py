"""Measurements: permutation strategies, transform cost, traffic, throughput."""

import csv
import dataclasses
import statistics
import time

import numpy as np

from . import container, wire
from .model import gen_model
from .numerics import apply_col_perm, gen_permutation, to_matrix
from .protocol import (
    RECV_TIMEOUT,
    DataOwnerParty,
    DeveloperParty,
    ServerParty,
    _ServerHost,
    deploy,
)
from .transform import gen_permutation_set


def _median_time(fn, reps):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def bench_permutation(d=1024, reps=30, seed=0):
    """Index-based column permutation vs explicit permutation-matrix product.

    The index side times `apply_col_perm`, the gather P3 runs on every request.
    """
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(d, d)).astype(np.float32)
    p = gen_permutation(d, seed + 1)
    pm = to_matrix(p)
    index_s = _median_time(lambda: apply_col_perm(x, p), reps)
    matmul_s = _median_time(lambda: x @ pm, reps)
    return {
        "d": d,
        "reps": reps,
        "index_median_s": index_s,
        "matmul_median_s": matmul_s,
        "index_faster": index_s < matmul_s,
    }


def bench_transform(cfg, seed=0):
    """Wall time of one deploy's write: θ′ gathered into the DEPLOY_MODEL container."""
    served = dataclasses.replace(gen_model(cfg, seed), embedding=None)
    pset = gen_permutation_set(cfg, seed + 1)
    t0 = time.perf_counter()
    container.encode_model(served, pset)
    return {"transform_s": time.perf_counter() - t0}


def _frame_bytes(frame):
    return wire.HEADER_SIZE + len(frame.payload)


def bench_traffic(n, d, s):
    """Per-message byte counts, both computed from the format and measured.

    A prefill of n rows, whatever its reply mode, then its ALL reply (n×s)
    and its TOP1 reply, which names one index; each tie at the maximum adds
    4 bytes. Then a one-row decode step, its row sent literally and sent as
    a reference to an earlier row of the sequence.
    """
    overhead = wire.HEADER_SIZE + wire.MATRIX_PREFIX_SIZE
    x = np.zeros((n, d), dtype=np.float32)
    o = np.zeros((n, s), dtype=np.float32)
    row = x[:1]
    return {
        "n": n,
        "d": d,
        "s": s,
        "frame_overhead_bytes": overhead,
        "request_bytes_computed": 4 * n * d + overhead + 8,
        "request_bytes_measured": _frame_bytes(wire.make_infer_request(x, 1, 0)),
        "step_bytes_computed": 4 * d + overhead + 8,
        "step_bytes_measured": _frame_bytes(wire.make_infer_request(row, 1, 0, start=n)),
        "ref_step_bytes_computed": overhead + 8 + 4 + 8,
        "ref_step_bytes_measured": _frame_bytes(
            wire.make_infer_request(row, 1, 0, start=n, refs=[(n, 0)])
        ),
        "response_bytes_computed": 4 * n * s + overhead,
        "response_bytes_measured": _frame_bytes(wire.make_infer_response(o, 1, 0)),
        "top1_response_bytes_computed": wire.HEADER_SIZE + 4 + 4,
        "top1_response_bytes_measured": _frame_bytes(wire.make_top1_response([0], 1, 0)),
    }


class _TimedServer(ServerParty):
    """Records how long each inference actually spends in the model."""

    def __init__(self):
        super().__init__()
        self.serve_seconds = []

    def serve(self, *args, **kwargs):
        t0 = time.perf_counter()
        out = super().serve(*args, **kwargs)
        self.serve_seconds.append(time.perf_counter() - t0)
        return out


class _TimedLink:
    """Client link that adds up the time P3 spends in send and recv."""

    def __init__(self, link):
        self._link = link
        self.seconds = 0.0

    def send(self, frame):
        t0 = time.perf_counter()
        try:
            self._link.send(frame)
        finally:
            self.seconds += time.perf_counter() - t0

    def recv(self, timeout=None):
        t0 = time.perf_counter()
        try:
            return self._link.recv(timeout=timeout)
        finally:
            self.seconds += time.perf_counter() - t0


def bench_generation(params, prompt_ids, max_tokens, latency=0.0, seed=0):
    """Token throughput with a device/communication/cloud latency split.

    P3's own `generate` drives the rounds. Device time is what it spends
    outside the link (embedding, π, π_c, argmax), cloud time is P2's `serve`,
    and communication is the rest of the link time.
    """
    p1 = DeveloperParty(params, session_seed=seed)
    p2 = _TimedServer()
    p3 = DataOwnerParty(params.embedding, session_seed=seed + 1)
    hub = _ServerHost(p2, "inproc", latency, RECV_TIMEOUT)
    try:
        deploy(hub.p1_link, p3, *p1.initialize(seed))
        link = _TimedLink(hub.p3_link)
        total_t0 = time.perf_counter()
        token_ids = p3.generate(prompt_ids, max_tokens, link)
        total_s = time.perf_counter() - total_t0
    finally:
        hub.shutdown()
    cloud_s = sum(p2.serve_seconds)
    device_s = max(total_s - link.seconds, 0.0)
    comm_s = max(link.seconds - cloud_s, 0.0)
    n = max(max_tokens, 1)
    return {
        "tokens": max_tokens,
        "token_ids": token_ids,
        "total_s": total_s,
        "tokens_per_s": max_tokens / total_s if total_s > 0 else float("inf"),
        "device_ms_per_token": 1e3 * device_s / n,
        "cloud_ms_per_token": 1e3 * cloud_s / n,
        "communication_ms_per_token": 1e3 * comm_s / n,
        "injected_latency_ms": 1e3 * latency,
    }


def write_csv(path, rows):
    """Flat dict rows -> CSV with the union of keys as columns."""
    if not rows:
        with open(path, "w", newline="", encoding="utf-8") as f:
            f.write("")
        return
    cols = []
    for row in rows:
        for k in row:
            if k not in cols:
                cols.append(k)
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.DictWriter(f, fieldnames=cols)
        w.writeheader()
        w.writerows(rows)
