"""Benchmarks: schema correctness and the claims the numbers must support."""

import csv
import threading

import numpy as np

from conftest import make_config
from stip import wire
from stip.bench import (
    bench_generation,
    bench_permutation,
    bench_traffic,
    bench_transform,
    write_csv,
)
from stip.model import gen_model, greedy_generate


def test_traffic_request_bytes_formula():
    rep = bench_traffic(n=16, d=64, s=100)
    # header and matrix prefix, then a u32 start and a u32 mode
    assert rep["request_bytes_computed"] == 4 * 16 * 64 + 39 + 8
    assert rep["request_bytes_measured"] == rep["request_bytes_computed"]


def test_traffic_step_by_reference_bytes_formula():
    rep = bench_traffic(n=16, d=64, s=100)
    # a literal step carries its 4·d bytes; a referenced one an empty 0×d
    # matrix, the trailer, a u32 count and one (position, source) pair
    assert rep["step_bytes_computed"] == 4 * 64 + 39 + 8
    assert rep["ref_step_bytes_computed"] == 39 + 8 + 4 + 8
    for kind in ("step", "ref_step"):
        assert rep[f"{kind}_bytes_measured"] == rep[f"{kind}_bytes_computed"]
    assert bench_traffic(n=16, d=512, s=100)["ref_step_bytes_measured"] == 59


def test_traffic_response_bytes_formula():
    rep = bench_traffic(n=16, d=64, s=100)
    assert rep["response_bytes_computed"] == 4 * 16 * 100 + 39
    assert rep["response_bytes_measured"] == rep["response_bytes_computed"]


def test_traffic_top1_bytes_formula():
    rep = bench_traffic(n=16, d=64, s=100)
    # the reply is a u32 count and one u32 index, whatever s
    assert rep["top1_response_bytes_computed"] == 31 + 4 + 4
    assert rep["top1_response_bytes_measured"] == rep["top1_response_bytes_computed"]


def test_traffic_overhead_is_header_plus_matrix_prefix():
    rep = bench_traffic(n=1, d=1, s=1)
    assert rep["frame_overhead_bytes"] == wire.HEADER_SIZE + wire.MATRIX_PREFIX_SIZE == 39


def test_traffic_scales_linearly_in_rows():
    one = bench_traffic(n=1, d=64, s=100)
    ten = bench_traffic(n=10, d=64, s=100)
    assert ten["request_bytes_measured"] - one["request_bytes_measured"] == 9 * 4 * 64


def test_permutation_bench_schema():
    rep = bench_permutation(d=64, reps=5, seed=0)
    assert rep["d"] == 64 and rep["reps"] == 5
    assert rep["index_median_s"] > 0
    assert rep["matmul_median_s"] > 0
    assert rep["index_faster"] == (rep["index_median_s"] < rep["matmul_median_s"])


def test_permutation_index_wins_at_scale():
    rep = bench_permutation(d=1024, reps=10, seed=1)
    assert rep["index_faster"]


def test_transform_bench_reports_positive_time():
    rep = bench_transform(make_config(), seed=2)
    assert 0 < rep["transform_s"] < 10.0


def test_generation_bench_matches_local_greedy():
    cfg = make_config()
    params = gen_model(cfg, 3)
    prompt = [0, 1, 2]
    rep = bench_generation(params, prompt, max_tokens=4, seed=4)
    assert rep["tokens"] == 4
    assert rep["total_s"] > 0
    # throughput must describe a run that decodes the right tokens
    assert rep["token_ids"] == greedy_generate(params, prompt, 4)


def test_generation_bench_leaves_no_serve_thread_alive():
    params = gen_model(make_config(), 7)
    before = set(threading.enumerate())
    bench_generation(params, [0, 1], max_tokens=2, seed=8)
    assert set(threading.enumerate()) <= before


def test_generation_bench_split_keys():
    cfg = make_config()
    params = gen_model(cfg, 5)
    rep = bench_generation(params, [0, 1], max_tokens=2, seed=6)
    for key in (
        "tokens_per_s",
        "device_ms_per_token",
        "cloud_ms_per_token",
        "communication_ms_per_token",
        "injected_latency_ms",
    ):
        assert key in rep
        assert rep[key] >= 0


def test_generation_bench_latency_floor():
    cfg = make_config()
    params = gen_model(cfg, 7)
    rep = bench_generation(params, [0, 1], max_tokens=3, latency=0.01, seed=8)
    # each token is one request + one response over the delayed link
    assert rep["total_s"] >= 3 * 2 * 0.01
    assert rep["injected_latency_ms"] == 10.0


def test_write_csv_union_header(tmp_path):
    path = tmp_path / "rows.csv"
    write_csv(str(path), [{"a": 1, "b": 2}, {"b": 3, "c": 4}])
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    assert rows[0] == {"a": "1", "b": "2", "c": ""}
    assert rows[1] == {"a": "", "b": "3", "c": "4"}


def test_write_csv_empty(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(str(path), [])
    assert path.read_text() == ""
