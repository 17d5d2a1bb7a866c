"""The benchmark's own checks, on tiny models so they run in a few seconds."""

import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import stip.model
import stip.protocol
from stip.model import FfnKind, ModelConfig, NormKind, NormPlacement

import driver
from driver import run_workload, write_outputs
from workloads import Workload

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = Workload(
    name="tiny",
    config=ModelConfig(n_layers=2, d_model=8, d_ff=16, vocab_size=12, attn_scale=8.0),
    transport="tcp",
    prompt_len=3,
    new_tokens=4,
    rekey_every=2,
    setup_reps=2,
    warmup_sessions=2,
)
TINY_MOE = replace(
    TINY,
    transport="inproc",
    config=ModelConfig(
        n_layers=2,
        d_model=8,
        d_ff=16,
        vocab_size=12,
        attn_scale=8.0,
        norm_kind=NormKind.RMSNORM,
        norm_placement=NormPlacement.PRE,
        ffn_kind=FfnKind.SWIGLU,
        n_experts=4,
    ),
)
# A permutation index list rendered into a string: many comma-separated ints.
_INDEX_RUN = re.compile(r"\d+(\s*,\s*\d+){7,}")


def _leaves(doc, where="$"):
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _leaves(v, f"{where}.{k}")
    else:
        yield where, doc


def _assert_metadata_only(doc):
    for where, value in _leaves(doc):
        assert isinstance(value, (str, int, float, bool, type(None))), (where, value)
        if isinstance(value, str):
            assert not _INDEX_RUN.search(value), (where, value)


def _wrapped_names():
    return (stip.model.matmul, stip.protocol.model_forward, stip.protocol.ServerParty.serve)


@pytest.mark.parametrize("w", [TINY, TINY_MOE], ids=["tcp-dense", "inproc-moe"])
def test_traced_run_is_consistent_and_metadata_only(tmp_path, w):
    before = _wrapped_names()
    report, tracer = run_workload(w, seed=3, seconds=0.4, trace=True)
    assert _wrapped_names() == before
    assert report["correct"], report["checks"]
    coverage = report["checks"]["trace.p2_serve_coverage"]
    assert abs(coverage - 1.0) <= driver.COVERAGE_TOL
    ratio = report["metrics"]["model.moe_useful_ratio"][0]
    assert ratio == (0.5 if w.config.is_moe else 1.0)

    report_path, spans_path = write_outputs(report, tracer, tmp_path)
    _assert_metadata_only(json.loads(Path(report_path).read_text()))
    lines = Path(spans_path).read_text().splitlines()
    assert lines
    for line in lines:
        _assert_metadata_only(json.loads(line))


def test_reported_metrics_match_benchmark_json():
    untraced, _ = run_workload(TINY, seed=5, seconds=0.3, trace=False)
    traced, _ = run_workload(TINY, seed=5, seconds=0.3, trace=True)
    assert untraced["correct"] and traced["correct"]
    for report, section in ((untraced, "end_to_end"), (traced, "per_layer")):
        declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        got = {name: unit for name, (_, unit) in report["metrics"].items()}
        assert got == declared
    assert all(v > 0 for v, _ in untraced["metrics"].values())


def test_wrong_protocol_token_fails_the_run(monkeypatch):
    def off_by_one(o):
        return (int(np.argmax(o[-1])) + 1) % o.shape[1]

    monkeypatch.setattr(stip.protocol, "greedy_decode_step", off_by_one)
    report, _ = run_workload(TINY, seed=7, seconds=0.2, trace=False)
    assert not report["correct"]
    assert report["failed"] > 0
    assert report["metrics"] == {}


def test_failed_equivalence_gate_fails_the_run(monkeypatch):
    monkeypatch.setattr(driver, "verify_equivalence", lambda *a, **k: {
        "passed": False, "max_abs_diff": 1.0, "argmax_match_rate": 0.5})
    report, _ = run_workload(TINY, seed=8, seconds=0.2, trace=False)
    assert not report["correct"]
    assert report["metrics"] == {}


def test_command_fails_without_sources(tmp_path):
    skip = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=skip)
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "desk-decode",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
