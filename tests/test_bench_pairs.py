"""tools/bench_pairs.py: the summary of paired runs, on fixed numbers."""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _runs(parent, change, metric, walls=None):
    """Paired runs: parent[i] and change[i] are pair i's values of `metric`."""
    runs = []
    for i, (p, c) in enumerate(zip(parent, change)):
        wp, wc = walls[i] if walls else (30.0, 30.0)
        runs.append({"pair": i, "side": "parent", "correct": True, "failed": 0,
                     "wall_s": wp, "metrics": {metric: p}})
        runs.append({"pair": i, "side": "change", "correct": True, "failed": 0,
                     "wall_s": wc, "metrics": {metric: c}})
    return runs


def test_summary_medians_quartiles_and_wins_lower_is_better():
    parent = [60.0, 64.0, 62.0, 66.0, 68.0]
    change = [50.0, 52.0, 63.0, 48.0, 54.0]
    s = bench_pairs.summarize(_runs(parent, change, "ttft_ms.p50"), {"ttft_ms.p50": "lower"})
    m = s["metrics"]["ttft_ms.p50"]
    assert s["pairs"] == 5 and s["all_correct"] and s["failed"] == {"parent": 0, "change": 0}
    assert m["parent"] == {"median": 64.0, "q1": 62.0, "q3": 66.0, "iqr": 4.0}
    assert m["change"] == {"median": 52.0, "q1": 50.0, "q3": 54.0, "iqr": 4.0}
    # pair 2 reads 62 -> 63, the only pair the change loses
    assert m["change_wins"] == "4/5"
    assert m["change_over_parent"] == pytest.approx(52.0 / 64.0)
    assert m["beyond_parent_iqr"] is True
    assert m["better"] == "lower"


def test_summary_higher_is_better_ties_are_not_wins_and_small_shifts_stay_inside_iqr():
    parent = [40.0, 44.0, 42.0, 46.0]
    change = [41.0, 44.0, 43.0, 45.0]
    s = bench_pairs.summarize(_runs(parent, change, "tokens_per_s"), {"tokens_per_s": "higher"})
    m = s["metrics"]["tokens_per_s"]
    assert m["parent"]["median"] == 43.0 and m["parent"]["iqr"] == 3.0  # q1 41.5, q3 44.5
    assert m["change"]["median"] == 43.5
    assert m["change_wins"] == "2/4"  # one tie, one loss
    assert m["beyond_parent_iqr"] is False


def test_summary_wall_time_is_lower_is_better_and_counts_failures():
    walls = [(30.0, 29.0), (31.0, 32.0), (29.0, 28.5)]
    runs = _runs([1.0, 1.0, 1.0], [1.0, 1.0, 1.0], "setup_s", walls)
    runs[3].update(correct=False, failed=2)  # pair 1, change side
    s = bench_pairs.summarize(runs, {})
    assert s["all_correct"] is False and s["failed"] == {"parent": 0, "change": 2}
    wall = s["metrics"]["wall_s"]
    assert wall["better"] == "lower" and wall["change_wins"] == "2/3"
    assert wall["parent"]["median"] == 30.0 and wall["change"]["median"] == 29.0


def test_summary_skips_pairs_missing_a_side_and_single_pairs_have_zero_iqr():
    runs = _runs([10.0, 12.0], [9.0, 11.0], "itl_ms.p50")
    runs[3]["metrics"] = {}  # pair 1's change run reported nothing (a failed run)
    m = bench_pairs.summarize(runs, {"itl_ms.p50": "lower"})["metrics"]["itl_ms.p50"]
    assert m["pairs"] == 1 and m["change_wins"] == "1/1"
    assert m["parent"] == {"median": 10.0, "q1": 10.0, "q3": 10.0, "iqr": 0.0}


def test_summary_spread_rule_reads_the_parents_quartiles_not_the_changes():
    parent = [40.0, 41.0, 42.0, 43.0, 44.0]  # median 42, IQR 2
    change = [30.0, 35.0, 45.0, 50.0, 55.0]  # median 45, IQR 15
    m = bench_pairs.summarize(_runs(parent, change, "tokens_per_s"),
                              {"tokens_per_s": "higher"})["metrics"]["tokens_per_s"]
    assert m["parent"]["iqr"] == 2.0 and m["change"]["iqr"] == 15.0
    assert m["beyond_parent_iqr"] is True


def test_within_bound_compares_the_change_median_with_the_bound_on_the_parents():
    bounds = {"ttft_ms.p50": 0.25, "tokens_per_s": 0.25}
    parent = [100.0, 104.0, 96.0, 102.0, 98.0]  # median 100
    slower = bench_pairs.summarize(
        _runs(parent, [124.0, 126.0, 125.0, 123.0, 127.0], "ttft_ms.p50"),
        {"ttft_ms.p50": "lower"}, bounds)["metrics"]["ttft_ms.p50"]
    assert slower["bound"] == 0.25 and slower["change"]["median"] == 125.0
    assert slower["within_bound"] is True  # 25% worse is at the bound, not past it
    too_slow = bench_pairs.summarize(
        _runs(parent, [126.0, 127.0, 128.0, 129.0, 130.0], "ttft_ms.p50"),
        {"ttft_ms.p50": "lower"}, bounds)["metrics"]["ttft_ms.p50"]
    assert too_slow["within_bound"] is False
    # higher is better: a median of 74 falls more than 25% below 100
    fewer = bench_pairs.summarize(
        _runs(parent, [74.0, 73.0, 75.0, 72.0, 76.0], "tokens_per_s"),
        {"tokens_per_s": "higher"}, bounds)["metrics"]["tokens_per_s"]
    assert fewer["within_bound"] is False
    more = bench_pairs.summarize(
        _runs(parent, [174.0, 173.0, 175.0, 172.0, 176.0], "tokens_per_s"),
        {"tokens_per_s": "higher"}, bounds)["metrics"]["tokens_per_s"]
    assert more["within_bound"] is True


def test_unresolved_says_the_parents_spread_is_wider_than_the_bound():
    bounds = {"setup_s": 0.25}
    # parent IQR 20 on a median of 100: within a 0.25 bound
    calm = bench_pairs.summarize(
        _runs([80.0, 90.0, 100.0, 110.0, 120.0], [100.0] * 5, "setup_s"),
        {"setup_s": "lower"}, bounds)["metrics"]["setup_s"]
    assert calm["parent"]["iqr"] == 20.0 and calm["unresolved"] is False
    # parent IQR 30 on a median of 100: wider than the bound
    wide = bench_pairs.summarize(
        _runs([70.0, 85.0, 100.0, 115.0, 130.0], [100.0] * 5, "setup_s"),
        {"setup_s": "lower"}, bounds)["metrics"]["setup_s"]
    assert wide["parent"]["iqr"] == 30.0 and wide["unresolved"] is True
    # a metric with no bound, such as a per-layer one or wall_s, gets neither
    s = bench_pairs.summarize(_runs([1.0], [1.0], "model.ffn_s"), {}, bounds)
    for name in ("model.ffn_s", "wall_s"):
        assert not {"bound", "within_bound", "unresolved"} & set(s["metrics"][name])


def test_metric_bounds_reads_the_end_to_end_bounds_of_the_benchmark():
    bounds = bench_pairs.metric_bounds(_PATH.parent.parent)
    assert bounds["ttft_ms.p50"] == 0.25 and bounds["wire_bytes_per_token"] == 0.01
    assert "model.ffn_s" not in bounds


def test_run_once_keeps_the_metrics_and_the_timed_session_count(monkeypatch, tmp_path):
    report = tmp_path / "moe-prefill-seed7-trace0.json"
    report.write_text(json.dumps({"extra": {"sessions": {"value": 131, "unit": "count"}}}))
    result = {"correct": True, "failed": 0, "attempted": 9,
              "metrics": {"tokens_per_s": {"value": 40.0, "unit": "tokens/s"}}}
    stdout = f"== moe-prefill\n  wrote {report}\n{json.dumps(result)}"

    def run(cmd, **kwargs):
        assert kwargs["env"]["OPENBLAS_NUM_THREADS"] == "1"
        return SimpleNamespace(returncode=0, stdout=stdout, stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    r = bench_pairs.run_once("change", "moe-prefill", 7, 20.0, 0)
    assert (r["correct"], r["failed"], r["attempted"]) == (True, 0, 9)
    assert r["sessions"] == 131 and r["metrics"] == {"tokens_per_s": 40.0}
    # a traced run keeps the untimed half's count under its untraced name
    report.write_text(json.dumps({"extra": {"untraced.sessions": {"value": 65}}}))
    assert bench_pairs.run_once("change", "moe-prefill", 7, 20.0, 1)["sessions"] == 65
    stdout = json.dumps(result)  # no report written: no count
    assert bench_pairs.run_once("change", "moe-prefill", 7, 20.0, 0)["sessions"] is None


def _fake_runs(monkeypatch, calls):
    """`run_once` reads tokens_per_s 40 on the parent and 50 on the change."""

    def run_once(checkout, workload, seed, seconds, trace):
        calls.append((checkout, seed))
        value = 50.0 if checkout == "change" else 40.0
        return {"correct": True, "failed": 0, "attempted": 1, "wall_s": 30.0,
                "metrics": {"tokens_per_s": value}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "metric_directions",
                        lambda checkout: {"tokens_per_s": "higher"})
    monkeypatch.setattr(bench_pairs, "metric_bounds", lambda checkout: {"tokens_per_s": 0.25})


def _main(*extra):
    return bench_pairs.main(["--parent", "parent", "--change", "change",
                             "--workload", "desk-decode", "--topic", "t", *extra])


def test_a_second_call_with_the_same_command_appends_its_pairs(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    calls = []
    _fake_runs(monkeypatch, calls)
    assert _main("--pairs", "2", "--seed", "10") == 0
    assert _main("--pairs", "3", "--seed", "20") == 0
    doc = json.loads((tmp_path / "BENCH_t.json").read_text())
    section = doc["workloads"]["desk-decode"]
    assert section["seeds"] == [10, 11, 20, 21, 22]
    assert [(r["pair"], r["seed"]) for r in section["runs"][::2]] == [
        (0, 10), (1, 11), (2, 20), (3, 21), (4, 22)]
    # the side that runs first keeps alternating across the two calls
    assert [r["first"] for r in section["runs"][::2]] == [
        "parent", "change", "parent", "change", "parent"]
    assert section["summary"]["pairs"] == 5
    assert section["summary"]["metrics"]["tokens_per_s"]["change_wins"] == "5/5"
    assert section["summary"]["metrics"]["tokens_per_s"]["within_bound"] is True
    assert len(calls) == 10


def test_a_second_call_with_another_command_exits_2_and_leaves_the_file(
        monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    calls = []
    _fake_runs(monkeypatch, calls)
    assert _main("--pairs", "1", "--seconds", "20") == 0
    before = (tmp_path / "BENCH_t.json").read_bytes()
    with pytest.raises(SystemExit) as exc:
        _main("--pairs", "1", "--seconds", "5")
    assert exc.value.code == 2
    assert (tmp_path / "BENCH_t.json").read_bytes() == before
    assert len(calls) == 2  # the refused call ran nothing


@pytest.mark.parametrize("cpus", [1, 2])
def test_host_counts_cpus_where_the_os_has_no_affinity(cpus, monkeypatch):
    # macOS and Windows have no os.sched_getaffinity
    monkeypatch.delattr(bench_pairs.os, "sched_getaffinity")
    monkeypatch.setattr(bench_pairs.os, "cpu_count", lambda: cpus)
    assert bench_pairs.host()["nproc"] == cpus
