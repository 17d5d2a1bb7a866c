"""tools/bench_pairs.py: the summary of paired runs, on fixed numbers."""

import importlib.util
from pathlib import Path

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
