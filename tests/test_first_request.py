"""tools/first_request.py: first and warm serve times after each deploy."""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

from conftest import make_config

_PATH = Path(__file__).resolve().parent.parent / "tools" / "first_request.py"
_spec = importlib.util.spec_from_file_location("first_request", _PATH)
first_request = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(first_request)


def test_first_request_reports_medians_over_deploys():
    w = SimpleNamespace(config=make_config(vocab_size=16), prompt_len=5)
    got = first_request.first_request_ms(w, model_seed=3, deploys=3, seed=4)
    assert set(got) == {"deploys", "first_ms", "warm_ms", "extra_ms"}
    assert got["deploys"] == 3
    assert got["first_ms"] > 0 and got["warm_ms"] > 0


def test_workloads_are_read_from_the_checkout():
    module = first_request.workloads(_PATH.parent.parent)
    assert set(module.WORKLOADS) == {"desk-decode", "moe-prefill", "rekey-churn"}
