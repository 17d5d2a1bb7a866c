"""tools/forward_digest.py: digests repeat, and one flipped weight bit changes them."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from conftest import make_config
from stip import numerics
from stip.model import MaskKind, gen_model

_PATH = Path(__file__).resolve().parent.parent / "tools" / "forward_digest.py"
_spec = importlib.util.spec_from_file_location("forward_digest", _PATH)
forward_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(forward_digest)


def _digests(params, mask_kind):
    return (
        forward_digest.forward_digests(params, mask_kind, seed=3, prefill=5, steps=4),
        forward_digest.deploy_digests(params, seed=3),
    )


@pytest.mark.parametrize("mask_kind", [MaskKind.CAUSAL, MaskKind.NONE])
def test_digests_repeat_and_follow_one_weight_bit(mask_kind):
    params = gen_model(make_config(vocab_size=16), 7)
    forward, deploy = _digests(params, mask_kind)
    assert set(forward) == {"plain", "permuted"}
    assert set(deploy) == {
        f"{step}/{what}"
        for step in ("initialize", "rekey")
        for what in ("model", "theta", "keys")
    }
    assert _digests(params, mask_kind) == (forward, deploy)

    params.layers[1].w_v.view(np.uint32)[2, 3] ^= 1 << 22  # top mantissa bit
    flipped_forward, flipped_deploy = _digests(params, mask_kind)
    assert flipped_forward["plain"] != forward["plain"]
    assert flipped_forward["permuted"] != forward["permuted"]
    for step in ("initialize", "rekey"):
        assert flipped_deploy[f"{step}/model"] != deploy[f"{step}/model"]
        assert flipped_deploy[f"{step}/theta"] != deploy[f"{step}/theta"]
        assert flipped_deploy[f"{step}/keys"] == deploy[f"{step}/keys"]


def test_a_layout_change_alone_changes_only_the_payload_digests(monkeypatch):
    # W_1 of each expert is 64 x 128: two column panels of 64, or row-major
    params = gen_model(make_config(d_model=64, d_ff=128, vocab_size=16, n_experts=2), 9)
    forward, deploy = _digests(params, MaskKind.CAUSAL)
    monkeypatch.setattr(numerics, "PANEL_BYTES", 0)  # no expert has panels
    row_major_forward, row_major_deploy = _digests(params, MaskKind.CAUSAL)
    assert row_major_forward == forward
    for key, hexd in deploy.items():
        assert (row_major_deploy[key] != hexd) == key.endswith("/model"), key


def test_every_workload_and_variant_is_digested():
    names = [name for name, _, _ in forward_digest.configs(_PATH.parent.parent)]
    assert names == [
        "desk-decode", "moe-prefill", "rekey-churn",
        "post_ln_relu", "pre_ln_gelu", "rms_swiglu", "moe",
    ]
