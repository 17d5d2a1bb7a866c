"""Three-party protocol: deployment, inference rounds, re-keying, partitions."""

import gc
import importlib.util
import re
import socket
import struct
import threading
import time
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

import stip.protocol
import stip.transport
from conftest import (
    VARIANT_CONFIGS,
    helper_idle,
    make_config,
    overflowing_container,
    two_cores,
)
from stip import container, numerics, wire
from stip.errors import (
    AbortedGenerationError,
    CodecError,
    InvalidDimensionError,
    NotInitializedError,
    ProtocolError,
    StaleEpochError,
    TransportError,
)
from stip.model import (
    FfnKind,
    KVCache,
    MaskKind,
    NormKind,
    NormPlacement,
    embed,
    gen_model,
    greedy_decode_step,
    greedy_generate,
    make_mask,
    model_forward,
)
from stip.numerics import ColumnConcat, PanelMatrix, apply_col_perm
from stip.protocol import (
    DataOwnerParty,
    DeveloperParty,
    ServerParty,
    Transcript,
    _argmax_set,
    _ServerHost,
    run_simulation,
)
from stip.transform import para_trans, recover_output
from stip.transport import inproc_pair

F32 = np.float32


def desk_params(seed=0, **kw):
    return gen_model(make_config(**kw), seed)


def deployed_parties(params, seed=1, identity=False):
    p1 = DeveloperParty(params, session_seed=seed)
    p2 = ServerParty()
    p3 = DataOwnerParty(params.embedding, session_seed=seed + 1)
    to_p2, to_p3 = p1.initialize(seed, identity=identity)
    p2.handle_deploy(to_p2)
    p3.handle_deploy_keys(to_p3)
    return p1, p2, p3


# --- deployment ------------------------------------------------------------


def test_initialize_identity_hook_sends_original_bytes():
    params = desk_params(2)
    p1 = DeveloperParty(params, session_seed=0)
    to_p2, _ = p1.initialize(3, identity=True)
    # the served form: every original tensor except the embedding table
    assert to_p2.payload == container.encode_model(replace(params, embedding=None))


def test_initialize_messages_share_epoch():
    p1 = DeveloperParty(desk_params(4), session_seed=0)
    to_p2, to_p3 = p1.initialize(5)
    assert to_p2.epoch == to_p3.epoch == 1


def test_deploy_keys_payload_is_shared_half():
    params = desk_params(6)
    p1 = DeveloperParty(params, session_seed=0)
    _, to_p3 = p1.initialize(7)
    pset, epoch = container.decode_keys(to_p3.payload)
    assert epoch == 1
    assert pset.pi.dim == params.config.d_model
    assert pset.pi_c.dim == params.config.vocab_size
    assert pset.per_layer == ()


def test_rekey_requires_initialize():
    p1 = DeveloperParty(desk_params(9), session_seed=0)
    with pytest.raises(NotInitializedError):
        p1.rekey(1)
    with pytest.raises(NotInitializedError):
        p1.rekey_notice()


def test_server_rejects_non_advancing_deploy():
    params = desk_params(10)
    p1 = DeveloperParty(params, session_seed=0)
    p2 = ServerParty()
    to_p2, _ = p1.initialize(11)
    p2.handle_deploy(to_p2)
    with pytest.raises(StaleEpochError):
        p2.handle_deploy(to_p2)


def test_data_owner_rejects_non_advancing_keys_and_keeps_its_own():
    params = desk_params(10)
    p1 = DeveloperParty(params, session_seed=0)
    p3 = DataOwnerParty(params.embedding)
    _, first = p1.initialize(11)
    _, second = p1.rekey(12)
    p3.handle_deploy_keys(second)
    held = (p3.pi, p3.pi_c, p3.epoch)
    for stale in (first, second):  # an older epoch, and the same one again
        with pytest.raises(StaleEpochError, match="does not advance 2"):
            p3.handle_deploy_keys(stale)
        assert (p3.pi, p3.pi_c, p3.epoch) == held


def test_data_owner_rejects_full_key_set():
    params = desk_params(12)
    p1 = DeveloperParty(params, session_seed=0)
    p1.initialize(13)
    full = wire.make_deploy_keys(
        container.encode_keys(p1.pset, p1.epoch, shared_only=False), p1.epoch, 1
    )
    p3 = DataOwnerParty(params.embedding)
    with pytest.raises(ProtocolError):
        p3.handle_deploy_keys(full)


# --- request / serve / recover ------------------------------------------------


def test_infer_request_identity_keys_carry_raw_embeddings():
    params = desk_params(14)
    _, _, p3 = deployed_parties(params, seed=15, identity=True)
    req = p3.infer_request([0, 1, 2])
    x, _, _ = wire.decode_infer_request(req.payload)
    assert x.tobytes() == embed([0, 1, 2], params.embedding).tobytes()


def test_infer_request_dims():
    params = desk_params(16)
    _, _, p3 = deployed_parties(params, seed=17)
    req = p3.infer_request([3, 1, 4, 1])
    x, _, _ = wire.decode_infer_request(req.payload)
    assert x.shape == (4, params.config.d_model)


def test_infer_request_before_keys_rejected():
    p3 = DataOwnerParty(desk_params(18).embedding)
    with pytest.raises(NotInitializedError):
        p3.infer_request([0])


def test_serve_response_shape_and_determinism():
    params = desk_params(19)
    _, p2, p3 = deployed_parties(params, seed=20)
    req = p3.infer_request([0, 5, 2])
    a = p2.serve(req)
    b = p2.serve(req)
    assert a.msg_type is wire.MsgType.INFER_RESPONSE
    o = wire.decode_matrix(a.payload)
    assert o.shape == (3, params.config.vocab_size)
    assert a.payload == b.payload


def test_serve_requires_model():
    p2 = ServerParty()
    with pytest.raises(NotInitializedError):
        p2.serve(wire.make_infer_request(np.ones((1, 4), F32), 1, 1))


def test_serve_rejects_custom_mask_model():
    params = desk_params(21, mask_kind=MaskKind.CUSTOM)
    _, p2, p3 = deployed_parties(params, seed=22)
    with pytest.raises(ProtocolError):
        p2.serve(p3.infer_request([0, 1]))


def test_recover_identity_keys_is_passthrough():
    params = desk_params(23)
    _, p2, p3 = deployed_parties(params, seed=24, identity=True)
    resp = p2.serve(p3.infer_request([1, 2]))
    assert np.array_equal(p3.recover(resp), wire.decode_matrix(resp.payload))


def test_round_trip_matches_local_inference():
    params = desk_params(25)
    _, p2, p3 = deployed_parties(params, seed=26)
    ids = [0, 7, 3, 9]
    o = p3.recover(p2.serve(p3.infer_request(ids)))
    x = embed(ids, params.embedding)
    local = model_forward(x, params, make_mask(params.config.mask_kind, len(ids)))
    assert np.max(np.abs(o - local)) <= 1e-4
    assert np.allclose(o.sum(axis=1), 1.0, atol=1e-4)


def test_recover_rejects_epoch_mismatch():
    params = desk_params(27)
    _, p2, p3 = deployed_parties(params, seed=28)
    resp = p2.serve(p3.infer_request([0]))
    stale = wire.Frame(
        msg_type=resp.msg_type, epoch=resp.epoch + 1, session_id=resp.session_id,
        payload=resp.payload,
    )
    with pytest.raises(StaleEpochError):
        p3.recover(stale)


# --- autoregressive generation ---------------------------------------------------


def _serve_on_thread(p2, far):
    t = threading.Thread(target=p2.serve_loop, args=(far,), kwargs={"timeout": 5})
    t.start()
    return t


def test_generate_zero_tokens():
    params = desk_params(29)
    _, p2, p3 = deployed_parties(params, seed=30)
    near, far = inproc_pair()
    t = _serve_on_thread(p2, far)
    transcript = Transcript()
    assert p3.generate([0, 1], 0, near, transcript) == []
    assert transcript.inference_count() == 0
    near.close()
    t.join()


def test_generate_matches_local_greedy():
    params = desk_params(31)
    _, p2, p3 = deployed_parties(params, seed=32)
    near, far = inproc_pair()
    t = _serve_on_thread(p2, far)
    transcript = Transcript()
    got = p3.generate([2, 4], 6, near, transcript)
    near.close()
    t.join()
    assert got == greedy_generate(params, [2, 4], 6)
    assert transcript.inference_count() == 12


def test_generate_abort_carries_partial_tokens():
    params = desk_params(33)
    _, p2, p3 = deployed_parties(params, seed=34)
    near, far = inproc_pair()
    t = _serve_on_thread(p2, far)

    class Flaky:
        def __init__(self, inner, fail_after):
            self.inner = inner
            self.sends = 0
            self.fail_after = fail_after

        def send(self, frame):
            self.sends += 1
            if self.sends > self.fail_after:
                raise TransportError("link dropped")
            self.inner.send(frame)

        def recv(self, timeout=None):
            return self.inner.recv(timeout=timeout)

    flaky = Flaky(near, fail_after=3)
    with pytest.raises(AbortedGenerationError) as err:
        p3.generate([0, 1], 8, flaky)
    assert len(err.value.tokens) == 3
    assert err.value.tokens == greedy_generate(params, [0, 1], 3)
    near.close()
    t.join()


# --- re-keying ---------------------------------------------------------------------


def test_rekey_increments_epoch_and_still_serves():
    params = desk_params(35)
    p1, p2, p3 = deployed_parties(params, seed=36)
    to_p2, to_p3 = p1.rekey(37)
    assert to_p2.epoch == 2
    p2.handle_deploy(to_p2)
    p3.handle_deploy_keys(to_p3)
    ids = [1, 2, 3]
    o = p3.recover(p2.serve(p3.infer_request(ids)))
    x = embed(ids, params.embedding)
    local = model_forward(x, params, make_mask(params.config.mask_kind, len(ids)))
    assert np.max(np.abs(o - local)) <= 1e-4


def test_old_epoch_requests_rejected_after_rekey():
    params = desk_params(38)
    p1, p2, p3 = deployed_parties(params, seed=39)
    old_req = p3.infer_request([0, 1])
    to_p2, _ = p1.rekey(40)
    p2.handle_deploy(to_p2)
    with pytest.raises(StaleEpochError):
        p2.serve(old_req)


def test_rekey_notice_retires_epoch_until_redeploy():
    params = desk_params(41)
    p1 = DeveloperParty(params, session_seed=42)
    p2 = ServerParty()
    p3 = DataOwnerParty(params.embedding, session_seed=43)
    first, keys = p1.initialize(44)
    p2.handle_deploy(first)
    p3.handle_deploy_keys(keys)
    req = p3.infer_request([0])
    p2.serve(req)
    assert p2.model.w_c.dtype == np.float64
    retired = weakref.ref(p2.model)
    to_p2, to_p3 = p1.rekey(45)
    p2.handle_rekey(p1.rekey_notice())
    # the notice releases the retired θ′ itself, not just a flag beside it
    assert p2.model is None
    assert p2.state_bytes() == b""
    gc.collect()
    assert retired() is None
    with pytest.raises(StaleEpochError, match="retired epoch 1"):
        p2.serve(req)
    # the retired epoch names a retired key set: replaying its deploy is refused
    with pytest.raises(StaleEpochError):
        p2.handle_deploy(first)
    assert (p2.model, p2.epoch) == (None, 1)
    # the next epoch's θ′ is installed float32 and widened by its first request
    p2.handle_deploy(to_p2)
    p3.handle_deploy_keys(to_p3)
    assert (p2.epoch, p2.model.w_c.dtype) == (2, F32)
    o = p3.recover(p2.serve(p3.infer_request([0])))
    assert p2.model.w_c.dtype == np.float64
    x = embed([0], params.embedding)
    local = model_forward(x, params, make_mask(params.config.mask_kind, 1))
    assert np.max(np.abs(o - local)) <= 1e-4
    # and retiring epoch 2 releases its widened θ′ in turn
    retired = weakref.ref(p2.model)
    p1.rekey(46)
    p2.handle_rekey(p1.rekey_notice())
    assert (p2.model, p2.epoch, p2.state_bytes()) == (None, 2, b"")
    gc.collect()
    assert retired() is None


def test_old_shared_keys_cannot_recover_new_responses():
    params = desk_params(44, vocab_size=100)
    p1, p2, p3 = deployed_parties(params, seed=45)
    old_pi_c = p3.pi_c
    to_p2, to_p3 = p1.rekey(46)
    p2.handle_deploy(to_p2)
    p3.handle_deploy_keys(to_p3)
    ids = [0, 3, 5, 7]
    resp = p2.serve(p3.infer_request(ids))
    o_prime = wire.decode_matrix(resp.payload)
    right = recover_output(o_prime, p3.pi_c)
    wrong = recover_output(o_prime, old_pi_c)
    x = embed(ids, params.embedding)
    local = model_forward(x, params, make_mask(params.config.mask_kind, len(ids)))
    assert np.array_equal(np.argmax(right, axis=1), np.argmax(local, axis=1))
    # the retired class permutation scrambles columns: some row's argmax moves
    assert not np.array_equal(np.argmax(wrong, axis=1), np.argmax(local, axis=1))
    assert np.max(np.abs(wrong - local)) > 1e-3


# --- serve_loop error frames ---------------------------------------------------------


def test_serve_loop_translates_faults_to_error_frames():
    params = desk_params(47)
    p1, p2, p3 = deployed_parties(params, seed=48)
    near, far = inproc_pair()
    t = _serve_on_thread(p2, far)

    near.send(wire.make_deploy_keys(b"junk", p2.epoch, 1))
    err = near.recv(timeout=5)
    assert err.msg_type is wire.MsgType.ERROR
    code, _ = wire.decode_error_payload(err.payload)
    assert code == wire.ErrorCode.UNSUPPORTED

    near.send(wire.make_deploy_model(b"garbage", p2.epoch + 1, 1))
    err = near.recv(timeout=5)
    code, _ = wire.decode_error_payload(err.payload)
    assert code == wire.ErrorCode.MALFORMED

    stale = wire.make_infer_request(np.ones((1, params.config.d_model), F32), 99, 1)
    near.send(stale)
    err = near.recv(timeout=5)
    code, _ = wire.decode_error_payload(err.payload)
    assert code == wire.ErrorCode.STALE_EPOCH
    with pytest.raises(StaleEpochError):
        p3.recover(err)

    near.close()
    t.join()


def test_p1_link_answers_overflowing_tensor_dims_as_malformed_and_keeps_serving():
    params = desk_params(55)
    p1 = DeveloperParty(params, session_seed=56)
    p2 = ServerParty()
    p3 = DataOwnerParty(params.embedding, session_seed=57)
    to_p2, to_p3 = p1.initialize(58)
    near, far = inproc_pair()
    t = threading.Thread(target=p2.serve_loop, args=(far, 5), kwargs={"role": "P1"})
    t.start()
    try:
        near.send(wire.make_deploy_model(overflowing_container(params.config), 1, 1))
        err = near.recv(timeout=5)
        assert err.msg_type is wire.MsgType.ERROR
        assert wire.decode_error_payload(err.payload)[0] == wire.ErrorCode.MALFORMED
        assert p2.model is None and p2.epoch is None
        stip.protocol.deploy(near, p3, to_p2, to_p3, timeout=5)
        assert t.is_alive()
    finally:
        near.close()
        t.join(timeout=5)
    o = p3.recover(p2.serve(p3.infer_request([1, 2])))
    assert o.shape == (2, params.config.vocab_size)


def test_serve_loop_drops_a_deploy_frame_once_it_has_answered():
    """P2's θ′ is the deploy payload itself: P2 keeps no second copy of it,
    and a REKEY notice that retires θ′ frees the payload."""

    class Payload(bytearray):
        """A container that can be weakly referenced."""

    params = desk_params(51)
    p1 = DeveloperParty(params, session_seed=52)
    to_p2, to_p3 = p1.initialize(53)
    p2 = ServerParty()
    p3 = DataOwnerParty(params.embedding, session_seed=54)
    p3.handle_deploy_keys(to_p3)
    payload = Payload(to_p2.payload)
    frame = wire.make_deploy_model(payload, to_p2.epoch, to_p2.session_id)
    alive = weakref.ref(payload)
    del to_p2
    near, far = inproc_pair()
    t = _serve_on_thread(p2, far)
    try:
        near.send(frame)
        assert near.recv(timeout=5).msg_type is wire.MsgType.ACK
        del frame
        for name, tensor in container._tensor_map(p2.model).items():
            assert np.shares_memory(tensor, np.frombuffer(payload, np.uint8)), name
            with pytest.raises(ValueError):
                tensor[(0,) * tensor.ndim] = 0
        del tensor, payload
        assert p3.generate([1, 2], 3, near) == greedy_generate(params, [1, 2], 3)
        p1.rekey(55)
        near.send(p1.rekey_notice())
        assert near.recv(timeout=5).msg_type is wire.MsgType.ACK
        assert p2.model is None
        gc.collect()
        assert alive() is None
        assert t.is_alive()
    finally:
        near.close()
        t.join(timeout=5)
    assert not t.is_alive()


# --- P2's widened θ′ ---------------------------------------------------------------

# Tensor names (container._tensor_map) P2 holds in float64 once widened.
WIDE_TENSOR = re.compile(r"W_c|layers\.\d+\.W_[qkvo123]")

# The four engine variants, plus an MoE model shaped like the benchmark's.
WIDE_VARIANTS = {
    **VARIANT_CONFIGS,
    "moe_rms_swiglu": dict(
        norm_kind=NormKind.RMSNORM,
        norm_placement=NormPlacement.PRE,
        ffn_kind=FfnKind.SWIGLU,
        n_experts=4,
    ),
}


def _dtypes(model):
    return {name: t.dtype for name, t in container._tensor_map(model).items()}


def _widened_on_first_request(p2, p3):
    """Serve one prefill and return P2's model, now widened."""
    assert set(_dtypes(p2.model).values()) == {np.dtype(F32)}
    p2.serve(p3.infer_request([0], mode=wire.ReplyMode.TOP1))
    assert p2.model.w_c.dtype == np.float64
    return p2.model


@pytest.mark.parametrize("variant", sorted(WIDE_VARIANTS))
def test_first_request_widens_exactly_the_dense_matrices(variant):
    params = desk_params(130, **WIDE_VARIANTS[variant])
    _, p2, p3 = deployed_parties(params, seed=131)
    model = p2.model
    before = p2.state_bytes()
    assert _widened_on_first_request(p2, p3) is model
    dtypes = _dtypes(model)
    wide = {name for name in dtypes if WIDE_TENSOR.fullmatch(name)}
    assert "W_c" in wide and "layers.0.W_q" in wide
    assert not any(".experts." in name or name.endswith("W_g") for name in wide)
    for name, dtype in dtypes.items():
        assert dtype == (np.float64 if name in wide else F32), name
    # the container format and what P2 would hand over do not change
    assert p2.state_bytes() == before
    assert set(_dtypes(container.decode_model(before)).values()) == {np.dtype(F32)}
    # later requests find it widened and leave it be
    p2.serve(p3.infer_request([1, 2]))
    assert p2.model is model and _dtypes(model) == dtypes


def test_redeploy_installs_float32_and_widens_again_at_its_first_request():
    params = desk_params(132)
    p1, p2, p3 = deployed_parties(params, seed=133)
    first = _widened_on_first_request(p2, p3)
    ids = [3, 1, 4]
    before = p3.recover(p2.serve(p3.infer_request(ids)))
    to_p2, to_p3 = p1.rekey(134)
    p2.handle_deploy(to_p2)
    p3.handle_deploy_keys(to_p3)
    assert p2.model is not first
    assert p2.state_bytes() == to_p2.payload
    assert _widened_on_first_request(p2, p3) is not first
    after = p3.recover(p2.serve(p3.infer_request(ids)))
    assert np.max(np.abs(after - before)) <= 1e-4


@pytest.mark.parametrize("bad", ["trailer", "width", "step"])
def test_a_refused_first_request_widens_nothing(bad):
    params = desk_params(160)
    _, p2, p3 = deployed_parties(params, seed=161)
    top1 = wire.ReplyMode.TOP1
    req = p3.infer_request([0, 1], mode=top1)
    if bad == "trailer":
        req = replace(req, payload=req.payload[:-4])
    elif bad == "width":
        x = np.ones((2, params.config.d_model + 1), F32)
        req = wire.make_infer_request(x, p2.epoch, req.session_id, mode=top1)
    else:
        req = p3.infer_request([0], start=2, mode=top1)
    cache = stip.protocol.LinkCache()
    with pytest.raises((CodecError, InvalidDimensionError, ProtocolError)):
        p2.serve(req, cache)
    assert set(_dtypes(p2.model).values()) == {np.dtype(F32)}
    _widened_on_first_request(p2, p3)


@pytest.mark.parametrize("variant", sorted(WIDE_VARIANTS))
def test_widened_dense_theta_prime_lets_the_payload_go(variant):
    """After the widening first request a dense θ′ holds no view into the
    deploy payload, so the payload is freed; an MoE θ′ still views it for
    its experts and W′_g."""

    class Payload(bytearray):
        """A container that can be weakly referenced."""

    params = desk_params(162, **WIDE_VARIANTS[variant])
    p1 = DeveloperParty(params, session_seed=163)
    p2 = ServerParty()
    p3 = DataOwnerParty(params.embedding, session_seed=164)
    to_p2, to_p3 = p1.initialize(165)
    p3.handle_deploy_keys(to_p3)
    payload = Payload(to_p2.payload)
    p2.handle_deploy(wire.make_deploy_model(payload, to_p2.epoch, to_p2.session_id))
    alive = weakref.ref(payload)
    del to_p2
    _widened_on_first_request(p2, p3)
    raw = np.frombuffer(payload, np.uint8)
    views = {
        name
        for name, tensor in container._tensor_map(p2.model).items()
        if np.shares_memory(tensor, raw)
    }
    del raw, payload
    gc.collect()
    if params.config.is_moe:
        assert views and all(".experts." in n or n.endswith("W_g") for n in views)
        assert alive() is not None
    else:
        assert views == set()
        assert alive() is None


@pytest.mark.parametrize("widened", [False, True], ids=["float32", "widened"])
def test_stale_epoch_request_is_refused_whether_or_not_widened(widened):
    params = desk_params(135)
    p1, p2, p3 = deployed_parties(params, seed=136)
    old_req = p3.infer_request([0, 1])
    to_p2, to_p3 = p1.rekey(137)
    p2.handle_deploy(to_p2)
    p3.handle_deploy_keys(to_p3)
    if widened:
        _widened_on_first_request(p2, p3)
    with pytest.raises(StaleEpochError):
        p2.serve(old_req)
    model = p2.model
    assert (model.w_c.dtype == np.float64) is widened
    # a retired epoch is refused too, and a refused request widens nothing
    req = p3.infer_request([0])
    p1.rekey(138)
    p2.handle_rekey(p1.rekey_notice())
    with pytest.raises(StaleEpochError):
        p2.serve(req)
    assert (_dtypes(model)["W_c"] == np.float64) is widened


@pytest.mark.parametrize("last_row", [False, True], ids=["all", "top1"])
@pytest.mark.parametrize(
    "mask_kind", [MaskKind.CAUSAL, MaskKind.NONE], ids=["causal", "none"]
)
@pytest.mark.parametrize("variant", sorted(WIDE_VARIANTS))
@given(
    n=st.integers(1, 10),
    steps=st.lists(st.integers(1, 2), min_size=3, max_size=4),
    seed=st.integers(0, 2**16),
)
def test_widened_theta_prime_equals_float32_plain_and_permuted(
    variant, mask_kind, last_row, n, steps, seed
):
    """A prefill and cached steps on P2's widened θ′ give the float32 θ′'s
    outputs bit for bit, and recover to the plain model's within 1e-4."""
    cfg = make_config(n_layers=3, mask_kind=mask_kind, **WIDE_VARIANTS[variant])
    params = gen_model(cfg, seed)
    p1, p2, p3 = deployed_parties(params, seed=seed + 1)
    wide = _widened_on_first_request(p2, p3)
    narrow = para_trans(params, p1.pset)
    x = np.random.default_rng(seed).normal(size=(n + sum(steps), cfg.d_model))
    x = x.astype(F32)
    xp = apply_col_perm(x, p1.pset.pi)
    mask = make_mask(mask_kind)
    caches = [KVCache(cfg.n_layers) for _ in range(3)]
    a = 0
    for b in np.cumsum([n, *steps]):
        o_wide, o_narrow, o_plain = (
            model_forward(rows[a:b], model, mask, cache=cache, last_row=last_row)
            for rows, model, cache in zip(
                (xp, xp, x), (wide, narrow, params), caches
            )
        )
        assert np.array_equal(o_wide, o_narrow)
        assert np.array_equal(_argmax_set(o_wide[-1]), _argmax_set(o_narrow[-1]))
        assert np.max(np.abs(recover_output(o_wide, p1.pset.pi_c) - o_plain)) <= 1e-4
        a = b
    assert _dtypes(wide)["W_c"] == np.float64


@pytest.mark.parametrize("kind", ["inproc", "socket"])
@pytest.mark.parametrize("variant", ["post_ln_relu", "moe_rms_swiglu"])
def test_widened_server_generates_local_greedy_tokens_across_a_rekey(kind, variant):
    params = desk_params(140, n_layers=3, **WIDE_VARIANTS[variant])
    p1 = DeveloperParty(params, session_seed=141)
    p2 = ServerParty()
    p3 = DataOwnerParty(params.embedding, session_seed=142)
    prompts = ([1, 2, 3], [4, 5, 6, 7])
    local = [greedy_generate(params, prompt, 6) for prompt in prompts]
    hub = _ServerHost(p2, kind, 0.0, 5.0)
    try:
        for messages in (p1.initialize(143), p1.rekey(144)):
            stip.protocol.deploy(hub.p1_link, p3, *messages, timeout=5.0)
            model = p2.model
            assert model.w_c.dtype == F32
            got = [p3.generate(prompt, 6, hub.p3_link, timeout=5.0) for prompt in prompts]
            assert got == local
            assert p2.model is model and model.w_c.dtype == np.float64
    finally:
        hub.shutdown()
    assert not any(t.is_alive() for t in hub._threads)


@pytest.mark.parametrize("first", ["ALL", "TOP1"], ids=["all_first", "top1_first"])
@pytest.mark.parametrize(
    "mask_kind", [MaskKind.CAUSAL, MaskKind.NONE], ids=["causal", "none"]
)
@pytest.mark.parametrize("variant", ["post_ln_relu", "moe_rms_swiglu"])
def test_theta_prime_served_from_payload_views_replies_as_aligned_copies(
    variant, mask_kind, first, tmp_path
):
    """P2 serves θ′ from views into the deploy payload, some off a 4-byte
    boundary; its replies equal, byte for byte, those of the same θ′ held as
    aligned arrays of its own, before and after the widening first request."""
    params = desk_params(150, n_layers=3, mask_kind=mask_kind, **WIDE_VARIANTS[variant])
    p1 = DeveloperParty(params, session_seed=151)
    p3 = DataOwnerParty(params.embedding, session_seed=152)
    to_p2, to_p3 = p1.initialize(153)
    p3.handle_deploy_keys(to_p3)
    views, copies = ServerParty(), ServerParty()
    for p2 in (views, copies):
        p2.handle_deploy(to_p2)
    path = tmp_path / "theta.stip"
    path.write_bytes(to_p2.payload)
    copies.model = container.load_model(str(path))

    def offsets(model):
        return {t.ctypes.data % 4 for t in container._tensor_map(model).values()}

    assert offsets(views.model) - {0} and offsets(copies.model) == {0}
    all_, top1 = wire.ReplyMode.ALL, wire.ReplyMode.TOP1
    ids = [3, 1, 4, 1, 5]
    rounds = [p3.infer_request(ids, mode=wire.ReplyMode[first])]
    for k, mode in enumerate((all_, top1, top1, all_)):
        rounds.append(p3.infer_request([k + 2], start=len(ids) + k, mode=mode))
    rounds.append(p3.infer_request(ids[:2], mode=top1))
    caches = (stip.protocol.LinkCache(), stip.protocol.LinkCache())
    for req in rounds:
        got, want = (p2.serve(req, c) for p2, c in zip((views, copies), caches))
        assert got.msg_type is want.msg_type is wire.MsgType.INFER_RESPONSE
        assert bytes(got.payload) == bytes(want.payload)
    assert views.model.w_c.dtype == copies.model.w_c.dtype == np.float64


# --- knowledge partition ---------------------------------------------------------------


def test_state_partition():
    params = desk_params(49, d_model=16, vocab_size=20)
    p1, p2, p3 = deployed_parties(params, seed=50)
    p2_state = p2.state_bytes()
    p3_state = p3.state_bytes()
    # `in` on anything but bytes would test ints, and pass whatever it held
    assert type(p2_state) is type(p3_state) is type(p1.state_bytes()) is bytes

    def key_bytes(perm):
        return perm.indices.astype("<u4").tobytes()

    pset = p1.pset
    private = [p for lp in pset.per_layer for p in (lp.pi1, lp.pi2, *lp.pi3s)]
    for perm in (pset.pi, pset.pi_c, *private):
        assert key_bytes(perm) not in p2_state
    assert key_bytes(p3.pi) in p3_state
    assert key_bytes(p3.pi_c) in p3_state
    for lp in p1.pset.per_layer:
        assert key_bytes(lp.pi1) not in p3_state
        assert key_bytes(lp.pi2) not in p3_state
        for p3i in lp.pi3s:
            assert key_bytes(p3i) not in p3_state


def test_server_never_holds_a_row_of_the_embedding_table():
    params = desk_params(51, d_model=16, vocab_size=20)
    _, p2, _ = deployed_parties(params, seed=52)
    assert p2.model.embedding is None
    p2_state = p2.state_bytes()
    assert type(p2_state) is bytes
    for row in params.embedding.table:
        assert row.astype("<f4").tobytes() not in p2_state


def test_server_refuses_a_deploy_carrying_the_embedding_table():
    params = desk_params(53)
    p2 = ServerParty()
    full = wire.make_deploy_model(container.encode_model(params), 1, 1)
    with pytest.raises(ProtocolError):
        p2.handle_deploy(full)
    assert p2.model is None


# --- full simulation -----------------------------------------------------------------


def test_simulation_transports_agree_and_match_local():
    params = desk_params(51)
    prompts = [[0, 1], [5, 3, 2], [7]]
    local = [greedy_generate(params, p, 4) for p in prompts]
    for kind in ("inproc", "socket"):
        streams, transcript = run_simulation(
            params, prompts, 4, transport_kind=kind, seed=52
        )
        assert streams == local
        assert transcript.inference_count() == 2 * 4 * len(prompts)


def test_simulation_transcript_shape_single_prompt():
    params = desk_params(53)
    streams, transcript = run_simulation(params, [[1, 2, 3]], 5, seed=54)
    assert len(streams) == 1 and len(streams[0]) == 5
    assert len(transcript.entries) == 2 + 2 * 5
    directions = [e["direction"] for e in transcript.entries[:2]]
    assert directions == ["P1->P2", "P1->P3"]
    assert transcript.entries[2]["dims"] == [3, params.config.d_model]


@pytest.mark.parametrize("kind", ["inproc", "socket"])
def test_simulation_rekey_between_prompts_keeps_streams(kind):
    params = desk_params(55)
    prompts = [[0, 1], [2, 3], [4, 5]]
    local = [greedy_generate(params, p, 3) for p in prompts]
    streams, transcript = run_simulation(
        params, prompts, 3, transport_kind=kind, seed=56, rekey_between=True
    )
    assert streams == local
    sent = [e["msg_type"] for e in transcript.entries if e["direction"].startswith("P1")]
    # initial pair, then the REKEY notice retiring epoch 1 and one rekey pair
    assert sent == ["DEPLOY_MODEL", "DEPLOY_KEYS", "REKEY", "DEPLOY_MODEL", "DEPLOY_KEYS"]
    notice = next(e for e in transcript.entries if e["msg_type"] == "REKEY")
    assert (notice["direction"], notice["epoch"]) == ("P1->P2", 2)


def _moe_params_with_splittable_experts(seed):
    # experts of at least 65 columns, so that a cut at 64 leaves two halves
    return desk_params(seed, d_model=72, d_ff=136, **WIDE_VARIANTS["moe_rms_swiglu"])


def _moe_params_with_panelled_experts(seed):
    # W_1/W_3 are 128 x 256 and W_2 256 x 128: two column panels each
    return desk_params(seed, d_model=128, d_ff=256, **WIDE_VARIANTS["moe_rms_swiglu"])


def _count_split_products(monkeypatch):
    calls = []
    split = numerics._split_matmul

    def counted(a, b, panels):
        calls.append(b.shape)
        return split(a, b, panels)

    monkeypatch.setattr(numerics, "_split_matmul", counted)
    return calls


@pytest.mark.parametrize("kind", ["inproc", "socket"])
def test_split_expert_products_keep_local_greedy_tokens(kind, monkeypatch):
    # with no size threshold, P2 splits every float32 product: each expert's
    # fused [W_1 | W_3] and its W_2; the widened dense θ′ and the K′/V′ cache
    # are float64, and their products are below SPLIT_MIN_MACS
    params = _moe_params_with_splittable_experts(59)
    prompts = [[0, 1], [5, 3, 2]]
    local = [greedy_generate(params, p, 4) for p in prompts]
    split = _count_split_products(monkeypatch)
    with two_cores(0) as handed:
        streams, _ = run_simulation(
            params, prompts, 4, transport_kind=kind, seed=60, rekey_between=True
        )
    assert streams == local
    assert set(split) == {(72, 2 * 136), (136, 72)}
    assert handed and helper_idle(handed)


@pytest.mark.parametrize(
    "experts",
    [_moe_params_with_splittable_experts, _moe_params_with_panelled_experts],
    ids=["halves", "panels"],
)
def test_a_rekey_after_split_served_requests_frees_theta_prime_and_its_payload(
    experts, monkeypatch
):
    class Payload(bytearray):
        """A container that can be weakly referenced."""

    params = experts(61)
    p1 = DeveloperParty(params, session_seed=62)
    p2 = ServerParty()
    p3 = DataOwnerParty(params.embedding, session_seed=63)
    to_p2, to_p3 = p1.initialize(64)
    p3.handle_deploy_keys(to_p3)
    payload = Payload(to_p2.payload)
    frame = wire.make_deploy_model(payload, to_p2.epoch, to_p2.session_id)
    alive = weakref.ref(payload)
    del to_p2, payload
    want = greedy_generate(params, [1, 2], 3)
    near, far = inproc_pair()
    split = _count_split_products(monkeypatch)
    with two_cores(0) as handed:
        t = _serve_on_thread(p2, far)
        try:
            near.send(frame)
            assert near.recv(timeout=5).msg_type is wire.MsgType.ACK
            del frame
            assert p3.generate([1, 2], 3, near) == want
            assert split and handed and helper_idle(handed)
            retired = weakref.ref(p2.model)
            p1.rekey(65)
            near.send(p1.rekey_notice())
            assert near.recv(timeout=5).msg_type is wire.MsgType.ACK
            assert p2.model is None
            gc.collect()
            assert retired() is None and alive() is None
        finally:
            near.close()
            t.join(timeout=5)
    assert not t.is_alive()


def test_simulation_rejects_unknown_transport():
    with pytest.raises(ProtocolError):
        run_simulation(desk_params(57), [[0]], 1, transport_kind="carrier-pigeon")


def test_simulation_latency_lower_bound():
    params = desk_params(58, n_layers=1)
    t0 = time.perf_counter()
    run_simulation(params, [[0, 1]], 3, latency=0.01, seed=59)
    wall = time.perf_counter() - t0
    assert wall >= 3 * 2 * 0.01


@pytest.mark.parametrize("kind", ["inproc", "socket"])
def test_simulation_rekey_after_an_idle_p1_link(kind):
    # The first prompt takes 6 rounds of two 20 ms sends, so P1's link is idle
    # for longer than the 0.2 s timeout before the rekey deploys over it.
    params = desk_params(62)
    prompts = [[0, 1], [2, 3], [4, 5]]
    local = [greedy_generate(params, p, 6) for p in prompts]
    before = set(threading.enumerate())
    streams, _ = run_simulation(
        params, prompts, 6, transport_kind=kind, latency=0.02, seed=63,
        rekey_between=True, timeout=0.2,
    )
    assert streams == local
    assert set(threading.enumerate()) <= before  # no serve thread outlives the run


def _answers(link):
    link.send(wire.make_ack(0, 0))  # P2 answers any frame, here with an Error
    return link.recv(timeout=5.0).msg_type is wire.MsgType.ERROR


@pytest.mark.parametrize("kind", ["inproc", "socket"])
def test_server_host_serves_exactly_two_links_until_shutdown(kind):
    hub = _ServerHost(ServerParty(), kind, 0.0, 5.0)
    try:
        assert len(hub._threads) == 2
        assert all(t.is_alive() for t in hub._threads)
        assert _answers(hub.p1_link) and _answers(hub.p3_link)
    finally:
        hub.shutdown()
    assert not any(t.is_alive() for t in hub._threads)


def _ask(link, frame):
    link.send(frame)
    return link.recv(timeout=5.0)


def _refused(reply, code=wire.ErrorCode.UNSUPPORTED):
    assert reply.msg_type is wire.MsgType.ERROR
    return wire.decode_error_payload(reply.payload)[0] == code


@pytest.mark.parametrize("kind", ["inproc", "socket"])
def test_server_host_binds_each_link_to_its_partys_frames(kind):
    params = desk_params(64)
    p1 = DeveloperParty(params, session_seed=65)
    p2 = ServerParty()
    p3 = DataOwnerParty(params.embedding, session_seed=66)
    rogue = DeveloperParty(desk_params(67), session_seed=68)
    rogue.initialize(69)
    rogue_model, rogue_keys = rogue.initialize(70)  # epoch 2: would advance P2's
    top1 = wire.ReplyMode.TOP1
    prompt = [1, 2, 3]
    hub = _ServerHost(p2, kind, 0.0, 5.0)
    try:
        stip.protocol.deploy(hub.p1_link, p3, *p1.initialize(71))
        model = p2.model
        first = _ask(hub.p3_link, p3.infer_request(prompt, mode=top1))
        assert first.msg_type is wire.MsgType.INFER_RESPONSE
        retire_live = wire.make_rekey(p2.epoch + 1, p2.epoch, p3.session_id)
        for frame in (rogue_model, retire_live, rogue_keys):
            assert _refused(_ask(hub.p3_link, frame))
        assert (p2.model, p2.epoch) == (model, 1)
        # the link's cache survived: a step continuing the prefill is served
        step = p3.infer_request([4], start=len(prompt), mode=top1)
        assert _ask(hub.p3_link, step).msg_type is wire.MsgType.INFER_RESPONSE
        assert _refused(_ask(hub.p1_link, p3.infer_request(prompt, mode=top1)))
        local = greedy_generate(params, prompt, 5)
        assert p3.generate(prompt, 5, hub.p3_link, timeout=5.0) == local
        stip.protocol.deploy(hub.p1_link, p3, *p1.rekey(72))
        assert p2.epoch == 2
        assert p3.generate(prompt, 5, hub.p3_link, timeout=5.0) == local
    finally:
        hub.shutdown()
    assert not any(t.is_alive() for t in hub._threads)


@pytest.mark.parametrize("kind", ["inproc", "socket"])
def test_an_epoch_names_one_key_set_live_or_retired(kind):
    # a second P1 deploys its own key set under epoch 1, live and then retired
    params = desk_params(73)
    p1 = DeveloperParty(params, session_seed=74)
    p2 = ServerParty()
    p3 = DataOwnerParty(params.embedding, session_seed=75)
    rogue_model, _ = DeveloperParty(params, session_seed=76).initialize(77)
    stale = wire.ErrorCode.STALE_EPOCH
    prompt = [1, 2, 3]
    local = greedy_generate(params, prompt, 8)
    hub = _ServerHost(p2, kind, 0.0, 5.0)
    try:
        stip.protocol.deploy(hub.p1_link, p3, *p1.initialize(78))
        model = p2.model
        assert _refused(_ask(hub.p1_link, rogue_model), stale)
        assert (p2.model, p2.epoch) == (model, 1)
        to_p2, to_p3 = p1.rekey(79)
        assert _ask(hub.p1_link, p1.rekey_notice()).msg_type is wire.MsgType.ACK
        assert _refused(_ask(hub.p1_link, rogue_model), stale)
        assert (p2.model, p2.epoch) == (None, 1)
        # P3 still holds epoch 1's keys: it gets an error, never a token
        with pytest.raises(AbortedGenerationError, match="retired epoch 1") as err:
            p3.generate(prompt, 8, hub.p3_link, timeout=5.0)
        assert err.value.tokens == []
        stip.protocol.deploy(hub.p1_link, p3, to_p2, to_p3)
        assert p3.generate(prompt, 8, hub.p3_link, timeout=5.0) == local
        # below the live epoch, too
        model = p2.model
        assert _refused(_ask(hub.p1_link, rogue_model), stale)
        assert (p2.model, p2.epoch) == (model, 2)
        assert p3.generate(prompt, 8, hub.p3_link, timeout=5.0) == local
    finally:
        hub.shutdown()
    assert not any(t.is_alive() for t in hub._threads)


# --- MoE experts as column panels -------------------------------------------------


def _served_experts(model):
    return [m for w in model.layers for fw in w.experts for m in (fw.w1, fw.w2, fw.w3)]


@pytest.mark.parametrize("kind", ["inproc", "socket"])
def test_panelled_experts_keep_local_greedy_tokens(kind, monkeypatch):
    params = _moe_params_with_panelled_experts(150)
    prompts = [[0, 1], [5, 3, 2]]
    local = [greedy_generate(params, p, 4) for p in prompts]
    panelled = []
    split = numerics._split_matmul

    def counted(a, b, panels):
        if type(b) is ColumnConcat:
            # W′_1's panels then W′_3's, each a view into its PanelMatrix
            sources = [pm.panels[i] for pm in b.parts for i in range(len(pm.panels))]
            assert all(type(pm) is PanelMatrix for pm in b.parts)
            assert [src.ctypes.data for _, src in panels] == [w.ctypes.data for w in sources]
        if type(b) in (PanelMatrix, ColumnConcat):
            panelled.append((type(b), b.shape, len(panels)))
        return split(a, b, panels)

    monkeypatch.setattr(numerics, "_split_matmul", counted)
    with two_cores(0) as handed:
        streams, _ = run_simulation(
            params, prompts, 4, transport_kind=kind, seed=151, rekey_between=True
        )
    assert streams == local
    # each expert makes two products: the fused [W′_1 | W′_3] of 2 + 2 panels, and W′_2
    assert set(panelled) == {(ColumnConcat, (128, 512), 4), (PanelMatrix, (256, 128), 2)}
    assert handed and helper_idle(handed)


def test_server_state_is_the_panelled_payload_it_received():
    params = _moe_params_with_panelled_experts(152)
    p1 = DeveloperParty(params, session_seed=153)
    p2 = ServerParty()
    p3 = DataOwnerParty(params.embedding, session_seed=154)
    to_p2, to_p3 = p1.initialize(155)
    p2.handle_deploy(to_p2)
    p3.handle_deploy_keys(to_p3)
    assert all(type(m) is PanelMatrix for m in _served_experts(p2.model))
    assert p2.state_bytes() == to_p2.payload
    p2.serve(p3.infer_request([1, 2], mode=wire.ReplyMode.TOP1))  # widens the dense θ′
    assert all(type(m) is PanelMatrix for m in _served_experts(p2.model))
    assert p2.state_bytes() == to_p2.payload


def _tensor_dims_patched(payload, name, dims):
    """The container `payload` with tensor `name` declaring `dims`, of as many elements."""
    blob = bytearray(payload)
    nm = name.encode()
    at = blob.index(struct.pack("<H", len(nm)) + nm) + 2 + len(nm)
    assert blob[at] == len(dims)
    blob[at + 1 : at + 1 + 4 * len(dims)] = struct.pack(f"<{len(dims)}I", *dims)
    return bytes(blob)


@pytest.mark.parametrize("kind", ["inproc", "socket"])
def test_a_misshapen_panel_tensor_is_malformed_and_the_next_deploy_is_served(kind):
    params = _moe_params_with_panelled_experts(156)
    p1 = DeveloperParty(params, session_seed=157)
    p2 = ServerParty()
    p3 = DataOwnerParty(params.embedding, session_seed=158)
    to_p2, to_p3 = p1.initialize(159)
    name = "layers.1.experts.2.W_1"  # stored as (2, 128, 128)
    bad = [
        _tensor_dims_patched(to_p2.payload, name, (8, 128, 32)),  # 32-column panels
        _tensor_dims_patched(to_p2.payload, name, (2, 256, 64)),  # logical 256 x 128
    ]
    hub = _ServerHost(p2, kind, 0.0, 5.0)
    try:
        for payload in bad:
            frame = wire.make_deploy_model(payload, to_p2.epoch, to_p2.session_id)
            assert _refused(_ask(hub.p1_link, frame), wire.ErrorCode.MALFORMED)
            assert (p2.model, p2.epoch) == (None, None)
        stip.protocol.deploy(hub.p1_link, p3, to_p2, to_p3)
        local = greedy_generate(params, [1, 2, 3], 3)
        assert p3.generate([1, 2, 3], 3, hub.p3_link, timeout=5.0) == local
    finally:
        hub.shutdown()
    assert not any(t.is_alive() for t in hub._threads)


def test_a_tracer_reads_logical_shapes_and_the_row_major_flop_count():
    # a tracer wraps stip.model.matmul by name and counts flops from np.shape
    params = _moe_params_with_panelled_experts(160)

    def traced_serve(panel_bytes):
        calls = []
        matmul = stip.model.matmul

        def counted(a, b, *args, **kwargs):
            out = matmul(a, b, *args, **kwargs)
            sa, sb = np.shape(a), np.shape(b)
            calls.append((sa, sb, 2 * sa[0] * sa[-1] * sb[-1]))
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(numerics, "PANEL_BYTES", panel_bytes)
            _, p2, p3 = deployed_parties(params, seed=161)
            mp.setattr(stip.model, "matmul", counted)
            reply = p2.serve(p3.infer_request([1, 2, 3], mode=wire.ReplyMode.TOP1))
        return calls, bytes(reply.payload), {type(m) for m in _served_experts(p2.model)}

    panels = traced_serve(numerics.PANEL_BYTES)
    row_major = traced_serve(0)  # no expert has panels, as before the panel layout
    assert (panels[2], row_major[2]) == ({PanelMatrix}, {np.ndarray})
    # an expert's W_1 and W_3 are one product of logical shape (k, 2m)
    expert_calls = {(sb, flop) for _, sb, flop in panels[0] if sb in {(128, 512), (128, 256)}}
    assert expert_calls == {((128, 512), 2 * 3 * 128 * 512), ((128, 512), 2 * 1 * 128 * 512)}
    assert panels[:2] == row_major[:2]


def _benchmark_workloads():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.WORKLOADS.values()


@pytest.mark.parametrize("kind", ["inproc", "socket"])
def test_p3_refuses_a_generation_the_row_cap_would_cut_short_before_sending(
    kind, monkeypatch
):
    monkeypatch.setattr(stip.protocol, "MAX_ROWS", 6)
    params = desk_params(166)
    p1 = DeveloperParty(params, session_seed=167)
    p2 = ServerParty()
    p3 = DataOwnerParty(params.embedding, session_seed=168)
    transcript = Transcript()
    prompt = [1, 2, 3, 4]
    hub = _ServerHost(p2, kind, 0.0, 5.0)
    try:
        stip.protocol.deploy(hub.p1_link, p3, *p1.initialize(169))
        # the 4th new token would need a request reaching row 7
        for ids, tokens in ((prompt, 4), (list(range(7)), 1), ([], 1)):
            with pytest.raises(InvalidDimensionError):
                p3.generate(ids, tokens, hub.p3_link, transcript, timeout=5.0)
        assert transcript.entries == []
        with pytest.raises(InvalidDimensionError):
            greedy_generate(params, [], 1)  # local decoding refuses it too
        # the longest generation within the cap matches local decoding
        local = greedy_generate(params, prompt, 3)
        assert p3.generate(prompt, 3, hub.p3_link, transcript, timeout=5.0) == local
        assert transcript.inference_count() == 2 * 3
    finally:
        hub.shutdown()
    assert not any(t.is_alive() for t in hub._threads)


@pytest.mark.parametrize("kind", ["inproc", "socket"])
def test_a_request_of_zero_rows_is_malformed(kind):
    params = desk_params(170)
    p1 = DeveloperParty(params, session_seed=171)
    p2 = ServerParty()
    p3 = DataOwnerParty(params.embedding, session_seed=172)
    hub = _ServerHost(p2, kind, 0.0, 5.0)
    try:
        stip.protocol.deploy(hub.p1_link, p3, *p1.initialize(173))
        empty = np.zeros((0, params.config.d_model), dtype=F32)
        req = wire.make_infer_request(empty, p3.epoch, p3.session_id, 0, wire.ReplyMode.TOP1)
        assert _refused(_ask(hub.p3_link, req), wire.ErrorCode.MALFORMED)
        assert p3.generate([1, 2], 2, hub.p3_link, timeout=5.0) == greedy_generate(
            params, [1, 2], 2
        )
    finally:
        hub.shutdown()
    assert not any(t.is_alive() for t in hub._threads)


@pytest.mark.parametrize("kind", ["inproc", "socket"])
@pytest.mark.parametrize("ffn", ["dense", "moe-panels"])
def test_split_float64_and_fused_swiglu_products_keep_local_greedy_tokens(
    ffn, kind, monkeypatch
):
    # with no MAC threshold every float64 product of more than one row splits:
    # the widened dense θ′, a dense FFN's fused [W′_1 | W′_3] and the K′/V′ cache
    if ffn == "dense":
        params = desk_params(174, d_model=128, d_ff=256, **VARIANT_CONFIGS["rms_swiglu"])
    else:
        params = _moe_params_with_panelled_experts(174)
    prompts = [[0, 1], [5, 3, 2]]
    local = [greedy_generate(params, p, 4) for p in prompts]
    fused = []
    split = numerics._split_matmul

    def counted(a, b, panels):
        if type(b) is ColumnConcat:
            fused.append((b.dtype, b.shape))
        return split(a, b, panels)

    monkeypatch.setattr(numerics, "_split_matmul", counted)
    with two_cores(numerics.SPLIT_MIN_ELEMENTS, min_macs=0) as handed:
        streams, _ = run_simulation(
            params, prompts, 4, transport_kind=kind, seed=175, rekey_between=True
        )
    assert streams == local
    dtype = np.float64 if ffn == "dense" else F32
    assert set(fused) == {(np.dtype(dtype), (128, 512))}
    assert handed and helper_idle(handed)


def test_the_row_cap_admits_every_benchmark_sequence():
    longest = max(w.prompt_len + w.new_tokens for w in _benchmark_workloads())
    assert longest == 16 + 256
    assert stip.protocol.MAX_ROWS == stip.transport.MAX_ROWS >= longest


@pytest.mark.parametrize("kind", ["inproc", "socket"])
def test_a_request_past_the_row_cap_is_malformed_and_keeps_the_links_cache(
    kind, monkeypatch
):
    monkeypatch.setattr(stip.protocol, "MAX_ROWS", 6)
    params = desk_params(162)
    p1 = DeveloperParty(params, session_seed=163)
    p2 = ServerParty()
    p3 = DataOwnerParty(params.embedding, session_seed=164)
    top1 = wire.ReplyMode.TOP1
    malformed = wire.ErrorCode.MALFORMED
    hub = _ServerHost(p2, kind, 0.0, 5.0)
    try:
        stip.protocol.deploy(hub.p1_link, p3, *p1.initialize(165))
        assert _refused(_ask(hub.p3_link, p3.infer_request(list(range(7)), mode=top1)), malformed)
        prompt = [1, 2, 3, 4]
        reply = _ask(hub.p3_link, p3.infer_request(prompt, mode=top1))
        assert reply.msg_type is wire.MsgType.INFER_RESPONSE
        # rows 4..6 would end one past the cap; the link still holds 4 rows
        past = p3.infer_request([5, 6, 7], start=4, mode=top1)
        assert _refused(_ask(hub.p3_link, past), malformed)
        reply = _ask(hub.p3_link, p3.infer_request([5, 6], start=4, mode=top1))
        assert reply.msg_type is wire.MsgType.INFER_RESPONSE
        x = embed(prompt + [5, 6], params.embedding)
        local = model_forward(x, params, make_mask(MaskKind.CAUSAL, n=6))
        assert greedy_decode_step(p3.recover(reply, top1)) == greedy_decode_step(local)
        assert _refused(_ask(hub.p3_link, p3.infer_request([7], start=6, mode=top1)), malformed)
        # a fresh prefill within the cap is served as ever
        assert p3.generate(prompt, 2, hub.p3_link, timeout=5.0) == greedy_generate(
            params, prompt, 2
        )
    finally:
        hub.shutdown()
    assert not any(t.is_alive() for t in hub._threads)


class RoleBoundLinks(RuleBasedStateMachine):
    """Valid and malformed frames interleaved on P1's and P3's links.

    Each frame gets exactly one reply, both serve threads stay alive, and
    after any sequence a fresh prefill gets the reply a freshly deployed
    server gives.
    """

    params = desk_params(80)

    def __init__(self):
        super().__init__()
        self.p1 = DeveloperParty(self.params, session_seed=81)
        self.p2 = ServerParty()
        self.p3 = DataOwnerParty(self.params.embedding, session_seed=82)
        self.hub = _ServerHost(self.p2, "inproc", 0.0, 5.0)
        self.to_p2 = None
        self.deploy(83)  # also sets self.rows, the rows P3's link holds

    @rule(seed=st.integers(0, 2**16))
    def deploy(self, seed):
        keyed = self.p1.initialize if self.to_p2 is None else self.p1.rekey
        self.to_p2, to_p3 = keyed(seed)
        stip.protocol.deploy(self.hub.p1_link, self.p3, self.to_p2, to_p3, timeout=5.0)
        self.rows = 0  # P3's link cache, if any, belongs to a retired deployment

    @rule(prompt=st.lists(st.integers(0, 11), min_size=1, max_size=4))
    def prefill(self, prompt):
        req = self.p3.infer_request(prompt, mode=wire.ReplyMode.TOP1)
        assert _ask(self.hub.p3_link, req).msg_type is wire.MsgType.INFER_RESPONSE
        self.rows = len(prompt)

    @precondition(lambda self: self.rows > 0)
    @rule(token=st.integers(0, 11))
    def step(self, token):
        req = self.p3.infer_request([token], start=self.rows, mode=wire.ReplyMode.TOP1)
        assert _ask(self.hub.p3_link, req).msg_type is wire.MsgType.INFER_RESPONSE
        self.rows += 1

    @rule(kind=st.sampled_from(["deploy", "rekey", "keys"]))
    def p3_sends_p1_frame(self, kind):
        epoch, sid = self.p2.epoch, self.p3.session_id
        frames = {
            "deploy": wire.make_deploy_model(self.to_p2.payload, epoch + 1, sid),
            "rekey": wire.make_rekey(epoch + 1, epoch, sid),
            "keys": wire.make_deploy_keys(b"keys", epoch + 1, sid),
        }
        assert _refused(_ask(self.hub.p3_link, frames[kind]))
        assert self.p2.epoch == epoch and self.p2.model is not None

    @rule(prompt=st.lists(st.integers(0, 11), min_size=1, max_size=4))
    def p1_sends_inference(self, prompt):
        req = self.p3.infer_request(prompt, mode=wire.ReplyMode.TOP1)
        assert _refused(_ask(self.hub.p1_link, req))

    @rule(cut=st.integers(0, 2**16))
    def truncated_request(self, cut):
        # cut inside the matrix: the declared rows never arrive
        req = self.p3.infer_request([1, 2], mode=wire.ReplyMode.TOP1)
        end = wire.MATRIX_PREFIX_SIZE + 4 * 2 * self.params.config.d_model
        payload = req.payload[: cut % end]
        frame = wire.Frame(req.msg_type, req.epoch, req.session_id, payload)
        reply = _ask(self.hub.p3_link, frame)
        assert wire.decode_error_payload(reply.payload)[0] == wire.ErrorCode.MALFORMED

    @rule(junk=st.binary(max_size=64))
    def garbage_deploy(self, junk):
        frame = wire.make_deploy_model(junk, self.p2.epoch + 1, self.p3.session_id)
        reply = _ask(self.hub.p1_link, frame)
        assert wire.decode_error_payload(reply.payload)[0] == wire.ErrorCode.MALFORMED

    @invariant()
    def serve_threads_alive(self):
        assert all(t.is_alive() for t in self.hub._threads)

    def teardown(self):
        try:
            req = self.p3.infer_request([0, 1, 2], mode=wire.ReplyMode.TOP1)
            got = _ask(self.hub.p3_link, req)
            fresh = ServerParty()
            fresh.handle_deploy(self.to_p2)
            assert bytes(got.payload) == bytes(fresh.serve(req).payload)
            for link in (self.hub.p1_link, self.hub.p3_link):
                with pytest.raises(TransportError):  # no reply left unread
                    link.recv(timeout=0.01)
        finally:
            self.hub.shutdown()
        assert not any(t.is_alive() for t in self.hub._threads)


test_role_bound_links_survive_any_frame_sequence = RoleBoundLinks.TestCase


def test_server_host_closes_its_listeners_before_serving(monkeypatch):
    listeners = []

    def capture(host, port):
        srv = stip.transport.listen(host, port)
        listeners.append((srv, srv.getsockname()[1]))
        return srv

    monkeypatch.setattr(stip.protocol, "listen", capture)
    hub = _ServerHost(ServerParty(), "socket", 0.0, 5.0)
    try:
        assert len(listeners) == 2  # one per link
        for srv, port in listeners:
            assert srv.fileno() == -1
            with pytest.raises(ConnectionRefusedError):
                socket.create_connection(("127.0.0.1", port), timeout=5.0)
        assert _answers(hub.p1_link) and _answers(hub.p3_link)
    finally:
        hub.shutdown()


def test_transcript_jsonl(tmp_path):
    params = desk_params(60)
    _, transcript = run_simulation(params, [[0, 1]], 2, seed=61)
    path = tmp_path / "t.jsonl"
    transcript.to_jsonl(str(path))
    import json

    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert len(lines) == len(transcript.entries)
    assert {"ts", "direction", "msg_type", "epoch", "dims"} <= set(lines[0])
