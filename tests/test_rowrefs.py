"""Request rows sent by reference: P3 names an earlier equal row, P2 resolves it.

A row of a request whose bytes equal an earlier row of the same sequence
travels as that row's position. P2 resolves it from the request itself or
from the x′ rows its `LinkCache` holds, and feeds `model_forward` exactly the
rows an all-literal request would carry.
"""

import dataclasses
import importlib.util
import struct
from pathlib import Path

import numpy as np
import pytest

import stip.protocol
from conftest import make_config
from stip import wire
from stip.errors import ProtocolError
from stip.model import MaskKind, embed, gen_model, greedy_generate
from stip.numerics import apply_col_perm
from stip.protocol import (
    DataOwnerParty,
    DeveloperParty,
    LinkCache,
    ServerParty,
    _send_for_ack,
    _ServerHost,
    deploy,
    run_simulation,
)
from stip.transform import gen_permutation_set

TOP1 = wire.ReplyMode.TOP1
KINDS = ["inproc", "socket"]


def _parties(params, seed):
    p1 = DeveloperParty(params, session_seed=seed)
    p3 = DataOwnerParty(params.embedding, session_seed=seed + 1)
    return p1, ServerParty(), p3


def _ask(link, frame):
    link.send(frame)
    return link.recv(timeout=5.0)


def _code(frame):
    assert frame.msg_type is wire.MsgType.ERROR
    return wire.decode_error_payload(frame.payload)[0]


def _literal(p3, ids, start=0):
    """The all-literal request for these rows: every row as its 4·d bytes."""
    x = apply_col_perm(embed(ids, p3.embedding), p3.pi)
    return wire.make_infer_request(x, p3.epoch, p3.session_id, start, TOP1)


def _ref_step(p3, row_of, start):
    """A one-row step at `start` whose row is the sequence's row `row_of`."""
    x = apply_col_perm(embed([0], p3.embedding), p3.pi)
    return wire.make_infer_request(
        x, p3.epoch, p3.session_id, start, TOP1, refs=[(start, row_of)]
    )


def _oracle(p2, p3, ids):
    """TOP1 reply bytes for `ids` on a fresh cache, every row literal."""
    cache = LinkCache()
    p2.serve(_literal(p3, ids[:-1]), cache)
    return bytes(p2.serve(_literal(p3, ids[-1:], len(ids) - 1), cache).payload)


# --- P2 refuses a reference to a row it does not hold -----------------------------


@pytest.mark.parametrize("kind", KINDS)
def test_a_step_by_reference_matches_the_literal_step(kind):
    params = gen_model(make_config(vocab_size=20), 70)
    p1, p2, p3 = _parties(params, 71)
    hub = _ServerHost(p2, kind, 0.0, 5.0)
    try:
        deploy(hub.p1_link, p3, *p1.initialize(72))
        prompt = [4, 9, 4, 2]
        seen = {}
        prefill = p3.infer_request(prompt, mode=TOP1, seen=seen)
        assert wire.request_dims(prefill.payload) == (4, params.config.d_model, 1)
        assert _ask(hub.p3_link, prefill).msg_type is wire.MsgType.INFER_RESPONSE
        step = p3.infer_request([9], start=4, mode=TOP1, seen=seen)
        assert wire.request_dims(step.payload)[2] == 1
        reply = _ask(hub.p3_link, step)
        assert bytes(reply.payload) == _oracle(p2, p3, prompt + [9])
    finally:
        hub.shutdown()


@pytest.mark.parametrize("kind", KINDS)
def test_references_p2_does_not_hold_are_refused_and_keep_the_cache(kind):
    params = gen_model(make_config(vocab_size=20), 73)
    p1, p2, p3 = _parties(params, 74)
    malformed, unsupported = wire.ErrorCode.MALFORMED, wire.ErrorCode.UNSUPPORTED
    hub = _ServerHost(p2, kind, 0.0, 5.0)
    try:
        deploy(hub.p1_link, p3, *p1.initialize(75))
        # a reference on a fresh link
        assert _code(_ask(hub.p3_link, _ref_step(p3, 0, 1))) == unsupported
        prompt = [3, 8, 5]
        _ask(hub.p3_link, _literal(p3, prompt))
        # a source at or after the row that names it
        for source in (3, 4):
            assert _code(_ask(hub.p3_link, _ref_step(p3, source, 3))) == malformed
        # a source past the rows held: the step names a row P2 lacks
        assert _code(_ask(hub.p3_link, _ref_step(p3, 3, 4))) == unsupported
        # a refused request adds no row: its row 3 cannot be named after it
        wide = np.ones((1, params.config.d_model + 1), dtype=np.float32)
        bad = wire.make_infer_request(wide, p3.epoch, p3.session_id, 3, TOP1)
        assert _code(_ask(hub.p3_link, bad)) == malformed
        assert _code(_ask(hub.p3_link, _ref_step(p3, 3, 4))) == unsupported
        # a block naming more rows than the cap is refused before any pair is read
        empty = wire.make_infer_request(
            np.empty((0, params.config.d_model), np.float32), p3.epoch, p3.session_id, 3, TOP1
        )
        huge = bytes(empty.payload) + struct.pack("<I", 4096) + bytes(8 * 4096)
        assert _code(_ask(hub.p3_link, wire.Frame(empty.msg_type, p3.epoch, 0, huge))) == malformed
        # the cache is as the prefill left it
        reply = _ask(hub.p3_link, _ref_step(p3, 1, 3))
        assert bytes(reply.payload) == _oracle(p2, p3, prompt + [8])
    finally:
        hub.shutdown()


@pytest.mark.parametrize("kind", KINDS)
def test_a_reference_after_a_failed_forward_pass_is_refused(kind, monkeypatch):
    params = gen_model(make_config(vocab_size=20), 76)
    p1, p2, p3 = _parties(params, 77)
    hub = _ServerHost(p2, kind, 0.0, 5.0)
    try:
        deploy(hub.p1_link, p3, *p1.initialize(78))
        _ask(hub.p3_link, _literal(p3, [1, 2, 3]))
        forward = stip.protocol.model_forward

        def fails(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(stip.protocol, "model_forward", fails)
        assert _code(_ask(hub.p3_link, _ref_step(p3, 0, 3))) == wire.ErrorCode.INTERNAL
        monkeypatch.setattr(stip.protocol, "model_forward", forward)
        # the failed pass dropped K′/V′ and the x′ rows with them
        refused = _ask(hub.p3_link, _ref_step(p3, 0, 3))
        assert _code(refused) == wire.ErrorCode.UNSUPPORTED
    finally:
        hub.shutdown()


@pytest.mark.parametrize("kind", KINDS)
def test_a_reference_after_a_rekey_and_redeploy_is_refused(kind):
    params = gen_model(make_config(vocab_size=20), 79)
    p1, p2, p3 = _parties(params, 80)
    hub = _ServerHost(p2, kind, 0.0, 5.0)
    try:
        deploy(hub.p1_link, p3, *p1.initialize(81))
        _ask(hub.p3_link, _literal(p3, [6, 7]))
        to_p2, to_p3 = p1.rekey(82)
        _send_for_ack(hub.p1_link, p1.rekey_notice(), None, 5.0)
        deploy(hub.p1_link, p3, to_p2, to_p3)
        # rows from the retired epoch are never named: the cache is dropped
        assert _code(_ask(hub.p3_link, _ref_step(p3, 0, 2))) == wire.ErrorCode.STALE_EPOCH
        refused = _ask(hub.p3_link, _ref_step(p3, 0, 2))
        assert _code(refused) == wire.ErrorCode.UNSUPPORTED
        # a new prefill at the new epoch holds rows again
        _ask(hub.p3_link, _literal(p3, [6, 7]))
        reply = _ask(hub.p3_link, _ref_step(p3, 0, 2))
        assert bytes(reply.payload) == _oracle(p2, p3, [6, 7, 6])
    finally:
        hub.shutdown()


def test_a_reference_step_to_a_direct_serve_without_a_cache_is_refused():
    params = gen_model(make_config(vocab_size=20), 83)
    p1, p2, p3 = _parties(params, 84)
    to_p2, to_p3 = p1.initialize(85)
    p2.handle_deploy(to_p2)
    p3.handle_deploy_keys(to_p3)
    with pytest.raises(ProtocolError):
        p2.serve(_ref_step(p3, 0, 1))
    # a prefill that names its own rows needs no cache
    reply = p2.serve(p3.infer_request([5, 5], mode=TOP1))
    assert bytes(reply.payload) == bytes(p2.serve(_literal(p3, [5, 5])).payload)


@pytest.mark.parametrize("mask_kind", [MaskKind.CAUSAL, MaskKind.NONE])
def test_the_row_store_follows_the_sequence_up_to_the_row_cap(mask_kind, monkeypatch):
    monkeypatch.setattr(stip.protocol, "MAX_ROWS", 6)
    params = gen_model(make_config(vocab_size=20, mask_kind=mask_kind), 86)
    p1, p2, p3 = _parties(params, 87)
    to_p2, to_p3 = p1.initialize(88)
    p2.handle_deploy(to_p2)
    p3.handle_deploy_keys(to_p3)
    cache = LinkCache()
    p2.serve(_literal(p3, [1, 2, 1, 2]), cache)
    x = apply_col_perm(embed([1, 2, 1, 2], p3.embedding), p3.pi)
    assert cache.held().tobytes() == x.tobytes()
    for start in (4, 5):
        p2.serve(_ref_step(p3, 0, start), cache)
    with pytest.raises(stip.protocol.InvalidDimensionError):
        p2.serve(_ref_step(p3, 0, 6), cache)
    assert len(cache.held()) == 6 == cache.kv.rows
    assert cache.held()[4:].tobytes() == np.vstack([x[0], x[0]]).tobytes()
    if mask_kind is MaskKind.NONE:
        assert cache.x is cache.kv.inputs  # one copy of the rows
    p2.serve(_literal(p3, [3]), cache)  # a new prefill drops the old rows
    assert len(cache.held()) == 1

    def fails(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(stip.protocol, "model_forward", fails)
    with pytest.raises(RuntimeError):
        p2.serve(_ref_step(p3, 0, 1), cache)
    assert cache.kv is None and cache.x is None  # a failed pass drops both


# --- end to end: the three benchmark models --------------------------------------


def _benchmark_configs():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return {w.name: w.config for w in workloads.WORKLOADS.values()}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("mask_kind", [MaskKind.CAUSAL, MaskKind.NONE])
@pytest.mark.parametrize("name", ["desk-decode", "moe-prefill", "rekey-churn"])
def test_p2_forwards_the_all_literal_rows_and_tokens_match(name, mask_kind, kind, monkeypatch):
    cfg = _benchmark_configs()[name]
    cfg = dataclasses.replace(cfg, mask_kind=mask_kind)
    params = gen_model(cfg, 0)
    rng = np.random.default_rng(89)
    base = rng.choice(cfg.vocab_size, size=4, replace=False).tolist()
    prompts = [base + base[:3] + [base[0]], base[::-1] + base]
    new = 5
    fed = []
    forward = stip.protocol.model_forward

    def recorded(x, *args, **kwargs):
        fed.append(np.array(x).tobytes())
        return forward(x, *args, **kwargs)

    monkeypatch.setattr(stip.protocol, "model_forward", recorded)
    seed = 90
    streams, transcript = run_simulation(params, prompts, new, transport_kind=kind, seed=seed)
    assert streams == [greedy_generate(params, p, new) for p in prompts]
    pi = gen_permutation_set(cfg, seed).pi
    literal = []
    for prompt, tokens in zip(prompts, streams):
        seq = prompt + tokens
        rows = [prompt] + [[t] for t in seq[len(prompt) : -1]]
        literal += [apply_col_perm(embed(r, params.embedding), pi).tobytes() for r in rows]
    assert fed == literal
    refs = [e["ref_rows"] for e in transcript.entries if e["msg_type"] == "INFER_REQUEST"]
    assert refs[0] == 4 and refs[new] == 4 and all(isinstance(r, int) for r in refs)


def test_the_same_row_equality_pattern_gives_the_same_reference_block():
    params = gen_model(make_config(vocab_size=30), 91)
    p1, _, p3 = _parties(params, 92)
    p3.handle_deploy_keys(p1.initialize(93)[1])

    def block(prompt, step):
        seen = {}
        frames = [
            p3.infer_request(prompt, mode=TOP1, seen=seen),
            p3.infer_request([step], start=len(prompt), mode=TOP1, seen=seen),
        ]
        out = []
        for f in frames:
            n, d, r = wire.request_dims(f.payload)
            out.append(bytes(f.payload)[8 + 4 * (n - r) * d :])  # trailer and block
        return out

    a = block([3, 5, 3, 3, 7, 5], 7)
    b = block([8, 2, 8, 8, 1, 2], 1)
    assert a == b
    assert a != block([3, 5, 3, 3, 7, 5], 3)  # the step names row 0, not row 4


def test_a_generation_sends_each_repeated_row_by_reference():
    params = gen_model(make_config(vocab_size=6), 94)
    (tokens,), transcript = run_simulation(params, [[0, 1, 0]], 12, seed=95)
    seq = [0, 1, 0] + tokens
    reqs = [e for e in transcript.entries if e["msg_type"] == "INFER_REQUEST"]
    assert [e["dims"] for e in reqs] == [[3, 8]] + [[1, 8]] * 11
    want = [1] + [int(seq[i] in seq[:i]) for i in range(3, len(seq) - 1)]
    assert [e["ref_rows"] for e in reqs] == want
    # with six tokens, a twelve-token generation must repeat rows
    assert sum(want[1:]) >= 6
