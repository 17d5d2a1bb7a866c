"""Incremental decoding: P2's per-link K′/V′ cache and P3's one-row decode steps.

Also the TOP1 replies that `generate` asks for on every round.
"""

import socket
import struct
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import stip.model
import stip.protocol
from conftest import VARIANT_CONFIGS, make_config
from stip import bench, wire
from stip.errors import (
    AbortedGenerationError,
    CodecError,
    DegenerateRowError,
    InvalidConfigError,
    ProtocolError,
    StaleEpochError,
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
from stip.numerics import apply_col_perm
from stip.protocol import (
    DataOwnerParty,
    DeveloperParty,
    LinkCache,
    ServerParty,
    Transcript,
    _argmax_set,
    run_simulation,
)
from stip.transform import gen_permutation_set, para_trans
from stip.transport import SocketTransport, accept, connect, inproc_pair, listen

F32 = np.float32
TOP1 = wire.ReplyMode.TOP1


def deployed(params, seed=1):
    p1 = DeveloperParty(params, session_seed=seed)
    p2 = ServerParty()
    p3 = DataOwnerParty(params.embedding, session_seed=seed + 1)
    to_p2, to_p3 = p1.initialize(seed)
    p2.handle_deploy(to_p2)
    p3.handle_deploy_keys(to_p3)
    return p1, p2, p3


def socket_links():
    """Two SocketTransports joined by a socketpair."""
    a, b = socket.socketpair()
    return SocketTransport(a), SocketTransport(b)


class Served:
    """A client link whose far end P2 serves on a thread; joined on exit."""

    def __init__(self, p2, pair=inproc_pair):
        self.link, self._far = pair()
        self._t = threading.Thread(
            target=p2.serve_loop, args=(self._far,), kwargs={"timeout": 5}
        )
        self._t.start()

    def ask(self, frame):
        self.link.send(frame)
        return self.link.recv(timeout=5)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.link.close()
        self._t.join(timeout=5)
        self._far.close()
        assert not self._t.is_alive()


def error_code(frame):
    assert frame.msg_type is wire.MsgType.ERROR
    return wire.decode_error_payload(frame.payload)[0]


# --- engine: cached chunks equal one full forward ------------------------------


def _chunks(n, cuts):
    bounds = sorted({0, n, *(c % n for c in cuts)})
    return list(zip(bounds, bounds[1:]))


@given(
    norm_kind=st.sampled_from(list(NormKind)),
    placement=st.sampled_from(list(NormPlacement)),
    ffn_kind=st.sampled_from(list(FfnKind)),
    n_experts=st.sampled_from([0, 4]),
    mask_kind=st.sampled_from([MaskKind.CAUSAL, MaskKind.NONE]),
    n=st.integers(1, 12),
    cuts=st.lists(st.integers(1, 64), max_size=4),
    seed=st.integers(0, 2**16),
)
def test_cached_chunks_equal_full_forward_plain_and_permuted(
    norm_kind, placement, ffn_kind, n_experts, mask_kind, n, cuts, seed
):
    cfg = make_config(
        norm_kind=norm_kind,
        norm_placement=placement,
        ffn_kind=ffn_kind,
        n_experts=n_experts,
        mask_kind=mask_kind,
    )
    params = gen_model(cfg, seed)
    pset = gen_permutation_set(cfg, seed + 1)
    x = np.random.default_rng(seed).normal(size=(n, cfg.d_model)).astype(F32)
    mask = make_mask(mask_kind, n=n)
    for model, rows in (
        (params, x),
        (para_trans(params, pset), apply_col_perm(x, pset.pi)),
    ):
        cache = KVCache(len(model.layers))
        for a, b in _chunks(n, cuts):
            # under mask none a row's output depends on the rows after it, so
            # the reference is a full forward over the rows sent so far
            full = model_forward(rows[:b], model, mask)[a:b]
            cached = model_forward(rows[a:b], model, mask, cache=cache)
            assert cached.shape == full.shape
            assert np.max(np.abs(cached - full)) <= 1e-5
            assert np.array_equal(np.argmax(cached, axis=1), np.argmax(full, axis=1))
        assert cache.rows == n


@pytest.mark.parametrize(
    "mask_kind", [MaskKind.CAUSAL, MaskKind.NONE], ids=["causal", "none"]
)
@pytest.mark.parametrize("variant", sorted(VARIANT_CONFIGS))
@given(
    n=st.integers(1, 12),
    steps=st.lists(st.integers(1, 3), min_size=1, max_size=4),
    seed=st.integers(0, 2**16),
)
def test_last_row_forward_equals_full_pass_plain_and_permuted(
    variant, mask_kind, n, steps, seed
):
    """A last-row prefill and last-row steps give the full pass's last row bit
    for bit, and leave the cache as a full pass does: a full-path step after
    a last-row prefill equals the same step after a full prefill."""
    cfg = make_config(n_layers=3, mask_kind=mask_kind, **VARIANT_CONFIGS[variant])
    params = gen_model(cfg, seed)
    pset = gen_permutation_set(cfg, seed + 1)
    x = np.random.default_rng(seed).normal(size=(n + sum(steps), cfg.d_model))
    x = x.astype(F32)
    mask = make_mask(mask_kind)
    for model, rows in (
        (params, x),
        (para_trans(params, pset), apply_col_perm(x, pset.pi)),
    ):
        full_cache, last_cache = KVCache(cfg.n_layers), KVCache(cfg.n_layers)
        a = 0
        for i, b in enumerate(np.cumsum([n, *steps])):
            full = model_forward(rows[a:b], model, mask, cache=full_cache)
            # the first step after the last-row prefill runs the full path
            last_row = i != 1
            last = model_forward(
                rows[a:b], model, mask, cache=last_cache, last_row=last_row
            )
            assert last.shape == ((1 if last_row else b - a), cfg.vocab_size)
            assert np.array_equal(last, full[-last.shape[0] :])
            assert np.array_equal(_argmax_set(last[-1]), _argmax_set(full[-1]))
            a = b
        assert full_cache.rows == last_cache.rows == a


@pytest.mark.parametrize(
    "mask_kind", [MaskKind.CAUSAL, MaskKind.NONE], ids=["causal", "none"]
)
@pytest.mark.parametrize("variant", sorted(VARIANT_CONFIGS))
def test_top1_reply_names_the_argmax_set_of_the_all_reply(variant, mask_kind):
    cfg = make_config(mask_kind=mask_kind, **VARIANT_CONFIGS[variant])
    params = gen_model(cfg, 52)
    _, p2, p3 = deployed(params, seed=53)
    top1_link, all_link = LinkCache(), LinkCache()
    ids = [3, 1, 4, 1, 5, 9, 2, 6]
    for start, rows in ((0, ids[:5]), (5, ids[5:6]), (6, ids[6:8])):
        top1 = p2.serve(p3.infer_request(rows, start, TOP1), top1_link)
        full = p2.serve(p3.infer_request(rows, start), all_link)
        o = wire.decode_matrix(full.payload)
        assert o.shape[0] == len(rows)
        got = wire.decode_top1_response(top1.payload, cfg.vocab_size)
        assert np.array_equal(got, _argmax_set(o[-1]))
    assert top1_link.kv.rows == all_link.kv.rows == len(ids)


def full_recompute_generate(params, prompt_ids, max_tokens):
    """Reference decoder: every round re-embeds and recomputes the whole sequence."""
    ids = [int(t) for t in prompt_ids]
    out = []
    for _ in range(max_tokens):
        x = embed(ids, params.embedding)
        o = model_forward(x, params, make_mask(params.config.mask_kind, n=len(ids)))
        ids.append(int(np.argmax(o[-1])))
        out.append(ids[-1])
    return out


@given(
    norm_kind=st.sampled_from(list(NormKind)),
    placement=st.sampled_from(list(NormPlacement)),
    ffn_kind=st.sampled_from(list(FfnKind)),
    n_experts=st.sampled_from([0, 4]),
    mask_kind=st.sampled_from([MaskKind.CAUSAL, MaskKind.NONE]),
    prompt=st.lists(st.integers(0, 11), min_size=1, max_size=6),
    max_tokens=st.integers(0, 10),
    seed=st.integers(0, 2**16),
)
def test_greedy_generate_equals_full_recompute(
    norm_kind, placement, ffn_kind, n_experts, mask_kind, prompt, max_tokens, seed
):
    cfg = make_config(
        norm_kind=norm_kind,
        norm_placement=placement,
        ffn_kind=ffn_kind,
        n_experts=n_experts,
        mask_kind=mask_kind,
    )
    params = gen_model(cfg, seed)
    assert greedy_generate(params, prompt, max_tokens) == full_recompute_generate(
        params, prompt, max_tokens
    )


@pytest.mark.parametrize("mask_kind", [MaskKind.CAUSAL, MaskKind.NONE])
@pytest.mark.parametrize("variant", sorted(VARIANT_CONFIGS))
def test_greedy_generate_equals_full_recompute_on_long_sequence(variant, mask_kind):
    """A 16-token prompt and 112 new tokens on the desk model: the K/V row
    buffers grow 16 -> 32 -> 64 -> 128, so every doubling is crossed."""
    cfg = make_config(
        n_layers=4,
        d_model=64,
        d_ff=256,
        vocab_size=100,
        mask_kind=mask_kind,
        **VARIANT_CONFIGS[variant],
    )
    params = gen_model(cfg, 90)
    prompt = np.random.default_rng(91).integers(0, cfg.vocab_size, size=16)
    assert greedy_generate(params, prompt, 112) == full_recompute_generate(
        params, prompt, 112
    )


def test_cache_rejects_custom_mask_and_wrong_depth():
    params = gen_model(make_config(), 0)
    x = np.ones((2, params.config.d_model), F32)
    cache = KVCache(len(params.layers))
    model_forward(x[:1], params, make_mask(MaskKind.CAUSAL), cache=cache)
    custom = make_mask(MaskKind.CUSTOM, values=np.zeros((1, 1), F32))
    with pytest.raises(InvalidConfigError):
        model_forward(x[1:], params, custom, cache=cache)
    with pytest.raises(InvalidConfigError):
        model_forward(x, params, make_mask(MaskKind.CAUSAL), cache=KVCache(1))


# --- wire: the request trailer ----------------------------------------------------


@pytest.mark.parametrize("start", [0, 7])
def test_all_request_carries_start_and_mode(start):
    x = np.arange(6, dtype=F32).reshape(2, 3)
    req = wire.make_infer_request(x, 1, 2, start=start)
    assert req.payload == wire.encode_matrix(x) + struct.pack("<II", start, wire.ReplyMode.ALL)
    got, got_start, mode = wire.decode_infer_request(req.payload)
    assert (got_start, mode) == (start, wire.ReplyMode.ALL) and np.array_equal(got, x)


@pytest.mark.parametrize(
    "trailer",
    [
        pytest.param(b"", id="none"),
        b"\x01",
        b"\x00\x00\x00\x00",
        pytest.param(struct.pack("<I", 7), id="start_only"),
        b"\x01" * 5,
        struct.pack("<II", 3, 9),  # no such mode
        b"\x01" * 9,
    ],
)
def test_step_request_bad_trailer_is_codec_error(trailer):
    raw = wire.encode_matrix(np.ones((1, 2), F32)) + trailer
    with pytest.raises(CodecError):
        wire.decode_infer_request(raw)


def test_transcript_reads_dims_of_step_frames():
    transcript = Transcript()
    step = wire.make_infer_request(np.ones((1, 8), F32), 1, 2, start=5)
    transcript.log("P3->P2", step)
    assert transcript.entries[0]["dims"] == [1, 8]
    assert transcript.entries[0]["bytes"] == wire.HEADER_SIZE + len(step.payload)


# --- server rules ---------------------------------------------------------------


def test_steps_reply_one_row_matching_local_forward():
    params = gen_model(make_config(vocab_size=20), 3)
    _, p2, p3 = deployed(params, seed=4)
    ids = [1, 5, 2, 7, 3]
    local = model_forward(
        embed(ids, params.embedding), params, make_mask(params.config.mask_kind)
    )
    with Served(p2) as s:
        o = p3.recover(s.ask(p3.infer_request(ids[:3])))
        assert o.shape == (3, 20)
        for i in (3, 4):
            o = p3.recover(s.ask(p3.infer_request(ids[i : i + 1], start=i)))
            assert o.shape == (1, 20)
            assert np.max(np.abs(o[0] - local[i])) <= 1e-5


def test_step_with_wrong_start_gets_error_frame_and_cache_survives():
    params = gen_model(make_config(), 5)
    _, p2, p3 = deployed(params, seed=6)
    with Served(p2) as s:
        s.ask(p3.infer_request([0, 1]))
        for bad in (1, 3):
            reply = s.ask(p3.infer_request([2], start=bad))
            assert error_code(reply) == wire.ErrorCode.UNSUPPORTED
        assert s.ask(p3.infer_request([2], start=2)).msg_type is wire.MsgType.INFER_RESPONSE


def test_step_without_prefill_is_refused():
    params = gen_model(make_config(), 7)
    _, p2, p3 = deployed(params, seed=8)
    step = p3.infer_request([3], start=2)
    with pytest.raises(ProtocolError):
        p2.serve(step)
    with Served(p2) as s:
        assert error_code(s.ask(step)) == wire.ErrorCode.UNSUPPORTED


def test_prefill_resets_the_link_cache():
    params = gen_model(make_config(), 9)
    _, p2, p3 = deployed(params, seed=10)
    with Served(p2) as s:
        s.ask(p3.infer_request([0, 1, 2, 3]))
        s.ask(p3.infer_request([4]))
        assert error_code(s.ask(p3.infer_request([5], start=5))) == wire.ErrorCode.UNSUPPORTED
        assert s.ask(p3.infer_request([5], start=1)).msg_type is wire.MsgType.INFER_RESPONSE


@pytest.mark.parametrize("same_epoch", [True, False])
def test_step_after_rekey_and_redeploy_is_never_served_from_old_cache(same_epoch):
    params = gen_model(make_config(), 11)
    p1, p2, p3 = deployed(params, seed=12)
    with Served(p2) as p1_link, Served(p2) as p3_link:
        p3_link.ask(p3.infer_request([0, 1, 2]))
        to_p2, to_p3 = p1.rekey(14)
        notice = wire.make_rekey(to_p2.epoch, p2.epoch, p1.session_id)
        assert p1_link.ask(notice).msg_type is wire.MsgType.ACK
        if same_epoch:
            # a new key set under the epoch number the cache was built at is
            # refused by P2 and by P3, and nothing is served at that epoch
            rogue = DeveloperParty(params, session_seed=13)
            rogue_model, rogue_keys = rogue.initialize(15)
            assert rogue_model.epoch == p2.epoch
            assert error_code(p1_link.ask(rogue_model)) == wire.ErrorCode.STALE_EPOCH
            assert (p2.model, p2.epoch) == (None, 1)
            with pytest.raises(StaleEpochError):
                p3.handle_deploy_keys(rogue_keys)
            assert p3.epoch == 1
            rogue_step = p3.infer_request([3], start=3)
            assert error_code(p3_link.ask(rogue_step)) == wire.ErrorCode.STALE_EPOCH
        assert p1_link.ask(to_p2).msg_type is wire.MsgType.ACK
        p3.handle_deploy_keys(to_p3)
        step = p3.infer_request([3], start=3)
        assert error_code(p3_link.ask(step)) == wire.ErrorCode.STALE_EPOCH
        # the refused cache is gone: the same step cannot succeed later
        assert error_code(p3_link.ask(step)) == wire.ErrorCode.UNSUPPORTED
        ids = [0, 1, 2, 3]
        o = p3.recover(p3_link.ask(p3.infer_request(ids)))
        local = model_forward(
            embed(ids, params.embedding), params, make_mask(params.config.mask_kind)
        )
        assert np.max(np.abs(o - local)) <= 1e-4


# --- robustness: no request kills a connection ---------------------------------------


def test_wrong_width_and_empty_requests_are_malformed_and_link_survives():
    params = gen_model(make_config(d_model=8), 15)
    _, p2, p3 = deployed(params, seed=16)
    with Served(p2) as s:
        for rows, cols in ((2, 5), (0, 8)):
            bad = wire.make_infer_request(np.ones((rows, cols), F32), p2.epoch, 1)
            assert error_code(s.ask(bad)) == wire.ErrorCode.MALFORMED
        assert s.ask(p3.infer_request([0, 1])).msg_type is wire.MsgType.INFER_RESPONSE


def test_unexpected_fault_is_internal_error_and_link_survives(monkeypatch):
    params = gen_model(make_config(n_layers=2), 17)
    _, p2, p3 = deployed(params, seed=18)
    real = stip.model.attention
    calls = []

    def flaky(*args, **kwargs):
        # calls 1-2: the prefill's two layers; call 4: the step's second layer,
        # after the first layer has already extended its K′/V′
        calls.append(1)
        if len(calls) == 4:
            raise RuntimeError("boom")
        return real(*args, **kwargs)

    monkeypatch.setattr(stip.model, "attention", flaky)
    with Served(p2) as s:
        s.ask(p3.infer_request([0, 1]))
        reply = s.ask(p3.infer_request([2], start=2))
        assert error_code(reply) == wire.ErrorCode.INTERNAL
        # the half-extended cache was dropped, not reused
        assert error_code(s.ask(p3.infer_request([2], start=2))) == wire.ErrorCode.UNSUPPORTED
        assert s.ask(p3.infer_request([0, 1, 2])).msg_type is wire.MsgType.INFER_RESPONSE


def test_unframeable_bytes_get_an_error_frame_then_hang_up():
    p2 = ServerParty()
    srv = listen()
    try:
        near = connect(*srv.getsockname()[:2])
        far = accept(srv, timeout=5)
    finally:
        srv.close()
    t = threading.Thread(target=p2.serve_loop, args=(far,), kwargs={"timeout": 5})
    t.start()
    try:
        near._sock.sendall(b"JUNK" + bytes(wire.HEADER_SIZE - 4))
        assert error_code(near.recv(timeout=5)) == wire.ErrorCode.MALFORMED
        t.join(timeout=5)
        assert not t.is_alive()
    finally:
        far.close()
        near.close()


def test_server_error_mid_stream_keeps_partial_tokens():
    params = gen_model(make_config(), 19)
    p1, p2, p3 = deployed(params, seed=20)

    class RekeyAfter:
        """Retires the epoch at P2 once `n` replies have arrived."""

        def __init__(self, inner, n):
            self.inner, self.n = inner, n

        def send(self, frame):
            self.inner.send(frame)

        def recv(self, timeout=None):
            frame = self.inner.recv(timeout=timeout)
            self.n -= 1
            if self.n == 0:
                p1.rekey(21)
                p2.handle_rekey(p1.rekey_notice())
            return frame

    with Served(p2) as s:
        with pytest.raises(AbortedGenerationError) as err:
            p3.generate([0, 1], 8, RekeyAfter(s.link, 3))
    assert err.value.tokens == greedy_generate(params, [0, 1], 3)


# --- end to end ------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["inproc", "socket"])
def test_mask_none_generation_matches_local_greedy(kind):
    params = gen_model(make_config(mask_kind=MaskKind.NONE), 22)
    prompts = [[0, 1], [5, 3, 2]]
    streams, _ = run_simulation(params, prompts, 5, transport_kind=kind, seed=23)
    assert streams == [greedy_generate(params, p, 5) for p in prompts]


def test_decode_wire_bytes_follow_rows_in_equals_rows_out():
    cfg = make_config(d_model=8, vocab_size=12)
    params = gen_model(cfg, 24)
    prompts, new = [[0, 1, 2], [2, 1, 3]], 4
    streams, transcript = run_simulation(params, prompts, new, seed=25)
    head = wire.HEADER_SIZE + wire.MATRIX_PREFIX_SIZE
    d, s = cfg.d_model, cfg.vocab_size
    # a row travels by reference when its token was sent earlier in the run,
    # in this generation or an earlier one (the embedding rows are distinct)
    rows, refs, sent = [], [], set()
    for prompt, tokens in zip(prompts, streams):
        for request in [prompt] + [[t] for t in tokens[:-1]]:
            rows.append(len(request))
            refs.append(0)
            for t in request:
                refs[-1] += t in sent
                sent.add(t)
    assert refs[new] >= 2  # the second prompt's 2 and 1
    reqs = [e for e in transcript.entries if e["msg_type"] == "INFER_REQUEST"]
    assert [e["ref_rows"] for e in reqs] == refs
    # generate asks for TOP1 replies: every request ends in a u32 start and a
    # u32 mode; one with r references sends 4·d bytes for each other row and
    # a block of a u32 count, a u32 size and r (position, source) pairs; every
    # reply is a u32 count and one u32 index (no ties here)
    assert transcript.frame_bytes(wire.MsgType.INFER_REQUEST) == sum(
        head + 4 * (n - r) * d + 8 + (8 + 8 * r if r else 0) for n, r in zip(rows, refs)
    )
    assert transcript.frame_bytes(wire.MsgType.INFER_RESPONSE) == len(prompts) * new * (
        wire.HEADER_SIZE + 4 + 4
    )
    prompt = prompts[0]
    # ALL replies keep one row per request row
    _, p2, p3 = deployed(params, seed=25)
    cache = LinkCache()
    prefill = p2.serve(p3.infer_request(prompt), cache)
    step = p2.serve(p3.infer_request([3], start=len(prompt)), cache)
    assert wire.HEADER_SIZE + len(prefill.payload) == head + 4 * len(prompt) * s
    assert wire.HEADER_SIZE + len(step.payload) == head + 4 * s


def test_generation_bench_split_adds_up():
    params = gen_model(make_config(), 26)
    rep = bench.bench_generation(params, [0, 1], max_tokens=3, seed=27)
    parts = sum(
        rep[k]
        for k in ("device_ms_per_token", "cloud_ms_per_token", "communication_ms_per_token")
    )
    assert rep["cloud_ms_per_token"] > 0
    assert parts == pytest.approx(1e3 * rep["total_s"] / 3, rel=1e-6)


# --- TOP1 replies: wire ----------------------------------------------------------


@pytest.mark.parametrize("start", [0, 5])
def test_top1_request_carries_start_and_mode(start):
    x = np.arange(6, dtype=F32).reshape(2, 3)
    req = wire.make_infer_request(x, 1, 2, start=start, mode=TOP1)
    assert req.payload == wire.encode_matrix(x) + struct.pack("<II", start, TOP1)
    got, got_start, mode = wire.decode_infer_request(req.payload)
    assert (got_start, mode) == (start, TOP1) and np.array_equal(got, x)


def test_top1_reply_round_trip():
    reply = wire.make_top1_response(np.array([2, 7, 9]), 1, 2)
    assert reply.msg_type is wire.MsgType.INFER_RESPONSE
    assert reply.payload == struct.pack("<IIII", 3, 2, 7, 9)
    assert wire.decode_top1_response(reply.payload, 10).tolist() == [2, 7, 9]


# --- TOP1 replies: P3's strict decode, over a socket ------------------------------

_BAD_TOP1 = {
    "count_zero": struct.pack("<I", 0),
    "index_eq_s": struct.pack("<II", 1, 12),
    "duplicate": struct.pack("<III", 2, 3, 3),
    "descending": struct.pack("<III", 2, 5, 3),
    "fewer_than_count": struct.pack("<II", 2, 3),
    "more_than_count": struct.pack("<III", 1, 3, 4),
    "no_count": b"\x01\x00",
}


@pytest.mark.parametrize("payload", list(_BAD_TOP1.values()), ids=list(_BAD_TOP1))
def test_malformed_top1_reply_aborts_generation(payload):
    params = gen_model(make_config(vocab_size=12), 40)
    _, _, p3 = deployed(params, seed=41)
    bad = wire.Frame(wire.MsgType.INFER_RESPONSE, p3.epoch, 0, payload)
    with pytest.raises(CodecError):
        p3.recover(bad, TOP1)
    near, far = socket_links()
    try:
        far.send(bad)  # the peer's answer waits in the stream for P3's request
        with pytest.raises(AbortedGenerationError) as err:
            p3.generate([0, 1], 3, near, timeout=5)
        assert err.value.tokens == []
        _, _, mode = wire.decode_infer_request(far.recv(timeout=5).payload)
        assert mode is TOP1
    finally:
        near.close()
        far.close()


@pytest.mark.parametrize("good_rounds", [0, 2])
def test_non_utf8_error_detail_aborts_generation_with_tokens_so_far(good_rounds):
    params = gen_model(make_config(vocab_size=12), 48)
    _, p2, p3 = deployed(params, seed=49)
    near, far = socket_links()

    def peer():
        """P2 answers `good_rounds` requests, then an Error whose detail is not UTF-8."""
        cache = LinkCache()
        for _ in range(good_rounds):
            far.send(p2.serve(far.recv(timeout=5), cache))
        req = far.recv(timeout=5)
        payload = struct.pack("<H", wire.ErrorCode.INTERNAL) + b"\xff\xfe"
        far.send(wire.Frame(wire.MsgType.ERROR, req.epoch, req.session_id, payload))

    t = threading.Thread(target=peer)
    t.start()
    try:
        with pytest.raises(AbortedGenerationError) as err:
            p3.generate([0, 1], 4, near, timeout=5)
        assert err.value.tokens == greedy_generate(params, [0, 1], good_rounds)
        t.join(timeout=5)
        assert not t.is_alive()
    finally:
        near.close()
        far.close()


def test_top1_reply_names_the_class_through_pi_c():
    params = gen_model(make_config(vocab_size=12), 42)
    _, _, p3 = deployed(params, seed=43)
    for j in (0, 5, 11):
        row = p3.recover(wire.make_top1_response([j], p3.epoch, 0), TOP1)
        assert row.shape == (1, 12)
        assert np.flatnonzero(row[0]).tolist() == [p3.pi_c.indices[j]]


# --- TOP1 replies: P2 --------------------------------------------------------------


def test_nan_row_is_an_internal_error_never_an_empty_top1(monkeypatch):
    params = gen_model(make_config(vocab_size=12), 44)
    _, p2, p3 = deployed(params, seed=45)

    def nan_forward(x, *args, **kwargs):
        return np.full((x.shape[0], 12), np.nan, F32)

    monkeypatch.setattr(stip.protocol, "model_forward", nan_forward)
    with pytest.raises(DegenerateRowError):
        p2.serve(p3.infer_request([0, 1], mode=TOP1))
    with Served(p2, socket_links) as s:
        assert error_code(s.ask(p3.infer_request([0, 1], mode=TOP1))) == (
            wire.ErrorCode.INTERNAL
        )
        with pytest.raises(AbortedGenerationError) as err:
            p3.generate([0, 1], 3, s.link, timeout=5)
        assert err.value.tokens == []


def test_unknown_reply_mode_is_malformed_and_the_cache_is_kept():
    params = gen_model(make_config(), 46)
    _, p2, p3 = deployed(params, seed=47)
    with Served(p2, socket_links) as s:
        assert s.ask(p3.infer_request([0, 1], mode=TOP1)).msg_type is (
            wire.MsgType.INFER_RESPONSE
        )
        step = p3.infer_request([2], start=2)
        unknown = replace(step, payload=step.payload[:-4] + struct.pack("<II", 2, 9))
        assert error_code(s.ask(unknown)) == wire.ErrorCode.MALFORMED
        # the link still holds the prefill's two rows
        reply = s.ask(p3.infer_request([2], start=2, mode=TOP1))
        assert reply.msg_type is wire.MsgType.INFER_RESPONSE


# --- TOP1 replies: forced ties decode what the full reply decodes --------------------


@pytest.mark.parametrize(
    "mask_kind", [MaskKind.CAUSAL, MaskKind.NONE], ids=["causal", "none"]
)
@pytest.mark.parametrize("variant", sorted(VARIANT_CONFIGS))
def test_forced_ties_top1_equals_full_reply_and_local_greedy(variant, mask_kind):
    cfg = make_config(vocab_size=12, mask_kind=mask_kind, **VARIANT_CONFIGS[variant])
    params = gen_model(cfg, 48)
    # class j shares its W_c column with every class ≡ j (mod 3), so each
    # softmax row ties exactly, four ways, at its maximum
    w_c = np.ascontiguousarray(params.w_c[:, np.arange(12) % 3])
    params = replace(params, w_c=w_c)
    _, p2, p3 = deployed(params, seed=49)
    prompt, new = [0, 5, 2], 6
    top1_link, all_link = LinkCache(), LinkCache()
    ids, tokens = list(prompt), []
    for _ in range(new):
        start = len(ids) - 1 if tokens else 0
        rows = ids[start:]
        top1 = p2.serve(p3.infer_request(rows, start, TOP1), top1_link)
        full = p2.serve(p3.infer_request(rows, start), all_link)
        assert len(wire.decode_top1_response(top1.payload, 12)) == 4
        token = stip.protocol.greedy_decode_step(p3.recover(top1, TOP1))
        assert token == greedy_decode_step(p3.recover(full))
        ids.append(token)
        tokens.append(token)
    assert tokens == greedy_generate(params, prompt, new)
    with Served(p2, socket_links) as s:
        assert p3.generate(prompt, new, s.link, timeout=5) == tokens


def test_transcript_never_reads_dims_of_a_top1_reply():
    transcript = Transcript()
    reply = wire.make_top1_response([7], 1, 2)
    transcript.log("P2->P3", reply)
    assert transcript.entries[0]["dims"] is None
    assert transcript.entries[0]["bytes"] == wire.HEADER_SIZE + 8
    params = gen_model(make_config(), 50)
    _, transcript = run_simulation(params, [[0, 1, 2]], 3, seed=51)
    replies = [e for e in transcript.entries if e["msg_type"] == "INFER_RESPONSE"]
    assert [e["dims"] for e in replies] == [None] * 3
