"""Request rows sent by reference to a link's row table.

P2 keeps, per link, the rows one P3 session sent literally at an epoch, in
order and up to the row cap, across generations. A request row whose bytes
P3 sent before travels as the index of that row. P3 mirrors the table
(`SentRows`) and says in each reference block how many rows it has sent; P2
refuses a block that names an earlier row when its own count differs, so a
lost reply, a failed pass or a second link ends in a refusal or in correct
tokens, never in a wrong row. P2 feeds `model_forward` exactly the rows an
all-literal request would carry.
"""

import dataclasses
import functools
import importlib.util
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stip.protocol
from conftest import make_config
from stip import wire
from stip.errors import AbortedGenerationError, ProtocolError, TransportError
from stip.model import KVCache, MaskKind, embed, gen_model, greedy_generate
from stip.numerics import apply_col_perm
from stip.protocol import (
    DataOwnerParty,
    DeveloperParty,
    LinkCache,
    SentRows,
    ServerParty,
    _error_reply,
    _send_for_ack,
    _ServerHost,
    deploy,
    run_simulation,
)
from stip.transform import gen_permutation_set

TOP1 = wire.ReplyMode.TOP1
KINDS = ["inproc", "socket"]
MALFORMED, UNSUPPORTED = wire.ErrorCode.MALFORMED, wire.ErrorCode.UNSUPPORTED


def _parties(params, seed):
    p1 = DeveloperParty(params, session_seed=seed)
    p3 = DataOwnerParty(params.embedding, session_seed=seed + 1)
    return p1, ServerParty(), p3


def _deployed(params, seed):
    p1, p2, p3 = _parties(params, seed)
    to_p2, to_p3 = p1.initialize(seed + 2)
    p2.handle_deploy(to_p2)
    p3.handle_deploy_keys(to_p3)
    return p1, p2, p3


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


def _ref_step(p3, source, start, size):
    """A one-row step at `start` naming table row `source`, after `size` rows sent."""
    x = apply_col_perm(embed([0], p3.embedding), p3.pi)
    return wire.make_infer_request(
        x, p3.epoch, p3.session_id, start, TOP1, refs=[(start, source)], size=size
    )


def _oracle(p2, p3, ids):
    """TOP1 reply bytes for `ids` on a fresh cache, every row literal."""
    cache = LinkCache()
    p2.serve(_literal(p3, ids[:-1]), cache)
    return bytes(p2.serve(_literal(p3, ids[-1:], len(ids) - 1), cache).payload)


def _sent_rows(prompt, tokens):
    """The rows a generation sends: its prompt, then each token but the last."""
    return [prompt] + [[t] for t in tokens[:-1]]


def _expected_refs(prompts, streams, cap, epochs=None):
    """Rows by reference per request: a row whose token P3 sent earlier at the
    same epoch, while the table had room for it (the embedding rows differ)."""
    epochs = epochs or [0] * len(prompts)
    out, kept, sent, epoch = [], set(), 0, None
    for prompt, tokens, e in zip(prompts, streams, epochs):
        if e != epoch:
            kept, sent, epoch = set(), 0, e
        for rows in _sent_rows(prompt, tokens):
            r = 0
            for t in rows:
                if t in kept:
                    r += 1
                    continue
                if sent < cap:
                    kept.add(t)
                sent += 1
            out.append(r)
    return out


class _Direct:
    """P3's end of a link on which P2 serves each request at once, with a
    LinkCache the test can read; a fault becomes its Error frame."""

    def __init__(self, p2):
        self.p2, self.cache, self._replies = p2, LinkCache(), []

    def send(self, frame):
        try:
            reply = self.p2.serve(frame, self.cache)
        except Exception as exc:
            reply = _error_reply(exc, frame)
        self._replies.append(reply)

    def recv(self, timeout=None):
        return self._replies.pop(0)


class _Replies:
    """P3's end of a link that records each reply, and loses the one to its
    `drop`-th request: P2 serves it, P3 sees a transport fault."""

    def __init__(self, link, drop=None):
        self.link, self.drop, self.requests, self.replies = link, drop, 0, []

    def send(self, frame):
        self.requests += 1
        self.link.send(frame)

    def recv(self, timeout=None):
        frame = self.link.recv(timeout=timeout)
        self.replies.append(frame)
        if self.requests == self.drop:
            raise TransportError("reply lost")
        return frame


# --- one link: references to the table, and what P2 refuses --------------------


@pytest.mark.parametrize("kind", KINDS)
def test_a_step_by_reference_matches_the_literal_step(kind):
    params = gen_model(make_config(vocab_size=20), 70)
    p1, p2, p3 = _parties(params, 71)
    hub = _ServerHost(p2, kind, 0.0, 5.0)
    try:
        deploy(hub.p1_link, p3, *p1.initialize(72))
        prompt, sent = [4, 9, 4, 2], SentRows()
        prefill = p3.infer_request(prompt, mode=TOP1, sent=sent)
        assert wire.request_dims(prefill.payload) == (4, params.config.d_model, 1)
        assert _ask(hub.p3_link, prefill).msg_type is wire.MsgType.INFER_RESPONSE
        step = p3.infer_request([9], start=4, mode=TOP1, sent=sent)
        assert wire.parse_infer_request(step.payload)[3].tolist() == [[4, 1]]
        reply = _ask(hub.p3_link, step)
        assert bytes(reply.payload) == _oracle(p2, p3, prompt + [9])
    finally:
        hub.shutdown()


@pytest.mark.parametrize("kind", KINDS)
def test_references_p2_does_not_hold_are_refused_and_keep_the_cache(kind):
    params = gen_model(make_config(vocab_size=20), 73)
    p1, p2, p3 = _parties(params, 74)
    hub = _ServerHost(p2, kind, 0.0, 5.0)
    try:
        deploy(hub.p1_link, p3, *p1.initialize(75))
        prompt = [3, 8, 5]
        _ask(hub.p3_link, _literal(p3, prompt))  # the table holds rows 0, 1, 2
        # a block whose count differs from the table's names rows P2 may lack
        for size in (0, 2, 4):
            assert _code(_ask(hub.p3_link, _ref_step(p3, 0, 3, size))) == UNSUPPORTED
        # a reference past the table
        assert _code(_ask(hub.p3_link, _ref_step(p3, 3, 3, 3))) == MALFORMED
        # a refused request adds no row to the table
        wide = np.ones((1, params.config.d_model + 1), dtype=np.float32)
        bad = wire.make_infer_request(wide, p3.epoch, p3.session_id, 3, TOP1)
        assert _code(_ask(hub.p3_link, bad)) == MALFORMED
        assert _code(_ask(hub.p3_link, _ref_step(p3, 0, 3, 4))) == UNSUPPORTED
        # a block naming more rows than the cap is refused before any pair is read
        empty = wire.make_infer_request(
            np.empty((0, params.config.d_model), np.float32), p3.epoch, p3.session_id, 3, TOP1
        )
        huge = bytes(empty.payload) + struct.pack("<II", 4096, 3) + bytes(8 * 4096)
        assert _code(_ask(hub.p3_link, wire.Frame(empty.msg_type, p3.epoch, 0, huge))) == MALFORMED
        # the table and the cache are as the prefill left them
        reply = _ask(hub.p3_link, _ref_step(p3, 1, 3, 3))
        assert bytes(reply.payload) == _oracle(p2, p3, prompt + [8])
        # another session on the link starts a table of its own
        other = wire.make_infer_request(
            apply_col_perm(embed([0], p3.embedding), p3.pi),
            p3.epoch, p3.session_id + 1, 4, TOP1, refs=[(4, 0)], size=3,
        )
        assert _code(_ask(hub.p3_link, other)) == UNSUPPORTED
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
        assert _code(_ask(hub.p3_link, _ref_step(p3, 0, 3, 3))) == wire.ErrorCode.INTERNAL
        monkeypatch.setattr(stip.protocol, "model_forward", forward)
        # K′/V′ went with the pass, and the table's three rows with them
        assert _code(_ask(hub.p3_link, _ref_step(p3, 0, 3, 3))) == UNSUPPORTED
        prefill = wire.make_infer_request(
            apply_col_perm(embed([1], p3.embedding), p3.pi),
            p3.epoch, p3.session_id, 0, TOP1, refs=[(0, 0)], size=3,
        )
        assert _code(_ask(hub.p3_link, prefill)) == UNSUPPORTED
    finally:
        hub.shutdown()


@pytest.mark.parametrize("kind", KINDS)
def test_a_reference_after_a_rekey_and_redeploy_is_refused(kind):
    params = gen_model(make_config(vocab_size=20), 79)
    p1, p2, p3 = _parties(params, 80)
    hub = _ServerHost(p2, kind, 0.0, 5.0)
    try:
        deploy(hub.p1_link, p3, *p1.initialize(81))
        assert p3.generate([6, 7], 3, hub.p3_link, timeout=5.0) == greedy_generate(
            params, [6, 7], 3
        )
        held = p3.sent_rows.sent
        to_p2, to_p3 = p1.rekey(82)
        _send_for_ack(hub.p1_link, p1.rekey_notice(), None, 5.0)
        deploy(hub.p1_link, p3, to_p2, to_p3)
        assert p3.sent_rows.sent == 0  # P3 dropped its mirror with the old keys
        # rows from the retired epoch are never named: not from the cache...
        assert _code(_ask(hub.p3_link, _ref_step(p3, 0, 2, held))) == wire.ErrorCode.STALE_EPOCH
        # ...nor from the table, which the new epoch replaced
        prefill = wire.make_infer_request(
            apply_col_perm(embed([6], p3.embedding), p3.pi),
            p3.epoch, p3.session_id, 0, TOP1, refs=[(0, 0)], size=held,
        )
        assert _code(_ask(hub.p3_link, prefill)) == UNSUPPORTED
        tokens = p3.generate([6, 7, 6], 3, hub.p3_link, timeout=5.0)
        assert tokens == greedy_generate(params, [6, 7, 6], 3)
    finally:
        hub.shutdown()


def test_a_reference_step_to_a_direct_serve_without_a_cache_is_refused():
    params = gen_model(make_config(vocab_size=20), 83)
    _, p2, p3 = _deployed(params, 84)
    with pytest.raises(ProtocolError):
        p2.serve(_ref_step(p3, 0, 1, 1))
    # a prefill that names its own rows needs no table
    prefill = p3.infer_request([5, 5], mode=TOP1, sent=SentRows())
    assert wire.request_dims(prefill.payload)[2] == 1
    reply = p2.serve(prefill)
    assert bytes(reply.payload) == bytes(p2.serve(_literal(p3, [5, 5])).payload)
    # one that follows rows sent before needs the table that holds them
    x = apply_col_perm(embed([5, 5], p3.embedding), p3.pi)
    later = wire.make_infer_request(x, p3.epoch, p3.session_id, 0, TOP1, [(1, 7)], size=7)
    with pytest.raises(ProtocolError):
        p2.serve(later)


# --- across sessions: faults end in a refusal or in correct tokens -----------------


@pytest.mark.parametrize("kind", KINDS)
def test_a_lost_reply_costs_the_generation_not_a_wrong_row(kind):
    params = gen_model(make_config(vocab_size=20), 85)
    p1, p2, p3 = _parties(params, 86)
    prompt = [1, 2, 3, 1]
    local = greedy_generate(params, prompt, 4)
    hub = _ServerHost(p2, kind, 0.0, 5.0)
    try:
        deploy(hub.p1_link, p3, *p1.initialize(87))
        assert p3.generate(prompt, 4, hub.p3_link, timeout=5.0) == local
        session = p3.session_id
        link = _Replies(hub.p3_link, drop=2)  # P2 serves the first step; P3 loses its reply
        with pytest.raises(AbortedGenerationError) as caught:
            p3.generate(prompt, 4, link, timeout=5.0)
        assert caught.value.tokens == local[:1]
        assert link.replies[-1].msg_type is wire.MsgType.INFER_RESPONSE
        assert p3.session_id != session and p3.sent_rows.sent == 0
        assert p3.generate(prompt, 4, hub.p3_link, timeout=5.0) == local
        assert p3.generate(prompt, 4, hub.p3_link, timeout=5.0) == local
    finally:
        hub.shutdown()


@pytest.mark.parametrize("kind", KINDS)
def test_an_error_reply_mid_generation_then_correct_tokens(kind, monkeypatch):
    params = gen_model(make_config(vocab_size=20), 88)
    p1, p2, p3 = _parties(params, 89)
    prompt = [4, 5, 4]
    local = greedy_generate(params, prompt, 4)
    forward = stip.protocol.model_forward
    calls = []

    def third_call_fails(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise RuntimeError("boom")
        return forward(*args, **kwargs)

    hub = _ServerHost(p2, kind, 0.0, 5.0)
    try:
        deploy(hub.p1_link, p3, *p1.initialize(90))
        assert p3.generate(prompt, 4, hub.p3_link, timeout=5.0) == local
        monkeypatch.setattr(stip.protocol, "model_forward", third_call_fails)
        with pytest.raises(AbortedGenerationError) as caught:
            p3.generate(prompt, 4, hub.p3_link, timeout=5.0)
        assert caught.value.tokens == local[:2]
        for _ in range(2):
            assert p3.generate(prompt, 4, hub.p3_link, timeout=5.0) == local
    finally:
        hub.shutdown()


@pytest.mark.parametrize("keep_session", [False, True])
@pytest.mark.parametrize("kind", KINDS)
def test_one_p3_alternating_between_two_links_is_refused_or_correct(
    kind, keep_session, monkeypatch
):
    """Each link's table holds only what was sent on it, so P3's mirror matches
    at most one of them. With `keep_session`, P3 keeps its session and mirror
    after a refusal, so the count check alone guards the rows."""
    params = gen_model(make_config(vocab_size=20), 91)
    p1, p2, p3 = _parties(params, 92)
    if keep_session:
        monkeypatch.setattr(DataOwnerParty, "new_session", lambda self: None)
    prompts = [[1, 2, 3], [3, 2, 1], [1, 2, 7], [7, 1, 2], [2, 3, 7], [2, 3, 1]]
    hubs = [_ServerHost(p2, kind, 0.0, 5.0) for _ in range(2)]
    outcomes = []
    try:
        deploy(hubs[0].p1_link, p3, *p1.initialize(93))
        for i, prompt in enumerate(prompts):
            link = _Replies(hubs[i % 2].p3_link)
            try:
                tokens = p3.generate(prompt, 3, link, timeout=5.0)
            except AbortedGenerationError:
                assert _code(link.replies[-1]) == UNSUPPORTED
                outcomes.append("refused")
                continue
            assert tokens == greedy_generate(params, prompt, 3)
            outcomes.append("served")
    finally:
        for hub in hubs:
            hub.shutdown()
    assert outcomes[0] == "served" and "refused" in outcomes
    if not keep_session:  # a new session after each refusal is served
        assert outcomes == ["served", "refused"] * 3


def test_a_direct_request_makes_the_next_generation_start_a_new_session():
    params = gen_model(make_config(vocab_size=20), 94)
    _, p2, p3 = _deployed(params, 95)
    link = _Direct(p2)
    assert p3.generate([1, 2], 3, link) == greedy_generate(params, [1, 2], 3)
    session, sent = p3.session_id, p3.sent_rows.sent
    assert link.cache.table.sent == sent
    # sent outside the mirror, every row literal, yet P2 adds them to the table
    link.send(p3.infer_request([8, 9, 8], mode=TOP1))
    assert link.recv().msg_type is wire.MsgType.INFER_RESPONSE
    assert link.cache.table.sent == sent + 3
    assert p3.generate([1, 8], 3, link) == greedy_generate(params, [1, 8], 3)
    assert p3.session_id != session and link.cache.table.sent == p3.sent_rows.sent


def test_a_mirror_whose_count_would_pass_a_u32_starts_a_new_session():
    params = gen_model(make_config(vocab_size=20), 96)
    _, p2, p3 = _deployed(params, 97)
    link = _Direct(p2)
    assert p3.generate([1, 2], 3, link) == greedy_generate(params, [1, 2], 3)
    session = p3.session_id
    p3.sent_rows.sent = 2**32 - 5  # a prompt of 2 and 3 new tokens would reach 2**32
    assert p3.generate([1, 2], 3, link) == greedy_generate(params, [1, 2], 3)
    assert p3.session_id != session and p3.sent_rows.sent == link.cache.table.sent < 5


# --- the row cap bounds both tables and every buffer ---------------------------------


@pytest.mark.parametrize("mask_kind", [MaskKind.CAUSAL, MaskKind.NONE])
def test_the_row_store_follows_the_sequence_up_to_the_row_cap(mask_kind, monkeypatch):
    """With the cap patched small, P2's table and P3's mirror stop growing
    together, and the tokens stay correct."""
    cap = 6
    monkeypatch.setattr(stip.protocol, "MAX_ROWS", cap)
    params = gen_model(make_config(vocab_size=20, mask_kind=mask_kind), 98)
    _, p2, p3 = _deployed(params, 99)
    link = _Direct(p2)
    transcript = stip.protocol.Transcript()
    prompts = [[1, 2, 3], [4, 5, 1], [6, 7, 2], [1, 8, 9], [3, 4, 5]]
    streams = []
    for prompt in prompts:
        streams.append(p3.generate(prompt, 3, link, transcript))
        assert streams[-1] == greedy_generate(params, prompt, 3)
    table, mirror = link.cache.table, p3.sent_rows
    assert table.rows.n == len(mirror.index) == cap
    assert table.rows._buf.shape[0] == cap
    assert table.sent == mirror.sent > cap
    got = [e["ref_rows"] for e in transcript.entries if e["msg_type"] == "INFER_REQUEST"]
    assert got == _expected_refs(prompts, streams, cap)
    x = apply_col_perm(embed([1, 2, 3], p3.embedding), p3.pi)
    assert table.rows._buf[:3].tobytes() == x.tobytes()


def test_a_link_cache_grows_no_buffer_past_the_row_cap():
    params = gen_model(make_config(n_layers=1, vocab_size=12), 100)
    _, p2, p3 = _deployed(params, 101)
    cap = stip.protocol.MAX_ROWS
    ids = (np.arange(cap - 1) % 12).tolist()
    cache = LinkCache()
    p2.serve(p3.infer_request(ids, mode=TOP1), cache)
    p2.serve(p3.infer_request([5], start=cap - 1, mode=TOP1), cache)
    kv = cache.kv
    assert kv.rows == cap
    held = [kv.inputs] + [r for layer in kv.layers for r in (layer._k, layer._v)]
    bufs = [r._buf for r in held if r._buf is not None]  # causal: K and V only
    assert len(bufs) == 2 and max(b.shape[0] for b in bufs) == cap
    assert cache.table.rows._buf.shape[0] <= cap
    # a cache with no cap, as greedy_generate makes, doubles as it always did
    plain = KVCache(1)
    plain.layers[0].append(np.ones((cap - 1, 2)), np.ones((cap - 1, 2)))
    plain.layers[0].append(np.ones((1, 2)), np.ones((1, 2)))
    assert plain.layers[0]._k._buf.shape[0] == 2 * (cap - 1)


# --- end to end: the three benchmark models ----------------------------------------


def _benchmark_configs():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return {w.name: w.config for w in workloads.WORKLOADS.values()}


@functools.lru_cache(maxsize=None)
def _benchmark_model(name, mask_kind):
    return gen_model(dataclasses.replace(_benchmark_configs()[name], mask_kind=mask_kind), 0)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("mask_kind", [MaskKind.CAUSAL, MaskKind.NONE])
@pytest.mark.parametrize("name", ["desk-decode", "moe-prefill", "rekey-churn"])
@settings(max_examples=3)
@given(data=st.data())
def test_p2_forwards_the_all_literal_rows_and_tokens_match(name, mask_kind, kind, data):
    """Sessions whose prompts share tokens, with or without a re-key halfway."""
    params = _benchmark_model(name, mask_kind)
    cfg = params.config
    pool = data.draw(
        st.lists(st.integers(0, cfg.vocab_size - 1), min_size=2, max_size=5, unique=True)
    )
    prompts = data.draw(
        st.lists(st.lists(st.sampled_from(pool), min_size=1, max_size=5), min_size=1, max_size=3)
    )
    new = data.draw(st.integers(1, 3))
    rekey = data.draw(st.booleans())
    seed = data.draw(st.integers(0, 2**16))
    fed = []
    forward = stip.protocol.model_forward

    def recorded(x, *args, **kwargs):
        fed.append(np.array(x).tobytes())
        return forward(x, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stip.protocol, "model_forward", recorded)
        streams, transcript = run_simulation(
            params, prompts, new, transport_kind=kind, seed=seed, rekey_between=rekey
        )
    assert streams == [greedy_generate(params, p, new) for p in prompts]
    # run_simulation re-keys once, before prompt max(1, len // 2), with that seed
    at = max(1, len(prompts) // 2) if rekey and len(prompts) > 1 else len(prompts)
    epochs = [int(i >= at) for i in range(len(prompts))]
    keys = [seed, seed + 1000 + at]
    literal = []
    for prompt, tokens, e in zip(prompts, streams, epochs):
        pi = gen_permutation_set(cfg, keys[e]).pi
        for rows in _sent_rows(prompt, tokens):
            literal.append(apply_col_perm(embed(rows, params.embedding), pi).tobytes())
    assert fed == literal
    refs = [e["ref_rows"] for e in transcript.entries if e["msg_type"] == "INFER_REQUEST"]
    assert refs == _expected_refs(prompts, streams, stip.protocol.MAX_ROWS, epochs)


def test_a_repeated_desk_decode_prompt_is_sent_as_references():
    params = _benchmark_model("desk-decode", MaskKind.CAUSAL)
    prompt = list(range(16))
    _, transcript = run_simulation(params, [prompt, prompt], 3, seed=102)
    reqs = [e for e in transcript.entries if e["msg_type"] == "INFER_REQUEST"]
    assert reqs[3]["dims"] == [16, 64] and reqs[3]["ref_rows"] == 16
    # an empty 0×d matrix, the trailer, the block's count and size, 16 pairs
    assert reqs[3]["bytes"] == wire.HEADER_SIZE + wire.MATRIX_PREFIX_SIZE + 8 + 8 + 16 * 8


def test_the_same_row_equality_pattern_gives_the_same_reference_block():
    params = gen_model(make_config(vocab_size=30), 103)
    p1, _, p3 = _parties(params, 104)
    p3.handle_deploy_keys(p1.initialize(105)[1])

    def blocks(*sessions):
        sent, out = SentRows(), []
        for prompt, step in sessions:
            frames = [
                p3.infer_request(prompt, mode=TOP1, sent=sent),
                p3.infer_request([step], start=len(prompt), mode=TOP1, sent=sent),
            ]
            for f in frames:
                n, d, r = wire.request_dims(f.payload)
                out.append(bytes(f.payload)[8 + 4 * (n - r) * d :])  # trailer and block
        return out

    a = blocks(([3, 5, 3, 3, 7, 5], 7), ([5, 9, 3], 9))
    b = blocks(([8, 2, 8, 8, 1, 2], 1), ([2, 4, 8], 4))
    assert a == b
    assert a != blocks(([3, 5, 3, 3, 7, 5], 3), ([5, 9, 3], 9))  # names index 0, not 2


def test_a_generation_sends_each_repeated_row_by_reference():
    params = gen_model(make_config(vocab_size=6), 106)
    prompts = [[0, 1, 0], [1, 2, 0]]
    streams, transcript = run_simulation(params, prompts, 12, seed=107)
    reqs = [e for e in transcript.entries if e["msg_type"] == "INFER_REQUEST"]
    assert [e["dims"] for e in reqs] == ([[3, 8]] + [[1, 8]] * 11) * 2
    want = _expected_refs(prompts, streams, stip.protocol.MAX_ROWS)
    assert [e["ref_rows"] for e in reqs] == want
    assert want[12] >= 2  # the second prompt's 1 and 0 were sent in the first session
    # with six tokens, twelve-token generations must repeat rows
    assert sum(want[1:12]) >= 6
    # a request's block is 4 + 4 + 8·r bytes; a request with none has no block
    head = wire.HEADER_SIZE + wire.MATRIX_PREFIX_SIZE + 8
    for e, r in zip(reqs, want):
        n, d = e["dims"]
        assert e["bytes"] == head + 4 * (n - r) * d + (8 + 8 * r if r else 0)
