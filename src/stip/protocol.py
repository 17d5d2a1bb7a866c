"""Three-party protocol: developer (P1), server (P2), and data owner (P3).

P1 owns the original parameters and the full permutation set, deploys the
transformed layers and classifier to P2 and the shared {π, π_c} half to P3,
and can re-key. P2 runs the transformed model unchanged on permuted
embeddings. P3 embeds on-device, permutes columns with π, and un-permutes
responses with π_c. Knowledge stays partitioned: P2 never holds key material
or the embedding table, P3 never holds a per-layer permutation, P1 never sees
inference traffic.

Generation is incremental: P3 sends the whole prompt once (a prefill), then
one row per generated token. P2 keeps the sequence's K′/V′ per link, so a
decode step costs one row of wire traffic and one row of model work. Within
an epoch a token's permuted row is the same bytes every time, so P2 already
sees which rows repeat. P2 therefore keeps, per link, a row table for P3's
session at the epoch (`RowTable`): every row the session sent literally, in
order, up to `transport.MAX_ROWS` rows, across generations. A row the table
holds travels as a reference to its index, 8 bytes in place of 4·d, plus 8
bytes per request. P3 mirrors the table (`SentRows`), picks references by
permuted row bytes alone, and says in each reference block how many rows it
has sent; P2 refuses a block whose count differs from its own, so a lost
reply or a second link can cost a refusal but never a wrong row. P3 draws a
new session id after any failed generation, and drops the table with its
keys; P2 starts a new table for a new session id or epoch. P2 runs the model
on exactly the rows an all-literal request carries. Each round asks for a
TOP1 reply: P2 names the permuted indices where o′'s last row is largest,
not the whole 1×s row. Since only that row is read, a TOP1 round runs the
last layer on the last row alone, past its K′/V′, which cover every row
because later steps attend to them.

A deploy writes θ′ once. P1 gathers each θ′ tensor from its own weights
straight into its slot in the DEPLOY_MODEL container
(`container.encode_model(params, pset)`), an unzeroed buffer that the
gathers fill on two cores, and P2 serves θ′ from read-only views into the
payload it received: it keeps no second copy. P2's sentinel scan of the
payload (`container.decode_model`) splits over two cores the same way, on
the helper thread that also takes half of each large product
(`numerics.matmul`). P1 writes each MoE expert matrix as contiguous column
panels, so P2 serves it as a `numerics.PanelMatrix` view and widens one
L2-sized panel at a time; every output bit is the one a row-major expert
gives. A SwiGLU expert's W′_1 and W′_3 make one product
(`model.ffn_forward`): W′_1's panels then W′_3's, views into the payload,
split over the two cores.

P2 keeps θ′ and its epoch, which names one key set: a deploy must advance
it, and a REKEY notice that retires it drops θ′, and with it the payload.
At the first inference request on a θ′, P2 widens its dense matrices (W′_q,
W′_k, W′_v and W′_o of every layer, a dense layer's W′_1/W′_2/W′_3, and
W′_c) to float64 copies in place, and copies its norm vectors as float32.
The engine computes its products in float64, so a one-row step no longer
casts each of these on every call, and every output bit stays the same. A
prefill's products with these float64 matrices split over the two cores
once they are large enough (`numerics.SPLIT_MIN_MACS`); a one-row step's
never do. A dense θ′ then holds no view into the payload, which is freed;
MoE experts and W′_g stay float32 views into it. The container stays
float32, and `state_bytes()` returns it as bytes, expert panels as they
came.

A request may reach at most `transport.MAX_ROWS` rows of a sequence. P3
refuses, before it sends anything, a generation that would pass that cap
(`check_generation`), so protocol tokens and local decoding never part.

P2 serves each link in one party's role: P1's link may deploy and re-key,
P3's link may only ask for inference.
"""

import dataclasses
import json
import logging
import secrets
import threading
import time

import numpy as np

from . import container, wire
from .errors import (
    AbortedGenerationError,
    CodecError,
    DegenerateRowError,
    InvalidConfigError,
    InvalidDimensionError,
    NotInitializedError,
    ProtocolError,
    StaleEpochError,
    StipError,
    TransportError,
)
from .model import (
    KVCache,
    MaskKind,
    _Rows,
    embed,
    greedy_decode_step,
    make_mask,
    model_forward,
)
from .numerics import DTYPE, apply_col_perm
from .transform import gen_permutation_set, recover_output
from .transport import MAX_ROWS, accept, connect, inproc_pair, listen

RECV_TIMEOUT = 30.0
_U32_MAX = 2**32 - 1

_log = logging.getLogger(__name__)

# Frames P2 accepts on a link of each role: P1 deploys and re-keys, P3 asks
# for inference. A link with no role accepts all three.
LINK_ROLES = {
    "P1": frozenset({wire.MsgType.DEPLOY_MODEL, wire.MsgType.REKEY}),
    "P3": frozenset({wire.MsgType.INFER_REQUEST}),
}

# Fault -> Error frame code, first match wins; anything else is INTERNAL.
_ERROR_CODES = (
    (StaleEpochError, wire.ErrorCode.STALE_EPOCH),
    (ProtocolError, wire.ErrorCode.UNSUPPORTED),
    ((CodecError, InvalidDimensionError, InvalidConfigError), wire.ErrorCode.MALFORMED),
)


def _rand_session_id(seed=None):
    if seed is None:
        return secrets.randbits(64)
    return int(np.random.default_rng(seed).integers(0, 2**63, dtype=np.uint64))


class Transcript:
    """Audit log of protocol messages: one JSON record per frame."""

    def __init__(self):
        self.entries = []
        self._lock = threading.Lock()

    def log(self, direction, frame):
        """Record one frame's metadata.

        For an INFER_REQUEST, `dims` is the n×d of the rows it adds to its
        sequence, and `ref_rows` how many of them travel by reference: a
        count, never a position or a value. Both are None on other frames.
        """
        dims = ref_rows = None
        if frame.msg_type is wire.MsgType.INFER_REQUEST:
            n, d, ref_rows = wire.request_dims(frame.payload)
            dims = [n, d]
        entry = {
            "ts": time.time(),
            "direction": direction,
            "msg_type": frame.msg_type.name,
            "epoch": frame.epoch,
            "dims": dims,
            "ref_rows": ref_rows,
            "bytes": wire.HEADER_SIZE + len(frame.payload),
        }
        with self._lock:
            self.entries.append(entry)

    def inference_count(self):
        return sum(
            e["msg_type"] in ("INFER_REQUEST", "INFER_RESPONSE") for e in self.entries
        )

    def frame_bytes(self, msg_type):
        """Encoded bytes of every logged frame of one message type."""
        return sum(e["bytes"] for e in self.entries if e["msg_type"] == msg_type.name)

    def to_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for e in self.entries:
                f.write(json.dumps(e) + "\n")


class DeveloperParty:
    """P1: key generation, parameter transformation, deployment, re-keying."""

    role = "Developer"

    def __init__(self, params, session_seed=None):
        self.params = params
        self.pset = None
        self.epoch = 0
        self.session_id = _rand_session_id(session_seed)

    def initialize(self, seed, identity=False):
        """Generate Π, transform, and emit (deploy_to_p2, deploy_to_p3)."""
        self.pset = gen_permutation_set(self.params.config, seed, identity=identity)
        self.epoch += 1
        return self._deploy_messages()

    def rekey(self, seed):
        """Fresh Π at epoch+1; old-epoch traffic must be rejected afterwards."""
        if self.pset is None:
            raise NotInitializedError("rekey before initialize")
        return self.initialize(seed)

    def _deploy_messages(self):
        # P2 gets no embedding table: with E it could match each permuted row
        # to its token and so recover the prompt and π (row_fingerprint_attack).
        served = dataclasses.replace(self.params, embedding=None)
        to_p2 = wire.make_deploy_model(
            container.encode_model(served, self.pset), self.epoch, self.session_id
        )
        to_p3 = wire.make_deploy_keys(
            container.encode_keys(self.pset, self.epoch, shared_only=True),
            self.epoch,
            self.session_id,
        )
        return to_p2, to_p3

    def rekey_notice(self):
        """Advisory epoch-bump frame announcing that the previous epoch retired."""
        if self.pset is None:
            raise NotInitializedError("rekey notice before any key set")
        return wire.make_rekey(self.epoch, self.epoch - 1, self.session_id)

    def state_bytes(self):
        out = bytes(container.encode_model(self.params))
        if self.pset is not None:
            out += container.encode_keys(self.pset, self.epoch)
        return out


class RowTable:
    """The rows one P3 session sent literally on a link at one epoch, by index.

    `key` is the (session id, epoch) pair. Every literal row of a request P2
    serves takes the next index, in order, until the table holds `MAX_ROWS`
    rows; later rows are counted in `sent` but not kept. A reference names a
    row by its index here. P3 keeps the same indices (`SentRows`).
    """

    def __init__(self, key):
        self.key = key
        self.sent = 0
        self.rows = _Rows(DTYPE, MAX_ROWS)

    def stage(self, literal):
        """The table as it stands once `literal`'s kept rows are in, as a view;
        the table holds them only after `commit`."""
        kept = max(0, min(len(literal), MAX_ROWS - self.rows.n))
        return self.rows.write(literal[:kept])

    def commit(self, staged, literal):
        """Hold the rows `stage` wrote, and count every literal row sent."""
        self.rows.n = len(staged)
        self.sent += len(literal)


class LinkCache:
    """P2's state for one link: one sequence under one epoch, and one row table.

    It holds only permuted rows P2 received on this link, values it computed
    from them, and their epoch and session id; no key. `kv` holds the
    sequence's K′/V′ (under mask none, its x′ rows), and a prefill replaces
    it. `table` holds the rows P3's session sent at the epoch (`RowTable`),
    across sequences: a request from another session or epoch starts a new
    one. A failed forward pass drops both.
    """

    def __init__(self):
        self.epoch = None
        self.kv = None
        self.table = None

    def begin(self, epoch, n_layers):
        """Begin a new sequence at `epoch`, dropping the one held."""
        self.epoch = epoch
        self.kv = KVCache(n_layers, MAX_ROWS)

    def table_for(self, key):
        """The link's table for `key`, or a new empty one that `serve` keeps
        only once it accepts the request."""
        if self.table is not None and self.table.key == key:
            return self.table
        return RowTable(key)

    def drop(self):
        self.kv = None
        self.table = None


class ServerParty:
    """P2: runs the transformed model verbatim; knows no permutation and no embedding.

    It keeps θ′ (`model`, None when none is live) and its epoch. A deploy
    installs θ′ as decoded: float32, read-only views into the DEPLOY_MODEL
    payload, which θ′ keeps alive. The first inference request served on it
    replaces its dense matrices with float64 copies and its norm vectors with
    float32 ones (`_widen_dense`), so the deploy itself pays nothing for
    that, and a dense θ′ then lets the payload go. A REKEY notice that
    retires the current epoch drops θ′, and with it any payload it still
    views. The epoch stays, and a deploy must advance it, live or retired:
    an epoch names one key set, so a retired one never serves again.
    """

    role = "Server"

    def __init__(self):
        self.model = None
        self.epoch = None
        self._lock = threading.RLock()

    def handle_deploy(self, frame):
        if frame.msg_type is not wire.MsgType.DEPLOY_MODEL:
            raise ProtocolError(f"expected DEPLOY_MODEL, got {frame.msg_type.name}")
        with self._lock:
            if self.epoch is not None and frame.epoch <= self.epoch:
                raise StaleEpochError(
                    f"deploy epoch {frame.epoch} does not advance {self.epoch}"
                )
            model = container.decode_model(frame.payload)
            if model.embedding is not None:
                raise ProtocolError("a deployed model must not carry the embedding table")
            self.model = model
            self.epoch = frame.epoch
            return wire.make_ack(self.epoch, frame.session_id)

    def handle_rekey(self, frame):
        """Epoch-bump notice: drop θ′ if the notice retires its epoch."""
        retiring = wire.decode_rekey_payload(frame.payload)
        with self._lock:
            if retiring == self.epoch:
                self.model = None
            return wire.make_ack(frame.epoch, frame.session_id)

    def serve(self, frame, cache=None):
        """InferRequest -> InferResponse at the current epoch, in the request's reply mode.

        Mode ALL replies with o′, one row per request row; mode TOP1 with the
        indices where o′'s last row equals its maximum. A TOP1 round computes
        that row alone (`model_forward`'s last_row): the last layer computes
        K′ and V′ over every row, for the cache, and Q′, W_o, the norms, the
        FFN/MoE and the classifier over the last row only. A prefill (start 0)
        replaces the link's cache; a decode step (start > 0) extends it and
        must name exactly the rows the cache holds. Without a cache (a direct
        call) only a prefill can be served, and nothing is kept. A row sent
        by reference names a row of the link's table for the request's
        session and epoch (`RowTable`), which then gains the request's
        literal rows; it is resolved (`wire.resolve_rows`) before the forward
        pass, which sees the same rows an all-literal request gives. A
        reference block whose `size` is not the number of rows the table has
        counted is UNSUPPORTED, and a malformed one MALFORMED; either way no
        row is resolved and the table is left as it was.

        Before any deploy this raises NotInitializedError; once θ′ is
        retired, at another epoch, or for rows cached at an earlier epoch,
        StaleEpochError. A request whose rows would reach past
        `transport.MAX_ROWS` (a prefill's n, a step's start + n) raises
        InvalidDimensionError, a MALFORMED Error frame, and leaves the link's
        cache as it was. The first request accepted on a θ′ whose W′_c is
        still float32 widens its dense matrices to float64 (`_widen_dense`),
        under the lock and before any forward pass runs on it. Every check on
        the request (its trailer, width, row count and start against the
        link's cache) runs first, so a refused request widens nothing.
        """
        if frame.msg_type is not wire.MsgType.INFER_REQUEST:
            raise ProtocolError(f"expected INFER_REQUEST, got {frame.msg_type.name}")
        with self._lock:
            model = self.model
            if model is None and self.epoch is None:
                raise NotInitializedError("no model deployed")
            if model is None or frame.epoch != self.epoch:
                now = "retired" if model is None else "current"
                raise StaleEpochError(
                    f"request epoch {frame.epoch}, {now} epoch {self.epoch}"
                )
            epoch = self.epoch
        cfg = model.config
        if cfg.mask_kind is MaskKind.CUSTOM:
            raise ProtocolError("custom masks cannot travel over this protocol")
        literal, start, mode, refs, size = wire.parse_infer_request(frame.payload)
        n, d = literal.shape[0] + len(refs), literal.shape[1]
        if n == 0 or d != cfg.d_model:
            raise InvalidDimensionError(
                f"request is {n}x{d}, model needs n>=1 rows of width {cfg.d_model}"
            )
        if start + n > MAX_ROWS:
            raise InvalidDimensionError(
                f"request reaches row {start + n}, past the {MAX_ROWS}-row cap"
            )
        if start:
            if cache is None or cache.kv is None:
                raise ProtocolError(f"decode step at row {start} without a prefill")
            if cache.epoch != epoch:
                cache.drop()
                raise StaleEpochError(f"cached rows are from retired epoch {cache.epoch}")
            if start != cache.kv.rows:
                raise ProtocolError(
                    f"decode step at row {start}, link holds {cache.kv.rows} rows"
                )
        key = (frame.session_id, epoch)
        table = RowTable(key) if cache is None else cache.table_for(key)
        if len(refs) and size != table.sent:
            raise ProtocolError(
                f"references follow {size} rows sent, the link's table counts {table.sent}"
            )
        staged = table.stage(literal)
        x = wire.resolve_rows(literal, start, refs, staged)
        with self._lock:
            if model.w_c.dtype != np.float64:
                _widen_dense(model)
        kv = None
        if cache is not None:
            table.commit(staged, literal)
            cache.table = table
            if start == 0:
                cache.begin(epoch, cfg.n_layers)
            kv = cache.kv
        mask = make_mask(cfg.mask_kind, n=n)
        try:
            top1 = mode == wire.ReplyMode.TOP1
            o = model_forward(x, model, mask, cache=kv, last_row=top1)
            if top1:
                top = _argmax_set(o[-1])
                return wire.make_top1_response(top, epoch, frame.session_id)
        except BaseException:
            if cache is not None:
                cache.drop()
            raise
        return wire.make_infer_response(o, epoch, frame.session_id)

    def handle(self, frame, cache=None):
        if frame.msg_type is wire.MsgType.INFER_REQUEST:
            return self.serve(frame, cache)
        if frame.msg_type is wire.MsgType.REKEY:
            return self.handle_rekey(frame)
        return self.handle_deploy(frame)  # which refuses any other frame

    def serve_loop(self, transport, timeout=RECV_TIMEOUT, role=None):
        """Answer frames until the peer closes; every fault becomes an Error frame.

        `role`, "P1" or "P3", binds the link to the frames that party may send
        (`LINK_ROLES`); any other frame gets an UNSUPPORTED Error frame and
        changes nothing. With no role the link accepts every frame P2 handles.
        The link's decoding cache lives here and is dropped with the link.
        """
        allowed = None if role is None else LINK_ROLES[role]
        cache = LinkCache()
        while True:
            try:
                frame = transport.recv(timeout=timeout)
            except TransportError:
                return
            except CodecError as exc:
                # The byte stream has lost its framing: report it and hang up.
                reply = wire.make_error(wire.ErrorCode.MALFORMED, str(exc), 0, 0)
                try:
                    transport.send(reply)
                except TransportError:
                    pass
                return
            try:
                if allowed is not None and frame.msg_type not in allowed:
                    raise ProtocolError(
                        f"a {role} link cannot send {frame.msg_type.name}"
                    )
                reply = self.handle(frame, cache)
            except Exception as exc:  # the connection outlives any one request
                reply = _error_reply(exc, frame)
            # Drop the frame before waiting for the next one: a refused
            # DEPLOY_MODEL frame holds a whole container, and an accepted
            # one must live only as long as the θ′ it carries.
            del frame
            try:
                transport.send(reply)
            except TransportError:
                return

    def state_bytes(self):
        if self.model is None:
            return b""
        return bytes(container.encode_model(self.model))


def check_generation(prompt_len, max_tokens):
    """Refuse a generation that P2 would cut short, before anything is sent.

    The last request of a generation reaches row prompt_len + max_tokens − 1
    of its sequence, which must stay within `transport.MAX_ROWS`; an empty
    prompt gives P2 no row to start from. Either raises InvalidDimensionError.
    """
    if prompt_len < 1:
        raise InvalidDimensionError("a generation needs at least one prompt token")
    if prompt_len + max_tokens - 1 > MAX_ROWS:
        raise InvalidDimensionError(
            f"{prompt_len} prompt tokens and {max_tokens} new ones reach row "
            f"{prompt_len + max_tokens - 1}, past the {MAX_ROWS}-row cap"
        )


class SentRows:
    """P3's mirror of the row table P2 keeps for its session (`RowTable`).

    `index` maps the permuted bytes of each row P2 keeps to its table
    index, and `sent` counts the rows sent literally, kept or not. Only
    permuted row bytes pick a reference, never a token id.
    """

    def __init__(self):
        self.index = {}
        self.sent = 0

    def references(self, x, start):
        """(refs, size) for a request of rows x at sequence position `start`.

        A row held in the table travels as a (position, index) reference;
        any other row is literal, and takes the next index while the table
        has room. `size` is `sent` before the request.
        """
        size = self.sent
        refs = []
        for pos, row in enumerate(x, start):
            key = row.tobytes()
            source = self.index.get(key)
            if source is not None:
                refs.append((pos, source))
                continue
            if self.sent < MAX_ROWS:
                self.index[key] = self.sent
            self.sent += 1
        return refs, size


class DataOwnerParty:
    """P3: on-device embedding, column permutation, and output recovery."""

    role = "DataOwner"

    def __init__(self, embedding_table, session_seed=None):
        self.embedding = embedding_table
        self.pi = None
        self.pi_c = None
        self.epoch = None
        self.session_id = _rand_session_id(session_seed)
        self.sent_rows = SentRows()

    def new_session(self):
        """Draw a new session id and drop the row table: P2 starts a new one."""
        self.session_id = _rand_session_id()
        self.sent_rows = SentRows()

    def handle_deploy_keys(self, frame):
        """Install {π, π_c}, or raise StaleEpochError unless the epoch advances P3's."""
        if frame.msg_type is not wire.MsgType.DEPLOY_KEYS:
            raise ProtocolError(f"expected DEPLOY_KEYS, got {frame.msg_type.name}")
        pset, epoch = container.decode_keys(frame.payload)
        if pset.per_layer:
            raise ProtocolError(
                "data owner must only receive the shared half of the key set"
            )
        if epoch != frame.epoch:
            raise ProtocolError(
                f"keys payload epoch {epoch} != frame epoch {frame.epoch}"
            )
        if self.epoch is not None and epoch <= self.epoch:
            raise StaleEpochError(f"keys epoch {epoch} does not advance {self.epoch}")
        self.pi = pset.pi
        self.pi_c = pset.pi_c
        self.epoch = epoch
        self.sent_rows = SentRows()  # P2 keys its table by epoch too
        return wire.make_ack(self.epoch, frame.session_id)

    def infer_request(self, token_ids, start=0, mode=wire.ReplyMode.ALL, sent=None):
        """Embed on-device, permute columns by π, frame the request.

        start > 0 makes a decode step: token_ids follow the `start` rows P2
        already holds for this link. `mode` names the reply P2 sends.

        `sent`, a `SentRows`, mirrors the row table P2 keeps for this
        session: a row found there travels as a reference to its index
        (`wire.make_infer_request`), and the request's literal rows join it.
        Without one every row travels literally. P2 adds them to its table
        all the same, so P3's own mirror (`sent_rows`) no longer matches it,
        and the next `generate` draws a new session.
        """
        if self.pi is None:
            raise NotInitializedError("no shared keys deployed")
        x = apply_col_perm(embed(token_ids, self.embedding), self.pi)
        refs, size = (), 0
        if sent is None:
            self.sent_rows = None
        else:
            refs, size = sent.references(x, start)
        return wire.make_infer_request(
            x, self.epoch, self.session_id, start, mode, refs, size
        )

    def recover(self, frame, mode=wire.ReplyMode.ALL):
        """o = o′ π_cᵀ for an ALL reply; `mode` is the one the request named.

        A TOP1 reply becomes a 1×s row that is 1 at the original classes P2
        named (class `pi_c.indices[i]` for index i) and 0 elsewhere, so its
        argmax, lowest index first, is the argmax of o's last row.
        """
        if self.pi_c is None:
            raise NotInitializedError("no shared keys deployed")
        if frame.msg_type is wire.MsgType.ERROR:
            code, detail = wire.decode_error_payload(frame.payload)
            if code == wire.ErrorCode.STALE_EPOCH:
                raise StaleEpochError(detail)
            raise ProtocolError(f"server error {code}: {detail}")
        if frame.msg_type is not wire.MsgType.INFER_RESPONSE:
            raise ProtocolError(f"expected INFER_RESPONSE, got {frame.msg_type.name}")
        if frame.epoch != self.epoch:
            raise StaleEpochError(
                f"response epoch {frame.epoch}, session epoch {self.epoch}"
            )
        if mode == wire.ReplyMode.TOP1:
            s = self.pi_c.dim
            top = self.pi_c.indices[wire.decode_top1_response(frame.payload, s)]
            row = np.zeros((1, s), dtype=DTYPE)
            row[0, top] = 1
            return row
        return recover_output(wire.decode_matrix(frame.payload), self.pi_c)

    def generate(
        self,
        prompt_ids,
        max_tokens,
        transport,
        transcript=None,
        timeout=RECV_TIMEOUT,
    ):
        """Autoregressive loop: one request/response round per generated token.

        The first round sends the whole prompt; each later round sends only
        the last token, continuing the rows P2 holds for this link. A row P2
        already holds in its table for this session travels as a reference
        (`sent_rows`, kept across calls until the keys change). Every round
        asks for a TOP1 reply. An empty prompt, or one that with max_tokens
        would pass `transport.MAX_ROWS` rows, raises InvalidDimensionError
        before any frame is sent (`check_generation`). A transport fault, a
        server Error frame or a malformed reply raises
        AbortedGenerationError carrying the tokens generated so far. A
        generation that ends by any exception draws a new session
        (`new_session`), so no table P2 may hold, or lack, is named again.
        """
        top1 = wire.ReplyMode.TOP1
        ids = [int(t) for t in prompt_ids]
        check_generation(len(ids), max_tokens)
        if self.sent_rows is None or self.sent_rows.sent > _U32_MAX - len(ids) - max_tokens:
            self.new_session()  # the mirror is stale, or its count would pass a u32
        out = []
        try:
            for _ in range(max_tokens):
                if out:
                    req = self.infer_request(
                        ids[-1:], start=len(ids) - 1, mode=top1, sent=self.sent_rows
                    )
                else:
                    req = self.infer_request(ids, mode=top1, sent=self.sent_rows)
                try:
                    transport.send(req)
                    if transcript is not None:
                        transcript.log("P3->P2", req)
                    resp = transport.recv(timeout=timeout)
                except TransportError as exc:
                    raise AbortedGenerationError(str(exc), out) from exc
                if transcript is not None:
                    transcript.log("P2->P3", resp)
                try:
                    o = self.recover(resp, top1)
                except (ProtocolError, CodecError) as exc:
                    raise AbortedGenerationError(str(exc), out) from exc
                nxt = greedy_decode_step(o)
                ids.append(nxt)
                out.append(nxt)
        except BaseException:
            self.new_session()
            raise
        return out

    def state_bytes(self):
        out = self.embedding.table.astype("<f4").tobytes()
        if self.pi is not None:
            out += self.pi.indices.astype("<u4").tobytes()
            out += self.pi_c.indices.astype("<u4").tobytes()
        return out


def _widen_dense(model):
    """Cast the model's dense matrices to float64 in place, one tensor at a time.

    Widened: W_q, W_k, W_v and W_o of every layer, a dense layer's W_1, W_2
    and W_3, and W_c, last, so a float64 W_c marks the model widened. Each
    copy replaces a float32 view into the deploy payload. `numerics.matmul` takes
    a float64 operand as it is and computes in float64 anyway, so every
    product gives the same bytes. MoE experts and W_g stay float32 views:
    the experts are most of an MoE model's bytes. The norm vectors become
    float32 copies, so a dense θ′ no longer keeps the payload alive.
    """
    for w in model.layers:
        for name in ("w_q", "w_k", "w_v", "w_o"):
            setattr(w, name, getattr(w, name).astype(np.float64))
        for name in ("gamma_1", "gamma_2", "beta_1", "beta_2"):
            t = getattr(w, name)
            if t is not None:
                setattr(w, name, t.copy())
        if w.ffn is not None:
            for name in ("w1", "w2", "w3"):
                t = getattr(w.ffn, name)
                if t is not None:
                    setattr(w.ffn, name, t.astype(np.float64))
    model.w_c = model.w_c.astype(np.float64)


def _argmax_set(row):
    """Indices where `row` equals its maximum; a NaN row has none to name."""
    top = np.max(row)
    if not np.isfinite(top):
        raise DegenerateRowError("classifier row has no finite maximum")
    return np.flatnonzero(row == top)


def _error_reply(exc, frame):
    """Error frame for a fault raised while handling `frame`."""
    for kinds, code in _ERROR_CODES:
        if isinstance(exc, kinds):
            return wire.make_error(code, str(exc), frame.epoch, frame.session_id)
    if isinstance(exc, StipError):
        detail = str(exc)
    else:
        _log.exception("server fault on %s", frame.msg_type.name)
        detail = f"internal error ({type(exc).__name__})"
    return wire.make_error(
        wire.ErrorCode.INTERNAL, detail, frame.epoch, frame.session_id
    )


def _expect_ack(frame):
    if frame.msg_type is wire.MsgType.ERROR:
        code, detail = wire.decode_error_payload(frame.payload)
        raise ProtocolError(f"deployment rejected ({code}): {detail}")
    if frame.msg_type is not wire.MsgType.ACK:
        raise ProtocolError(f"expected ACK, got {frame.msg_type.name}")


class _ServerHost:
    """Runs a ServerParty on exactly two client links, `p1_link` and `p3_link`.

    Each link is served in its party's role (`LINK_ROLES`): P3's link cannot
    deploy or re-key, and P1's cannot ask for inference.

    Both links are opened here: an `inproc_pair` each, or over TCP a
    `listen` -> `connect` -> `accept` per link, whose listener is closed
    before any frame is sent, so no other peer can connect. P2 serves each
    link on its own thread until the client end closes; `shutdown` closes
    both links and joins both threads.
    """

    def __init__(self, p2, transport_kind, latency, timeout, host="127.0.0.1"):
        self.p2 = p2
        self.timeout = timeout
        self._threads = []
        links = []
        try:
            for role in ("P1", "P3"):
                if transport_kind == "inproc":
                    near, far = inproc_pair(latency)
                else:
                    near, far = self._tcp_pair(host, latency)
                links.append(near)
                t = threading.Thread(
                    target=self._serve, args=(far, role), daemon=True
                )
                t.start()
                self._threads.append(t)
        except BaseException:
            for link in links:
                link.close()
            raise
        self.p1_link, self.p3_link = links

    def _tcp_pair(self, host, latency):
        with listen(host, 0) as srv:
            near = connect(host, srv.getsockname()[1], latency)
            try:
                return near, accept(srv, latency, timeout=self.timeout)
            except BaseException:
                near.close()
                raise

    def _serve(self, conn, role):
        self.p2.serve_loop(conn, timeout=None, role=role)
        conn.close()

    def shutdown(self):
        for link in (self.p1_link, self.p3_link):
            link.close()
        for t in self._threads:
            t.join(timeout=self.timeout)


def _send_for_ack(link, frame, transcript, timeout):
    """Send one of P1's frames over its `link` and expect P2's ACK."""
    link.send(frame)
    if transcript is not None:
        transcript.log("P1->P2", frame)
    _expect_ack(link.recv(timeout=timeout))


def deploy(link, p3, to_p2, to_p3, transcript=None, timeout=RECV_TIMEOUT):
    """Send θ′ to P2 over P1's `link` and expect its ACK, then hand {π, π_c} to P3.

    The link stays open, so one P1 link carries every deploy of a run.
    """
    _send_for_ack(link, to_p2, transcript, timeout)
    if transcript is not None:
        transcript.log("P1->P3", to_p3)
    _expect_ack(p3.handle_deploy_keys(to_p3))


def run_simulation(
    params,
    prompts,
    max_tokens,
    transport_kind="inproc",
    latency=0.0,
    seed=0,
    rekey_between=False,
    host="127.0.0.1",
    timeout=RECV_TIMEOUT,
):
    """Full protocol run: deploy, then greedy generation for each prompt.

    With `rekey_between`, P1 re-keys once, halfway through the prompts: it
    sends P2 a REKEY notice retiring the old epoch, then deploys anew. The
    server answers only through the chosen transport on its own threads.
    Returns (list of token streams, Transcript).
    """
    if transport_kind not in ("inproc", "socket"):
        raise ProtocolError(f"unknown transport kind {transport_kind!r}")
    p1 = DeveloperParty(params, session_seed=seed)
    p2 = ServerParty()
    p3 = DataOwnerParty(params.embedding, session_seed=seed + 1)
    transcript = Transcript()
    hub = _ServerHost(p2, transport_kind, latency, timeout, host)
    streams = []
    try:
        deploy(
            hub.p1_link, p3, *p1.initialize(seed), transcript=transcript, timeout=timeout
        )
        for i, prompt in enumerate(prompts):
            if rekey_between and i == max(1, len(prompts) // 2) and i > 0:
                to_p2, to_p3 = p1.rekey(seed + 1000 + i)
                # P2 drops the retired θ′ before the next one reaches it
                _send_for_ack(hub.p1_link, p1.rekey_notice(), transcript, timeout)
                deploy(
                    hub.p1_link, p3, to_p2, to_p3, transcript=transcript, timeout=timeout
                )
            streams.append(
                p3.generate(prompt, max_tokens, hub.p3_link, transcript, timeout=timeout)
            )
    finally:
        hub.shutdown()
    return streams, transcript
