"""Run-time tracing of stip's public functions, from outside the package.

`Tracer.install()` replaces module attributes and class methods with wrappers
that record a span per call: id, parent span, name, start, end, session, side
(client or server thread) and one size, rows or bytes, where the call has one.
`matmul` is hot, so it only bumps counters (calls, seconds, flops from shapes).
`uninstall()` puts every original back. Spans stay in memory; `write_jsonl`
writes them when the run ends, one flat record per line.

Telemetry is metadata only: names, times, ids and sizes. No matrix value and
no permutation index is ever recorded.
"""

import itertools
import json
import statistics
import threading
import time

import numpy as np

import stip.container
import stip.model
import stip.protocol
import stip.transport
import stip.wire
from stip.model import MOE_TOP_K

from harness import frame_bytes

SPAN_FIELDS = ("id", "parent", "name", "start", "end", "session", "side", "size", "phase")

# Spans whose self times, inside P2's `serve`, make up its whole time.
CLOUD_SPANS = frozenset({
    "protocol.serve",
    "model.forward",
    "model.layer",
    "model.attention",
    "model.ffn",
    "model.moe",
    "model.norm",
    "wire.encode_matrix",
    "wire.decode_matrix",
})

DEPLOY_SPANS = {
    "transform.keygen": "transform.keygen_ms",
    "transform.para_trans": "transform.para_trans_ms",
    "container.encode_model": "container.encode_model_ms",
    "container.decode_model": "container.decode_model_ms",
    "protocol.p1_deploy": "protocol.p1_deploy_ms",
    "protocol.p2_deploy": "protocol.p2_deploy_ms",
}


def _rows(args, kwargs, result):
    return int(np.shape(args[0])[0])


def _sent(args, kwargs, result):
    return frame_bytes(args[1])


def _received(args, kwargs, result):
    return frame_bytes(result)


def _encoded(args, kwargs, result):
    return len(result)


# (owner, attribute, span name, size of the call from (args, kwargs, result))
_TARGETS = (
    (stip.protocol.DeveloperParty, "initialize", "protocol.p1_deploy", None),
    (stip.protocol.ServerParty, "handle_deploy", "protocol.p2_deploy", None),
    (stip.protocol.ServerParty, "serve", "protocol.serve", None),
    (stip.protocol.DataOwnerParty, "handle_deploy_keys", "protocol.p3_deploy", None),
    (stip.protocol.DataOwnerParty, "infer_request", "protocol.p3_encode", None),
    (stip.protocol.DataOwnerParty, "recover", "protocol.p3_recover", None),
    (stip.protocol, "greedy_decode_step", "protocol.p3_argmax", None),
    (stip.protocol, "gen_permutation_set", "transform.keygen", None),
    (stip.protocol, "para_trans", "transform.para_trans", None),
    (stip.container, "encode_model", "container.encode_model", _encoded),
    (stip.container, "decode_model", "container.decode_model", None),
    (stip.protocol, "model_forward", "model.forward", _rows),
    (stip.model, "layer_forward", "model.layer", None),
    (stip.model, "attention", "model.attention", None),
    (stip.model, "ffn_forward", "model.ffn", _rows),
    (stip.model, "moe_ffn", "model.moe", None),
    (stip.model, "layernorm", "model.norm", None),
    (stip.model, "rmsnorm", "model.norm", None),
    (stip.wire, "encode_matrix", "wire.encode_matrix", None),
    (stip.wire, "decode_matrix", "wire.decode_matrix", None),
    (stip.transport.InProcTransport, "send", "transport.send", _sent),
    (stip.transport.InProcTransport, "recv", "transport.recv", _received),
    (stip.transport.SocketTransport, "send", "transport.send", _sent),
    (stip.transport.SocketTransport, "recv", "transport.recv", _received),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.session = None  # set by the driver around each session
        self.phase = "setup"
        self.matmul_calls = 0
        self.matmul_s = 0.0
        self.matmul_flop = 0
        self.moe_useful_rows = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved = []

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _wrap(self, fn, name, size):
        tracer = self

        def traced(*args, **kwargs):
            st = tracer._stack()
            sid = next(tracer._ids)
            parent = st[-1] if st else None
            st.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                st.pop()
            n = size(args, kwargs, result) if size is not None else None
            main = threading.current_thread() is threading.main_thread()
            side = "client" if main else "server"
            tracer.spans.append(
                (sid, parent, name, t0, t1, tracer.session, side, n, tracer.phase)
            )
            return result

        return traced

    def _wrap_matmul(self, fn):
        tracer = self

        def counted(a, b, *args, **kwargs):
            t0 = time.perf_counter()
            out = fn(a, b, *args, **kwargs)
            dt = time.perf_counter() - t0
            sa, sb = np.shape(a), np.shape(b)
            m, k, n = (sa[0] if len(sa) == 2 else 1), sa[-1], sb[-1]
            with tracer._lock:
                tracer.matmul_calls += 1
                tracer.matmul_s += dt
                tracer.matmul_flop += 2 * int(m) * int(n) * int(k)
            return out

        return counted

    def _wrap_moe(self, fn):
        tracer = self

        def moe(*args, **kwargs):
            top_k = args[3] if len(args) > 3 else kwargs.get("top_k", MOE_TOP_K)
            with tracer._lock:
                tracer.moe_useful_rows += _rows(args, kwargs, None) * int(top_k)
            return fn(*args, **kwargs)

        return moe

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, size in _TARGETS:
            orig = vars(owner).get(attr)
            if orig is None:
                continue
            fn = orig
            if owner is stip.model and attr == "moe_ffn":
                fn = self._wrap_moe(fn)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(fn, name, size))
        if hasattr(stip.model, "matmul"):
            self._saved.append((stip.model, "matmul", stip.model.matmul))
            stip.model.matmul = self._wrap_matmul(stip.model.matmul)

    def uninstall(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved = []

    def reset_counters(self):
        with self._lock:
            self.matmul_calls = 0
            self.matmul_s = 0.0
            self.matmul_flop = 0
            self.moe_useful_rows = 0

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for sp in self.spans:
                f.write(json.dumps(dict(zip(SPAN_FIELDS, sp))) + "\n")


def self_times(spans):
    """Span id -> duration minus the time its direct children cover."""
    child = {}
    for sid, parent, _, t0, t1, *_ in spans:
        if parent is not None:
            child[parent] = child.get(parent, 0.0) + (t1 - t0)
    return {sp[0]: (sp[4] - sp[3]) - child.get(sp[0], 0.0) for sp in spans}


def layer_metrics(tracer, sessions):
    """Per-layer metrics of the traced timed sessions, per generated token.

    Deploy metrics are medians over every deployment traced in the run.
    """
    timed = [sp for sp in tracer.spans if sp[8] == "timed" and sp[5] is not None]
    own = self_times(timed)
    by_id = {sp[0]: sp for sp in timed}
    tok = max(sum(len(s.tokens) for s in sessions), 1)

    def total(name, side=None, self_time=False):
        return sum(
            own[sp[0]] if self_time else sp[4] - sp[3]
            for sp in timed
            if sp[2] == name and (side is None or sp[6] == side)
        )

    def size(name, side):
        return sum(sp[7] or 0 for sp in timed if sp[2] == name and sp[6] == side)

    def count(name, side):
        return sum(1 for sp in timed if sp[2] == name and sp[6] == side)

    def in_serve(sp):
        while sp is not None:
            if sp[2] == "protocol.serve":
                return True
            sp = by_id.get(sp[1])
        return False

    cloud = {}
    for sp in timed:
        if sp[2] in CLOUD_SPANS and in_serve(sp):
            cloud[sp[2]] = cloud.get(sp[2], 0.0) + own[sp[0]]
    serve_total = total("protocol.serve")
    coverage = sum(cloud.values()) / serve_total if serve_total > 0 else 0.0

    expert_rows = sum(
        sp[7] or 0
        for sp in timed
        if sp[2] == "model.ffn" and sp[1] in by_id and by_id[sp[1]][2] == "model.moe"
    )
    forward_rows = sum(sp[7] or 0 for sp in timed if sp[2] == "model.forward")
    round_trip = total("transport.send", "client") + total("transport.recv", "client")

    def deploy_ms(name):
        durs = [sp[4] - sp[3] for sp in tracer.spans if sp[2] == name]
        return 1e3 * statistics.median(durs) if durs else 0.0

    model_bytes = [sp[7] for sp in tracer.spans if sp[2] == "container.encode_model"]
    error_frames = sum(s.error_frames for s in sessions)

    m = {
        "model.rows_per_token": (forward_rows / tok, "rows/token"),
        "model.attention_s": (total("model.attention", self_time=True) / tok, "s/token"),
        "model.ffn_s": (total("model.ffn", self_time=True) / tok, "s/token"),
        "model.moe_s": (total("model.moe", self_time=True) / tok, "s/token"),
        "model.moe_useful_ratio": (
            tracer.moe_useful_rows / expert_rows if expert_rows else 1.0,
            "ratio",
        ),
        "model.norm_s": (total("model.norm", self_time=True) / tok, "s/token"),
        "model.classifier_s": (total("model.forward", self_time=True) / tok, "s/token"),
        "model.layer_self_s": (total("model.layer", self_time=True) / tok, "s/token"),
        "numerics.matmul_s": (tracer.matmul_s / tok, "s/token"),
        "numerics.matmul_calls": (tracer.matmul_calls / tok, "calls/token"),
        "numerics.matmul_gflop": (tracer.matmul_flop / 1e9 / tok, "GFLOP/token"),
        "container.model_bytes": (model_bytes[-1] if model_bytes else 0, "B"),
        "wire.encode_matrix_ms": (1e3 * total("wire.encode_matrix") / tok, "ms/token"),
        "wire.decode_matrix_ms": (1e3 * total("wire.decode_matrix") / tok, "ms/token"),
        "wire.request_bytes": (size("transport.send", "client") / tok, "B/token"),
        "wire.response_bytes": (size("transport.recv", "client") / tok, "B/token"),
        "wire.frames": (
            (count("transport.send", "client") + count("transport.recv", "client")) / tok,
            "frames/token",
        ),
        "protocol.p3_encode_ms": (1e3 * total("protocol.p3_encode") / tok, "ms/token"),
        "protocol.p3_recover_ms": (
            1e3 * (total("protocol.p3_recover") + total("protocol.p3_argmax")) / tok,
            "ms/token",
        ),
        "protocol.p2_serve_ms": (
            1e3 * total("protocol.serve", self_time=True) / tok,
            "ms/token",
        ),
        "protocol.round_trip_ms": (1e3 * round_trip / tok, "ms/token"),
        "protocol.error_frames": (error_frames, "count"),
        "transport.send_ms": (1e3 * total("transport.send") / tok, "ms/token"),
        "transport.recv_wait_ms": (
            1e3 * total("transport.recv", "client") / tok,
            "ms/token",
        ),
        "transport.overhead_ms": (1e3 * (round_trip - serve_total) / tok, "ms/token"),
        "trace.p2_serve_coverage": (coverage, "ratio"),
    }
    for name, metric in DEPLOY_SPANS.items():
        m[metric] = (deploy_ms(name), "ms")
    return m
