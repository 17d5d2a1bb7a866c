"""Desk-scale single-head Transformer inference engine.

Covers post/pre-norm placement, LayerNorm/RMSNorm, ReLU/GeLU/SwiGLU feedforward,
top-k mixture-of-experts routing, and none/causal/custom attention masks. All
forward passes are pure functions over immutable weights; incremental decoding
keeps its per-sequence state in a `KVCache` the caller owns.
"""

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import (
    InvalidConfigError,
    InvalidDimensionError,
    MissingWeightError,
    UnknownTokenError,
)
from .numerics import (
    DTYPE,
    NEG_INF,
    ColumnConcat,
    as_matrix,
    gelu,
    layernorm,
    matmul,
    relu,
    rmsnorm,
    sigmoid,
    softmax_rows,
)

MOE_TOP_K = 2  # reference routing width


class NormKind(str, Enum):
    LAYERNORM = "layernorm"
    RMSNORM = "rmsnorm"


class NormPlacement(str, Enum):
    POST = "post"
    PRE = "pre"


class FfnKind(str, Enum):
    RELU = "relu"
    GELU = "gelu"
    SWIGLU = "swiglu"


class MaskKind(str, Enum):
    NONE = "none"
    CAUSAL = "causal"
    CUSTOM = "custom"


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int
    d_model: int
    d_ff: int
    vocab_size: int
    attn_scale: float
    norm_kind: NormKind = NormKind.LAYERNORM
    norm_placement: NormPlacement = NormPlacement.POST
    ffn_kind: FfnKind = FfnKind.RELU
    n_experts: int = 0
    mask_kind: MaskKind = MaskKind.CAUSAL

    def __post_init__(self):
        if self.n_layers < 1:
            raise InvalidConfigError(f"n_layers must be >= 1, got {self.n_layers}")
        if self.d_model < 2:
            raise InvalidConfigError(f"d_model must be >= 2, got {self.d_model}")
        if self.d_ff < 1:
            raise InvalidConfigError(f"d_ff must be >= 1, got {self.d_ff}")
        if self.vocab_size < 2:
            raise InvalidConfigError(f"vocab_size must be >= 2, got {self.vocab_size}")
        if not (math.isfinite(self.attn_scale) and self.attn_scale > 0):
            raise InvalidConfigError(
                f"attn_scale must be finite and > 0, got {self.attn_scale}"
            )
        if self.n_experts != 0 and self.n_experts < 2:
            raise InvalidConfigError(
                f"n_experts must be 0 (dense) or >= 2, got {self.n_experts}"
            )

    @property
    def is_moe(self):
        return self.n_experts >= 2


@dataclass
class FfnWeights:
    """One feedforward block: W_1 (d x m), W_2 (m x d), optional gate-path W_3."""

    w1: np.ndarray
    w2: np.ndarray
    w3: np.ndarray | None = None


@dataclass
class LayerWeights:
    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray
    ffn: FfnWeights | None
    gamma_1: np.ndarray
    gamma_2: np.ndarray
    beta_1: np.ndarray | None = None
    beta_2: np.ndarray | None = None
    w_g: np.ndarray | None = None
    experts: tuple = ()


@dataclass
class EmbeddingTable:
    table: np.ndarray

    @property
    def vocab_size(self):
        return int(self.table.shape[0])

    @property
    def d_model(self):
        return int(self.table.shape[1])


@dataclass
class ModelParams:
    config: ModelConfig
    embedding: EmbeddingTable | None  # None in the served form P2 holds
    layers: list
    w_c: np.ndarray


@dataclass
class Mask:
    kind: MaskKind
    values: np.ndarray | None = None  # n x n of {0, -inf}, custom only

    def __post_init__(self):
        if self.kind is MaskKind.CUSTOM:
            if self.values is None:
                raise InvalidConfigError("custom mask requires explicit values")
            v = as_matrix(self.values)
            if v.shape[0] != v.shape[1]:
                raise InvalidDimensionError(f"mask must be square, got {v.shape}")
            legal = (v == 0) | np.isneginf(v)
            if not np.all(legal):
                raise InvalidConfigError("custom mask entries must be 0 or -inf")
            self.values = v
        elif self.values is not None:
            raise InvalidConfigError(f"{self.kind.value} mask carries no values")


def causal_mask_values(n, past=0):
    """n x (past + n) mask: row i sees columns 0..past+i (0), the rest are -inf.

    past = 0 gives the square causal mask; past > 0 masks n rows appended
    after `past` cached ones.
    """
    m = np.zeros((n, past + n), dtype=DTYPE)
    m[np.triu_indices(n, k=past + 1, m=past + n)] = NEG_INF
    return m


def make_mask(kind, n=None, values=None, seed=None, block_prob=0.3):
    """Build a Mask; custom kind takes explicit values or a seed to draw random ones."""
    kind = MaskKind(kind)
    if kind is MaskKind.CUSTOM and values is None:
        if seed is None or n is None:
            raise InvalidConfigError("random custom mask needs n and seed")
        values = random_custom_mask(n, seed, block_prob).values
    return Mask(kind, values if kind is MaskKind.CUSTOM else None)


def random_custom_mask(n, seed, block_prob=0.3):
    """Random sparse mask; the diagonal stays open so no row is fully blocked."""
    rng = np.random.default_rng(seed)
    blocked = rng.random((n, n)) < block_prob
    np.fill_diagonal(blocked, False)
    values = np.where(blocked, NEG_INF, 0.0).astype(DTYPE)
    return Mask(MaskKind.CUSTOM, values)


def mask_values_for(mask, n, past=0, last_row=False):
    """The additive n x (past + n) mask matrix, or None when nothing is masked.

    A single causal row sees every column up to itself, so it needs no mask.
    With last_row, only the last of the n rows: none for a causal mask, whose
    last row sees every column.
    """
    if mask.kind is MaskKind.NONE:
        return None
    if mask.kind is MaskKind.CAUSAL:
        return causal_mask_values(n, past) if n > 1 and not last_row else None
    if past:
        raise InvalidConfigError("a custom mask has a fixed size; it cannot extend a cache")
    if mask.values.shape[0] != n:
        raise InvalidDimensionError(
            f"custom mask is {mask.values.shape[0]}x{mask.values.shape[0]}, need {n}"
        )
    return mask.values[-1:] if last_row else mask.values


def embed(token_ids, table):
    """Row j of the output is the embedding of token_ids[j]."""
    ids = np.asarray(token_ids, dtype=np.int64)
    if ids.ndim != 1:
        raise InvalidDimensionError("token ids must be a flat sequence")
    if ids.size and (ids.min() < 0 or ids.max() >= table.vocab_size):
        raise UnknownTokenError(
            f"token id out of range 0..{table.vocab_size - 1}"
        )
    return table.table[ids, :]


class _Rows:
    """A matrix of `dtype` that grows by appended rows.

    Its buffer doubles when full, but while the rows fit within `cap` it
    grows no further than `cap` rows.
    """

    def __init__(self, dtype, cap=None):
        self.dtype = dtype
        self.cap = cap
        self._buf = None
        self.n = 0

    def write(self, rows):
        """Write rows, cast to the buffer's dtype, after the n held, without
        holding them; returns a view of the held rows and these."""
        n = self.n + rows.shape[0]
        if self._buf is None or n > self._buf.shape[0]:
            size = max(n, 2 * self.n)
            if self.cap is not None and n <= self.cap:
                size = min(size, self.cap)
            buf = np.empty((size, rows.shape[1]), dtype=self.dtype)
            if self.n:
                buf[: self.n] = self._buf[: self.n]
            self._buf = buf
        self._buf[self.n : n] = rows
        return self._buf[:n]

    def append(self, rows):
        """Append rows, cast to the buffer's dtype; returns a view of every row so far."""
        out = self.write(rows)
        self.n = out.shape[0]
        return out


class LayerKV:
    """K and V rows of one layer for the rows of a sequence computed so far.

    The rows arrive as float32 and are kept as float64, widened once here,
    so `attention` hands the whole cached prefix to `matmul` without a cast.
    """

    def __init__(self, cap=None):
        self._k = _Rows(np.float64, cap)
        self._v = _Rows(np.float64, cap)

    @property
    def rows(self):
        return self._k.n

    def append(self, k, v):
        """Add the new rows' keys and values; returns (K, V) over all rows."""
        return self._k.append(k), self._v.append(v)


class KVCache:
    """Decoding state of one sequence, so later rows need not recompute earlier ones.

    Causal mask: K and V per layer, which later rows never change, kept as
    float64 copies of the float32 rows.
    Mask none: every output row depends on every input row, so earlier
    outputs change as rows arrive; the cache keeps the input rows and
    `model_forward` recomputes over all of them.
    A forward pass that raises leaves the cache partly extended: drop it.
    `cap`, the most rows the sequence may reach, bounds how far a buffer
    grows ahead of its rows (`_Rows`).
    """

    def __init__(self, n_layers, cap=None):
        self.rows = 0
        self.inputs = _Rows(DTYPE, cap)
        self.layers = [LayerKV(cap) for _ in range(n_layers)]


def attention(x, w, mask, scale, kv=None, last_row=False):
    """SoftMax(QKᵀ/√k + M)·V·W_o with Q=xW_q, K=xW_k, V=xW_v.

    With a LayerKV, x holds the rows after the cached ones: K and V cover the
    cached rows and x, Q covers x only, and kv gains x's keys and values.
    With last_row, Q and the output cover x's last row only; K and V still
    cover every row.
    """
    x = as_matrix(x)
    n = x.shape[0]
    q = matmul(x[-1:] if last_row else x, w.w_q)
    k = matmul(x, w.w_k)
    v = matmul(x, w.w_v)
    past = 0
    if kv is not None:
        past = kv.rows
        k, v = kv.append(k, v)
    scores = matmul(q, k.T) / np.float32(math.sqrt(scale))
    mv = mask_values_for(mask, n, past, last_row)
    if mv is not None:
        scores = scores + mv
    return matmul(matmul(softmax_rows(scores), v), w.w_o)


def ffn_forward(v, fw, kind):
    """Feedforward block: act(vW_1)W_2, or the SwiGLU gate (vW_1 ∘ σ(vW_1) ∘ vW_3)W_2.

    SwiGLU makes vW_1 and vW_3 as one product, v·[W_1 | W_3] over a
    `ColumnConcat` that copies neither, and reads the gate and up halves from
    its 2m columns.
    """
    kind = FfnKind(kind)
    if kind is FfnKind.SWIGLU:
        if fw.w3 is None:
            raise MissingWeightError("swiglu requires W_3")
        m = np.shape(fw.w1)[1]
        if np.shape(fw.w3) != np.shape(fw.w1):
            raise InvalidDimensionError(
                f"W_3 is {np.shape(fw.w3)}, W_1 is {np.shape(fw.w1)}"
            )
        h = matmul(v, ColumnConcat(fw.w1, fw.w3))
        a = h[:, :m]
        return matmul(a * sigmoid(a) * h[:, m:], fw.w2)
    act = relu if kind is FfnKind.RELU else gelu
    return matmul(act(matmul(v, fw.w1)), fw.w2)


def router_selection(v, w_g, top_k):
    """Top-k expert routing: (indices n x k, renormalized weights n x k, probs n x e).

    Selection is by logit with ties broken toward the lower expert index; the
    softmax weights of the selected experts are renormalized to sum to 1.
    Logits accumulate in float64 so the ranking is stable under summation-order
    changes (column-permuted inputs sum the same terms in a different order).
    """
    logits = np.matmul(as_matrix(v).astype(np.float64), w_g.astype(np.float64))
    e = logits.shape[1]
    if not 1 <= top_k <= e:
        raise InvalidConfigError(f"top_k {top_k} out of range 1..{e}")
    probs = softmax_rows(logits.astype(DTYPE))
    order = np.argsort(-logits, axis=1, kind="stable")
    sel = order[:, :top_k]
    sel_w = np.take_along_axis(probs, sel, axis=1)
    sel_w = sel_w / np.sum(sel_w, axis=1, keepdims=True, dtype=np.float64)
    return sel, sel_w.astype(DTYPE), probs


def moe_ffn(v, w, kind, top_k=MOE_TOP_K):
    """Mixture-of-experts feedforward: weighted sum of top-k expert outputs."""
    if len(w.experts) < 2:
        raise InvalidConfigError("moe_ffn needs at least 2 experts")
    if w.w_g is None:
        raise MissingWeightError("moe_ffn requires router weights W_g")
    v = as_matrix(v)
    sel, sel_w, _ = router_selection(v, w.w_g, top_k)
    outs = np.stack([ffn_forward(v, fw, kind) for fw in w.experts])
    n = v.shape[0]
    rows = np.arange(n)
    acc = np.zeros((n, outs.shape[2]), dtype=np.float64)
    for r in range(sel.shape[1]):
        acc += sel_w[:, r, None].astype(np.float64) * outs[sel[:, r], rows, :]
    return acc.astype(DTYPE)


def _norm(x, gamma, beta, cfg):
    if cfg.norm_kind is NormKind.RMSNORM:
        return rmsnorm(x, gamma)
    return layernorm(x, gamma, beta)


def _ffn_dispatch(v, w, cfg):
    if cfg.is_moe:
        return moe_ffn(v, w, cfg.ffn_kind)
    if w.ffn is None:
        raise MissingWeightError("dense layer is missing its feedforward weights")
    return ffn_forward(v, w.ffn, cfg.ffn_kind)


def layer_forward(x, w, cfg, mask, kv=None, last_row=False):
    """One Transformer layer in the configured placement.

    post: v = norm(attn(x) + x), y = norm(ffn(v) + v)
    pre:  v = attn(norm(x)) + x, y = ffn(norm(v)) + v

    kv, a LayerKV, makes x the rows after the cached ones (see `attention`).
    last_row makes y the output's last row alone: only K and V (and, pre-norm,
    the norm feeding them) run on every row.
    """
    x = as_matrix(x)
    if x.shape[1] != cfg.d_model:
        raise InvalidDimensionError(f"input cols {x.shape[1]} != d_model {cfg.d_model}")
    post = cfg.norm_placement is NormPlacement.POST
    attn_in = x if post else _norm(x, w.gamma_1, w.beta_1, cfg)
    u = attention(attn_in, w, mask, cfg.attn_scale, kv, last_row)
    if last_row:
        x = x[-1:]
    if post:
        v = _norm(u + x, w.gamma_1, w.beta_1, cfg)
        ffn_in = v
    else:
        v = u + x
        ffn_in = _norm(v, w.gamma_2, w.beta_2, cfg)
    z = _ffn_dispatch(ffn_in, w, cfg)
    return _norm(z + v, w.gamma_2, w.beta_2, cfg) if post else z + v


def model_forward(x, params, mask, cache=None, last_row=False):
    """All layers then the softmax classifier; rows of the output sum to 1.

    An MoE layer routes each row to its `MOE_TOP_K` best experts.

    x must hold at least one row. With a KVCache, x continues the sequence
    the cache holds, the output covers x's rows only, and the cache then
    holds x as well.

    last_row returns the output's last row alone, as one row, for a caller
    that reads nothing else (a greedy step, a TOP1 reply). Every layer but the
    last runs as usual; the last one computes K and V over every row, so the
    cache is extended exactly as by a full pass, and Q, W_o, the norms, the
    FFN/MoE and the classifier over the last row only.
    """
    cfg = params.config
    y = as_matrix(x)
    new_rows = y.shape[0]
    if new_rows == 0:
        raise InvalidDimensionError("a forward pass needs at least one input row")
    kvs = [None] * len(params.layers)
    if cache is not None:
        if len(cache.layers) != len(params.layers):
            raise InvalidConfigError(
                f"cache has {len(cache.layers)} layers, model {len(params.layers)}"
            )
        if mask.kind is MaskKind.NONE:
            y = cache.inputs.append(y)
        else:
            kvs = cache.layers
    last = len(params.layers) - 1
    for i, (w, kv) in enumerate(zip(params.layers, kvs)):
        y = layer_forward(y, w, cfg, mask, kv, last_row and i == last)
    if cache is not None:
        cache.rows += new_rows
        if not last_row:
            y = y[y.shape[0] - new_rows :]
    return softmax_rows(matmul(y, params.w_c))


def greedy_decode_step(o):
    """Argmax of the last output row; ties resolve to the lowest index."""
    o = as_matrix(o)
    if o.size == 0:
        raise InvalidDimensionError("empty classifier output")
    return int(np.argmax(o[-1]))


def greedy_generate(params, prompt_ids, max_tokens):
    """Local greedy decoding: one prefill, then one row per token through a KVCache.

    The same `model_forward` steps P2 takes, without the permutations.
    """
    cfg = params.config
    if cfg.mask_kind is MaskKind.CUSTOM:
        raise InvalidConfigError(
            "generation needs a none/causal mask; custom masks have fixed size"
        )
    mask = make_mask(cfg.mask_kind)
    cache = KVCache(len(params.layers))
    new = [int(t) for t in prompt_ids]
    out = []
    for _ in range(max_tokens):
        x = embed(new, params.embedding)
        o = model_forward(x, params, mask, cache=cache, last_row=True)
        new = [greedy_decode_step(o)]
        out.extend(new)
    return out


def _gauss(rng, shape, scale):
    return rng.normal(0.0, scale, size=shape).astype(DTYPE)


def gen_ffn_weights(rng, cfg):
    scale = 1.0 / math.sqrt(cfg.d_model)
    w3 = None
    if cfg.ffn_kind is FfnKind.SWIGLU:
        w3 = _gauss(rng, (cfg.d_model, cfg.d_ff), scale)
    return FfnWeights(
        w1=_gauss(rng, (cfg.d_model, cfg.d_ff), scale),
        w2=_gauss(rng, (cfg.d_ff, cfg.d_model), scale),
        w3=w3,
    )


def gen_model(cfg, seed):
    """Random desk model: Gaussian weights at scale 1/√d, near-identity norms."""
    rng = np.random.default_rng(seed)
    d = cfg.d_model
    scale = 1.0 / math.sqrt(d)
    layers = []
    for _ in range(cfg.n_layers):
        use_beta = cfg.norm_kind is NormKind.LAYERNORM
        ffn = None
        experts = ()
        w_g = None
        if cfg.is_moe:
            experts = tuple(gen_ffn_weights(rng, cfg) for _ in range(cfg.n_experts))
            w_g = _gauss(rng, (d, cfg.n_experts), scale)
        else:
            ffn = gen_ffn_weights(rng, cfg)
        layers.append(
            LayerWeights(
                w_q=_gauss(rng, (d, d), scale),
                w_k=_gauss(rng, (d, d), scale),
                w_v=_gauss(rng, (d, d), scale),
                w_o=_gauss(rng, (d, d), scale),
                ffn=ffn,
                gamma_1=(1.0 + 0.1 * rng.normal(size=d)).astype(DTYPE),
                gamma_2=(1.0 + 0.1 * rng.normal(size=d)).astype(DTYPE),
                beta_1=(0.1 * rng.normal(size=d)).astype(DTYPE) if use_beta else None,
                beta_2=(0.1 * rng.normal(size=d)).astype(DTYPE) if use_beta else None,
                w_g=w_g,
                experts=experts,
            )
        )
    return ModelParams(
        config=cfg,
        embedding=EmbeddingTable(_gauss(rng, (cfg.vocab_size, d), scale)),
        layers=layers,
        w_c=_gauss(rng, (d, cfg.vocab_size), scale),
    )
