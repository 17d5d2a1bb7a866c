"""Shared fixtures and config factories."""

import struct
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import stip.model
from stip import numerics
from stip.container import FORMAT_VERSION, MODEL_MAGIC, config_to_bytes
from stip.model import FfnKind, MaskKind, ModelConfig, NormKind, NormPlacement
from stip.errors import DegenerateRowError, InvalidDimensionError
from stip.numerics import DTYPE, as_matrix, as_vector, matmul

settings.register_profile(
    "suite",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def make_config(
    n_layers=2,
    d_model=8,
    d_ff=16,
    vocab_size=12,
    attn_scale=None,
    norm_kind=NormKind.LAYERNORM,
    norm_placement=NormPlacement.POST,
    ffn_kind=FfnKind.RELU,
    n_experts=0,
    mask_kind=MaskKind.CAUSAL,
):
    return ModelConfig(
        n_layers=n_layers,
        d_model=d_model,
        d_ff=d_ff,
        vocab_size=vocab_size,
        attn_scale=float(d_model) if attn_scale is None else attn_scale,
        norm_kind=norm_kind,
        norm_placement=norm_placement,
        ffn_kind=ffn_kind,
        n_experts=n_experts,
        mask_kind=mask_kind,
    )


def overflowing_container(cfg):
    """A model container whose one tensor, W_c, declares dims (2**31, 2**31, 4).

    That is 2**64 elements, a count that wraps to 0 in 64-bit arithmetic;
    no payload follows.
    """
    head = struct.pack("<4sH", MODEL_MAGIC, FORMAT_VERSION) + config_to_bytes(cfg)
    return head + struct.pack("<H3sB3I", 3, b"W_c", 3, 2**31, 2**31, 4)


@contextmanager
def two_cores(min_elements, cpus=2, min_macs=None):
    """Split work of at least `min_elements` elements as on a host of `cpus` CPUs.

    With `cpus` None the host's own CPU count stands. `min_macs`, when
    given, replaces the multiply-adds at which a float64 product splits.
    Yields the list of halves handed to the helper thread meanwhile.
    """
    handed = []
    offer = numerics._Helper.offer

    def recorded(self, half):
        if not offer(self, half):
            return False
        handed.append(half)
        return True

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numerics, "SPLIT_MIN_ELEMENTS", min_elements)
        if min_macs is not None:
            mp.setattr(numerics, "SPLIT_MIN_MACS", min_macs)
        if cpus is not None:
            mp.setattr(numerics.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        mp.setattr(numerics._Helper, "offer", recorded)
        yield handed


def helper_idle(handed):
    """Every half in `handed` has ended, and the helper thread is running none."""
    return all(h.fn is None for h in handed) and not numerics._helper._busy


VARIANT_CONFIGS = {
    "post_ln_relu": dict(
        norm_kind=NormKind.LAYERNORM, norm_placement=NormPlacement.POST, ffn_kind=FfnKind.RELU
    ),
    "pre_ln_gelu": dict(
        norm_kind=NormKind.LAYERNORM, norm_placement=NormPlacement.PRE, ffn_kind=FfnKind.GELU
    ),
    "rms_swiglu": dict(
        norm_kind=NormKind.RMSNORM, norm_placement=NormPlacement.PRE, ffn_kind=FfnKind.SWIGLU
    ),
    "moe": dict(
        norm_kind=NormKind.LAYERNORM,
        norm_placement=NormPlacement.POST,
        ffn_kind=FfnKind.RELU,
        n_experts=4,
    ),
}


def sigmoid_scatter_oracle(x):
    """σ branch by branch: 1/(1 + e^−x) on the subset x ≥ 0, e^x/(1 + e^x) on the rest.

    Each subset is gathered and scattered back through a boolean mask. This is
    the reference that `numerics.sigmoid`, one branch-free pass, must match
    bit for bit.
    """
    x = as_matrix(x)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


# The row-wise primitives as they were before their per-call overhead was
# trimmed. `numerics.matmul`, `layernorm`, `rmsnorm` and `softmax_rows` must
# match them bit for bit wherever these accept the input.


def matmul_cast_oracle(a, b):
    """Both operands through as_matrix (float32), then cast to float64 and multiplied."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise InvalidDimensionError(f"matmul shapes {a.shape} x {b.shape}")
    return np.matmul(a.astype(np.float64), b.astype(np.float64)).astype(DTYPE)


def softmax_where_oracle(x):
    """Softmax whose -inf entries are zeroed by a separate np.where pass."""
    x = as_matrix(x)
    top = np.max(x, axis=1, keepdims=True)
    if np.any(np.isneginf(top)):
        raise DegenerateRowError("softmax row is entirely -inf")
    with np.errstate(invalid="ignore"):
        e = np.exp(x - top)
    e = np.where(np.isneginf(x), 0.0, e)
    denom = np.sum(e, axis=1, keepdims=True, dtype=np.float64)
    return (e / denom).astype(DTYPE)


def layernorm_mean_oracle(x, gamma, beta, eps=1e-5):
    """LayerNorm with its statistics from np.mean(..., dtype=np.float64)."""
    x = as_matrix(x)
    gamma = as_vector(gamma)
    beta = as_vector(beta)
    if x.shape[1] != gamma.size or x.shape[1] != beta.size:
        raise InvalidDimensionError("layernorm dims")
    mu = np.mean(x, axis=1, keepdims=True, dtype=np.float64)
    var = np.mean((x - mu) ** 2, axis=1, keepdims=True, dtype=np.float64)
    out = (x - mu) / np.sqrt(var + eps)
    return (out * gamma + beta).astype(DTYPE)


def rmsnorm_mean_oracle(x, gamma, eps=1e-5):
    """RMSNorm with mean(x²) from np.mean over the float64 squares."""
    x = as_matrix(x)
    gamma = as_vector(gamma)
    if x.shape[1] != gamma.size:
        raise InvalidDimensionError("rmsnorm dims")
    ms = np.mean(x.astype(np.float64) ** 2, axis=1, keepdims=True)
    out = x / np.sqrt(ms + eps)
    return (out * gamma).astype(DTYPE)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class LayerSteps:
    """Per-layer intermediates of `model_forward`, read by wrapping module globals.

    Like an external tracer, it wraps `stip.model.layer_forward`, `attention`
    and `_ffn_dispatch` and records their inputs and outputs; the engine
    itself is not changed. `take()` returns one dict per layer since the last
    call, with Q, K, V (attention input times W_q, W_k, W_v), u (attention
    output), v (the residual stream entering the FFN sublayer), z (FFN
    output) and y (layer output).

    A last-row layer (`model_forward(..., last_row=True)`) computes u from
    the last row of Q alone, so Q and v cover the rows u covers; K and V
    cover every row.
    """

    def __init__(self):
        self._layers = []

    def take(self):
        layers, self._layers = self._layers, []
        return [self._steps(t) for t in layers]

    @staticmethod
    def _steps(t):
        w = t["w"]
        post = t["cfg"].norm_placement is NormPlacement.POST
        rows = t["u"].shape[0]
        return {
            "Q": matmul(t["attn_in"][-rows:], w.w_q),
            "K": matmul(t["attn_in"], w.w_k),
            "V": matmul(t["attn_in"], w.w_v),
            "u": t["u"],
            "v": t["ffn_in"] if post else t["u"] + as_matrix(t["x"])[-rows:],
            "z": t["z"],
            "y": t["y"],
        }

    def install(self, monkeypatch):
        layer_forward = stip.model.layer_forward
        attention = stip.model.attention
        ffn_dispatch = stip.model._ffn_dispatch

        def traced_layer(x, w, cfg, *args, **kwargs):
            self._layers.append({"x": x, "w": w, "cfg": cfg})
            y = layer_forward(x, w, cfg, *args, **kwargs)
            self._layers[-1]["y"] = y
            return y

        def traced_attention(x, *args, **kwargs):
            u = attention(x, *args, **kwargs)
            self._layers[-1].update(attn_in=x, u=u)
            return u

        def traced_ffn(v, *args, **kwargs):
            z = ffn_dispatch(v, *args, **kwargs)
            self._layers[-1].update(ffn_in=v, z=z)
            return z

        monkeypatch.setattr(stip.model, "layer_forward", traced_layer)
        monkeypatch.setattr(stip.model, "attention", traced_attention)
        monkeypatch.setattr(stip.model, "_ffn_dispatch", traced_ffn)


@pytest.fixture
def layer_steps(monkeypatch):
    steps = LayerSteps()
    steps.install(monkeypatch)
    return steps
