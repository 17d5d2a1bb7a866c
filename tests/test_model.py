"""Forward-pass engine: embedding, attention, FFN variants, MoE, decoding."""

import math

import numpy as np
import pytest

import stip.model
from conftest import (
    VARIANT_CONFIGS,
    layernorm_mean_oracle,
    make_config,
    matmul_cast_oracle,
    rmsnorm_mean_oracle,
    sigmoid_scatter_oracle,
    softmax_where_oracle,
)
from stip.errors import (
    InvalidConfigError,
    InvalidDimensionError,
    MissingWeightError,
    UnknownTokenError,
)
from stip.model import (
    MOE_TOP_K,
    EmbeddingTable,
    FfnKind,
    FfnWeights,
    KVCache,
    LayerKV,
    LayerWeights,
    Mask,
    MaskKind,
    NormKind,
    NormPlacement,
    attention,
    causal_mask_values,
    embed,
    ffn_forward,
    gen_model,
    greedy_decode_step,
    greedy_generate,
    layer_forward,
    make_mask,
    model_forward,
    moe_ffn,
    random_custom_mask,
    router_selection,
)
from stip.numerics import apply_col_perm, layernorm, softmax_rows
from stip.transform import gen_permutation_set, para_trans

F32 = np.float32


def randm(shape, seed=0, scale=1.0):
    return (np.random.default_rng(seed).normal(size=shape) * scale).astype(F32)


def zero_layer(d, m):
    z = lambda *s: np.zeros(s, dtype=F32)
    return LayerWeights(
        w_q=z(d, d),
        w_k=z(d, d),
        w_v=z(d, d),
        w_o=z(d, d),
        ffn=FfnWeights(w1=z(d, m), w2=z(m, d), w3=None),
        gamma_1=np.ones(d, dtype=F32),
        beta_1=z(d),
        gamma_2=np.ones(d, dtype=F32),
        beta_2=z(d),
    )


# --- config validation -----------------------------------------------------


def test_config_rejects_bad_dims():
    for kw in (
        dict(n_layers=0),
        dict(d_model=1),
        dict(d_ff=0),
        dict(vocab_size=1),
        dict(attn_scale=0.0),
        dict(attn_scale=-5.0),
        dict(attn_scale=float("nan")),
        dict(attn_scale=float("inf")),
        dict(n_experts=1),
    ):
        with pytest.raises(InvalidConfigError):
            make_config(**kw)


def test_config_swiglu_moe_combo_allowed():
    cfg = make_config(ffn_kind=FfnKind.SWIGLU, n_experts=2)
    assert cfg.is_moe


# --- embedding -------------------------------------------------------------


def test_embed_single_token():
    table = EmbeddingTable(table=np.array([[1.0, 0.0], [0.0, 1.0]], dtype=F32))
    assert embed([0], table).tolist() == [[1.0, 0.0]]


def test_embed_repeated_token():
    table = EmbeddingTable(table=randm((5, 3), seed=1))
    out = embed([1, 1], table)
    assert np.array_equal(out[0], out[1])


def test_embed_lookup_oracle():
    table = EmbeddingTable(table=randm((9, 4), seed=2))
    ids = [3, 0, 8, 5]
    out = embed(ids, table)
    for j, tok in enumerate(ids):
        assert np.array_equal(out[j], table.table[tok])


def test_embed_unknown_token():
    table = EmbeddingTable(table=randm((4, 2), seed=3))
    with pytest.raises(UnknownTokenError):
        embed([4], table)
    with pytest.raises(UnknownTokenError):
        embed([-1], table)


# --- attention -------------------------------------------------------------


def test_attention_single_position_is_value_projection():
    d = 6
    w = zero_layer(d, 4)
    w = LayerWeights(
        w_q=randm((d, d), 4),
        w_k=randm((d, d), 5),
        w_v=randm((d, d), 6),
        w_o=randm((d, d), 7),
        ffn=w.ffn,
        gamma_1=w.gamma_1,
        beta_1=w.beta_1,
        gamma_2=w.gamma_2,
        beta_2=w.beta_2,
    )
    x = randm((1, d), 8)
    mask = Mask(kind=MaskKind.NONE)
    out = attention(x, w, mask, scale=float(d))
    oracle = x @ w.w_v @ w.w_o
    assert np.allclose(out, oracle, atol=1e-6)


def test_attention_causal_blocks_future():
    d = 8
    w = LayerWeights(
        w_q=randm((d, d), 9),
        w_k=randm((d, d), 10),
        w_v=randm((d, d), 11),
        w_o=randm((d, d), 12),
        ffn=FfnWeights(w1=randm((d, 4), 13), w2=randm((4, d), 14), w3=None),
        gamma_1=np.ones(d, dtype=F32),
        beta_1=np.zeros(d, dtype=F32),
        gamma_2=np.ones(d, dtype=F32),
        beta_2=np.zeros(d, dtype=F32),
    )
    x = randm((2, d), 15)
    y = x.copy()
    y[1] += 5.0
    mask = Mask(kind=MaskKind.CAUSAL)
    a = attention(x, w, mask, scale=float(d))
    b = attention(y, w, mask, scale=float(d))
    assert np.array_equal(a[0], b[0])
    assert not np.array_equal(a[1], b[1])


def test_attention_against_naive_reimplementation():
    n, d = 4, 8
    w = LayerWeights(
        w_q=randm((d, d), 16),
        w_k=randm((d, d), 17),
        w_v=randm((d, d), 18),
        w_o=randm((d, d), 19),
        ffn=FfnWeights(w1=randm((d, 4), 20), w2=randm((4, d), 21), w3=None),
        gamma_1=np.ones(d, dtype=F32),
        beta_1=np.zeros(d, dtype=F32),
        gamma_2=np.ones(d, dtype=F32),
        beta_2=np.zeros(d, dtype=F32),
    )
    x = randm((n, d), 22)
    scale = 5.0
    mvals = causal_mask_values(n)
    out = attention(x, w, Mask(kind=MaskKind.CAUSAL), scale=scale)

    q = x.astype(np.float64) @ w.w_q.astype(np.float64)
    k = x.astype(np.float64) @ w.w_k.astype(np.float64)
    v = x.astype(np.float64) @ w.w_v.astype(np.float64)
    probs = np.zeros((n, n))
    for i in range(n):
        row = [
            (q[i] @ k[j]) / math.sqrt(scale) + float(mvals[i, j]) for j in range(n)
        ]
        mx = max(row)
        exps = [math.exp(s - mx) if s != -np.inf else 0.0 for s in row]
        total = sum(exps)
        probs[i] = [e / total for e in exps]
    oracle = probs @ v @ w.w_o.astype(np.float64)
    assert np.max(np.abs(out.astype(np.float64) - oracle)) <= 1e-5


def test_attention_shape_mismatch():
    w = zero_layer(4, 2)
    with pytest.raises(InvalidDimensionError):
        attention(randm((2, 5)), w, Mask(kind=MaskKind.NONE), scale=4.0)


# --- ffn ---------------------------------------------------------------------


def test_ffn_relu_zero_input():
    w = FfnWeights(w1=randm((3, 5), 23), w2=randm((5, 3), 24), w3=None)
    out = ffn_forward(np.zeros((2, 3), dtype=F32), w, FfnKind.RELU)
    assert np.array_equal(out, np.zeros((2, 3), dtype=F32))


def test_ffn_swiglu_scalar_hand_case():
    one = np.ones((1, 1), dtype=F32)
    w = FfnWeights(w1=one, w2=one, w3=one)
    out = ffn_forward(one, w, FfnKind.SWIGLU)
    assert abs(float(out[0, 0]) - 0.7311) <= 1e-4


def test_ffn_swiglu_requires_w3():
    w = FfnWeights(w1=randm((3, 4), 25), w2=randm((4, 3), 26), w3=None)
    with pytest.raises(MissingWeightError):
        ffn_forward(randm((2, 3), 27), w, FfnKind.SWIGLU)


def test_ffn_swiglu_makes_w1_and_w3_one_product_with_the_bytes_of_two(monkeypatch):
    w = FfnWeights(w1=randm((6, 70), 28), w2=randm((70, 6), 29), w3=randm((6, 70), 30))
    v = randm((5, 6), 31, scale=3.0)
    a, u = matmul_cast_oracle(v, w.w1), matmul_cast_oracle(v, w.w3)
    want = matmul_cast_oracle(a * sigmoid_scatter_oracle(a) * u, w.w2)
    shapes = []
    matmul = stip.model.matmul

    def counted(x, b):
        shapes.append(np.shape(b))
        return matmul(x, b)

    monkeypatch.setattr(stip.model, "matmul", counted)
    assert ffn_forward(v, w, FfnKind.SWIGLU).tobytes() == want.tobytes()
    assert shapes == [(6, 140), (70, 6)]
    w.w3 = randm((6, 64), 32)
    with pytest.raises(InvalidDimensionError):
        ffn_forward(v, w, FfnKind.SWIGLU)


def test_ffn_gelu_matches_composed_ops():
    from stip.numerics import gelu

    w = FfnWeights(w1=randm((4, 6), 28), w2=randm((6, 4), 29), w3=None)
    v = randm((3, 4), 30)
    out = ffn_forward(v, w, FfnKind.GELU)
    assert np.allclose(out, gelu(v @ w.w1) @ w.w2, atol=1e-6)


# --- MoE ---------------------------------------------------------------------


def _moe_layer(d, m, e, seed):
    experts = tuple(
        FfnWeights(w1=randm((d, m), seed + 3 * j), w2=randm((m, d), seed + 3 * j + 1), w3=None)
        for j in range(e)
    )
    return LayerWeights(
        w_q=randm((d, d), seed + 100),
        w_k=randm((d, d), seed + 101),
        w_v=randm((d, d), seed + 102),
        w_o=randm((d, d), seed + 103),
        ffn=experts[0],
        gamma_1=np.ones(d, dtype=F32),
        beta_1=np.zeros(d, dtype=F32),
        gamma_2=np.ones(d, dtype=F32),
        beta_2=np.zeros(d, dtype=F32),
        w_g=randm((d, e), seed + 104),
        experts=experts,
    )


def test_moe_identical_experts_collapse():
    d, m, e = 4, 6, 3
    shared = FfnWeights(w1=randm((d, m), 31), w2=randm((m, d), 32), w3=None)
    w = _moe_layer(d, m, e, 33)
    w = LayerWeights(
        w_q=w.w_q, w_k=w.w_k, w_v=w.w_v, w_o=w.w_o,
        ffn=shared, gamma_1=w.gamma_1, beta_1=w.beta_1, gamma_2=w.gamma_2,
        beta_2=w.beta_2, w_g=w.w_g, experts=(shared,) * e,
    )
    v = randm((5, d), 34)
    out = moe_ffn(v, w, FfnKind.RELU, top_k=2)
    assert np.allclose(out, ffn_forward(v, shared, FfnKind.RELU), atol=1e-5)


def test_moe_forced_single_expert():
    d, m, e = 4, 6, 2
    w = _moe_layer(d, m, e, 35)
    forced = np.zeros((d, e), dtype=F32)
    forced[:, 0] = 100.0
    w = LayerWeights(
        w_q=w.w_q, w_k=w.w_k, w_v=w.w_v, w_o=w.w_o,
        ffn=w.ffn, gamma_1=w.gamma_1, beta_1=w.beta_1, gamma_2=w.gamma_2,
        beta_2=w.beta_2, w_g=np.abs(forced) + np.eye(d, e, dtype=F32), experts=w.experts,
    )
    v = np.abs(randm((3, d), 36)) + 0.5
    out = moe_ffn(v, w, FfnKind.RELU, top_k=1)
    assert np.allclose(out, ffn_forward(v, w.experts[0], FfnKind.RELU), atol=1e-5)


def test_moe_against_per_token_loop_oracle():
    d, m, e = 5, 7, 4
    w = _moe_layer(d, m, e, 37)
    v = randm((6, d), 38)
    top_k = 2
    out = moe_ffn(v, w, FfnKind.RELU, top_k=top_k)

    logits = v.astype(np.float64) @ w.w_g.astype(np.float64)
    oracle = np.zeros((6, d))
    for t in range(6):
        order = sorted(range(e), key=lambda j: (-logits[t, j], j))[:top_k]
        ws = [math.exp(logits[t, j] - max(logits[t])) for j in order]
        total = sum(ws)
        for j, wt in zip(order, ws):
            y = ffn_forward(v[t : t + 1], w.experts[j], FfnKind.RELU)
            oracle[t] += (wt / total) * y[0].astype(np.float64)
    assert np.max(np.abs(out.astype(np.float64) - oracle)) <= 1e-5


def _cached_outputs(cfg, mask_kind=MaskKind.CAUSAL, prefill=24, steps=4, seed=41):
    """Prefill plus one-row cached steps, plain and permuted."""
    params = gen_model(cfg, seed)
    pset = gen_permutation_set(cfg, seed + 1)
    x = randm((prefill + steps, cfg.d_model), seed=seed + 2, scale=4.0)
    mask = make_mask(mask_kind)
    outs = []
    for model, rows in (
        (params, x),
        (para_trans(params, pset), apply_col_perm(x, pset.pi)),
    ):
        cache = KVCache(len(model.layers))
        outs.append(model_forward(rows[:prefill], model, mask, cache=cache))
        for i in range(prefill, prefill + steps):
            outs.append(model_forward(rows[i : i + 1], model, mask, cache=cache))
    return outs


_SWIGLU_MOE = make_config(
    d_model=16,
    d_ff=32,
    norm_kind=NormKind.RMSNORM,
    norm_placement=NormPlacement.PRE,
    ffn_kind=FfnKind.SWIGLU,
    n_experts=4,
)


def test_swiglu_moe_forward_bit_identical_to_scatter_sigmoid(monkeypatch):
    fast = _cached_outputs(_SWIGLU_MOE)
    monkeypatch.setattr(stip.model, "sigmoid", sigmoid_scatter_oracle)
    oracle = _cached_outputs(_SWIGLU_MOE)
    assert len(fast) == len(oracle) == 10
    for a, b in zip(fast, oracle):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("mask_kind", [MaskKind.CAUSAL, MaskKind.NONE])
@pytest.mark.parametrize("name", sorted(VARIANT_CONFIGS))
def test_forward_bit_identical_to_untrimmed_primitives(monkeypatch, name, mask_kind):
    # 8 prefill rows, then 20 steps: the cache's buffers double twice
    cfg = make_config(d_model=16, d_ff=32, **VARIANT_CONFIGS[name])
    fast = _cached_outputs(cfg, mask_kind, prefill=8, steps=20)
    for attr, oracle in (
        ("matmul", matmul_cast_oracle),
        ("layernorm", layernorm_mean_oracle),
        ("rmsnorm", rmsnorm_mean_oracle),
        ("softmax_rows", softmax_where_oracle),
    ):
        monkeypatch.setattr(stip.model, attr, oracle)
    oracle = _cached_outputs(cfg, mask_kind, prefill=8, steps=20)
    assert len(fast) == len(oracle) == 42
    for a, b in zip(fast, oracle):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_layer_kv_holds_the_float32_rows_widened_to_float64():
    kv = LayerKV()
    ks, vs = [], []
    # 3 rows, then appends that outgrow buffers of 6, 12 and 24 rows
    for i, n in enumerate((3, 1, 2, 1, 5, 1, 9, 4)):
        k = randm((n, 8), seed=60 + i, scale=1e3)
        v = randm((n, 8), seed=80 + i, scale=1e-3)
        k[0, 0], v[-1, -1] = -np.inf, np.float32(1e-45)  # -inf and a subnormal
        ks.append(k)
        vs.append(v)
        big_k, big_v = kv.append(k, v)
        assert big_k.dtype == big_v.dtype == np.float64
        assert np.array_equal(big_k, np.concatenate(ks).astype(np.float64))
        assert np.array_equal(big_v, np.concatenate(vs).astype(np.float64))
    assert kv.rows == 26


def test_moe_top_k_exceeding_experts_rejected():
    w = _moe_layer(4, 6, 2, 39)
    with pytest.raises(InvalidConfigError):
        moe_ffn(randm((2, 4), 40), w, FfnKind.RELU, top_k=3)


def test_router_selection_tie_breaks_by_lower_index():
    w_g = np.zeros((3, 2), dtype=F32)
    v = np.ones((1, 3), dtype=F32)
    chosen, weights, _probs = router_selection(v, w_g, top_k=1)
    assert chosen[0].tolist() == [0]
    assert np.allclose(weights[0].sum(), 1.0)


# --- masks -------------------------------------------------------------------


def test_causal_mask_structure():
    m = causal_mask_values(3)
    assert m[0, 0] == 0.0 and m[2, 1] == 0.0
    assert np.isneginf(m[0, 1]) and np.isneginf(m[1, 2])


def test_custom_mask_validation():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=F32)
    with pytest.raises(InvalidConfigError):
        Mask(kind=MaskKind.CUSTOM, values=bad)
    with pytest.raises(InvalidConfigError):
        Mask(kind=MaskKind.CUSTOM, values=None)


def test_random_custom_mask_keeps_diagonal_open():
    m = random_custom_mask(6, seed=41, block_prob=0.9)
    assert all(m.values[i, i] == 0.0 for i in range(6))
    assert np.isneginf(m.values).any()


def test_make_mask_kinds():
    assert make_mask(MaskKind.NONE, 4).values is None
    assert make_mask(MaskKind.CAUSAL, 4).kind is MaskKind.CAUSAL
    custom = make_mask(MaskKind.CUSTOM, 4, seed=42)
    assert custom.values.shape == (4, 4)


# --- layer / model forward ----------------------------------------------------


def test_layer_forward_zero_weights_post_ln_is_double_layernorm():
    d, m = 6, 4
    w = zero_layer(d, m)
    x = randm((3, d), 43)
    cfg = make_config(d_model=d, d_ff=m)
    out = layer_forward(x, w, cfg, make_mask(MaskKind.CAUSAL, 3))
    ones = np.ones(d, dtype=F32)
    zeros = np.zeros(d, dtype=F32)
    oracle = layernorm(layernorm(x, ones, zeros), ones, zeros)
    assert np.allclose(out, oracle, atol=1e-6)


def test_layer_forward_zero_weights_pre_ln_is_identity():
    d, m = 6, 4
    w = zero_layer(d, m)
    x = randm((3, d), 44)
    cfg = make_config(d_model=d, d_ff=m, norm_placement=NormPlacement.PRE)
    out = layer_forward(x, w, cfg, make_mask(MaskKind.CAUSAL, 3))
    assert np.array_equal(out, x)


def test_model_forward_single_layer_composition():
    cfg = make_config(n_layers=1, d_model=6, d_ff=8, vocab_size=7)
    params = gen_model(cfg, 45)
    x = randm((4, 6), 46)
    mask = make_mask(MaskKind.CAUSAL, 4)
    out = model_forward(x, params, mask)
    oracle = softmax_rows(layer_forward(x, params.layers[0], cfg, mask) @ params.w_c)
    assert np.allclose(out, oracle, atol=1e-6)


@pytest.mark.parametrize("mask_kind", list(MaskKind), ids=lambda k: k.value)
@pytest.mark.parametrize("name", sorted(VARIANT_CONFIGS))
def test_last_row_forward_restricts_the_last_layer_but_k_and_v(
    name, mask_kind, layer_steps
):
    cfg = make_config(n_layers=3, **VARIANT_CONFIGS[name])
    params = gen_model(cfg, 61)
    n = 6
    x = randm((n, cfg.d_model), 62)
    mask = make_mask(mask_kind, n, seed=63)
    full = model_forward(x, params, mask)
    full_steps = layer_steps.take()
    last = model_forward(x, params, mask, last_row=True)
    steps = layer_steps.take()
    assert last.shape == (1, cfg.vocab_size)
    assert np.array_equal(last, full[-1:])
    assert len(steps) == len(full_steps) == cfg.n_layers
    for i, (f, s) in enumerate(zip(full_steps, steps)):
        rows = 1 if i == cfg.n_layers - 1 else n
        for key in ("Q", "u", "v", "z", "y"):
            assert s[key].shape == (rows, cfg.d_model)
            assert np.array_equal(s[key], f[key][-rows:])
        for key in ("K", "V"):
            assert s[key].shape == (n, cfg.d_model)
            assert np.array_equal(s[key], f[key])


def test_model_forward_rows_are_distributions():
    cfg = make_config()
    params = gen_model(cfg, 47)
    x = randm((5, cfg.d_model), 48)
    out = model_forward(x, params, make_mask(MaskKind.CAUSAL, 5))
    assert np.all(out >= 0)
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-4)


def test_model_forward_deterministic():
    cfg = make_config()
    params = gen_model(cfg, 49)
    x = randm((3, cfg.d_model), 50)
    mask = make_mask(MaskKind.CAUSAL, 3)
    assert np.array_equal(model_forward(x, params, mask), model_forward(x, params, mask))


def test_causal_row_invariance_full_layer():
    cfg = make_config(d_model=8, d_ff=6)
    params = gen_model(cfg, 51)
    x = randm((5, 8), 52)
    y = x.copy()
    y[3:] += 2.0
    mask = make_mask(MaskKind.CAUSAL, 5)
    a = layer_forward(x, params.layers[0], cfg, mask)
    b = layer_forward(y, params.layers[0], cfg, mask)
    assert np.array_equal(a[:3], b[:3])


def test_sequence_permutation_is_not_equivariant():
    cfg = make_config(d_model=8, d_ff=6)
    params = gen_model(cfg, 53)
    x = randm((6, 8), 54)
    sigma = np.array([5, 0, 3, 1, 4, 2])
    mask = make_mask(MaskKind.CAUSAL, 6)
    lhs = layer_forward(x[sigma], params.layers[0], cfg, mask)
    rhs = layer_forward(x, params.layers[0], cfg, mask)[sigma]
    assert np.max(np.abs(lhs - rhs)) > 1e-3


# --- decoding -----------------------------------------------------------------


def test_greedy_decode_step_hand_case():
    o = np.array([[0.5, 0.3, 0.2], [0.1, 0.7, 0.2]], dtype=F32)
    assert greedy_decode_step(o) == 1


def test_greedy_decode_step_tie_breaks_low():
    o = np.full((1, 4), 0.25, dtype=F32)
    assert greedy_decode_step(o) == 0


def test_greedy_decode_step_linear_scan_oracle():
    o = randm((3, 9), 55)
    best, arg = -np.inf, 0
    for j, v in enumerate(o[-1]):
        if float(v) > best:
            best, arg = float(v), j
    assert greedy_decode_step(o) == arg


def test_greedy_generate_length_and_determinism():
    cfg = make_config()
    params = gen_model(cfg, 56)
    a = greedy_generate(params, [0, 1, 2], 5)
    b = greedy_generate(params, [0, 1, 2], 5)
    assert len(a) == 5 and a == b


def test_zero_input_rows_are_an_invalid_dimension():
    params = gen_model(make_config(), 59)
    empty = np.zeros((0, params.config.d_model), dtype=F32)
    with pytest.raises(InvalidDimensionError):
        model_forward(empty, params, make_mask(MaskKind.CAUSAL))
    with pytest.raises(InvalidDimensionError):
        greedy_generate(params, [], 3)
    assert greedy_generate(params, [], 0) == []


def test_greedy_generate_rejects_custom_mask_config():
    cfg = make_config(mask_kind=MaskKind.CUSTOM)
    params = gen_model(cfg, 57)
    with pytest.raises(InvalidConfigError):
        greedy_generate(params, [0, 1], 3)


# --- generation ----------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(VARIANT_CONFIGS))
def test_gen_model_shapes(name):
    cfg = make_config(**VARIANT_CONFIGS[name])
    params = gen_model(cfg, 58)
    assert len(params.layers) == cfg.n_layers
    assert params.embedding.table.shape == (cfg.vocab_size, cfg.d_model)
    assert params.w_c.shape == (cfg.d_model, cfg.vocab_size)
    lw = params.layers[0]
    assert lw.w_q.shape == (cfg.d_model, cfg.d_model)
    if not cfg.is_moe:
        if cfg.ffn_kind is FfnKind.SWIGLU:
            assert lw.ffn.w3 is not None and lw.ffn.w3.shape == (cfg.d_model, cfg.d_ff)
        else:
            assert lw.ffn.w3 is None
    if cfg.norm_kind is NormKind.RMSNORM:
        assert lw.beta_1 is None and lw.beta_2 is None
    else:
        assert lw.beta_1.shape == (cfg.d_model,)
    if cfg.is_moe:
        assert lw.ffn is None
        assert lw.w_g.shape == (cfg.d_model, cfg.n_experts)
        assert len(lw.experts) == cfg.n_experts
    else:
        assert lw.w_g is None and lw.experts == ()


def test_gen_model_deterministic():
    cfg = make_config()
    a = gen_model(cfg, 59)
    b = gen_model(cfg, 59)
    assert np.array_equal(a.w_c, b.w_c)
    assert np.array_equal(a.layers[1].w_q, b.layers[1].w_q)


def test_moe_top_k_constant():
    assert MOE_TOP_K == 2
