"""Parameter-space permutation transform and its equivalence guarantees."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import VARIANT_CONFIGS, make_config
from stip.errors import InvalidDimensionError
from stip.model import (
    FfnKind,
    MaskKind,
    NormPlacement,
    gen_model,
    make_mask,
    model_forward,
)
from stip.numerics import (
    Permutation,
    apply_col_perm,
    apply_vec_perm,
    gen_permutation,
    identity_perm,
    inverse_perm,
    to_matrix,
)
from stip.transform import (
    LayerPerms,
    PermutationSet,
    _two_sided,
    gen_permutation_set,
    para_trans,
    recover_output,
    verify_equivalence,
)

F32 = np.float32


def randm(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape).astype(F32)


def swap2():
    return Permutation(np.array([1, 0], dtype=np.int64))


def layer_prime(params, pi, lp):
    """Layer 0 of θ′ as para_trans writes it under π and lp; other keys are identities."""
    ident = gen_permutation_set(params.config, 0, identity=True)
    pset = replace(ident, pi=pi, per_layer=(lp, *ident.per_layer[1:]))
    return para_trans(params, pset).layers[0]


def classifier_prime(w_c, pi, pi_c):
    """W_c′ as para_trans writes it for a model whose classifier is w_c."""
    d, s = w_c.shape
    cfg = make_config(n_layers=1, d_model=d, d_ff=4, vocab_size=s)
    params = replace(gen_model(cfg, 0), w_c=w_c)
    ident = gen_permutation_set(cfg, 0, identity=True)
    return para_trans(params, replace(ident, pi=pi, pi_c=pi_c)).w_c


# --- permutation set -----------------------------------------------------


def test_set_cardinality_dense_single_layer():
    cfg = make_config(n_layers=1, d_model=4, d_ff=6, vocab_size=5)
    pset = gen_permutation_set(cfg, 0)
    assert pset.count() == 5
    assert pset.pi.dim == 4 and pset.pi_c.dim == 5
    lp = pset.per_layer[0]
    assert lp.pi1.dim == 4 and lp.pi2.dim == 4 and lp.pi3.dim == 6


def test_set_reproducible():
    cfg = make_config()
    assert gen_permutation_set(cfg, 5).pi == gen_permutation_set(cfg, 5).pi


def test_set_draws_are_independent():
    cfg = make_config(n_layers=4, d_model=8)
    pset = gen_permutation_set(cfg, 6)
    draws = {tuple(lp.pi1.indices.tolist()) for lp in pset.per_layer}
    draws |= {tuple(lp.pi2.indices.tolist()) for lp in pset.per_layer}
    assert len(draws) > 1


def test_set_moe_cardinality():
    cfg = make_config(n_layers=3, n_experts=4)
    pset = gen_permutation_set(cfg, 7)
    assert pset.count() == 2 + 3 * (2 + 4)
    assert all(len(lp.pi3s) == 4 for lp in pset.per_layer)


def test_identity_set_flag():
    cfg = make_config(n_experts=3)
    pset = gen_permutation_set(cfg, 9, identity=True)
    d, m = identity_perm(cfg.d_model), identity_perm(cfg.d_ff)
    assert pset.pi == d and pset.pi_c == identity_perm(cfg.vocab_size)
    for lp in pset.per_layer:
        assert lp.pi1 == d and lp.pi2 == d
        assert len(lp.pi3s) == 3 and all(pi3 == m for pi3 in lp.pi3s)
    assert gen_permutation_set(cfg, 9).pi != d


# --- layer transform, through para_trans -----------------------------------


def test_transform_layer_identity_is_noop():
    cfg = make_config(n_layers=1)
    params = gen_model(cfg, 10)
    pset = gen_permutation_set(cfg, 11, identity=True)
    out = para_trans(params, pset).layers[0]
    assert np.array_equal(out.w_q, params.layers[0].w_q)
    assert np.array_equal(out.ffn.w2, params.layers[0].ffn.w2)
    assert np.array_equal(out.gamma_1, params.layers[0].gamma_1)


def test_transform_layer_hand_case():
    cfg = make_config(n_layers=1, d_model=2, d_ff=2, vocab_size=3)
    params = gen_model(cfg, 12)
    w = params.layers[0]
    lp = LayerPerms(pi1=identity_perm(2), pi2=identity_perm(2), pi3s=(identity_perm(2),))
    object.__setattr__(w, "w_q", np.array([[1.0, 2.0], [3.0, 4.0]], dtype=F32))
    out = layer_prime(params, swap2(), lp)
    assert out.w_q.tolist() == [[3.0, 4.0], [1.0, 2.0]]


def test_transform_layer_follows_cited_rules():
    cfg = make_config(n_layers=1, d_model=4, d_ff=6, vocab_size=5)
    params = gen_model(cfg, 13)
    pset = gen_permutation_set(cfg, 14)
    w = params.layers[0]
    lp = pset.per_layer[0]
    out = para_trans(params, pset).layers[0]
    P = to_matrix(pset.pi)
    P1 = to_matrix(lp.pi1)
    P2 = to_matrix(lp.pi2)
    P3 = to_matrix(lp.pi3)
    assert np.allclose(out.w_q, P.T @ w.w_q @ P1, atol=1e-6)
    assert np.allclose(out.w_k, P.T @ w.w_k @ P1, atol=1e-6)
    assert np.allclose(out.w_v, P.T @ w.w_v @ P2, atol=1e-6)
    assert np.allclose(out.w_o, P2.T @ w.w_o @ P, atol=1e-6)
    assert np.allclose(out.ffn.w1, P.T @ w.ffn.w1 @ P3, atol=1e-6)
    assert np.allclose(out.ffn.w2, P3.T @ w.ffn.w2 @ P, atol=1e-6)
    assert np.allclose(out.gamma_1, apply_vec_perm(w.gamma_1, pset.pi), atol=0)
    assert np.allclose(out.beta_2, apply_vec_perm(w.beta_2, pset.pi), atol=0)


def test_transform_layer_swiglu_w3_rule():
    cfg = make_config(n_layers=1, d_model=4, d_ff=6, vocab_size=5, ffn_kind=FfnKind.SWIGLU)
    params = gen_model(cfg, 15)
    pset = gen_permutation_set(cfg, 16)
    w = params.layers[0]
    lp = pset.per_layer[0]
    out = para_trans(params, pset).layers[0]
    P = to_matrix(pset.pi)
    P3 = to_matrix(lp.pi3)
    assert np.allclose(out.ffn.w1, P.T @ w.ffn.w1 @ P3, atol=1e-6)
    assert np.allclose(out.ffn.w3, P.T @ w.ffn.w3 @ P3, atol=1e-6)


def test_transform_layer_moe_router_and_experts():
    cfg = make_config(n_layers=1, d_model=4, d_ff=6, vocab_size=5, n_experts=3)
    params = gen_model(cfg, 17)
    pset = gen_permutation_set(cfg, 18)
    w = params.layers[0]
    lp = pset.per_layer[0]
    out = para_trans(params, pset).layers[0]
    P = to_matrix(pset.pi)
    assert np.allclose(out.w_g, P.T @ w.w_g, atol=1e-6)
    for j in range(3):
        P3 = to_matrix(lp.pi3s[j])
        assert np.allclose(out.experts[j].w1, P.T @ w.experts[j].w1 @ P3, atol=1e-6)


def test_transform_layer_dim_mismatch():
    cfg = make_config(n_layers=1, d_model=4, d_ff=6, vocab_size=5)
    params = gen_model(cfg, 19)
    lp = LayerPerms(pi1=identity_perm(3), pi2=identity_perm(4), pi3s=(identity_perm(6),))
    with pytest.raises(InvalidDimensionError):
        layer_prime(params, identity_perm(4), lp)


@pytest.mark.parametrize(
    "rows,cols", [(1, 1), (4, 6), (33, 7), (64, 256), (600, 700), (5, 300001)]
)
def test_two_sided_take_equals_row_then_column_gather(rows, cols):
    w = randm((rows, cols), rows + cols)
    w[0, -1] = -np.inf
    left, right = gen_permutation(rows, cols), gen_permutation(cols, rows)
    got = _two_sided(w, left, right)
    want = w[left.indices, :][:, right.indices]
    assert got.flags.c_contiguous and got.dtype == F32
    assert got.tobytes() == np.ascontiguousarray(want).tobytes()


# --- classifier, through para_trans -----------------------------------------


def test_transform_classifier_identity():
    w_c = randm((4, 6), 20)
    out = classifier_prime(w_c, identity_perm(4), identity_perm(6))
    assert np.array_equal(out, w_c)


def test_transform_classifier_output_permutation_oracle():
    w_c = randm((5, 7), 21)
    pi = gen_permutation(5, 22)
    pi_c = gen_permutation(7, 23)
    wc_prime = classifier_prime(w_c, pi, pi_c)
    y = randm((3, 5), 24)
    lhs = apply_col_perm(y, pi) @ wc_prime
    rhs = apply_col_perm(y @ w_c, pi_c)
    assert np.allclose(lhs, rhs, atol=1e-5)


def test_transform_classifier_hand_swap():
    w_c = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=F32)
    out = classifier_prime(w_c, swap2(), swap2())
    assert out.tolist() == [[4.0, 3.0], [2.0, 1.0]]


# --- para_trans ----------------------------------------------------------------


def test_para_trans_identity_set_is_bitwise_noop():
    cfg = make_config()
    params = gen_model(cfg, 30)
    pset = gen_permutation_set(cfg, 31, identity=True)
    tm = para_trans(params, pset)
    for a, b in zip(params.layers, tm.layers):
        assert np.array_equal(a.w_q, b.w_q)
        assert np.array_equal(a.ffn.w1, b.ffn.w1)
    assert np.array_equal(params.w_c, tm.w_c)


def test_para_trans_leaves_embedding_untouched():
    cfg = make_config()
    params = gen_model(cfg, 32)
    tm = para_trans(params, gen_permutation_set(cfg, 33))
    assert tm.embedding is params.embedding


def test_para_trans_end_to_end_equivalence():
    cfg = make_config(n_layers=4, d_model=64, d_ff=256, vocab_size=100, attn_scale=64.0)
    params = gen_model(cfg, 36)
    pset = gen_permutation_set(cfg, 37)
    tm = para_trans(params, pset)
    x = randm((16, 64), 38)
    mask = make_mask(MaskKind.CAUSAL, 16)
    reference = model_forward(x, params, mask)
    served = model_forward(apply_col_perm(x, pset.pi), tm, mask)
    recovered = recover_output(served, pset.pi_c)
    assert np.max(np.abs(recovered - reference)) <= 1e-4


def test_para_trans_inverse_set_round_trip():
    cfg = make_config()
    params = gen_model(cfg, 39)
    pset = gen_permutation_set(cfg, 40)
    inverse = PermutationSet(
        pi=inverse_perm(pset.pi),
        pi_c=inverse_perm(pset.pi_c),
        per_layer=tuple(
            LayerPerms(
                pi1=inverse_perm(lp.pi1),
                pi2=inverse_perm(lp.pi2),
                pi3s=tuple(inverse_perm(p) for p in lp.pi3s),
            )
            for lp in pset.per_layer
        ),
    )
    back = para_trans(para_trans(params, pset), inverse)
    for a, b in zip(params.layers, back.layers):
        assert np.array_equal(a.w_q, b.w_q)
        assert np.array_equal(a.w_o, b.w_o)
        assert np.array_equal(a.ffn.w2, b.ffn.w2)
    assert np.array_equal(params.w_c, back.w_c)


def test_transformed_model_is_structurally_plain():
    from stip.container import decode_model, encode_model

    cfg = make_config()
    params = gen_model(cfg, 41)
    tm = para_trans(params, gen_permutation_set(cfg, 42))
    again = decode_model(encode_model(tm))
    assert np.array_equal(again.layers[0].w_q, tm.layers[0].w_q)


# --- per-step equivalences -------------------------------------------------


@pytest.mark.parametrize("name", sorted(VARIANT_CONFIGS))
def test_step_equivalences_per_variant(name, layer_steps):
    cfg = make_config(d_model=8, d_ff=12, vocab_size=10, **VARIANT_CONFIGS[name])
    params = gen_model(cfg, 43)
    pset = gen_permutation_set(cfg, 44)
    tm = para_trans(params, pset)
    x = randm((5, 8), 45)
    mask = make_mask(MaskKind.CAUSAL, 5)

    o = model_forward(x, params, mask)
    plain_trace = layer_steps.take()
    o_prime = model_forward(apply_col_perm(x, pset.pi), tm, mask)
    perm_trace = layer_steps.take()
    assert len(plain_trace) == len(perm_trace) == cfg.n_layers

    for i, (pt, qt) in enumerate(zip(plain_trace, perm_trace)):
        lp = pset.per_layer[i]
        assert np.max(np.abs(qt["Q"] - apply_col_perm(pt["Q"], lp.pi1))) <= 1e-5
        assert np.max(np.abs(qt["K"] - apply_col_perm(pt["K"], lp.pi1))) <= 1e-5
        assert np.max(np.abs(qt["V"] - apply_col_perm(pt["V"], lp.pi2))) <= 1e-5
        for key in ("u", "v", "z", "y"):
            assert np.max(np.abs(qt[key] - apply_col_perm(pt[key], pset.pi))) <= 1e-5
    assert np.max(np.abs(o_prime - apply_col_perm(o, pset.pi_c))) <= 1e-5


def test_step_equivalence_custom_mask():
    cfg = make_config(d_model=8, d_ff=12, vocab_size=10, mask_kind=MaskKind.CUSTOM)
    params = gen_model(cfg, 46)
    pset = gen_permutation_set(cfg, 47)
    tm = para_trans(params, pset)
    x = randm((6, 8), 48)
    mask = make_mask(MaskKind.CUSTOM, 6, seed=49)
    o = model_forward(x, params, mask)
    o_prime = model_forward(apply_col_perm(x, pset.pi), tm, mask)
    assert np.max(np.abs(o_prime - apply_col_perm(o, pset.pi_c))) <= 1e-5


def test_moe_expert_selection_identical_between_paths():
    from stip.model import router_selection

    cfg = make_config(n_layers=1, d_model=8, d_ff=12, vocab_size=10, n_experts=4)
    params = gen_model(cfg, 50)
    pset = gen_permutation_set(cfg, 51)
    tm = para_trans(params, pset)
    x = randm((7, 8), 52)
    sel_a, _, _ = router_selection(x, params.layers[0].w_g, top_k=2)
    sel_b, _, _ = router_selection(
        apply_col_perm(x, pset.pi), tm.layers[0].w_g, top_k=2
    )
    assert np.array_equal(sel_a, sel_b)


# --- verify_equivalence -----------------------------------------------------------


def test_verify_identity_set():
    cfg = make_config()
    params = gen_model(cfg, 53)
    pset = gen_permutation_set(cfg, 54, identity=True)
    rep = verify_equivalence(params, pset, trials=3, tol=1e-4, n=6, seed=55)
    assert rep["max_abs_diff"] == 0.0
    assert rep["argmax_match_rate"] == 1.0
    assert rep["passed"]


def test_verify_random_set_desk_scale():
    cfg = make_config(n_layers=4, d_model=64, d_ff=256, vocab_size=100, attn_scale=64.0)
    params = gen_model(cfg, 56)
    pset = gen_permutation_set(cfg, 57)
    rep = verify_equivalence(params, pset, trials=5, tol=1e-4, n=16, seed=58)
    assert rep["passed"]
    assert rep["argmax_match_rate"] == 1.0


def test_any_consistent_key_set_verifies():
    # The equivalence property is universal over valid sets: swapping two
    # entries of one inner permutation yields a different but still valid
    # set, and verification must keep passing. Corrupt key *files* fail at
    # decode time instead (bijection check), not here.
    cfg = make_config()
    params = gen_model(cfg, 59)
    pset = gen_permutation_set(cfg, 60)
    lp = pset.per_layer[0]
    swapped = np.array(lp.pi1.indices)
    swapped[[0, 1]] = swapped[[1, 0]]
    altered = PermutationSet(
        pi=pset.pi,
        pi_c=pset.pi_c,
        per_layer=(
            LayerPerms(pi1=Permutation(swapped), pi2=lp.pi2, pi3s=lp.pi3s),
            *pset.per_layer[1:],
        ),
    )
    rep = verify_equivalence(params, altered, trials=3, tol=1e-4, n=6, seed=61)
    assert rep["passed"]


def test_verify_fails_at_unreachable_tolerance():
    # 64-bit accumulation makes desk instances bitwise exact, so a negative
    # tolerance is the deterministic way to exercise the failure path
    cfg = make_config(n_layers=4, d_model=64, d_ff=256, vocab_size=100, attn_scale=64.0)
    params = gen_model(cfg, 62)
    pset = gen_permutation_set(cfg, 63)
    rep = verify_equivalence(params, pset, trials=2, tol=-1.0, n=8, seed=64)
    assert not rep["passed"]
    assert rep["max_abs_diff"] >= 0.0
    # NaN outputs fail at any tolerance, though an all-NaN row's argmax (0)
    # agrees on both paths
    w_c = params.w_c.copy()
    w_c[3, 5] = np.nan
    rep = verify_equivalence(replace(params, w_c=w_c), pset, trials=2, tol=1e-4, n=8, seed=64)
    assert not rep["passed"]
    assert np.isnan(rep["max_abs_diff"])
