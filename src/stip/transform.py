"""Permutation-set generation, parameter transformation, and equivalence checks.

The key material is a semi-symmetric set: {π (features), π_c (classes)} is the
half shared with the data owner; the per-layer triples {π_{i,1}, π_{i,2}, π_{i,3}}
stay private to the model developer. Transformed parameters compute the same
function as the originals on column-permuted inputs, up to a column permutation
of the outputs.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimensionError
from .model import (
    FfnWeights,
    LayerWeights,
    MaskKind,
    ModelParams,
    make_mask,
    model_forward,
    random_custom_mask,
)
from .numerics import (
    Gather,
    Permutation,
    apply_col_perm,
    identity_perm,
    inverse_perm,
)


@dataclass
class LayerPerms:
    """Private permutations of one layer: π_{i,1}, π_{i,2} (dim d), π_{i,3}s (dim m).

    Dense layers hold a single π_{i,3}; mixture layers hold one per expert.
    """

    pi1: Permutation
    pi2: Permutation
    pi3s: tuple

    @property
    def pi3(self):
        return self.pi3s[0]


@dataclass
class PermutationSet:
    pi: Permutation
    pi_c: Permutation
    per_layer: tuple

    def count(self):
        return 2 + sum(2 + len(lp.pi3s) for lp in self.per_layer)


def gen_permutation_set(cfg, seed, identity=False):
    """Independent uniform permutations for every slot; deterministic per seed."""
    if identity:
        mk = lambda dim: identity_perm(dim)
    else:
        rng = np.random.default_rng(seed)
        mk = lambda dim: Permutation(rng.permutation(dim))
    pi = mk(cfg.d_model)
    pi_c = mk(cfg.vocab_size)
    n_inner = cfg.n_experts if cfg.is_moe else 1
    per_layer = tuple(
        LayerPerms(
            pi1=mk(cfg.d_model),
            pi2=mk(cfg.d_model),
            pi3s=tuple(mk(cfg.d_ff) for _ in range(n_inner)),
        )
        for _ in range(cfg.n_layers)
    )
    return PermutationSet(pi=pi, pi_c=pi_c, per_layer=per_layer)


def _two_sided(w, left, right):
    """leftᵀ · w · right via index movement; None leaves that side as it is."""
    return Gather(w, left, right).array()


def _ffn(fw, pi, pi3, make):
    return FfnWeights(
        w1=make(fw.w1, pi, pi3),
        w2=make(fw.w2, pi3, pi),
        w3=None if fw.w3 is None else make(fw.w3, pi, pi3),
    )


def _layer(w, pi, lp, cfg, make):
    """One layer of θ′, each tensor built by make(tensor, rows, cols).

    W_q′=πᵀW_qπ₁, W_k′=πᵀW_kπ₁, W_v′=πᵀW_vπ₂, W_o′=π₂ᵀW_oπ, FFN via π₃,
    γ′=γπ, β′=βπ. Mixture layers additionally get W_g′ = πᵀW_g (router
    logits are invariant) and each expert transformed with its own π₃.
    """
    if lp.pi1.dim != cfg.d_model or lp.pi2.dim != cfg.d_model:
        raise InvalidDimensionError("feature permutation dims do not match d_model")
    if any(p3.dim != cfg.d_ff for p3 in lp.pi3s):
        raise InvalidDimensionError("inner permutation dims do not match d_ff")
    ffn = None
    experts = ()
    w_g = None
    if cfg.is_moe:
        if len(lp.pi3s) != cfg.n_experts:
            raise InvalidDimensionError(
                f"need {cfg.n_experts} inner permutations, got {len(lp.pi3s)}"
            )
        experts = tuple(_ffn(fw, pi, p3, make) for fw, p3 in zip(w.experts, lp.pi3s))
        w_g = make(w.w_g, pi, None)
    else:
        ffn = _ffn(w.ffn, pi, lp.pi3, make)
    return LayerWeights(
        w_q=make(w.w_q, pi, lp.pi1),
        w_k=make(w.w_k, pi, lp.pi1),
        w_v=make(w.w_v, pi, lp.pi2),
        w_o=make(w.w_o, lp.pi2, pi),
        ffn=ffn,
        gamma_1=make(w.gamma_1, None, pi),
        gamma_2=make(w.gamma_2, None, pi),
        beta_1=None if w.beta_1 is None else make(w.beta_1, None, pi),
        beta_2=None if w.beta_2 is None else make(w.beta_2, None, pi),
        w_g=w_g,
        experts=experts,
    )


def _theta_prime(params, pset, make):
    cfg = params.config
    if pset.pi.dim != cfg.d_model or pset.pi_c.dim != cfg.vocab_size:
        raise InvalidDimensionError("shared permutation dims do not match config")
    if len(pset.per_layer) != cfg.n_layers:
        raise InvalidDimensionError(
            f"set has {len(pset.per_layer)} layer triples, model has {cfg.n_layers}"
        )
    layers = [
        _layer(w, pset.pi, lp, cfg, make)
        for w, lp in zip(params.layers, pset.per_layer)
    ]
    return ModelParams(
        config=cfg,
        embedding=params.embedding,
        layers=layers,
        w_c=make(params.w_c, pset.pi, pset.pi_c),
    )


def para_trans(params, pset):
    """θ′: every layer (`_layer`) and W_c′ = πᵀW_cπ_c; the embedding table stays as is."""
    return _theta_prime(params, pset, _two_sided)


def gather_plan(params, pset):
    """θ′ as `para_trans` gives it, with a `Gather` for each transformed tensor.

    Nothing is written until the caller writes each Gather where it wants
    it: `container.encode_model` writes each one straight into its slot.
    """
    return _theta_prime(params, pset, Gather)


def recover_output(o_perm, pi_c):
    """o = o′ π_cᵀ — undo the class permutation on a served output."""
    return apply_col_perm(o_perm, inverse_perm(pi_c))


def verify_equivalence(params, pset, trials, tol, n=16, seed=0):
    """Both inference paths on random inputs: report max |Δ| and argmax agreement.

    A non-finite |Δ| anywhere (a NaN or inf output on either path) fails the
    report, and max_abs_diff reads nan.
    """
    if trials < 1:
        raise InvalidDimensionError(f"trials must be >= 1, got {trials}")
    cfg = params.config
    transformed = para_trans(params, pset)
    rng = np.random.default_rng(seed)
    worst = []
    matches = 0
    total = 0
    for t in range(trials):
        x = rng.normal(size=(n, cfg.d_model)).astype(np.float32)
        if cfg.mask_kind is MaskKind.CUSTOM:
            mask = random_custom_mask(n, seed=int(rng.integers(2**31)))
        else:
            mask = make_mask(cfg.mask_kind, n=n)
        o = model_forward(x, params, mask)
        o_perm = model_forward(apply_col_perm(x, pset.pi), transformed, mask)
        rec = recover_output(o_perm, pset.pi_c)
        worst.append(np.max(np.abs(rec - o)))
        matches += int(np.sum(np.argmax(rec, axis=1) == np.argmax(o, axis=1)))
        total += n
    rate = matches / total
    max_diff = float(np.max(worst))  # NaN propagates
    if not np.isfinite(max_diff):
        max_diff = float("nan")
    return {
        "max_abs_diff": max_diff,
        "argmax_match_rate": rate,
        "trials": trials,
        "rows_per_trial": n,
        "tolerance": tol,
        "passed": bool(max_diff <= tol and rate == 1.0),
    }
