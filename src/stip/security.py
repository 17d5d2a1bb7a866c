"""Attack toolkit and protection metrics.

Distance correlation (bias-corrected sample estimator), factorial keyspace
accounting, brute-force and column-matching key recovery, row fingerprinting
against a known embedding table, the parameter-resistance demonstration, and
the unauthorized-use demonstration.
"""

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import (
    InsufficientSamplesError,
    InvalidConfigError,
    InvalidDimensionError,
    KeyspaceTooLargeError,
)
from .model import embed, greedy_decode_step, make_mask, model_forward
from .numerics import (
    Permutation,
    apply_col_perm,
    apply_row_perm,
    apply_vec_perm,
    inverse_perm,
)
from .transform import para_trans, recover_output

BFA_DEFAULT_CAP = 8


@dataclass
class DcorrReport:
    value: float
    n_samples: int
    dims: tuple


class KpaOutcome(Enum):
    RECOVERED = "recovered"
    AMBIGUOUS = "ambiguous"
    FAILED = "failed"


@dataclass
class KpaResult:
    outcome: KpaOutcome
    permutation: Permutation | None = None
    groups: list = field(default_factory=list)


def _obs_matrix(x):
    a = np.asarray(x, dtype=np.float64)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise InvalidDimensionError(f"observations must be 2-D, got ndim={a.ndim}")
    return a


def _pairwise_dist(a):
    sq = np.sum(a * a, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (a @ a.T)
    np.maximum(d2, 0.0, out=d2)
    return np.sqrt(d2)


def _v_center(m):
    return m - m.mean(axis=0) - m.mean(axis=1, keepdims=True) + m.mean()


def _u_center(m):
    n = m.shape[0]
    ri = m.sum(axis=1, keepdims=True)
    rj = m.sum(axis=0, keepdims=True)
    out = m - ri / (n - 2) - rj / (n - 2) + m.sum() / ((n - 1) * (n - 2))
    np.fill_diagonal(out, 0.0)
    return out


def distance_correlation(x, y):
    """Sample distance correlation over rows-as-observations.

    Uses the bias-corrected (U-centered) estimator for n >= 4 observations and
    the classic double-centered statistic at n in {2, 3}, where U-centering is
    undefined. Either distance variance being 0 yields 0; the value is clipped
    into [0, 1].
    """
    a = _obs_matrix(x)
    b = _obs_matrix(y)
    if a.shape[0] != b.shape[0]:
        raise InvalidDimensionError(
            f"observation counts differ: {a.shape[0]} vs {b.shape[0]}"
        )
    n = a.shape[0]
    if n < 2:
        raise InsufficientSamplesError(f"need at least 2 observations, got {n}")
    da = _pairwise_dist(a)
    db = _pairwise_dist(b)
    if n >= 4:
        ca, cb = _u_center(da), _u_center(db)
    else:
        ca, cb = _v_center(da), _v_center(db)
    dcov2 = float((ca * cb).mean())
    vx = float((ca * ca).mean())
    vy = float((cb * cb).mean())
    if vx <= 0.0 or vy <= 0.0:
        value = 0.0
    else:
        value = math.sqrt(max(dcov2 / math.sqrt(vx * vy), 0.0))
    return DcorrReport(value=min(value, 1.0), n_samples=n, dims=tuple(a.shape))


def feature_distance_correlation(x, y):
    """Dependence between the feature columns of two same-width encodings.

    The privacy measure for dimension-preserving maps like xπ: a column
    permutation preserves all pairwise row distances, so the row-oriented
    statistic is identically 1 and only the feature pairing is informative.
    """
    a = _obs_matrix(x)
    b = _obs_matrix(y)
    if a.shape != b.shape:
        raise InvalidDimensionError(f"shapes differ: {a.shape} vs {b.shape}")
    return distance_correlation(a.T, b.T)


def dcorr_baseline_projection(x, kind, seed, identity=False):
    """Corr(x, xAπ) for a random linear map, or Corr(x, xB) for a random 1-D one.

    random_linear_dxd measures in the feature orientation (the encoding keeps
    all d columns); random_1d measures rows-as-observations (a single output
    column admits no feature pairing).
    """
    a = _obs_matrix(x)
    d = a.shape[1]
    rng = np.random.default_rng(seed)
    if kind == "random_linear_dxd":
        if identity:
            proj = a
        else:
            big_a = rng.normal(size=(d, d))
            pi = Permutation(rng.permutation(d))
            proj = apply_col_perm((a @ big_a).astype(np.float32), pi)
        return feature_distance_correlation(a, proj)
    if kind == "random_1d":
        b = rng.normal(size=(d, 1))
        return distance_correlation(a, a @ b)
    raise InvalidConfigError(f"unknown projection kind {kind!r}")


def keyspace_log_size(cfg):
    """Natural-log keyspace sizes: ln(d!) data, 3L·ln(d!) parameters, ln(s!) classes."""
    ln_d_fact = math.lgamma(cfg.d_model + 1)
    return {
        "data_ln": ln_d_fact,
        "params_ln": 3.0 * cfg.n_layers * ln_d_fact,
        "classifier_ln": math.lgamma(cfg.vocab_size + 1),
    }


def bfa_exhaustive(x_plain, x_perm, max_dim=BFA_DEFAULT_CAP):
    """Enumerate all d! column permutations; refuse beyond the cap.

    The refusal is the point: past small d the keyspace is computationally
    unreachable.
    """
    a = _obs_matrix(x_plain).astype(np.float32)
    b = _obs_matrix(x_perm).astype(np.float32)
    if a.shape != b.shape:
        raise InvalidDimensionError(f"shapes differ: {a.shape} vs {b.shape}")
    d = a.shape[1]
    if d > max_dim:
        raise KeyspaceTooLargeError(
            f"{d}! candidate permutations exceed the cap of {max_dim}!"
        )
    for cand in itertools.permutations(range(d)):
        idx = np.asarray(cand)
        if np.array_equal(a[:, idx], b):
            return KpaResult(KpaOutcome.RECOVERED, permutation=Permutation(idx))
    return KpaResult(KpaOutcome.FAILED)


def kpa_column_match(x_plain, x_perm, tol=0.0):
    """Match each ciphertext column to a plaintext column within tol.

    Distinct columns recover π outright; duplicate plaintext columns produce
    an Ambiguous result listing the colliding groups; an unmatched column
    fails the attack.
    """
    a = _obs_matrix(x_plain).astype(np.float32)
    b = _obs_matrix(x_perm).astype(np.float32)
    if a.shape != b.shape:
        raise InvalidDimensionError(f"shapes differ: {a.shape} vs {b.shape}")
    d = a.shape[1]
    matches = []
    for j in range(d):
        diffs = np.max(np.abs(a - b[:, j : j + 1]), axis=0)
        matches.append(np.flatnonzero(diffs <= tol))
    if any(m.size == 0 for m in matches):
        return KpaResult(KpaOutcome.FAILED)
    if all(m.size == 1 for m in matches):
        assignment = np.concatenate(matches)
        if np.unique(assignment).size == d:
            return KpaResult(
                KpaOutcome.RECOVERED, permutation=Permutation(assignment)
            )
    groups = sorted({tuple(int(k) for k in m) for m in matches if m.size > 1})
    return KpaResult(KpaOutcome.AMBIGUOUS, groups=[list(g) for g in groups])


def row_fingerprint_attack(table, x_perm):
    """Recover the tokens and π from permuted rows x′ = E[ids]·π, given the table E.

    A column permutation keeps each row's multiset of values, so a row's
    sorted values name its token whenever E has distinct rows. With the tokens
    known, E[ids] and x′ are a known-plaintext pair for `kpa_column_match`.
    This is why P2 must never hold E. Returns (token ids, KpaResult); an id
    is -1 where no row of E matches, and then the result is FAILED.
    """
    e = _obs_matrix(table).astype(np.float32)
    x = _obs_matrix(x_perm).astype(np.float32)
    if e.shape[1] != x.shape[1]:
        raise InvalidDimensionError(f"widths differ: {e.shape[1]} vs {x.shape[1]}")
    by_fingerprint = {}
    for token, row in enumerate(np.sort(e, axis=1)):
        by_fingerprint.setdefault(row.tobytes(), token)
    ids = np.array(
        [by_fingerprint.get(row.tobytes(), -1) for row in np.sort(x, axis=1)],
        dtype=np.int64,
    )
    if np.any(ids < 0):
        return ids, KpaResult(KpaOutcome.FAILED)
    return ids, kpa_column_match(e[ids], x)


def _recovery_entry(attempt, truth):
    diff = float(np.max(np.abs(attempt - truth)))
    return {
        "max_abs_diff": diff,
        "dcorr": distance_correlation(attempt, truth).value,
        "recovered": diff == 0.0,
    }


def kpa_parameter_resistance_demo(params, pset, recovered_pi):
    """What the shared π alone peels off the transformed parameters.

    Un-permuting with π recovers γ/β (and W_c, since π_c is also shared) but
    leaves every attention/FFN matrix scrambled by the developer-private
    side, which the attacker cannot remove.
    """
    if recovered_pi != pset.pi:
        raise InvalidConfigError("demo premise: the attacker holds the shared π")
    transformed = para_trans(params, pset)
    inv_pi = inverse_perm(pset.pi)
    layers = []
    for orig, tr in zip(params.layers, transformed.layers):
        entry = {
            # left-multiplying by π strips the shared side: π(πᵀWρ) = Wρ
            "W_q": _recovery_entry(apply_row_perm(tr.w_q, inv_pi), orig.w_q),
            "W_k": _recovery_entry(apply_row_perm(tr.w_k, inv_pi), orig.w_k),
            "W_v": _recovery_entry(apply_row_perm(tr.w_v, inv_pi), orig.w_v),
            "W_o": _recovery_entry(apply_col_perm(tr.w_o, inv_pi), orig.w_o),
            "gamma_1": _recovery_entry(apply_vec_perm(tr.gamma_1, inv_pi), orig.gamma_1),
            "gamma_2": _recovery_entry(apply_vec_perm(tr.gamma_2, inv_pi), orig.gamma_2),
        }
        tr_ffn = tr.ffn if tr.ffn is not None else tr.experts[0]
        orig_ffn = orig.ffn if orig.ffn is not None else orig.experts[0]
        entry["W_1"] = _recovery_entry(apply_row_perm(tr_ffn.w1, inv_pi), orig_ffn.w1)
        entry["W_2"] = _recovery_entry(apply_col_perm(tr_ffn.w2, inv_pi), orig_ffn.w2)
        if tr.w_g is not None:
            entry["W_g"] = _recovery_entry(apply_row_perm(tr.w_g, inv_pi), orig.w_g)
        layers.append(entry)
    w_c_attempt = apply_col_perm(
        apply_row_perm(transformed.w_c, inv_pi), inverse_perm(pset.pi_c)
    )
    report = {
        "layers": layers,
        "W_c": _recovery_entry(w_c_attempt, params.w_c),
        "summary": {
            name: all(layer[name]["recovered"] for layer in layers)
            for name in layers[0]
        },
    }
    return report


def unauthorized_use_demo(transformed, raw_prompt_ids, table, pset, max_tokens=50):
    """Greedy-decode the transformed model on raw (un-permuted) embeddings.

    The legitimate stream follows the protocol path (permute inputs, recover
    outputs with π_c); the unauthorized stream reads the served logits
    directly. Reports the fraction of positions where the two disagree.
    """
    cfg = transformed.config
    legit_ids = [int(t) for t in raw_prompt_ids]
    rogue_ids = list(legit_ids)
    legit_out = []
    rogue_out = []
    for _ in range(max_tokens):
        x = embed(legit_ids, table)
        mask = make_mask(cfg.mask_kind, n=len(legit_ids))
        o = recover_output(
            model_forward(apply_col_perm(x, pset.pi), transformed, mask),
            pset.pi_c,
        )
        nxt = greedy_decode_step(o)
        legit_ids.append(nxt)
        legit_out.append(nxt)

        xr = embed(rogue_ids, table)
        mask_r = make_mask(cfg.mask_kind, n=len(rogue_ids))
        o_r = model_forward(xr, transformed, mask_r)
        nxt_r = greedy_decode_step(o_r)
        rogue_ids.append(nxt_r)
        rogue_out.append(nxt_r)
    mismatches = sum(a != b for a, b in zip(legit_out, rogue_out))
    return {
        "argmax_mismatch_rate": mismatches / max_tokens if max_tokens else 0.0,
        "legitimate_tokens": legit_out,
        "unauthorized_tokens": rogue_out,
        "tokens": max_tokens,
    }
