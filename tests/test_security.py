"""Security toolkit: distance correlation, keyspace, BFA, KPA, misuse demo."""

import math

import numpy as np
import pytest

from conftest import make_config
from stip import wire
from stip.errors import (
    InsufficientSamplesError,
    InvalidDimensionError,
    KeyspaceTooLargeError,
)
from stip.model import gen_model
from stip.numerics import apply_col_perm, gen_permutation
from stip.protocol import DataOwnerParty, DeveloperParty
from stip.security import (
    KpaOutcome,
    bfa_exhaustive,
    dcorr_baseline_projection,
    distance_correlation,
    feature_distance_correlation,
    keyspace_log_size,
    kpa_column_match,
    kpa_parameter_resistance_demo,
    row_fingerprint_attack,
    unauthorized_use_demo,
)
from stip.transform import gen_permutation_set, para_trans

F32 = np.float32


def randm(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape).astype(F32)


# --- distance correlation ----------------------------------------------------


def naive_u_centered_dcorr(x, y):
    """Independent loop-based route: bias-corrected distance correlation."""
    n = x.shape[0]
    a = np.zeros((n, n))
    b = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            a[i, j] = math.dist(x[i].tolist(), x[j].tolist())
            b[i, j] = math.dist(y[i].tolist(), y[j].tolist())

    def u_center(m):
        out = np.zeros((n, n))
        total = m.sum()
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                out[i, j] = (
                    m[i, j]
                    - m[i, :].sum() / (n - 2)
                    - m[:, j].sum() / (n - 2)
                    + total / ((n - 1) * (n - 2))
                )
        return out

    au, bu = u_center(a), u_center(b)
    scale = n * (n - 3)
    cov = (au * bu).sum() / scale
    va = (au * au).sum() / scale
    vb = (bu * bu).sum() / scale
    if va <= 0 or vb <= 0:
        return 0.0
    r2 = cov / math.sqrt(va * vb)
    return math.sqrt(max(r2, 0.0))


def test_dcorr_self_correlation():
    x = randm((30, 6), 1)
    assert abs(distance_correlation(x, x).value - 1.0) <= 1e-6


def test_dcorr_symmetry():
    x = randm((25, 4), 2)
    y = randm((25, 7), 3)
    assert abs(distance_correlation(x, y).value - distance_correlation(y, x).value) <= 1e-9


def test_dcorr_independent_samples_low():
    x = randm((500, 8), 4)
    y = randm((500, 8), 5)
    assert distance_correlation(x, y).value < 0.2


def test_dcorr_matches_naive_loop_oracle():
    x = randm((12, 5), 6)
    y = randm((12, 3), 7)
    mine = distance_correlation(x, y).value
    oracle = naive_u_centered_dcorr(x.astype(np.float64), y.astype(np.float64))
    assert abs(mine - oracle) <= 1e-9


def test_dcorr_small_sample_fallback_matches_v_statistic():
    x = randm((3, 4), 8)
    y = randm((3, 4), 9)
    n = 3
    a = np.zeros((n, n))
    b = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            a[i, j] = math.dist(x[i].tolist(), x[j].tolist())
            b[i, j] = math.dist(y[i].tolist(), y[j].tolist())
    ac = a - a.mean(0) - a.mean(1)[:, None] + a.mean()
    bc = b - b.mean(0) - b.mean(1)[:, None] + b.mean()
    cov = (ac * bc).mean()
    va = (ac * ac).mean()
    vb = (bc * bc).mean()
    oracle = math.sqrt(cov / math.sqrt(va * vb))
    assert abs(distance_correlation(x, y).value - oracle) <= 1e-9


def test_dcorr_requires_two_rows():
    with pytest.raises(InsufficientSamplesError):
        distance_correlation(randm((1, 4), 10), randm((1, 4), 11))


def test_dcorr_row_count_mismatch():
    with pytest.raises(InvalidDimensionError):
        distance_correlation(randm((4, 3), 12), randm((5, 3), 13))


def test_dcorr_degenerate_variance_reports_zero():
    x = np.ones((6, 3), dtype=F32)
    y = randm((6, 3), 14)
    assert distance_correlation(x, y).value == 0.0


def test_dcorr_value_in_unit_interval():
    for seed in range(6):
        x = randm((10, 4), 20 + seed)
        y = randm((10, 4), 40 + seed)
        v = distance_correlation(x, y).value
        assert 0.0 <= v <= 1.0


def test_dcorr_report_fields():
    x = randm((8, 5), 15)
    rep = distance_correlation(x, x)
    assert rep.n_samples == 8
    assert rep.dims == (8, 5)


def test_feature_dcorr_of_column_permutation_is_small():
    # the headline privacy measurement: encoded data barely correlates
    x = randm((200, 4096), 16)
    pi = gen_permutation(4096, 17)
    rep = feature_distance_correlation(x, apply_col_perm(x, pi))
    assert rep.value <= 0.1


def test_feature_dcorr_requires_matching_shape():
    with pytest.raises(InvalidDimensionError):
        feature_distance_correlation(randm((4, 6), 18), randm((4, 5), 19))


def test_rows_dcorr_of_column_permutation_is_one():
    # column permutations preserve row geometry exactly, hence the
    # feature-space orientation used by the measurement above
    x = randm((40, 32), 20)
    pi = gen_permutation(32, 21)
    assert distance_correlation(x, apply_col_perm(x, pi)).value >= 0.999


# --- projection baselines -------------------------------------------------------


def test_baseline_identity_hook_is_self_correlation():
    x = randm((30, 16), 22)
    rep = dcorr_baseline_projection(x, "random_linear_dxd", seed=23, identity=True)
    assert abs(rep.value - 1.0) <= 1e-6


def test_baseline_kinds_and_bounds():
    x = randm((40, 32), 24)
    lin = dcorr_baseline_projection(x, "random_linear_dxd", seed=25)
    one = dcorr_baseline_projection(x, "random_1d", seed=26)
    assert 0.0 <= lin.value <= 1.0
    assert 0.0 <= one.value <= 1.0


def test_baseline_unknown_kind():
    from stip.errors import InvalidConfigError

    with pytest.raises(InvalidConfigError):
        dcorr_baseline_projection(randm((10, 4), 27), "fourier", seed=28)


def test_expectation_inequality_small_monte_carlo():
    # quick 8-seed version of the ordering the acceptance suite measures at 20
    lhs, rhs = [], []
    for seed in range(8):
        x = randm((64, 256), 100 + seed)
        lhs.append(dcorr_baseline_projection(x, "random_linear_dxd", seed=seed).value)
        rhs.append(dcorr_baseline_projection(x, "random_1d", seed=seed).value)
    assert np.mean(lhs) <= np.mean(rhs)


# --- keyspace --------------------------------------------------------------------


def test_keyspace_small_factorial():
    cfg = make_config(d_model=4)
    rep = keyspace_log_size(cfg)
    assert abs(rep["data_ln"] - math.log(24)) <= 1e-9


def test_keyspace_single_permutation_is_zero():
    # d=1 is unreachable through ModelConfig; the identity ln(1!) = 0 holds
    # for the same log-gamma route the config path uses
    assert math.lgamma(1 + 1) == 0.0


def test_keyspace_matches_factorial_up_to_12():
    for d in range(2, 13):
        cfg = make_config(d_model=d)
        assert abs(keyspace_log_size(cfg)["data_ln"] - math.log(math.factorial(d))) <= 1e-9


def test_keyspace_log_sum_dual_route_large_d():
    cfg = make_config(d_model=4096)
    got = keyspace_log_size(cfg)["data_ln"]
    oracle = sum(math.log(i) for i in range(1, 4097))
    assert abs(got - oracle) <= 1e-6 * oracle
    assert abs(got - 29978.6) <= 1.0


def test_keyspace_structure():
    cfg = make_config(n_layers=3, d_model=8, vocab_size=10)
    rep = keyspace_log_size(cfg)
    assert abs(rep["params_ln"] - 3 * 3 * math.lgamma(9)) <= 1e-9
    assert abs(rep["classifier_ln"] - math.lgamma(11)) <= 1e-9


def test_keyspace_monotone_in_d_and_l():
    base = keyspace_log_size(make_config(n_layers=2, d_model=8))
    more_d = keyspace_log_size(make_config(n_layers=2, d_model=16))
    more_l = keyspace_log_size(make_config(n_layers=4, d_model=8))
    assert more_d["data_ln"] > base["data_ln"]
    assert more_d["params_ln"] > base["params_ln"]
    assert more_l["params_ln"] > base["params_ln"]
    assert more_l["data_ln"] == base["data_ln"]


# --- brute force -------------------------------------------------------------------


def test_bfa_recovers_tiny_instance():
    x = randm((6, 3), 29)
    pi = gen_permutation(3, 30)
    res = bfa_exhaustive(x, apply_col_perm(x, pi))
    assert res.outcome is KpaOutcome.RECOVERED
    assert res.permutation == pi


def test_bfa_refuses_beyond_cap():
    x = randm((2, 9), 31)
    with pytest.raises(KeyspaceTooLargeError):
        bfa_exhaustive(x, x)


def test_bfa_cap_is_configurable():
    x = randm((2, 4), 32)
    with pytest.raises(KeyspaceTooLargeError):
        bfa_exhaustive(x, x, max_dim=3)


def test_bfa_mismatched_pair_fails():
    x = randm((5, 4), 33)
    other = randm((5, 4), 34)
    assert bfa_exhaustive(x, other).outcome is KpaOutcome.FAILED


def test_bfa_agrees_with_kpa_on_small_instances():
    for d in range(2, 7):
        for trial in range(4):
            x = randm((6, d), 35 + 10 * d + trial)
            pi = gen_permutation(d, 97 + trial)
            xp = apply_col_perm(x, pi)
            via_bfa = bfa_exhaustive(x, xp)
            via_kpa = kpa_column_match(x, xp)
            assert via_bfa.outcome is KpaOutcome.RECOVERED
            assert via_kpa.outcome is KpaOutcome.RECOVERED
            assert via_bfa.permutation == via_kpa.permutation == pi


# --- column matching -----------------------------------------------------------------


def test_kpa_recovers_distinct_columns():
    for trial in range(25):
        d = 4 + (trial % 61)
        x = randm((8, d), 200 + trial)
        pi = gen_permutation(d, 300 + trial)
        res = kpa_column_match(x, apply_col_perm(x, pi))
        assert res.outcome is KpaOutcome.RECOVERED
        assert res.permutation == pi
        # Recovered invariant: applying the permutation reproduces the ciphertext
        assert np.array_equal(apply_col_perm(x, res.permutation), apply_col_perm(x, pi))


def test_kpa_duplicate_columns_ambiguous():
    x = randm((6, 5), 36)
    x[:, 3] = x[:, 1]
    pi = gen_permutation(5, 37)
    res = kpa_column_match(x, apply_col_perm(x, pi))
    assert res.outcome is KpaOutcome.AMBIGUOUS
    assert [1, 3] in res.groups


def test_kpa_unrelated_data_fails():
    x = randm((6, 4), 38)
    y = apply_col_perm(randm((6, 4), 39), gen_permutation(4, 40))
    assert kpa_column_match(x, y).outcome is KpaOutcome.FAILED


def test_kpa_shape_mismatch():
    with pytest.raises(InvalidDimensionError):
        kpa_column_match(randm((4, 5), 41), randm((4, 6), 42))


def test_kpa_tolerance_recovers_noisy_channel():
    x = randm((8, 6), 43)
    pi = gen_permutation(6, 44)
    noisy = apply_col_perm(x, pi) + np.float32(1e-6)
    assert kpa_column_match(x, noisy).outcome is KpaOutcome.FAILED
    res = kpa_column_match(x, noisy, tol=1e-4)
    assert res.outcome is KpaOutcome.RECOVERED and res.permutation == pi


# --- row fingerprinting --------------------------------------------------------------


def test_row_fingerprint_recovers_tokens_and_pi_from_a_request_given_e():
    params = gen_model(make_config(d_model=16, vocab_size=40), 45)
    p1 = DeveloperParty(params, session_seed=46)
    p3 = DataOwnerParty(params.embedding, session_seed=47)
    p3.handle_deploy_keys(p1.initialize(48)[1])
    ids = [5, 0, 33, 5, 17, 39, 2, 21]
    x_perm, _, _ = wire.decode_infer_request(p3.infer_request(ids).payload)
    got, res = row_fingerprint_attack(params.embedding.table, x_perm)
    assert got.tolist() == ids
    assert res.outcome is KpaOutcome.RECOVERED
    assert res.permutation == p1.pset.pi


def test_row_fingerprint_without_a_matching_row_fails():
    table = randm((10, 6), 49)
    x_perm = apply_col_perm(np.vstack([table[3], randm((1, 6), 50)]), gen_permutation(6, 51))
    got, res = row_fingerprint_attack(table, x_perm)
    assert got.tolist() == [3, -1]
    assert res.outcome is KpaOutcome.FAILED


# --- parameter resistance ---------------------------------------------------------------


def test_resistance_identity_private_half_recovers_everything():
    from stip.numerics import identity_perm
    from stip.transform import LayerPerms, PermutationSet

    cfg = make_config()
    params = gen_model(cfg, 45)
    rand = gen_permutation_set(cfg, 46)
    pset = PermutationSet(
        pi=rand.pi,
        pi_c=rand.pi_c,
        per_layer=tuple(
            LayerPerms(
                pi1=identity_perm(cfg.d_model),
                pi2=identity_perm(cfg.d_model),
                pi3s=(identity_perm(cfg.d_ff),),
            )
            for _ in range(cfg.n_layers)
        ),
    )
    report = kpa_parameter_resistance_demo(params, pset, rand.pi)
    assert all(report["summary"].values())
    assert report["W_c"]["recovered"]


def test_resistance_random_private_half_blocks_recovery():
    cfg = make_config()
    params = gen_model(cfg, 47)
    pset = gen_permutation_set(cfg, 48)
    report = kpa_parameter_resistance_demo(params, pset, pset.pi)
    for name in ("W_q", "W_k", "W_v", "W_1"):
        assert not report["summary"][name]
        assert all(layer[name]["max_abs_diff"] > 0 for layer in report["layers"])
    assert report["summary"]["gamma_1"] and report["summary"]["gamma_2"]
    assert report["W_c"]["recovered"]


def test_resistance_demands_correct_premise():
    from stip.errors import InvalidConfigError

    cfg = make_config()
    params = gen_model(cfg, 49)
    pset = gen_permutation_set(cfg, 50)
    with pytest.raises(InvalidConfigError):
        kpa_parameter_resistance_demo(params, pset, gen_permutation(cfg.d_model, 51))


def test_resistance_moe_reports_router_leakage():
    cfg = make_config(n_experts=3)
    params = gen_model(cfg, 52)
    pset = gen_permutation_set(cfg, 53)
    report = kpa_parameter_resistance_demo(params, pset, pset.pi)
    assert report["summary"]["W_g"]  # W_g' = pi^T W_g uses only the shared key


# --- unauthorized use ----------------------------------------------------------------------


def test_unauthorized_identity_set_matches():
    cfg = make_config()
    params = gen_model(cfg, 54)
    pset = gen_permutation_set(cfg, 55, identity=True)
    tm = para_trans(params, pset)
    rep = unauthorized_use_demo(tm, [0, 1, 2], params.embedding, pset, max_tokens=8)
    assert rep["argmax_mismatch_rate"] == 0.0
    assert rep["legitimate_tokens"] == rep["unauthorized_tokens"]


def test_unauthorized_random_set_diverges():
    cfg = make_config(n_layers=4, d_model=64, d_ff=256, vocab_size=100, attn_scale=64.0)
    params = gen_model(cfg, 56)
    pset = gen_permutation_set(cfg, 57)
    tm = para_trans(params, pset)
    rep = unauthorized_use_demo(tm, [0, 1, 2, 3], params.embedding, pset, max_tokens=20)
    assert rep["argmax_mismatch_rate"] >= 0.9
    assert len(rep["legitimate_tokens"]) == 20
    assert len(rep["unauthorized_tokens"]) == 20


def test_unauthorized_report_interface():
    cfg = make_config()
    params = gen_model(cfg, 58)
    pset = gen_permutation_set(cfg, 59)
    tm = para_trans(params, pset)
    rep = unauthorized_use_demo(tm, [0], params.embedding, pset, max_tokens=0)
    assert rep["argmax_mismatch_rate"] == 0.0
    assert rep["tokens"] == 0
