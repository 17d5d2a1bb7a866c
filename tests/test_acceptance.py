"""Acceptance gate: the ten properties the package must satisfy end to end.

Each test prints one `[criterion N] PASS/FAIL — detail` line (visible under
`pytest -s` or in the captured output of a failing run) and then asserts.
"""

import math
import socket
import time

import numpy as np

from conftest import VARIANT_CONFIGS, make_config
from stip import wire
from stip.bench import bench_permutation, bench_transform
from stip.model import MaskKind, gen_model, greedy_generate, make_mask, model_forward
from stip.numerics import apply_col_perm, gen_permutation
from stip.protocol import run_simulation
from stip.security import (
    KpaOutcome,
    bfa_exhaustive,
    dcorr_baseline_projection,
    distance_correlation,
    feature_distance_correlation,
    keyspace_log_size,
    kpa_column_match,
    kpa_parameter_resistance_demo,
    unauthorized_use_demo,
)
from stip.transform import gen_permutation_set, para_trans, recover_output
from stip.transport import SocketTransport, inproc_pair

DESK = dict(n_layers=4, d_model=64, d_ff=256, vocab_size=100)


def report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


def desk_variant(name):
    return make_config(**DESK, **VARIANT_CONFIGS[name])


def test_criterion_01_forward_equivalence_four_variants():
    t0 = time.perf_counter()
    triples = 0
    worst = 0.0
    argmax_hits = argmax_total = 0
    for vi, name in enumerate(sorted(VARIANT_CONFIGS)):
        cfg = desk_variant(name)
        for trial in range(26):
            seed = 1000 * vi + trial
            params = gen_model(cfg, seed)
            pset = gen_permutation_set(cfg, seed + 1)
            tm = para_trans(params, pset)
            x = np.random.default_rng(seed + 2).normal(size=(16, 64)).astype(np.float32)
            mask = make_mask(MaskKind.CAUSAL, 16)
            o = model_forward(x, params, mask)
            o_rec = recover_output(
                model_forward(apply_col_perm(x, pset.pi), tm, mask), pset.pi_c
            )
            worst = max(worst, float(np.max(np.abs(o_rec - o))))
            argmax_hits += int(np.sum(np.argmax(o_rec, axis=1) == np.argmax(o, axis=1)))
            argmax_total += o.shape[0]
            triples += 1
    elapsed = time.perf_counter() - t0
    ok = triples >= 100 and worst <= 1e-4 and argmax_hits == argmax_total and elapsed < 60.0
    report(
        1,
        ok,
        f"{triples} triples across 4 variants, max |o_rec − o| = {worst:.2e}, "
        f"argmax {argmax_hits}/{argmax_total}, {elapsed:.1f}s",
    )


def test_criterion_02_step_equivalences_with_custom_masks(layer_steps):
    worst = 0.0
    instances = 0
    for vi, name in enumerate(sorted(VARIANT_CONFIGS)):
        cfg = desk_variant(name)
        for trial in range(20):
            seed = 5000 + 100 * vi + trial
            params = gen_model(cfg, seed)
            pset = gen_permutation_set(cfg, seed + 1)
            tm = para_trans(params, pset)
            n = 4 + trial % 9
            x = np.random.default_rng(seed + 2).normal(size=(n, 64)).astype(np.float32)
            if trial % 2:
                mask = make_mask(MaskKind.CUSTOM, n, seed=seed + 3)
            else:
                mask = make_mask(MaskKind.CAUSAL, n)
            o = model_forward(x, params, mask)
            plain = layer_steps.take()
            o_p = model_forward(apply_col_perm(x, pset.pi), tm, mask)
            perm = layer_steps.take()
            assert len(plain) == len(perm) == cfg.n_layers
            for i, (pt, qt) in enumerate(zip(plain, perm)):
                lp = pset.per_layer[i]
                for key, p in (("Q", lp.pi1), ("K", lp.pi1), ("V", lp.pi2)):
                    worst = max(worst, float(np.max(np.abs(qt[key] - apply_col_perm(pt[key], p)))))
                for key in ("u", "v", "z", "y"):
                    worst = max(
                        worst, float(np.max(np.abs(qt[key] - apply_col_perm(pt[key], pset.pi))))
                    )
            worst = max(worst, float(np.max(np.abs(o_p - apply_col_perm(o, pset.pi_c)))))
            instances += 1
    ok = instances >= 80 and worst <= 1e-5
    report(
        2,
        ok,
        f"Q/K/V/u/v/z/y/o checked on {instances} instances "
        f"(20 per variant, half with random custom masks), max dev {worst:.2e}",
    )


def test_criterion_03_row_permutation_is_not_equivalent():
    cfg = make_config(**DESK)
    hits = 0
    diffs = []
    for trial in range(10):
        params = gen_model(cfg, 9000 + trial)
        rng = np.random.default_rng(9100 + trial)
        x = rng.normal(size=(16, 64)).astype(np.float32)
        sigma = rng.permutation(16)
        while np.array_equal(sigma, np.arange(16)):
            sigma = rng.permutation(16)
        mask = make_mask(MaskKind.CAUSAL, 16)
        o = model_forward(x, params, mask)
        o_sigma = model_forward(x[sigma], params, mask)
        diff = float(np.max(np.abs(o_sigma - o[sigma])))
        diffs.append(diff)
        hits += diff > 1e-3
    ok = hits == 10
    report(
        3,
        ok,
        f"causal-mask row permutation broke equivalence on {hits}/10 instances, "
        f"min diff {min(diffs):.2e}",
    )


def test_criterion_04_protocol_matches_local_greedy_on_both_transports():
    cfg = make_config(**DESK)
    params = gen_model(cfg, 77)
    rng = np.random.default_rng(78)
    prompts = [
        [int(t) for t in rng.integers(0, 100, size=int(rng.integers(1, 9)))]
        for _ in range(20)
    ]
    n_tokens = 6
    all_match = True
    counts_ok = True
    for kind in ("inproc", "socket"):
        streams, transcript = run_simulation(
            params, prompts, n_tokens, transport_kind=kind, seed=79
        )
        for prompt, stream in zip(prompts, streams):
            all_match &= stream == greedy_generate(params, prompt, n_tokens)
        counts_ok &= transcript.inference_count() == 2 * n_tokens * len(prompts)
    # single-prompt transcript pins the per-prompt count at exactly 2·N
    _, single = run_simulation(params, [prompts[0]], n_tokens, transport_kind="inproc", seed=80)
    counts_ok &= single.inference_count() == 2 * n_tokens
    ok = all_match and counts_ok
    report(
        4,
        ok,
        f"20 prompts × 2 transports match local greedy: {all_match}; "
        f"2·N inference messages per prompt: {counts_ok}",
    )


def test_criterion_05_kpa_recovery_ambiguity_and_parameter_resistance():
    recovered = 0
    for trial in range(100):
        rng = np.random.default_rng(11000 + trial)
        d = int(rng.integers(4, 33))
        x = rng.normal(size=(8, d)).astype(np.float32)
        pi = gen_permutation(d, 11500 + trial)
        res = kpa_column_match(x, apply_col_perm(x, pi))
        recovered += res.outcome is KpaOutcome.RECOVERED and res.permutation == pi

    x = np.random.default_rng(11999).normal(size=(8, 6)).astype(np.float32)
    x[:, 4] = x[:, 2]
    dup = kpa_column_match(x, apply_col_perm(x, gen_permutation(6, 12000)))
    ambiguous = dup.outcome is KpaOutcome.AMBIGUOUS

    cfg = make_config(**DESK)
    params = gen_model(cfg, 12001)
    pset = gen_permutation_set(cfg, 12002)
    rep = kpa_parameter_resistance_demo(params, pset, pset.pi)
    resist = all(not rep["summary"][k] for k in ("W_q", "W_k", "W_v", "W_1"))
    resist &= all(
        layer[k]["max_abs_diff"] > 0
        for layer in rep["layers"]
        for k in ("W_q", "W_k", "W_v", "W_1")
    )
    leak = rep["summary"]["gamma_1"] and rep["summary"]["gamma_2"]
    ok = recovered == 100 and ambiguous and resist and leak
    report(
        5,
        ok,
        f"column matching {recovered}/100 exact, duplicate columns ambiguous: {ambiguous}, "
        f"W_q/W_k/W_v/W_1 resist with shared key alone: {resist}, γ leak as expected: {leak}",
    )


def test_criterion_06_distance_correlation_ordering():
    n_rows, n_seeds = 64, 20
    perm_means, lin_means = {}, {}
    for d in (128, 512, 2048):
        perm_vals, lin_vals = [], []
        for seed in range(n_seeds):
            rng = np.random.default_rng(13000 + 31 * d + seed)
            x = rng.normal(size=(n_rows, d)).astype(np.float32)
            pi = gen_permutation(d, 13500 + seed)
            perm_vals.append(feature_distance_correlation(x, apply_col_perm(x, pi)).value)
            a = rng.normal(size=(d, d))
            lin_vals.append(distance_correlation(x, x @ a).value)
        perm_means[d] = float(np.mean(perm_vals))
        lin_means[d] = float(np.mean(lin_vals))
    monotone = perm_means[128] >= perm_means[512] >= perm_means[2048]
    below = all(perm_means[d] < lin_means[d] for d in perm_means)

    lhs, rhs = [], []
    for seed in range(n_seeds):
        x = np.random.default_rng(14000 + seed).normal(size=(n_rows, 256)).astype(np.float32)
        lhs.append(dcorr_baseline_projection(x, "random_linear_dxd", seed=seed).value)
        rhs.append(dcorr_baseline_projection(x, "random_1d", seed=seed).value)
    inequality = float(np.mean(lhs)) <= float(np.mean(rhs))
    ok = monotone and below and inequality
    report(
        6,
        ok,
        f"mean dCorr(x, xπ) over {n_seeds} seeds = "
        f"{perm_means[128]:.3f}/{perm_means[512]:.3f}/{perm_means[2048]:.3f} at d=128/512/2048 "
        f"(monotone {monotone}; below xA baseline {below}); "
        f"E[dCorr(x, xAπ)]={np.mean(lhs):.3f} ≤ E[dCorr(x, xB)]={np.mean(rhs):.3f}: {inequality}",
    )


def test_criterion_07_unauthorized_use_mismatch():
    cfg = make_config(**DESK)
    rates = []
    for seed in range(10):
        params = gen_model(cfg, 15000 + seed)
        pset = gen_permutation_set(cfg, 15100 + seed)
        tm = para_trans(params, pset)
        rep = unauthorized_use_demo(tm, [0, 1, 2, 3], params.embedding, pset, max_tokens=50)
        rates.append(rep["argmax_mismatch_rate"])
    ok = len(rates) >= 10 and all(r >= 0.9 for r in rates)
    report(
        7,
        ok,
        f"raw-embedding misuse mismatch over 50 tokens on 10 models: "
        f"min {min(rates):.2f}, mean {float(np.mean(rates)):.2f}",
    )


def test_criterion_08_keyspace_accounting_and_brute_force_wall():
    worst = max(
        abs(keyspace_log_size(make_config(d_model=d))["data_ln"] - math.log(math.factorial(d)))
        for d in range(2, 13)
    )
    refused = False
    x = np.random.default_rng(16000).normal(size=(4, 9)).astype(np.float32)
    try:
        bfa_exhaustive(x, x)
    except Exception as exc:
        refused = type(exc).__name__ == "KeyspaceTooLargeError"
    ok = worst <= 1e-9 and refused
    report(
        8,
        ok,
        f"ln(d!) vs factorial for d ≤ 12: max err {worst:.1e}; exhaustive search refuses d=9: {refused}",
    )


def test_criterion_09_permutation_speed_and_transform_time():
    perm = bench_permutation(d=1024, reps=31, seed=17000)
    tr = bench_transform(make_config(**DESK), seed=17001)
    ok = perm["index_faster"] and tr["transform_s"] < 1.0
    report(
        9,
        ok,
        f"1024×1024 index perm median {perm['index_median_s'] * 1e6:.0f}µs vs "
        f"matmul {perm['matmul_median_s'] * 1e6:.0f}µs; desk deploy write {tr['transform_s'] * 1e3:.0f}ms",
    )


def _random_frame(rng, i):
    """Frame i of criterion 10: message type i mod 7, random epoch, session and payload."""
    kind = list(wire.MsgType)[i % 7]
    epoch = int(rng.integers(0, 2**63))
    session = int(rng.integers(0, 2**63))
    if kind in (wire.MsgType.INFER_REQUEST, wire.MsgType.INFER_RESPONSE):
        m = rng.normal(size=(int(rng.integers(1, 9)), int(rng.integers(1, 9))))
        m = m.astype(np.float32)
        if i % 5 == 0:
            m[0, 0] = -np.inf
        maker = (
            wire.make_infer_request
            if kind is wire.MsgType.INFER_REQUEST
            else wire.make_infer_response
        )
        return maker(m, epoch, session)
    if kind is wire.MsgType.REKEY:
        return wire.make_rekey(epoch, max(epoch - 1, 0), session)
    if kind is wire.MsgType.ERROR:
        return wire.make_error(wire.ErrorCode.INTERNAL, f"detail {i}", epoch, session)
    if kind is wire.MsgType.ACK:
        return wire.make_ack(epoch, session)
    return wire.Frame(kind, epoch, session, rng.bytes(int(rng.integers(0, 200))))


def _wire_bytes(frame):
    return wire.encode_header(frame) + bytes(frame.payload)


def test_criterion_10_wire_round_trip_1000_frames():
    rng = np.random.default_rng(18000)
    failures = 0
    a, b = socket.socketpair()
    inproc, sock = inproc_pair(), (SocketTransport(a), SocketTransport(b))
    try:
        for i in range(1000):
            frame = _random_frame(rng, i)
            raw = _wire_bytes(frame)
            for near, far in (inproc, sock):
                near.send(frame)
                failures += _wire_bytes(far.recv(timeout=5)) != raw
    finally:
        for link in (*inproc, *sock):
            link.close()
    ok = failures == 0
    report(
        10,
        ok,
        f"1000 randomized frames across all 7 message types, each through an "
        f"in-process pair and a socket pair, {failures} round-trip failures",
    )
