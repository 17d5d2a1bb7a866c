"""Numerics layer: permutations, matmul, softmax, norms, activations."""

import math
import multiprocessing
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (
    helper_idle,
    layernorm_mean_oracle,
    matmul_cast_oracle,
    rmsnorm_mean_oracle,
    sigmoid_scatter_oracle,
    softmax_where_oracle,
    two_cores,
)
from stip import numerics
from stip.errors import DegenerateRowError, InvalidDimensionError
from stip.numerics import (
    F32_MIN,
    ColumnConcat,
    Gather,
    PanelMatrix,
    Permutation,
    apply_col_perm,
    apply_row_perm,
    apply_vec_perm,
    as_panels,
    gelu,
    gen_permutation,
    identity_perm,
    inverse_perm,
    layernorm,
    matmul,
    panel_width,
    relu,
    restore_neg_inf,
    rmsnorm,
    sanitize_neg_inf,
    sigmoid,
    softmax_rows,
    to_matrix,
)

F32 = np.float32


def randm(shape, seed=0, scale=1.0):
    return (np.random.default_rng(seed).normal(size=shape) * scale).astype(F32)


# --- permutation generation ---------------------------------------------


def test_gen_permutation_dim_one_is_identity():
    assert gen_permutation(1, 123).indices.tolist() == [0]


def test_gen_permutation_deterministic():
    a = gen_permutation(4, 7)
    b = gen_permutation(4, 7)
    assert a == b


def test_gen_permutation_is_bijection():
    p = gen_permutation(4, 11)
    assert sorted(p.indices.tolist()) == [0, 1, 2, 3]


def test_gen_permutation_zero_dim_rejected():
    with pytest.raises(InvalidDimensionError):
        gen_permutation(0, 1)


def test_permutation_validates_indices():
    with pytest.raises(InvalidDimensionError):
        Permutation(np.array([0, 0, 1], dtype=np.int64))


def test_different_seeds_differ_smoke():
    draws = {tuple(gen_permutation(16, s).indices.tolist()) for s in range(8)}
    assert len(draws) > 1


# --- column / row application -------------------------------------------


def test_apply_col_perm_identity():
    x = np.array([[1.0, 2.0, 3.0]], dtype=F32)
    assert np.array_equal(apply_col_perm(x, identity_perm(3)), x)


def test_apply_col_perm_swap():
    x = np.array([[1.0, 2.0, 3.0]], dtype=F32)
    p = Permutation(np.array([1, 0, 2], dtype=np.int64))
    assert apply_col_perm(x, p).tolist() == [[2.0, 1.0, 3.0]]


def test_apply_col_perm_matches_binary_matrix_product():
    x = randm((4, 4), seed=1)
    p = gen_permutation(4, 2)
    oracle = matmul(x, to_matrix(p))
    assert np.array_equal(apply_col_perm(x, p), oracle)


def test_apply_col_perm_dim_mismatch():
    with pytest.raises(InvalidDimensionError):
        apply_col_perm(randm((2, 3)), gen_permutation(4, 0))


def test_apply_row_perm_identity():
    x = randm((3, 2), seed=3)
    assert np.array_equal(apply_row_perm(x, identity_perm(3)), x)


def test_apply_row_perm_matches_transpose_matrix_product():
    x = randm((3, 2), seed=4)
    p = Permutation(np.array([1, 2, 0], dtype=np.int64))
    oracle = matmul(to_matrix(p).T, x)
    assert np.array_equal(apply_row_perm(x, p), oracle)


def test_apply_row_perm_inverse_law():
    x = randm((5, 3), seed=5)
    p = gen_permutation(5, 6)
    assert np.array_equal(apply_row_perm(apply_row_perm(x, p), inverse_perm(p)), x)


def test_apply_row_perm_dim_mismatch():
    with pytest.raises(InvalidDimensionError):
        apply_row_perm(randm((2, 3)), gen_permutation(3, 0))


# --- inverse ------------------------------------------------------------


def test_inverse_identity():
    assert inverse_perm(identity_perm(4)) == identity_perm(4)


def test_inverse_hand_case():
    p = Permutation(np.array([2, 0, 1], dtype=np.int64))
    assert inverse_perm(p).indices.tolist() == [1, 2, 0]


@given(st.integers(1, 32), st.integers(0, 10**6))
def test_col_perm_round_trip_bitwise(dim, seed):
    x = randm((3, dim), seed=seed % 999)
    p = gen_permutation(dim, seed)
    assert np.array_equal(apply_col_perm(apply_col_perm(x, p), inverse_perm(p)), x)


@given(st.integers(2, 16), st.integers(0, 10**6))
def test_index_and_matrix_routes_agree(dim, seed):
    x = randm((4, dim), seed=seed % 997)
    p = gen_permutation(dim, seed)
    assert np.array_equal(apply_col_perm(x, p), matmul(x, to_matrix(p)))


def test_apply_vec_perm():
    v = np.array([10.0, 20.0, 30.0], dtype=F32)
    p = Permutation(np.array([2, 0, 1], dtype=np.int64))
    assert apply_vec_perm(v, p).tolist() == [30.0, 10.0, 20.0]


# --- matmul ----------------------------------------------------------------


def test_matmul_identity():
    b = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=F32)
    assert np.array_equal(matmul(np.eye(2, dtype=F32), b), b)


def test_matmul_hand_case():
    a = np.array([[1.0, 2.0]], dtype=F32)
    b = np.array([[3.0], [4.0]], dtype=F32)
    assert matmul(a, b).tolist() == [[11.0]]


def test_matmul_against_naive_loops():
    a = randm((5, 4), seed=10)
    b = randm((4, 3), seed=11)
    out = matmul(a, b)
    oracle = np.zeros((5, 3), dtype=np.float64)
    for i in range(5):
        for j in range(3):
            acc = 0.0
            for k in range(4):
                acc += float(a[i, k]) * float(b[k, j])
            oracle[i, j] = acc
    assert np.max(np.abs(out.astype(np.float64) - oracle)) <= 1e-5


def test_matmul_dim_mismatch():
    with pytest.raises(InvalidDimensionError):
        matmul(randm((2, 3)), randm((2, 3)))
    with pytest.raises(InvalidDimensionError):
        matmul(randm((2, 3)).astype(np.float64), randm((2, 3)))


def test_matmul_rejects_a_3d_operand_of_either_dtype():
    for dtype in (F32, np.float64):
        with pytest.raises(InvalidDimensionError):
            matmul(np.ones((2, 2, 2), dtype=dtype), randm((2, 2)))
        with pytest.raises(InvalidDimensionError):
            matmul(randm((2, 2)), np.ones((2, 2, 2), dtype=dtype))


def test_matmul_takes_a_1d_operand_as_one_row():
    b = randm((3, 4), seed=30)
    for a in (np.array([1.0, 2.0, 3.0], dtype=F32), [1.0, 2.0, 3.0]):
        out = matmul(a, b)
        assert out.shape == (1, 4) and out.dtype == F32
        assert np.array_equal(out, matmul(np.array([[1.0, 2.0, 3.0]], dtype=F32), b))


def test_matmul_uses_a_float64_operand_unrounded():
    # 1 + 2^-30 rounds to 1.0 in float32, which would cancel to 0
    a = np.array([[1.0 + 2.0**-30, -1.0]])
    b = np.ones((2, 1))
    assert matmul(a, b).tolist() == [[2.0**-30]]
    assert matmul_cast_oracle(a, b).tolist() == [[0.0]]


def test_matmul_float32_and_float64_forms_give_the_same_bytes():
    a = randm((5, 7), seed=31, scale=3.0)
    b = randm((7, 6), seed=32, scale=3.0)
    out = matmul(a, b)
    assert out.dtype == F32
    for lhs in (a, a.astype(np.float64)):
        for rhs in (b, b.astype(np.float64), b.astype(np.float64).T.copy().T):
            assert matmul(lhs, rhs).tobytes() == out.tobytes()


# --- matmul on two cores ----------------------------------------------------


@given(
    n=st.sampled_from([1, 2, 63, 64]),
    k=st.integers(0, 40).map(lambda i: 2 * i + 1),
    m=st.integers(32, 160).map(lambda i: 2 * i + 1),
    seed=st.integers(0, 2**16),
)
def test_a_split_product_has_the_bytes_of_an_unsplit_one(n, k, m, seed):
    a = randm((n, k), seed=seed, scale=3.0)
    b = randm((k, m), seed=seed + 1, scale=3.0)
    with two_cores(0) as handed:
        out = matmul(a, b)
    assert len(handed) == 1 and helper_idle(handed)
    assert out.tobytes() == matmul_cast_oracle(a, b).tobytes()


def test_a_one_row_or_below_threshold_float64_product_is_not_handed_to_the_helper():
    a = randm((4, 96), seed=40)
    b = randm((96, 200), seed=41)
    assert 4 * 96 * 200 < numerics.SPLIT_MIN_MACS
    with two_cores(0) as handed:
        for rhs in (b.astype(np.float64), b.astype(np.float64).T.copy().T):
            assert matmul(a, rhs).tobytes() == matmul_cast_oracle(a, b).tobytes()
        assert not handed
        matmul(a, b)  # the float32 form of the same operand is split
    assert len(handed) == 1
    # a one-row product stays whole at any size
    with two_cores(0, min_macs=0) as one_row:
        out = matmul(a[:1], b.astype(np.float64))
    assert not one_row
    assert out.tobytes() == matmul_cast_oracle(a[:1], b).tobytes()


def test_the_float64_threshold_splits_moe_prefills_products_and_no_smaller_ones():
    # moe-prefill's 64-row products with d = 512 split; rekey-churn's 8-row
    # prefill with d = 256, d_ff = 1024 and every one-row step do not
    assert 64 * 512 * 512 >= numerics.SPLIT_MIN_MACS > 8 * 256 * 1024
    a = randm((64, 512), seed=38)
    b = randm((512, 512), seed=39).astype(np.float64)
    with two_cores(numerics.SPLIT_MIN_ELEMENTS, min_macs=numerics.SPLIT_MIN_MACS) as handed:
        assert matmul(a, b).tobytes() == matmul_cast_oracle(a, b).tobytes()
        assert len(handed) == 1
        matmul(a[:8, :256], randm((256, 1024), seed=37).astype(np.float64))
        matmul(a[:1], b)
    assert len(handed) == 1 and helper_idle(handed)


@given(
    n=st.sampled_from([2, 3, 63, 64]),
    k=st.integers(0, 40).map(lambda i: 2 * i + 1),
    m=st.integers(32, 160).map(lambda i: 2 * i + 1),
    layout=st.sampled_from(["C", "F"]),
    seed=st.integers(0, 2**16),
)
def test_a_split_float64_product_has_the_bytes_of_an_unsplit_one(n, k, m, layout, seed):
    a = randm((n, k), seed=seed, scale=3.0)
    b = randm((k, m), seed=seed + 1, scale=3.0)
    b64 = np.asarray(b, dtype=np.float64, order=layout)
    with two_cores(numerics.SPLIT_MIN_ELEMENTS, min_macs=0) as handed:
        out = matmul(a, b64)
    assert len(handed) == 1 and helper_idle(handed)
    assert out.tobytes() == matmul_cast_oracle(a, b).tobytes()


def test_a_product_below_the_threshold_or_too_narrow_to_cut_is_not_split():
    a = randm((2, 8), seed=42)
    with two_cores(numerics.SPLIT_MIN_ELEMENTS) as handed:
        matmul(a, randm((8, 1024), seed=43))
    with two_cores(0) as narrow:
        matmul(a, randm((8, 64), seed=44))  # the cut at 64 would leave no right half
    assert not handed and not narrow


def test_one_cpu_hands_nothing_off():
    a = randm((3, 64), seed=45)
    b = randm((64, 256), seed=46)
    with two_cores(0, cpus=1) as handed:
        out = matmul(a, b)
    assert not handed
    assert out.tobytes() == matmul_cast_oracle(a, b).tobytes()


@pytest.mark.parametrize("side", ["helper", "caller"])
def test_a_fault_in_either_half_reaches_the_caller_and_the_helper_runs_the_next_split(
    side,
):
    started = threading.Event()

    def there():
        started.set()
        if side == "helper":
            raise RuntimeError("helper half failed")

    def here():
        assert started.wait(timeout=5)  # the helper has its half
        if side == "caller":
            raise RuntimeError("caller half failed")

    with two_cores(0) as handed:
        with pytest.raises(RuntimeError, match=f"{side} half failed"):
            numerics._two_halves(here, there)
        assert len(handed) == 1 and helper_idle(handed)
        started.clear()
        ran_on = []

        def record():
            ran_on.append(threading.current_thread().name)
            started.set()

        numerics._two_halves(lambda: started.wait(timeout=5), record)
    assert ran_on == ["stip-helper"]
    assert len(handed) == 2 and helper_idle(handed)


def test_a_busy_helper_leaves_both_halves_to_the_caller():
    release = threading.Event()
    blocker = numerics._Half(lambda: release.wait(timeout=5))
    a = randm((2, 64), seed=47)
    b = randm((64, 256), seed=48)
    with two_cores(0) as handed:
        assert numerics._helper.offer(blocker)
        try:
            out = matmul(a, b)
        finally:
            release.set()
        assert blocker.done.wait(timeout=5)
    assert handed == [blocker]  # the product's half was refused, not queued
    assert out.tobytes() == matmul_cast_oracle(a, b).tobytes()


def test_a_half_the_helper_has_not_started_is_taken_back(monkeypatch):
    # a helper whose thread never takes its pending half
    stalled = numerics._Helper()
    stalled._thread = threading.current_thread()
    monkeypatch.setattr(numerics, "_helper", stalled)
    a = randm((2, 64), seed=49)
    b = randm((64, 256), seed=50)
    with two_cores(0) as handed:
        out = matmul(a, b)
    assert len(handed) == 1 and helper_idle(handed)
    assert stalled._pending is None
    assert out.tobytes() == matmul_cast_oracle(a, b).tobytes()


def test_two_threads_multiplying_at_once_both_get_their_products():
    pairs = [(randm((3, 64), seed=60 + i), randm((64, 200), seed=80 + i)) for i in range(8)]
    want = [matmul_cast_oracle(a, b).tobytes() for a, b in pairs]
    got = {0: [], 1: []}

    def work(t):
        for _ in range(20):
            got[t].append([matmul(a, b).tobytes() for a, b in pairs])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with two_cores(0) as handed:
            threads = [threading.Thread(target=work, args=(t,)) for t in got]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got[0] == got[1] == [want] * 20
    assert handed and helper_idle(handed)


def test_a_split_products_operands_die_once_it_returns():
    a = randm((2, 64), seed=51)
    b = randm((64, 256), seed=52)
    refs = [weakref.ref(a), weakref.ref(b)]
    with two_cores(0) as handed:
        out = matmul(a, b)
    del a, b
    assert [r() for r in refs] == [None, None]
    assert len(handed) == 1 and out.shape == (2, 256)


def _split_product_in_a_child():
    a = randm((2, 64), seed=53)
    b = randm((64, 256), seed=54)
    if matmul(a, b).tobytes() != matmul_cast_oracle(a, b).tobytes():
        sys.exit(2)
    helper = numerics._helper._thread
    sys.exit(0 if helper is not None and helper.is_alive() else 3)


def test_a_forked_child_starts_its_own_helper():
    with two_cores(0) as handed:
        matmul(randm((2, 64), seed=55), randm((64, 256), seed=56))
        assert handed  # the parent's helper thread is running
        child = multiprocessing.get_context("fork").Process(
            target=_split_product_in_a_child
        )
        child.start()
        try:
            child.join(timeout=30)
            assert not child.is_alive()
        finally:
            if child.is_alive():
                child.kill()
    assert child.exitcode == 0


# --- column panels ----------------------------------------------------------


def panel_matrix(b, cb):
    """`b` as a PanelMatrix of cb-column panels, read-only as a decoded one is."""
    panels = np.ascontiguousarray(as_panels(b, cb))
    panels.flags.writeable = False
    return PanelMatrix(panels)


def test_panel_width_is_the_widest_multiple_of_64_that_fits_and_leaves_two_panels():
    # moe-prefill's experts: W_1/W_3 are 512 x 1024, W_2 is 1024 x 512
    assert panel_width(512, 1024) == 256
    assert panel_width(1024, 512) == 128
    assert numerics.PANEL_BYTES == 1 << 20
    assert 512 * 256 * 8 == 1024 * 128 * 8 == numerics.PANEL_BYTES
    assert panel_width(64, 192) == 64  # 96 would fit, but is no multiple of 64
    assert panel_width(8, 128) == 64
    # one panel only, no multiple of 64 dividing n, or no panel in PANEL_BYTES
    for k, n in ((8, 64), (8, 136), (8, 100), (4096, 1024)):
        assert panel_width(k, n) == 0, (k, n)


def test_a_panel_matrix_reads_as_its_logical_matrix():
    b = randm((5, 192), seed=90)
    pm = panel_matrix(b, 64)
    assert pm.panels.shape == (3, 5, 64)
    assert pm.shape == np.shape(pm) == (5, 192)
    assert (pm.ndim, pm.dtype, pm.size) == (2, np.dtype(F32), b.size)
    for logical in (np.asarray(pm), np.array(pm), np.asarray(pm, dtype=F32)):
        assert type(logical) is np.ndarray and logical.tobytes() == b.tobytes()
    assert np.array(pm).flags.writeable
    assert np.array_equal(pm.panels[1], b[:, 64:128])
    with pytest.raises(ValueError):
        np.asarray(pm, copy=False)  # the logical matrix is always a copy
    with pytest.raises(InvalidDimensionError):
        PanelMatrix(b)


@given(
    m=st.sampled_from([1, 2, 63, 64]),
    k=st.integers(1, 40),
    panels=st.integers(2, 5),
    cb=st.sampled_from([64, 128]),
    seed=st.integers(0, 2**16),
)
def test_a_panel_product_has_the_bytes_of_a_row_major_one(m, k, panels, cb, seed):
    a = randm((m, k), seed=seed, scale=3.0)
    b = randm((k, panels * cb), seed=seed + 1, scale=3.0)
    want = matmul_cast_oracle(a, b).tobytes()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numerics, "PANEL_BYTES", k * cb * 8)  # small experts have panels
        assert panel_width(k, panels * cb) == cb
        pm = panel_matrix(b, panel_width(*b.shape))
    with two_cores(0) as handed:
        assert matmul(a, pm).tobytes() == want
        assert matmul(a.astype(np.float64), pm).tobytes() == want
    assert len(handed) == 2 and helper_idle(handed)
    with two_cores(0, cpus=1) as alone:
        assert matmul(a, pm).tobytes() == want
    assert not alone


def test_a_small_panel_product_stays_on_the_caller():
    a = randm((3, 8), seed=91)
    b = randm((8, 256), seed=92)
    with two_cores(numerics.SPLIT_MIN_ELEMENTS) as handed:
        out = matmul(a, panel_matrix(b, 64))
    assert not handed
    assert out.tobytes() == matmul_cast_oracle(a, b).tobytes()


def test_a_panel_matrix_multiplies_in_its_logical_shape():
    pm = panel_matrix(randm((8, 128), seed=93), 64)
    with pytest.raises(InvalidDimensionError):
        matmul(randm((2, 7), seed=94), pm)
    # as a left operand it is read as its logical matrix
    b = randm((128, 3), seed=95)
    assert matmul(pm, b).tobytes() == matmul_cast_oracle(np.asarray(pm), b).tobytes()


# --- column concatenation ---------------------------------------------------


def test_a_column_concat_reads_as_its_logical_matrix_and_copies_no_part():
    w1, w3 = randm((5, 192), seed=100), randm((5, 64), seed=101)
    cc = ColumnConcat(w1, w3)
    assert cc.shape == np.shape(cc) == (5, 256)
    assert (cc.dtype, cc.size) == (np.dtype(F32), w1.size + w3.size)
    assert cc.parts[0] is w1 and cc.parts[1] is w3
    assert np.asarray(cc).tobytes() == np.hstack([w1, w3]).tobytes()
    with pytest.raises(ValueError):
        np.asarray(cc, copy=False)
    with pytest.raises(InvalidDimensionError):
        ColumnConcat(w1, randm((4, 64), seed=102))
    with pytest.raises(InvalidDimensionError):
        matmul(randm((2, 4), seed=103), cc)


@given(
    rows=st.sampled_from([1, 2, 63, 64]),
    k=st.integers(1, 40),
    cb=st.sampled_from([64, 128]),
    panels=st.integers(2, 3),
    layout=st.sampled_from(["float32", "float64", "panels"]),
    seed=st.integers(0, 2**16),
)
def test_a_fused_w1_w3_product_has_the_bytes_of_the_oracle(
    rows, k, cb, panels, layout, seed
):
    a = randm((rows, k), seed=seed, scale=3.0)
    w1 = randm((k, panels * cb), seed=seed + 1, scale=3.0)
    w3 = randm((k, panels * cb), seed=seed + 2, scale=3.0)
    want = matmul_cast_oracle(a, np.hstack([w1, w3])).tobytes()
    if layout == "float64":
        parts = (w1.astype(np.float64), w3.astype(np.float64))
    elif layout == "panels":
        parts = (panel_matrix(w1, cb), panel_matrix(w3, cb))
    else:
        parts = (w1, w3)
    with two_cores(0, min_macs=0) as handed:
        out = matmul(a, ColumnConcat(*parts))
    assert out.tobytes() == want
    # W_1's columns on this thread, W_3's on the helper, unless a float64 one-row product
    assert len(handed) == (0 if layout == "float64" and rows == 1 else 1)
    assert helper_idle(handed)
    with two_cores(0, cpus=1) as alone:
        assert matmul(a, ColumnConcat(*parts)).tobytes() == want
    assert not alone


@pytest.mark.parametrize("sides", ["both", "rows", "cols"])
def test_a_gather_into_panels_writes_the_panels_of_its_array(sides):
    src = randm((70, 192), seed=96)
    rows = gen_permutation(70, 97) if sides != "cols" else None
    cols = gen_permutation(192, 98) if sides != "rows" else None
    g = Gather(src, rows, cols)
    raw = np.zeros(3 * 70 * 64 * 4 + 1, np.uint8)
    out = np.frombuffer(raw.data, "<f4", offset=1).reshape(3, 70, 64)  # unaligned
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numerics, "_GATHER_BLOCK", 192 * 16)  # five row blocks
        g.into(out)
    assert out.tobytes() == np.ascontiguousarray(as_panels(g.array(), 64)).tobytes()


# --- softmax ---------------------------------------------------------------


def test_softmax_symmetric_row():
    out = softmax_rows(np.array([[0.0, 0.0]], dtype=F32))
    assert np.allclose(out, [[0.5, 0.5]], atol=1e-7)


def test_softmax_permutation_equivariance():
    x = randm((4, 6), seed=12)
    p = gen_permutation(6, 13)
    assert np.array_equal(softmax_rows(apply_col_perm(x, p)), apply_col_perm(softmax_rows(x), p))


def test_softmax_mask_limit():
    out = softmax_rows(np.array([[0.0, -np.inf]], dtype=F32))
    assert out.tolist() == [[1.0, 0.0]]


def test_softmax_all_masked_row_rejected():
    with pytest.raises(DegenerateRowError):
        softmax_rows(np.array([[-np.inf, -np.inf]], dtype=F32))


def test_softmax_rows_sum_to_one():
    x = randm((8, 5), seed=14, scale=3.0)
    sums = softmax_rows(x).sum(axis=1)
    assert np.allclose(sums, 1.0, atol=1e-5)


def test_softmax_large_magnitudes_stable():
    x = np.array([[1000.0, 1000.0, -1000.0]], dtype=F32)
    out = softmax_rows(x)
    assert np.isfinite(out).all()
    assert np.allclose(out, [[0.5, 0.5, 0.0]], atol=1e-6)


# --- norms -----------------------------------------------------------------


def test_layernorm_hand_case():
    x = np.array([[1.0, 2.0, 3.0]], dtype=F32)
    out = layernorm(x, np.ones(3, dtype=F32), np.zeros(3, dtype=F32), eps=0.0)
    assert np.allclose(out, [[-1.2247, 0.0, 1.2247]], atol=1e-4)


def test_layernorm_constant_row():
    x = np.full((1, 4), 7.0, dtype=F32)
    gamma = np.full(4, 2.0, dtype=F32)
    beta = np.array([0.1, 0.2, 0.3, 0.4], dtype=F32)
    out = layernorm(x, gamma, beta, eps=1e-5)
    assert np.allclose(out, beta[None, :], atol=1e-5)


def test_layernorm_permutation_equivariance():
    x = randm((5, 8), seed=15)
    gamma = randm((8,), seed=16) + 1.0
    beta = randm((8,), seed=17)
    p = gen_permutation(8, 18)
    lhs = layernorm(apply_col_perm(x, p), apply_vec_perm(gamma, p), apply_vec_perm(beta, p))
    rhs = apply_col_perm(layernorm(x, gamma, beta), p)
    assert np.allclose(lhs, rhs, atol=1e-6)


def test_layernorm_dim_mismatch():
    with pytest.raises(InvalidDimensionError):
        layernorm(randm((2, 3)), np.ones(4, dtype=F32), np.zeros(4, dtype=F32))


def test_rmsnorm_hand_case():
    x = np.array([[3.0, 4.0]], dtype=F32)
    out = rmsnorm(x, np.ones(2, dtype=F32), eps=0.0)
    assert np.allclose(out, [[0.8485, 1.1314]], atol=1e-4)


def test_rmsnorm_zero_row():
    out = rmsnorm(np.zeros((1, 3), dtype=F32), np.ones(3, dtype=F32), eps=1e-5)
    assert np.array_equal(out, np.zeros((1, 3), dtype=F32))


def test_rmsnorm_permutation_equivariance():
    x = randm((4, 6), seed=19)
    gamma = randm((6,), seed=20) + 1.0
    p = gen_permutation(6, 21)
    lhs = rmsnorm(apply_col_perm(x, p), apply_vec_perm(gamma, p))
    rhs = apply_col_perm(rmsnorm(x, gamma), p)
    assert np.allclose(lhs, rhs, atol=1e-6)


def test_row_statistics_invariant_under_column_permutation():
    x = randm((6, 10), seed=22)
    p = gen_permutation(10, 23)
    xp = apply_col_perm(x, p)
    for stat in (
        lambda m: m.mean(axis=1, dtype=np.float64),
        lambda m: m.std(axis=1, dtype=np.float64),
        lambda m: np.sqrt(np.mean(m.astype(np.float64) ** 2, axis=1)),
    ):
        assert np.allclose(stat(x), stat(xp), atol=1e-10)


# --- activations -----------------------------------------------------------


def test_relu_hand_case():
    assert relu(np.array([[-1.0, 2.0]], dtype=F32)).tolist() == [[0.0, 2.0]]


def test_sigmoid_zero():
    assert sigmoid(np.array([[0.0]], dtype=F32)).tolist() == [[0.5]]


def test_sigmoid_extreme_inputs_stable():
    out = sigmoid(np.array([[-100.0, 100.0]], dtype=F32))
    assert np.isfinite(out).all()
    assert np.allclose(out, [[0.0, 1.0]], atol=1e-6)


_TINY = float(np.finfo(F32).smallest_subnormal)
_SIGMOID_EDGES = [
    0.0, -0.0, np.inf, -np.inf, np.nan, _TINY, -_TINY,
    float(np.finfo(F32).tiny), -float(np.finfo(F32).tiny),
    88.0, -88.0, 88.8, -88.8, 103.9, -103.9, 104.0, -104.0,
    float(np.finfo(F32).max), float(np.finfo(F32).min),
]


@given(
    arrays(
        F32,
        st.tuples(st.integers(1, 4), st.integers(1, 40)),
        elements=st.one_of(st.floats(width=32), st.sampled_from(_SIGMOID_EDGES)),
    )
)
def test_sigmoid_bit_identical_to_scatter_oracle(x):
    out = sigmoid(x)
    assert out.dtype == F32
    assert np.array_equal(out, sigmoid_scatter_oracle(x), equal_nan=True)


def test_sigmoid_edges_and_a_gate_sized_block_match_the_oracle():
    edges = np.array([_SIGMOID_EDGES], dtype=F32)
    out = sigmoid(edges)
    assert np.array_equal(out, sigmoid_scatter_oracle(edges), equal_nan=True)
    assert out[0, 1] == 0.5 and out[0, 2] == 1.0 and out[0, 3] == 0.0
    assert np.isnan(out[0, 4])
    # a 64 x 1024 SwiGLU gate, wide enough for every SIMD body and tail path
    gate = randm((64, 1024), seed=28, scale=30.0)
    assert np.array_equal(sigmoid(gate), sigmoid_scatter_oracle(gate))


def test_gelu_matches_gaussian_cdf_oracle():
    x = randm((3, 5), seed=24, scale=2.0)
    out = gelu(x)
    for i in range(3):
        for j in range(5):
            v = float(x[i, j])
            phi = 0.5 * (1.0 + math.erf(v / math.sqrt(2.0)))
            assert abs(float(out[i, j]) - v * phi) <= 1e-6


@pytest.mark.parametrize("fn", [relu, gelu, sigmoid])
def test_elementwise_equivariance_bitwise(fn):
    x = randm((4, 7), seed=25)
    p = gen_permutation(7, 26)
    assert np.array_equal(fn(apply_col_perm(x, p)), apply_col_perm(fn(x), p))


def test_outputs_are_float32():
    x = randm((2, 3), seed=27)
    for out in (
        relu(x),
        gelu(x),
        sigmoid(x),
        softmax_rows(x),
        layernorm(x, np.ones(3, dtype=F32), np.zeros(3, dtype=F32)),
        rmsnorm(x, np.ones(3, dtype=F32)),
    ):
        assert out.dtype == F32


# --- -inf sentinel codec -----------------------------------------------------------


def test_sentinel_codec_copies_nothing_without_a_sentinel():
    x = randm((3, 4), 90)
    assert sanitize_neg_inf(x) is x
    assert restore_neg_inf(x) is x
    empty = np.zeros((0, 4), F32)
    assert sanitize_neg_inf(empty) is empty and restore_neg_inf(empty) is empty


def test_sentinel_codec_maps_only_the_sentinel_and_leaves_its_input():
    x = randm((2, 3), 91)
    x[0, 1] = -np.inf
    x[1, 2] = np.nan
    before = x.copy()
    stored = sanitize_neg_inf(x)
    assert np.array_equal(x, before, equal_nan=True)
    assert stored.dtype == F32 and stored[0, 1] == F32_MIN
    assert not np.any(np.isneginf(stored))
    back = restore_neg_inf(stored)
    assert back is not stored and np.isneginf(back[0, 1])
    assert np.array_equal(back, x, equal_nan=True)
    assert stored[0, 1] == F32_MIN


# --- trimmed primitives against the oracles they replace ---------------------------

_ROW_EDGES = _SIGMOID_EDGES + [1e-40, -1e-40, 3.0e38, -3.0e38]
_ELEMENTS = st.one_of(st.floats(width=32), st.sampled_from(_ROW_EDGES))
_FINITE = st.floats(width=32, allow_nan=False, allow_infinity=False)


@st.composite
def _row_blocks(draw, max_rows=6, max_cols=24):
    """Float32 n x d blocks; each row is as drawn, constant, or -inf but one entry."""
    n = draw(st.integers(1, max_rows))
    d = draw(st.integers(1, max_cols))
    x = draw(arrays(F32, (n, d), elements=_ELEMENTS))
    for i in range(n):
        kind = draw(st.sampled_from(("drawn", "constant", "one_finite")))
        if kind == "constant":
            x[i] = draw(_ELEMENTS)
        elif kind == "one_finite":
            x[i] = -np.inf
            x[i, draw(st.integers(0, d - 1))] = draw(_FINITE)
    return x


def _same(fast, oracle):
    return fast.dtype == oracle.dtype and np.array_equal(fast, oracle, equal_nan=True)


def _both(fast, oracle, *args):
    """Both calls' results, or both their exception types."""
    outs = []
    with np.errstate(all="ignore"):
        for fn in (fast, oracle):
            try:
                outs.append(fn(*args))
            except DegenerateRowError as exc:
                outs.append(type(exc))
    return outs


@given(_row_blocks(), st.data())
def test_matmul_bit_identical_to_cast_oracle(a, data):
    m = data.draw(st.integers(1, 12))
    b = data.draw(arrays(F32, (a.shape[1], m), elements=_ELEMENTS))
    with np.errstate(all="ignore"):
        out = matmul(a, b)
        assert _same(out, matmul_cast_oracle(a, b))
        assert _same(matmul(a.astype(np.float64), b.astype(np.float64)), out)


@given(_row_blocks())
def test_softmax_rows_bit_identical_to_where_oracle(x):
    fast, oracle = _both(softmax_rows, softmax_where_oracle, x)
    if fast is DegenerateRowError or oracle is DegenerateRowError:
        assert fast is oracle
    else:
        assert _same(fast, oracle)


@given(_row_blocks(), st.data())
def test_norms_bit_identical_to_mean_oracles(x, data):
    d = x.shape[1]
    gamma = data.draw(arrays(F32, d, elements=_ELEMENTS))
    beta = data.draw(arrays(F32, d, elements=_ELEMENTS))
    assert _same(*_both(layernorm, layernorm_mean_oracle, x, gamma, beta))
    assert _same(*_both(rmsnorm, rmsnorm_mean_oracle, x, gamma))


def test_primitives_match_the_oracles_on_edge_rows_and_model_sized_blocks():
    edges = np.array([_ROW_EDGES], dtype=F32)
    d = edges.shape[1]
    one_finite = np.full((1, d), -np.inf, dtype=F32)
    one_finite[0, 3] = 2.5
    rows = np.concatenate(
        [edges, np.full((1, d), 7.0, F32), np.zeros((1, d), F32), one_finite]
    )
    ones, zeros = np.ones(d, F32), np.zeros(d, F32)
    for x in (rows, *(rows[i : i + 1] for i in range(len(rows)))):
        assert _same(*_both(layernorm, layernorm_mean_oracle, x, ones, zeros))
        assert _same(*_both(rmsnorm, rmsnorm_mean_oracle, x, ones))
        assert _same(*_both(softmax_rows, softmax_where_oracle, x))
    # one-row decode steps and a prefill, at the widths the workloads use
    for n, d, m in ((1, 64, 256), (1, 256, 4096), (64, 512, 1024), (17, 200, 3)):
        x = randm((n, d), seed=n + d, scale=4.0)
        w = randm((d, m), seed=m)
        g, b = randm((d,), seed=1) + 1.0, randm((d,), seed=2)
        assert _same(matmul(x, w), matmul_cast_oracle(x, w))
        assert _same(layernorm(x, g, b), layernorm_mean_oracle(x, g, b))
        assert _same(rmsnorm(x, g), rmsnorm_mean_oracle(x, g))
        assert _same(softmax_rows(x), softmax_where_oracle(x))
