"""Model and key-set file formats: binary containers and the JSON mirror."""

import json
import struct
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    VARIANT_CONFIGS,
    helper_idle,
    make_config,
    overflowing_container,
    two_cores,
)
from stip import numerics
from stip.container import (
    FORMAT_VERSION,
    KEYS_MAGIC,
    MODEL_MAGIC,
    ROLE_PI,
    ROLE_PI_C,
    _Reader,
    _tensor_map,
    config_to_bytes,
    decode_keys,
    decode_model,
    encode_keys,
    encode_model,
    load_keys,
    load_model,
    load_model_json,
    model_from_json,
    model_to_json,
    save_keys,
    save_model,
    save_model_json,
)
from stip.errors import CodecError
from stip.model import FfnKind, NormKind, NormPlacement, gen_model
from stip.numerics import F32_MIN, Gather, PanelMatrix, as_panels, panel_width
from stip.transform import gen_permutation_set, para_trans

F32 = np.float32


def params_equal(a, b):
    assert a.config == b.config
    assert np.array_equal(a.embedding.table, b.embedding.table)
    assert np.array_equal(a.w_c, b.w_c)
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.w_q, lb.w_q)
        assert np.array_equal(la.w_o, lb.w_o)
        assert np.array_equal(la.gamma_1, lb.gamma_1)
        if la.beta_1 is None:
            assert lb.beta_1 is None
        else:
            assert np.array_equal(la.beta_1, lb.beta_1)
        if la.ffn is None:
            assert lb.ffn is None
        else:
            assert np.array_equal(la.ffn.w1, lb.ffn.w1)
            if la.ffn.w3 is not None:
                assert np.array_equal(la.ffn.w3, lb.ffn.w3)
        if la.w_g is not None:
            assert np.array_equal(la.w_g, lb.w_g)
            for ea, eb in zip(la.experts, lb.experts):
                assert np.array_equal(ea.w1, eb.w1)
                assert np.array_equal(ea.w2, eb.w2)


@pytest.mark.parametrize("name", sorted(VARIANT_CONFIGS))
def test_model_binary_round_trip(name):
    cfg = make_config(**VARIANT_CONFIGS[name])
    params = gen_model(cfg, 1)
    params_equal(params, decode_model(encode_model(params)))


def reference_encoding(params):
    """The container written field by field from the JSON mirror: an independent oracle."""
    return encode_json_doc(model_to_json(params), params.config)


def encode_json_doc(doc, cfg):
    """The container holding the tensors of a JSON mirror `doc`, as they stand."""
    parts = [struct.pack("<4sH", MODEL_MAGIC, FORMAT_VERSION), config_to_bytes(cfg)]
    for name, t in doc["tensors"].items():
        nm = name.encode("utf-8")
        dims = t["dims"]
        parts.append(struct.pack(f"<H{len(nm)}sB{len(dims)}I", len(nm), nm, len(dims), *dims))
        parts.append(np.asarray(t["data"], dtype="<f4").tobytes())
    return b"".join(parts)


def with_neg_inf(params):
    """The model with -inf written into a few tensors: what the sentinel is for."""
    params.w_c[0, 1] = -np.inf
    params.layers[0].w_q[2, 3] = -np.inf
    params.layers[-1].gamma_2[0] = -np.inf
    return params


@pytest.mark.parametrize("served", [False, True], ids=["full", "served"])
@pytest.mark.parametrize("name", sorted(VARIANT_CONFIGS))
def test_model_encoding_is_the_format_and_decodes_bit_identical(name, served):
    params = with_neg_inf(gen_model(make_config(**VARIANT_CONFIGS[name]), 11))
    if served:
        params = replace(params, embedding=None)
    blob = encode_model(params)
    assert blob == reference_encoding(params)
    again = decode_model(blob)
    assert (again.embedding is None) == served
    want, got = _tensor_map(params), _tensor_map(again)
    assert list(got) == list(want)
    for key, tensor in want.items():
        assert got[key].dtype == F32
        assert got[key].tobytes() == np.asarray(tensor, dtype=F32).tobytes(), key
    assert np.isneginf(again.w_c[0, 1]) and np.isneginf(again.layers[0].w_q[2, 3])


@settings(max_examples=60, deadline=None)
@given(
    norm_kind=st.sampled_from(NormKind),
    placement=st.sampled_from(NormPlacement),
    ffn_kind=st.sampled_from(FfnKind),
    n_experts=st.sampled_from([0, 2, 3]),
    neg_inf=st.booleans(),
    served=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_theta_prime_gathered_into_the_container_is_para_trans_encoded(
    norm_kind, placement, ffn_kind, n_experts, neg_inf, served, seed
):
    _check_theta_prime_container(
        norm_kind, placement, ffn_kind, n_experts, neg_inf, served, seed
    )


def _check_theta_prime_container(
    norm_kind, placement, ffn_kind, n_experts, neg_inf, served, seed
):
    """θ′ gathered into the container is para_trans encoded; it decodes to θ′."""
    cfg = make_config(
        norm_kind=norm_kind,
        norm_placement=placement,
        ffn_kind=ffn_kind,
        n_experts=n_experts,
    )
    params = gen_model(cfg, seed)
    if neg_inf:
        params = with_neg_inf(params)
    if served:
        params = replace(params, embedding=None)
    pset = gen_permutation_set(cfg, seed + 1)
    blob = encode_model(params, pset)
    theta = para_trans(params, pset)
    assert blob == encode_model(theta)
    # the sentinel is written after the gather, wherever -inf landed
    assert (np.float32(F32_MIN).tobytes() in bytes(blob)) == neg_inf
    # and read back as -inf where para_trans put it
    got = _tensor_map(decode_model(blob))
    for name, tensor in _tensor_map(theta).items():
        assert got[name].tobytes() == np.asarray(tensor, dtype=F32).tobytes(), name


@settings(max_examples=30, deadline=None)
@given(
    norm_kind=st.sampled_from(NormKind),
    placement=st.sampled_from(NormPlacement),
    ffn_kind=st.sampled_from(FfnKind),
    n_experts=st.sampled_from([0, 2, 3]),
    neg_inf=st.booleans(),
    served=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_theta_prime_split_between_two_threads_is_para_trans_encoded(
    norm_kind, placement, ffn_kind, n_experts, neg_inf, served, seed
):
    # with no size threshold, every tensor is in the split
    with two_cores(0) as handed:
        _check_theta_prime_container(
            norm_kind, placement, ffn_kind, n_experts, neg_inf, served, seed
        )
    assert handed and helper_idle(handed)


def test_full_size_theta_prime_split_between_two_threads_is_para_trans_encoded():
    # rekey-churn's model: most of its tensors reach the threshold
    cfg = make_config(
        n_layers=4, d_model=256, d_ff=1024, vocab_size=4096, ffn_kind=FfnKind.GELU
    )
    params = with_neg_inf(replace(gen_model(cfg, 12), embedding=None))
    pset = gen_permutation_set(cfg, 13)
    with two_cores(numerics.SPLIT_MIN_ELEMENTS) as handed:
        blob = encode_model(params, pset)
        model = decode_model(blob)
    assert len(handed) == 2  # one half to write, one to scan
    with two_cores(float("inf")) as handed:  # the same, on one thread
        want = encode_model(para_trans(params, pset))
    assert not handed
    assert blob == want
    assert np.isneginf(model.w_c).sum() == 1


def test_rekey_churn_theta_prime_is_dealt_out_by_load():
    cfg = make_config(
        n_layers=4, d_model=256, d_ff=1024, vocab_size=4096, ffn_kind=FfnKind.GELU
    )
    params = replace(gen_model(cfg, 22), embedding=None)
    sizes = [t.size for t in _tensor_map(params).values()]
    jobs = [(n, i) for i, n in enumerate(sizes)]
    mine, theirs = numerics._deal(jobs)
    assert sorted(mine + theirs) == list(range(len(jobs)))
    # every small tensor stays on the caller; the large ones are shared by load
    assert not any(sizes[i] < numerics.SPLIT_MIN_ELEMENTS for i in theirs)
    caller, helper = sum(sizes[i] for i in mine), sum(sizes[i] for i in theirs)
    assert abs(caller - helper) <= max(sizes)
    # W′_c alone is a quarter of θ′: dealing in turn gave the caller ~62%
    assert max(sizes) == 256 * 4096 and abs(caller - helper) < 0.1 * sum(sizes)


@pytest.mark.parametrize("side", ["helper", "caller"])
def test_a_fault_in_either_half_of_a_split_encode_leaves_no_thread(side, monkeypatch):
    cfg = make_config(d_model=16, d_ff=32)
    params = gen_model(cfg, 14)
    pset = gen_permutation_set(cfg, 15)
    into = Gather.into
    helper_started = threading.Event()

    def into_or_fail(self, out):
        on_helper = threading.current_thread() is not threading.main_thread()
        if on_helper:
            helper_started.set()
        else:  # the helper's half has started before the caller's goes on
            assert helper_started.wait(timeout=5)
        if on_helper == (side == "helper"):
            time.sleep(0.05)  # fail after the other half is done
            raise RuntimeError(f"gather failed on the {side}")
        into(self, out)

    monkeypatch.setattr(Gather, "into", into_or_fail)
    with two_cores(0) as handed:
        with pytest.raises(RuntimeError, match=side):
            encode_model(params, pset)
    assert len(handed) == 1 and helper_idle(handed)


def test_a_desk_sized_model_is_written_and_read_on_one_thread():
    cfg = make_config(n_layers=4, d_model=64, d_ff=256, vocab_size=100)
    params = gen_model(cfg, 16)
    with two_cores(numerics.SPLIT_MIN_ELEMENTS) as handed:
        decode_model(encode_model(params, gen_permutation_set(cfg, 17)))
        decode_model(encode_model(params))
    assert not handed


def test_one_cpu_starts_no_helper():
    cfg = make_config(d_model=16, d_ff=32)
    params = gen_model(cfg, 18)
    pset = gen_permutation_set(cfg, 19)
    with two_cores(0, cpus=1) as handed:
        blob = encode_model(params, pset)
        decode_model(blob)
    assert not handed
    assert blob == encode_model(para_trans(params, pset))


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_host_without_affinity_splits_by_its_cpu_count(cpus, monkeypatch):
    # macOS and Windows have no os.sched_getaffinity
    cfg = make_config(d_model=16, d_ff=32)
    params = gen_model(cfg, 20)
    pset = gen_permutation_set(cfg, 21)
    with two_cores(float("inf")) as handed:
        want = encode_model(params, pset)
    assert not handed
    monkeypatch.delattr(numerics.os, "sched_getaffinity")
    monkeypatch.setattr(numerics.os, "cpu_count", lambda: cpus)
    with two_cores(0, cpus=None) as handed:
        blob = encode_model(params, pset)
    assert len(handed) == cpus - 1
    assert helper_idle(handed)
    assert blob == want


def test_model_file_round_trip(tmp_path):
    params = gen_model(make_config(), 2)
    path = tmp_path / "m.stip"
    save_model(params, str(path))
    loaded = load_model(str(path))
    params_equal(params, loaded)
    # a loaded model's tensors are its own, writeable arrays
    for name, tensor in _tensor_map(loaded).items():
        assert tensor.flags.writeable and tensor.flags.aligned, name


def test_decoded_model_is_read_only_views_into_the_container():
    params = with_neg_inf(gen_model(make_config(n_experts=2), 12))
    blob = encode_model(params)
    raw = np.frombuffer(blob, dtype=np.uint8)
    for name, tensor in _tensor_map(decode_model(blob)).items():
        assert not tensor.flags.writeable, name
        # a tensor that held the sentinel is a copy with -inf restored
        assert np.shares_memory(tensor, raw) != bool(np.isneginf(tensor).any()), name


def test_model_encoding_deterministic():
    params = gen_model(make_config(), 3)
    assert encode_model(params) == encode_model(params)


def test_model_header_layout():
    cfg = make_config(n_layers=1, d_model=2, d_ff=3, vocab_size=4, attn_scale=2.0)
    blob = encode_model(gen_model(cfg, 4))
    head = struct.pack("<4sH", MODEL_MAGIC, FORMAT_VERSION)
    config = struct.pack("<IIIIfBBBBI", 1, 2, 3, 4, 2.0, 0, 0, 0, 1, 0)
    assert bytes(blob).startswith(head + config)


def test_model_decode_rejects_bad_magic():
    blob = bytearray(encode_model(gen_model(make_config(), 5)))
    blob[:4] = b"JUNK"
    with pytest.raises(CodecError):
        decode_model(bytes(blob))


def test_model_decode_rejects_bad_version():
    blob = bytearray(encode_model(gen_model(make_config(), 6)))
    blob[4:6] = struct.pack("<H", 99)
    with pytest.raises(CodecError):
        decode_model(bytes(blob))


def test_model_decode_rejects_truncation():
    blob = encode_model(gen_model(make_config(), 7))
    with pytest.raises(CodecError):
        decode_model(blob[: len(blob) - 5])


def test_model_decode_rejects_missing_tensor():
    cfg = make_config(n_layers=1, d_model=2, d_ff=2, vocab_size=3)
    blob = encode_model(gen_model(cfg, 8))
    # drop the trailing tensor record entirely: find last name marker
    # (tensor records are name-prefixed; chop after the config block plus
    # first record to guarantee at least one is missing)
    header_len = struct.calcsize("<4sH") + struct.calcsize("<IIIIfBBBBI")
    name_len = struct.unpack_from("<H", blob, header_len)[0]
    first = header_len + 2 + name_len
    rank = blob[first]
    dims = struct.unpack_from(f"<{rank}I", blob, first + 1)
    payload = 4 * int(np.prod(dims))
    first_end = first + 1 + 4 * rank + payload
    with pytest.raises(CodecError):
        decode_model(blob[:first_end])


@pytest.mark.parametrize(
    "kw", [dict(ffn_kind=FfnKind.SWIGLU), dict(ffn_kind=FfnKind.SWIGLU, n_experts=3)],
    ids=["dense", "moe"],
)
def test_model_decode_rejects_each_misshapen_tensor(kw):
    # every tensor, a LayerNorm β and the embedding included, is checked
    # where it is taken, in the binary container and in the JSON mirror
    params = gen_model(make_config(n_layers=1, **kw), 21)
    doc = model_to_json(params)
    for name in doc["tensors"]:
        bad = json.loads(json.dumps(doc))
        bad["tensors"][name]["dims"].append(1)
        with pytest.raises(CodecError, match="has shape"):
            decode_model(encode_json_doc(bad, params.config))
        with pytest.raises(CodecError, match="has shape"):
            model_from_json(bad)
    params_equal(params, decode_model(encode_json_doc(doc, params.config)))


def test_model_decode_rejects_dims_whose_count_overflows():
    # 2**31 * 2**31 * 4 elements wrap to 0 in an int64 count
    with pytest.raises(CodecError, match="truncated"):
        decode_model(overflowing_container(make_config()))


# --- MoE experts as column panels ------------------------------------------

# W_1/W_3 are 128 x 256 (two panels of 128 columns), W_2 is 256 x 128 (two
# of 64): each expert matrix is stored as column panels.
PANEL_CONFIG = dict(
    n_layers=1, d_model=128, d_ff=256, vocab_size=12, ffn_kind=FfnKind.SWIGLU, n_experts=2
)


def panel_encoding(doc, cfg):
    """The container of JSON mirror `doc` with each logical expert matrix as its panels."""
    for name, t in doc["tensors"].items():
        if ".experts." in name and len(t["dims"]) == 2:
            k, n = t["dims"]
            cb = panel_width(k, n)
            data = np.asarray(t["data"], dtype=F32).reshape(k, n)
            t["dims"] = [n // cb, k, cb]
            t["data"] = as_panels(data, cb).reshape(-1).tolist()
    return encode_json_doc(doc, cfg)


def test_expert_matrices_are_written_and_read_as_column_panels(tmp_path):
    params = with_neg_inf(gen_model(make_config(**PANEL_CONFIG), 30))
    params.layers[0].experts[1].w2[3, 70] = -np.inf
    blob = encode_model(params)
    assert blob == panel_encoding(model_to_json(params), params.config)
    raw = np.frombuffer(blob, dtype=np.uint8)
    model = decode_model(blob)
    for name, tensor in _tensor_map(model).items():
        want = _tensor_map(params)[name]
        if ".experts." not in name:
            assert type(tensor) is np.ndarray and tensor.shape == want.shape, name
            continue
        assert type(tensor) is PanelMatrix and tensor.shape == want.shape, name
        assert tensor.panels.shape[0] == 2 and not tensor.panels.flags.writeable, name
        assert np.asarray(tensor).tobytes() == want.tobytes(), name
        # a tensor that held the sentinel is a copy with -inf restored
        held_inf = bool(np.isneginf(want).any())
        assert np.shares_memory(tensor.panels, raw) != held_inf, name
    # the JSON mirror, a re-encode and a loaded model file are all logical
    assert model_to_json(model) == model_to_json(params)
    assert encode_model(model) == blob
    path = tmp_path / "m.stip"
    save_model(params, str(path))
    for name, tensor in _tensor_map(load_model(str(path))).items():
        assert type(tensor) is np.ndarray and tensor.flags.writeable, name
        assert tensor.tobytes() == _tensor_map(params)[name].tobytes(), name


def test_a_theta_prime_gather_writes_expert_panels_on_two_cores():
    cfg = make_config(**PANEL_CONFIG)
    params = with_neg_inf(replace(gen_model(cfg, 31), embedding=None))
    pset = gen_permutation_set(cfg, 32)
    with two_cores(0) as handed:
        blob = encode_model(params, pset)
    assert handed and helper_idle(handed)
    assert blob == encode_model(para_trans(params, pset))
    for name, tensor in _tensor_map(decode_model(blob)).items():
        want = _tensor_map(para_trans(params, pset))[name]
        assert np.asarray(tensor).tobytes() == want.tobytes(), name


def test_a_reader_takes_any_panel_width_that_is_a_multiple_of_64():
    params = gen_model(make_config(**PANEL_CONFIG), 33)
    doc = model_to_json(params)
    # one panel of all 256 columns: not what a writer picks, but the same matrix
    w1 = doc["tensors"]["layers.0.experts.0.W_1"]
    w1["dims"] = [1] + w1["dims"]
    blob = panel_encoding(doc, params.config)
    model = decode_model(blob)
    w = model.layers[0].experts[0].w1
    assert type(w) is PanelMatrix and w.panels.shape == (1, 128, 256)
    assert np.array_equal(np.asarray(w), params.layers[0].experts[0].w1)
    assert encode_model(model) == blob  # what it holds is written back as it came


def _with_dims(doc, name, dims, data=None):
    bad = json.loads(json.dumps(doc))
    bad["tensors"][name]["dims"] = dims
    if data is not None:
        bad["tensors"][name]["data"] = data
    return bad


@pytest.mark.parametrize(
    "name, dims, match",
    [
        # panels of a multiple of 64 columns whose logical dims are not (d, d_ff)
        ("layers.0.experts.0.W_1", [4, 128, 128], "has shape"),
        ("layers.0.experts.1.W_2", [2, 128, 128], "has shape"),
        # the logical dims hold, but the panels are 32 columns wide
        ("layers.0.experts.0.W_3", [8, 128, 32], "not a multiple of 64"),
        ("layers.0.experts.1.W_2", [4, 256, 32], "not a multiple of 64"),
        # only an expert matrix may be panels
        ("layers.0.W_q", [2, 128, 64], "has shape"),
        ("W_c", [1, 128, 12], "has shape"),
    ],
)
def test_a_misshapen_panel_tensor_is_refused(name, dims, match):
    params = gen_model(make_config(**PANEL_CONFIG), 34)
    doc = model_to_json(params)
    size = int(np.prod(dims))
    bad = _with_dims(doc, name, dims, [0.0] * size)
    with pytest.raises(CodecError, match=match):
        decode_model(encode_json_doc(bad, params.config))
    with pytest.raises(CodecError, match=match):
        model_from_json(bad)


def test_reader_refuses_a_negative_length():
    r = _Reader(b"abcd")
    with pytest.raises(CodecError):
        r.take(-1, "field")
    assert bytes(r.take(4, "field")) == b"abcd"


def test_json_mirror_round_trip():
    for name in sorted(VARIANT_CONFIGS):
        cfg = make_config(**VARIANT_CONFIGS[name])
        params = gen_model(cfg, 9)
        params_equal(params, model_from_json(model_to_json(params)))


def test_json_mirror_field_names():
    params = gen_model(make_config(n_layers=1), 10)
    doc = model_to_json(params)
    json.dumps(doc)  # must be serializable as-is
    assert doc["config"]["n_layers"] == 1
    assert doc["config"]["d_model"] == params.config.d_model
    assert "embedding" in doc["tensors"] and "W_c" in doc["tensors"]
    assert "layers.0.W_q" in doc["tensors"]


def test_json_file_round_trip(tmp_path):
    params = gen_model(make_config(), 11)
    path = tmp_path / "m.json"
    save_model_json(params, str(path))
    params_equal(params, load_model_json(str(path)))


def test_json_malformed_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(CodecError):
        load_model_json(str(path))
    with pytest.raises(CodecError):
        model_from_json({"config": {}})


# --- keys ---------------------------------------------------------------


def test_keys_round_trip_dense():
    cfg = make_config()
    pset = gen_permutation_set(cfg, 12)
    decoded, epoch = decode_keys(encode_keys(pset, epoch=3))
    assert epoch == 3
    assert decoded.pi == pset.pi and decoded.pi_c == pset.pi_c
    for a, b in zip(decoded.per_layer, pset.per_layer):
        assert a.pi1 == b.pi1 and a.pi2 == b.pi2 and a.pi3s == b.pi3s


def test_keys_round_trip_moe():
    cfg = make_config(n_experts=3)
    pset = gen_permutation_set(cfg, 13)
    decoded, _ = decode_keys(encode_keys(pset, epoch=1))
    assert all(len(lp.pi3s) == 3 for lp in decoded.per_layer)


def test_keys_shared_only_partition():
    cfg = make_config()
    pset = gen_permutation_set(cfg, 14)
    decoded, epoch = decode_keys(encode_keys(pset, epoch=9, shared_only=True))
    assert epoch == 9
    assert decoded.pi == pset.pi and decoded.pi_c == pset.pi_c
    assert decoded.per_layer == ()


def test_keys_header_layout():
    cfg = make_config(n_layers=1)
    pset = gen_permutation_set(cfg, 15)
    blob = encode_keys(pset, epoch=7, shared_only=True)
    assert blob.startswith(struct.pack("<4sHQI", KEYS_MAGIC, FORMAT_VERSION, 7, 2))
    role, layer, dim = struct.unpack_from("<BHI", blob, struct.calcsize("<4sHQI"))
    assert role == ROLE_PI and layer == 0 and dim == cfg.d_model
    entry2 = struct.calcsize("<4sHQI") + struct.calcsize("<BHI") + 4 * cfg.d_model
    role2, _, dim2 = struct.unpack_from("<BHI", blob, entry2)
    assert role2 == ROLE_PI_C and dim2 == cfg.vocab_size


def test_keys_file_round_trip(tmp_path):
    cfg = make_config()
    pset = gen_permutation_set(cfg, 16)
    path = tmp_path / "k.stpk"
    save_keys(pset, 5, str(path))
    decoded, epoch = load_keys(str(path))
    assert epoch == 5 and decoded.pi == pset.pi


def test_keys_reject_bad_magic():
    blob = bytearray(encode_keys(gen_permutation_set(make_config(), 17), epoch=1))
    blob[:4] = b"NOPE"
    with pytest.raises(CodecError):
        decode_keys(bytes(blob))


def test_keys_reject_trailing_bytes():
    blob = encode_keys(gen_permutation_set(make_config(), 18), epoch=1)
    with pytest.raises(CodecError):
        decode_keys(blob + b"\x00")


def test_keys_reject_non_bijection():
    cfg = make_config(n_layers=1)
    pset = gen_permutation_set(cfg, 19)
    blob = bytearray(encode_keys(pset, epoch=1))
    # first index word of the first entry (role pi, dim d): force a duplicate
    off = struct.calcsize("<4sHQI") + struct.calcsize("<BHI")
    first, second = struct.unpack_from("<II", blob, off)
    struct.pack_into("<II", blob, off, second, second)
    with pytest.raises(CodecError):
        decode_keys(bytes(blob))


@pytest.mark.parametrize("role", [5, 6, 255])
def test_keys_reject_unknown_role(role):
    blob = bytearray(encode_keys(gen_permutation_set(make_config(n_layers=1), 20), epoch=2))
    # role byte of the first entry; the rest of the file stays well-formed
    blob[struct.calcsize("<4sHQI")] = role
    with pytest.raises(CodecError, match="unknown key role"):
        decode_keys(bytes(blob))
