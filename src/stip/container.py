"""Serialization: binary model container, JSON mirror, and permutation-key files.

Model container (little-endian): magic "STIP", version u16, config block
(n_layers u32, d_model u32, d_ff u32, vocab_size u32, attn_scale f32,
norm_kind u8, norm_placement u8, ffn_kind u8, mask_kind u8, n_experts u32),
then tensors until EOF as (name_len u16, name, rank u8, dims u32 each,
payload f32 row-major). A full model holds an `embedding` tensor; the served
form that P1 deploys to P2 omits it, since only P3 embeds tokens.

An MoE expert matrix (W_1, W_2 or W_3 of `layers.i.experts.j`) whose
columns split into panels (`numerics.panel_width`) is a rank-3 tensor of
column panels, dims (P, k, cb): panel p holds columns [p·cb, (p+1)·cb) of
the logical k×n matrix, row-major, and n = P·cb. It decodes to a
`numerics.PanelMatrix` over the payload. A reader takes any panel width
that is a positive multiple of 64 and gives the expected logical dims; any
other rank-3 tensor is malformed. Every other tensor, and an expert with no
such width, is row-major as it stands.

Keys file: magic "STPK", version u16, epoch u64, count u32, then per
permutation (role u8, layer u16, dim u32, indices u32 each). Role tags:
0=pi, 1=pi_c, 2=pi1, 3=pi2, 4=pi3 (one per expert in order for mixture
layers); any other role is rejected.

-inf mask sentinels are stored as the most-negative finite float32 and
restored on read (`numerics.sanitize_neg_inf` / `restore_neg_inf`).

Writing a container and reading one back both share their large tensors
between the calling thread and the helper thread that `numerics.matmul`
also uses (`numerics.on_two_cores`): each tensor's gather and sentinel
write, or its sentinel scan, runs on one of the two, dealt out by load.
"""

import json
import math
import struct

import numpy as np

from .errors import CodecError, InvalidDimensionError
from .model import (
    EmbeddingTable,
    FfnKind,
    FfnWeights,
    LayerWeights,
    MaskKind,
    ModelConfig,
    ModelParams,
    NormKind,
    NormPlacement,
)
from .numerics import (
    DTYPE,
    Gather,
    PanelMatrix,
    Permutation,
    as_panels,
    on_two_cores,
    panel_width,
    restore_neg_inf,
    sanitize_neg_inf,
    sanitize_neg_inf_in_place,
)
from .transform import LayerPerms, PermutationSet, gather_plan

MODEL_MAGIC = b"STIP"
KEYS_MAGIC = b"STPK"
FORMAT_VERSION = 1

_HEAD = struct.Struct("<4sH")
_CONFIG = struct.Struct("<IIIIfBBBBI")
_NAME_LEN = struct.Struct("<H")
_RANK = struct.Struct("<B")
_KEYS_HEAD = struct.Struct("<4sHQI")
_KEY_ENTRY = struct.Struct("<BHI")

_NORM_CODES = {NormKind.LAYERNORM: 0, NormKind.RMSNORM: 1}
_PLACEMENT_CODES = {NormPlacement.POST: 0, NormPlacement.PRE: 1}
_FFN_CODES = {FfnKind.RELU: 0, FfnKind.GELU: 1, FfnKind.SWIGLU: 2}
_MASK_CODES = {MaskKind.NONE: 0, MaskKind.CAUSAL: 1, MaskKind.CUSTOM: 2}

ROLE_PI = 0
ROLE_PI_C = 1
ROLE_PI1 = 2
ROLE_PI2 = 3
ROLE_PI3 = 4


def _decode_enum(codes, raw, what):
    for enum_val, code in codes.items():
        if code == raw:
            return enum_val
    raise CodecError(f"unknown {what} code {raw}")


def _tensor_map(params):
    """Deterministic name -> array mapping for a model; no embedding when served."""
    out = {}
    if params.embedding is not None:
        out["embedding"] = params.embedding.table
    for i, w in enumerate(params.layers):
        p = f"layers.{i}"
        out[f"{p}.W_q"] = w.w_q
        out[f"{p}.W_k"] = w.w_k
        out[f"{p}.W_v"] = w.w_v
        out[f"{p}.W_o"] = w.w_o
        out[f"{p}.gamma_1"] = w.gamma_1
        out[f"{p}.gamma_2"] = w.gamma_2
        if w.beta_1 is not None:
            out[f"{p}.beta_1"] = w.beta_1
        if w.beta_2 is not None:
            out[f"{p}.beta_2"] = w.beta_2
        if w.w_g is not None:
            out[f"{p}.W_g"] = w.w_g
        if w.ffn is not None:
            out[f"{p}.W_1"] = w.ffn.w1
            out[f"{p}.W_2"] = w.ffn.w2
            if w.ffn.w3 is not None:
                out[f"{p}.W_3"] = w.ffn.w3
        for j, fw in enumerate(w.experts):
            ep = f"{p}.experts.{j}"
            out[f"{ep}.W_1"] = fw.w1
            out[f"{ep}.W_2"] = fw.w2
            if fw.w3 is not None:
                out[f"{ep}.W_3"] = fw.w3
    out["W_c"] = params.w_c
    return out


def _is_expert(name):
    """Whether tensor `name` is an MoE expert matrix, the one kind stored as panels."""
    return ".experts." in name


def _take(tensors, name, shape):
    """Tensor `name` of logical `shape`; an expert's rank-3 panels become a PanelMatrix."""
    if name not in tensors:
        raise CodecError(f"model file is missing tensor {name!r}")
    t = tensors.pop(name)
    if t.ndim == 3 and _is_expert(name):
        if t.shape[2] % 64:
            raise CodecError(
                f"{name} has shape {t.shape}: panels of {t.shape[2]} columns, "
                "not a multiple of 64"
            )
        t = PanelMatrix(t)
    if t.shape != shape:
        raise CodecError(f"{name} has shape {t.shape}, expected {shape}")
    return t


def _assemble_model(cfg, tensors):
    tensors = dict(tensors)
    d, m, s = cfg.d_model, cfg.d_ff, cfg.vocab_size
    use_beta = cfg.norm_kind is NormKind.LAYERNORM
    has_w3 = cfg.ffn_kind is FfnKind.SWIGLU
    embedding = None
    if "embedding" in tensors:  # a served model has none
        embedding = EmbeddingTable(_take(tensors, "embedding", (s, d)))
    layers = []
    for i in range(cfg.n_layers):
        p = f"layers.{i}"

        def take(name, shape):
            return _take(tensors, f"{p}.{name}", shape)

        def ffn_at(prefix):
            return FfnWeights(
                w1=take(f"{prefix}W_1", (d, m)),
                w2=take(f"{prefix}W_2", (m, d)),
                w3=take(f"{prefix}W_3", (d, m)) if has_w3 else None,
            )

        ffn = None
        experts = ()
        w_g = None
        if cfg.is_moe:
            w_g = take("W_g", (d, cfg.n_experts))
            experts = tuple(ffn_at(f"experts.{j}.") for j in range(cfg.n_experts))
        else:
            ffn = ffn_at("")
        layers.append(
            LayerWeights(
                w_q=take("W_q", (d, d)),
                w_k=take("W_k", (d, d)),
                w_v=take("W_v", (d, d)),
                w_o=take("W_o", (d, d)),
                ffn=ffn,
                gamma_1=take("gamma_1", (d,)),
                gamma_2=take("gamma_2", (d,)),
                beta_1=take("beta_1", (d,)) if use_beta else None,
                beta_2=take("beta_2", (d,)) if use_beta else None,
                w_g=w_g,
                experts=experts,
            )
        )
    w_c = _take(tensors, "W_c", (d, s))
    if tensors:
        raise CodecError(f"unexpected tensors in model file: {sorted(tensors)}")
    return ModelParams(cfg, embedding, layers, w_c)


def config_to_bytes(cfg):
    return _CONFIG.pack(
        cfg.n_layers,
        cfg.d_model,
        cfg.d_ff,
        cfg.vocab_size,
        np.float32(cfg.attn_scale),
        _NORM_CODES[cfg.norm_kind],
        _PLACEMENT_CODES[cfg.norm_placement],
        _FFN_CODES[cfg.ffn_kind],
        _MASK_CODES[cfg.mask_kind],
        cfg.n_experts,
    )


def config_from_bytes(raw):
    L, d, m, s, k, norm, placement, ffn, mask, e = _CONFIG.unpack(raw)
    return ModelConfig(
        n_layers=L,
        d_model=d,
        d_ff=m,
        vocab_size=s,
        attn_scale=float(k),
        norm_kind=_decode_enum(_NORM_CODES, norm, "norm_kind"),
        norm_placement=_decode_enum(_PLACEMENT_CODES, placement, "norm_placement"),
        ffn_kind=_decode_enum(_FFN_CODES, ffn, "ffn_kind"),
        n_experts=e,
        mask_kind=_decode_enum(_MASK_CODES, mask, "mask_kind"),
    )


def _tensor_head(name, shape):
    """(name_len u16, name, rank u8, dims u32 each) of one tensor."""
    nm = name.encode("utf-8")
    return struct.pack(f"<H{len(nm)}sB{len(shape)}I", len(nm), nm, len(shape), *shape)


def _stored_shape(name, t):
    """Dims tensor `name` is written with: an expert matrix's panels where it has them."""
    if type(t) is PanelMatrix:
        return t.panels.shape
    shape = np.shape(t)
    cb = panel_width(*shape) if _is_expert(name) else 0
    return (shape[1] // cb, shape[0], cb) if cb else shape


def _write_tensor(job):
    t, dst = job
    if isinstance(t, Gather):
        t.into(dst)
    elif type(t) is PanelMatrix:
        dst[...] = t.panels
    else:
        dst[...] = as_panels(t, dst.shape[2]) if dst.ndim == 3 else t
    sanitize_neg_inf_in_place(dst)


def encode_model(params, pset=None):
    """Model -> container bytes, as a memoryview (format "B") over a numpy array.

    The container is sized first and allocated without zeroing, then each
    tensor is written straight into it, with no intermediate bytes objects;
    every byte is written once. Given a permutation set, the container holds
    θ′ = para_trans(params, pset), and each θ′ tensor is gathered from params
    into its slot (`transform.gather_plan`): θ′ is never written anywhere
    else. An expert matrix is written as column panels where it has them
    (`_stored_shape`), a gathered one straight into that order. Large
    tensors are written on two cores (`numerics.on_two_cores`).
    """
    if pset is not None:
        params = gather_plan(params, pset)
    tensors = []
    for name, t in _tensor_map(params).items():
        shape = _stored_shape(name, t)
        tensors.append((_tensor_head(name, shape), shape, t))
    start = _HEAD.size + _CONFIG.size
    size = start + sum(len(h) + 4 * math.prod(s) for h, s, _ in tensors)
    buf = memoryview(np.empty(size, np.uint8))
    buf[:start] = _HEAD.pack(MODEL_MAGIC, FORMAT_VERSION) + config_to_bytes(params.config)
    off = start
    jobs = []
    for head, shape, t in tensors:
        buf[off : off + len(head)] = head
        off += len(head)
        count = math.prod(shape)
        dst = np.frombuffer(buf, dtype="<f4", count=count, offset=off).reshape(shape)
        jobs.append((count, (t, dst)))
        off += dst.nbytes
    on_two_cores(jobs, _write_tensor)
    return buf


class _Reader:
    """Reads a bytes-like object through a memoryview: taking a field copies nothing."""

    def __init__(self, raw):
        self.raw = memoryview(raw).cast("B")
        self.off = 0

    def take(self, n, what):
        if n < 0 or self.off + n > len(self.raw):
            raise CodecError(f"truncated file while reading {what}")
        out = self.raw[self.off : self.off + n]
        self.off += n
        return out

    def done(self):
        return self.off == len(self.raw)


def decode_model(raw):
    """Container bytes -> model of read-only views into `raw`.

    Every tensor is located first; then the sentinel scans run, those of
    large tensors on two cores (`numerics.on_two_cores`). An expert matrix
    stored as panels becomes a PanelMatrix over its panels. Bad magic,
    version, truncation or a tensor of the wrong dims raise CodecError.
    """
    r = _Reader(raw)
    magic, version = _HEAD.unpack(r.take(_HEAD.size, "header"))
    if magic != MODEL_MAGIC:
        raise CodecError(f"bad model magic {magic!r}")
    if version != FORMAT_VERSION:
        raise CodecError(f"unsupported model format version {version}")
    cfg = config_from_bytes(r.take(_CONFIG.size, "config"))
    tensors = {}
    while not r.done():
        (name_len,) = _NAME_LEN.unpack(r.take(_NAME_LEN.size, "tensor name length"))
        try:
            name = str(r.take(name_len, "tensor name"), "utf-8")
        except UnicodeDecodeError as exc:
            raise CodecError(f"tensor name is not UTF-8: {exc}") from None
        (rank,) = _RANK.unpack(r.take(_RANK.size, "tensor rank"))
        dims = struct.unpack(f"<{rank}I", r.take(4 * rank, "tensor dims"))
        count = math.prod(dims)  # a Python int: it cannot wrap around
        payload = r.take(4 * count, f"tensor {name!r} payload")
        if name in tensors:
            raise CodecError(f"duplicate tensor {name!r}")
        tensors[name] = np.frombuffer(payload, dtype="<f4").reshape(dims)

    # No copy: the model holds read-only views into `raw`, which stays alive
    # as long as any of them does. A tensor that held a sentinel is a copy
    # with -inf restored, read-only as well.
    def restore(name):
        arr = restore_neg_inf(tensors[name])
        arr.flags.writeable = False
        tensors[name] = arr

    on_two_cores([(t.size, name) for name, t in tensors.items()], restore)
    return _assemble_model(cfg, tensors)


def save_model(params, path):
    with open(path, "wb") as f:
        f.write(encode_model(params))


def load_model(path):
    """Model file -> model whose tensors are writeable row-major arrays of their own."""
    with open(path, "rb") as f:
        model = decode_model(f.read())
    tensors = {name: np.array(t) for name, t in _tensor_map(model).items()}
    return _assemble_model(model.config, tensors)


def model_to_json(params):
    """JSON mirror with the same config field names and tensor names."""
    cfg = params.config
    tensors = {}
    for name, tensor in _tensor_map(params).items():
        data = sanitize_neg_inf(np.asarray(tensor, dtype=DTYPE))
        tensors[name] = {
            "dims": list(data.shape),
            "data": [float(v) for v in data.reshape(-1)],
        }
    return {
        "format": MODEL_MAGIC.decode(),
        "version": FORMAT_VERSION,
        "config": {
            "n_layers": cfg.n_layers,
            "d_model": cfg.d_model,
            "d_ff": cfg.d_ff,
            "vocab_size": cfg.vocab_size,
            "attn_scale": cfg.attn_scale,
            "norm_kind": cfg.norm_kind.value,
            "norm_placement": cfg.norm_placement.value,
            "ffn_kind": cfg.ffn_kind.value,
            "mask_kind": cfg.mask_kind.value,
            "n_experts": cfg.n_experts,
        },
        "tensors": tensors,
    }


def model_from_json(doc):
    try:
        if doc["format"] != MODEL_MAGIC.decode():
            raise CodecError(f"bad format tag {doc['format']!r}")
        if doc["version"] != FORMAT_VERSION:
            raise CodecError(f"unsupported version {doc['version']}")
        c = doc["config"]
        cfg = ModelConfig(
            n_layers=c["n_layers"],
            d_model=c["d_model"],
            d_ff=c["d_ff"],
            vocab_size=c["vocab_size"],
            attn_scale=c["attn_scale"],
            norm_kind=NormKind(c["norm_kind"]),
            norm_placement=NormPlacement(c["norm_placement"]),
            ffn_kind=FfnKind(c["ffn_kind"]),
            n_experts=c["n_experts"],
            mask_kind=MaskKind(c["mask_kind"]),
        )
        tensors = {
            name: restore_neg_inf(
                np.asarray(t["data"], dtype=DTYPE).reshape(t["dims"])
            )
            for name, t in doc["tensors"].items()
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise CodecError(f"malformed JSON model: {exc}") from exc
    return _assemble_model(cfg, tensors)


def save_model_json(params, path):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(model_to_json(params), f)


def load_model_json(path):
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as exc:
            raise CodecError(f"{path}: not valid JSON: {exc}") from exc
    return model_from_json(doc)


def _key_entries(pset, shared_only):
    entries = [(ROLE_PI, 0, pset.pi), (ROLE_PI_C, 0, pset.pi_c)]
    if not shared_only:
        for i, lp in enumerate(pset.per_layer):
            entries.append((ROLE_PI1, i, lp.pi1))
            entries.append((ROLE_PI2, i, lp.pi2))
            entries.extend((ROLE_PI3, i, p3) for p3 in lp.pi3s)
    return entries


def encode_keys(pset, epoch, shared_only=False):
    """Permutation set (or just its shared half) -> keys-file bytes."""
    entries = _key_entries(pset, shared_only)
    parts = [_KEYS_HEAD.pack(KEYS_MAGIC, FORMAT_VERSION, epoch, len(entries))]
    for role, layer, perm in entries:
        parts.append(_KEY_ENTRY.pack(role, layer, perm.dim))
        parts.append(perm.indices.astype("<u4").tobytes())
    return b"".join(parts)


def decode_keys(raw):
    """Keys-file bytes -> (PermutationSet, epoch); per_layer is empty for shared files."""
    r = _Reader(raw)
    magic, version, epoch, count = _KEYS_HEAD.unpack(r.take(_KEYS_HEAD.size, "keys header"))
    if magic != KEYS_MAGIC:
        raise CodecError(f"bad keys magic {magic!r}")
    if version != FORMAT_VERSION:
        raise CodecError(f"unsupported keys version {version}")
    pi = pi_c = None
    triples = {}
    for _ in range(count):
        role, layer, dim = _KEY_ENTRY.unpack(r.take(_KEY_ENTRY.size, "key entry"))
        try:
            perm = Permutation(
                np.frombuffer(r.take(4 * dim, "key indices"), dtype="<u4").astype(np.int64)
            )
        except InvalidDimensionError as exc:
            raise CodecError(f"corrupt permutation entry: {exc}") from exc
        if role == ROLE_PI:
            pi = perm
        elif role == ROLE_PI_C:
            pi_c = perm
        elif role in (ROLE_PI1, ROLE_PI2, ROLE_PI3):
            slot = triples.setdefault(layer, {"pi1": None, "pi2": None, "pi3s": []})
            if role == ROLE_PI1:
                slot["pi1"] = perm
            elif role == ROLE_PI2:
                slot["pi2"] = perm
            else:
                slot["pi3s"].append(perm)
        else:
            raise CodecError(f"unknown key role {role}")
    if not r.done():
        raise CodecError("trailing bytes after last key entry")
    if pi is None or pi_c is None:
        raise CodecError("keys file lacks the shared permutations")
    per_layer = []
    for i in sorted(triples):
        slot = triples[i]
        if slot["pi1"] is None or slot["pi2"] is None or not slot["pi3s"]:
            raise CodecError(f"incomplete permutation triple for layer {i}")
        per_layer.append(
            LayerPerms(pi1=slot["pi1"], pi2=slot["pi2"], pi3s=tuple(slot["pi3s"]))
        )
    if per_layer and sorted(triples) != list(range(len(per_layer))):
        raise CodecError("non-contiguous layer indices in keys file")
    return PermutationSet(pi=pi, pi_c=pi_c, per_layer=tuple(per_layer)), epoch


def save_keys(pset, epoch, path, shared_only=False):
    with open(path, "wb") as f:
        f.write(encode_keys(pset, epoch, shared_only))


def load_keys(path):
    with open(path, "rb") as f:
        return decode_keys(f.read())
