"""SHA-256 digests of what the engine computes, to settle a bit-identity claim.

    python3 tools/forward_digest.py                     # this checkout
    python3 tools/forward_digest.py --checkout ../parent

Imports `stip` from `<checkout>/src` and the benchmark's model configs from
`<checkout>/perfbench/workloads.py`, and changes nothing under either. For
each workload config and four desk-sized variants (post-LN ReLU, pre-LN GeLU,
RMSNorm SwiGLU, a ReLU MoE), under a causal mask and mask none, it prints the
digest of `model_forward`'s outputs over a prefill, one-row cached steps and a
bare forward, once on the plain model and once on θ′ with π-permuted rows,
θ′ as P2 serves it: decoded from the container P1 writes. Then, for the
DEPLOY_MODEL payloads P1 sends on initialize and on a rekey, the digests of
the payload, of the logical θ′ tensors `decode_model` returns for it, and of
the DEPLOY_KEYS payload. Two checkouts that print the same lines compute the
same bytes; a change of layout alone changes only the payload lines. The
last line digests every line before it.
"""

import argparse
import hashlib
import importlib.util
import os
import sys
from pathlib import Path

# name -> (norm kind, placement, FFN kind, experts), over make_desk_config's sizes
VARIANTS = {
    "post_ln_relu": ("layernorm", "post", "relu", 0),
    "pre_ln_gelu": ("layernorm", "pre", "gelu", 0),
    "rms_swiglu": ("rmsnorm", "pre", "swiglu", 0),
    "moe": ("layernorm", "post", "relu", 4),
}
BARE_ROWS = 7


def _update(h, arrays):
    for a in arrays:
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())


def forward_digests(params, mask_kind, seed=0, prefill=16, steps=64):
    """{"plain": hex, "permuted": hex} over the outputs of one token sequence.

    The rows are embeddings of seeded random tokens: a prefill of `prefill`
    rows, then `steps` one-row steps through a KVCache, then a bare forward of
    the first BARE_ROWS rows. The permuted side runs θ′ = para_trans(params,
    Π), as `decode_model` reads it from `encode_model(params, Π)`, on the
    same rows times π.
    """
    import numpy as np

    from stip.container import decode_model, encode_model
    from stip.model import KVCache, embed, make_mask, model_forward
    from stip.numerics import apply_col_perm
    from stip.transform import gen_permutation_set

    cfg = params.config
    rng = np.random.default_rng(seed)
    x = embed(rng.integers(0, cfg.vocab_size, prefill + steps), params.embedding)
    pset = gen_permutation_set(cfg, seed)
    mask = make_mask(mask_kind)
    out = {}
    for side, model, rows in (
        ("plain", params, x),
        ("permuted", decode_model(encode_model(params, pset)), apply_col_perm(x, pset.pi)),
    ):
        h = hashlib.sha256()
        cache = KVCache(len(model.layers))
        _update(h, [model_forward(rows[:prefill], model, mask, cache=cache)])
        for i in range(prefill, prefill + steps):
            _update(h, [model_forward(rows[i : i + 1], model, mask, cache=cache)])
        bare = rows[:BARE_ROWS]
        _update(h, [model_forward(bare, model, make_mask(mask_kind, n=len(bare)))])
        out[side] = h.hexdigest()
    return out


def theta_digest(payload):
    """Digest of the logical θ′ tensors `decode_model` returns for a DEPLOY_MODEL payload."""
    import numpy as np

    from stip.container import _tensor_map, decode_model

    h = hashlib.sha256()
    for name, t in _tensor_map(decode_model(payload)).items():
        h.update(name.encode())
        _update(h, [np.asarray(t)])
    return h.hexdigest()


def deploy_digests(params, seed=0):
    """Digests of the DEPLOY_MODEL payload, its decoded θ′ and the DEPLOY_KEYS payload.

    Once on initialize, once on a rekey.
    """
    from stip.protocol import DeveloperParty

    p1 = DeveloperParty(params, session_seed=seed)
    out = {}
    for step, make, key_seed in (
        ("initialize", p1.initialize, seed),
        ("rekey", p1.rekey, seed + 1),
    ):
        to_p2, to_p3 = make(key_seed)
        out[f"{step}/model"] = hashlib.sha256(to_p2.payload).hexdigest()
        out[f"{step}/theta"] = theta_digest(to_p2.payload)
        out[f"{step}/keys"] = hashlib.sha256(to_p3.payload).hexdigest()
        del to_p2, to_p3
    return out


def make_desk_config(norm_kind, placement, ffn_kind, n_experts):
    from stip.model import FfnKind, ModelConfig, NormKind, NormPlacement

    return ModelConfig(
        n_layers=2,
        d_model=16,
        d_ff=32,
        vocab_size=24,
        attn_scale=16.0,
        norm_kind=NormKind(norm_kind),
        norm_placement=NormPlacement(placement),
        ffn_kind=FfnKind(ffn_kind),
        n_experts=n_experts,
    )


def configs(checkout):
    """(name, config, model seed) for every workload, then every variant."""
    path = Path(checkout) / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for name, w in workloads.WORKLOADS.items():
        yield name, w.config, workloads.MODEL_SEED
    for name, fields in VARIANTS.items():
        yield name, make_desk_config(*fields), 0


def digest_lines(checkout):
    from stip.model import gen_model

    for name, cfg, model_seed in configs(checkout):
        params = gen_model(cfg, model_seed)
        for mask_kind in ("causal", "none"):
            for side, hexd in forward_digests(params, mask_kind).items():
                yield f"forward/{name}/{mask_kind}/{side} {hexd}"
        for what, hexd in deploy_digests(params).items():
            yield f"deploy/{name}/{what} {hexd}"


def main(argv=None):
    here = Path(__file__).resolve().parent.parent
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--checkout", default=str(here), help="source checkout to digest")
    args = p.parse_args(argv)
    src = Path(args.checkout).resolve() / "src"
    if not (src / "stip" / "__init__.py").is_file():
        p.error(f"no stip sources at {src}")
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, str(src))
    import stip

    if Path(stip.__file__).resolve().parent != src / "stip":
        p.error(f"imported stip from {stip.__file__}, not {src}")
    total = hashlib.sha256()
    for line in digest_lines(args.checkout):
        print(line, flush=True)
        total.update(line.encode() + b"\n")
    print(f"all {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
