"""Operator command line: genmodel, transform, verify, simulate, attack, bench.

Configuration precedence: built-in defaults < config file (--config, one
key=value per line, '#' comments) < environment variables (STIP_<KEY>) <
command-line flags. Exit codes: 0 success, 1 verification failure, 2 usage
error, 3 I/O error, 4 protocol error.
"""

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import bench as bench_mod
from . import wire
from .container import (
    encode_model,
    load_keys,
    load_model,
    load_model_json,
    save_keys,
    save_model,
    save_model_json,
)
from .errors import (
    AbortedGenerationError,
    CodecError,
    InvalidConfigError,
    KeyspaceTooLargeError,
    ProtocolError,
    StipError,
    TransportError,
)
from .model import (
    FfnKind,
    MaskKind,
    ModelConfig,
    NormKind,
    NormPlacement,
    gen_model,
    greedy_generate,
)
from .numerics import gen_permutation
from .protocol import check_generation, run_simulation
from .security import (
    KpaOutcome,
    bfa_exhaustive,
    kpa_column_match,
    unauthorized_use_demo,
)
from .transform import gen_permutation_set, para_trans, verify_equivalence

ENV_PREFIX = "STIP_"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_PROTOCOL = 4


@dataclass
class RunConfig:
    n_layers: int = 4
    d_model: int = 64
    d_ff: int = 256
    vocab_size: int = 100
    n_experts: int = 0
    attn_scale: float = 0.0  # 0 means "use d_model"
    norm_kind: str = "layernorm"
    norm_placement: str = "post"
    ffn_kind: str = "relu"
    mask_kind: str = "causal"
    seed: int = 0
    transport: str = "inproc"
    host: str = "127.0.0.1"
    latency_ms: float = 0.0
    trials: int = 20
    tol: float = 1e-4
    rows: int = 16
    tokens: int = 10
    prompt: str = "0,1,2,3"
    out: str = ""
    csv: str = ""


_CASTERS = {f.name: f.type for f in fields(RunConfig)}


def _cast(key, raw):
    try:
        return _CASTERS[key](raw)
    except ValueError as exc:
        raise InvalidConfigError(f"bad value for {key}: {raw!r}") from exc


def parse_config_file(path):
    out = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvalidConfigError(f"{path}:{lineno}: expected key=value")
            key, val = (s.strip() for s in line.split("=", 1))
            if key not in _CASTERS:
                raise InvalidConfigError(f"{path}:{lineno}: unknown key {key!r}")
            out[key] = _cast(key, val)
    return out


def resolve_config(args):
    values = asdict(RunConfig())
    if getattr(args, "config", None):
        values.update(parse_config_file(args.config))
    for key in values:
        raw = os.environ.get(ENV_PREFIX + key.upper())
        if raw is not None:
            values[key] = _cast(key, raw)
    for key in values:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    return RunConfig(**values)


def model_config_from(rc):
    return ModelConfig(
        n_layers=rc.n_layers,
        d_model=rc.d_model,
        d_ff=rc.d_ff,
        vocab_size=rc.vocab_size,
        attn_scale=rc.attn_scale if rc.attn_scale != 0 else float(rc.d_model),
        norm_kind=NormKind(rc.norm_kind),
        norm_placement=NormPlacement(rc.norm_placement),
        ffn_kind=FfnKind(rc.ffn_kind),
        n_experts=rc.n_experts,
        mask_kind=MaskKind(rc.mask_kind),
    )


def _prompt_ids(rc):
    try:
        ids = [int(t) for t in rc.prompt.split(",") if t.strip() != ""]
    except ValueError as exc:
        raise InvalidConfigError(f"bad prompt {rc.prompt!r}") from exc
    if not ids:
        raise InvalidConfigError("prompt must contain at least one token id")
    return ids


def _load_any_model(path):
    if path.endswith(".json"):
        return load_model_json(path)
    return load_model(path)


def _emit(rc, command, results, csv_rows=None):
    cfg_dict = asdict(rc)
    bundle = {
        "command": command,
        "config": cfg_dict,
        "config_hash": hashlib.sha256(
            json.dumps(cfg_dict, sort_keys=True).encode()
        ).hexdigest()[:16],
        "seed": rc.seed,
        "results": results,
    }
    text = json.dumps(bundle, indent=2, default=str)
    if rc.out:
        with open(rc.out, "w", encoding="utf-8") as f:
            f.write(text + "\n")
    print(text)
    if rc.csv and csv_rows is not None:
        bench_mod.write_csv(rc.csv, csv_rows)
    return bundle


def cmd_genmodel(rc, args):
    cfg = model_config_from(rc)
    params = gen_model(cfg, rc.seed)
    if args.model_out.endswith(".json"):
        save_model_json(params, args.model_out)
    else:
        save_model(params, args.model_out)
    _emit(rc, "genmodel", {"path": args.model_out, "format": "json" if args.model_out.endswith(".json") else "binary"})
    return EXIT_OK


def _epoch(raw):
    """An epoch from the command line: the keys file stores it as a u64."""
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"epoch must be an integer, got {raw!r}") from None
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"epoch must be in [0, 2**64), got {value}")
    return value


def cmd_transform(rc, args):
    params = _load_any_model(args.model)
    pset = gen_permutation_set(params.config, rc.seed, identity=args.identity)
    with open(args.out_model, "wb") as f:
        f.write(encode_model(params, pset))  # θ′ gathered as a deploy gathers it
    save_keys(pset, args.epoch, args.out_keys)
    _emit(
        rc,
        "transform",
        {
            "out_model": args.out_model,
            "out_keys": args.out_keys,
            "epoch": args.epoch,
            "permutations": pset.count(),
        },
    )
    return EXIT_OK


def cmd_verify(rc, args):
    if rc.trials < 1:
        raise InvalidConfigError("trials must be >= 1")
    params = _load_any_model(args.model)
    pset, _epoch = load_keys(args.keys)
    if not pset.per_layer:
        raise InvalidConfigError("verification needs the full key set, not the shared half")
    report = verify_equivalence(
        params, pset, trials=rc.trials, tol=rc.tol, n=rc.rows, seed=rc.seed
    )
    _emit(rc, "verify", report)
    return EXIT_OK if report["passed"] else EXIT_VERIFY_FAILED


def cmd_simulate(rc, args):
    prompt = _prompt_ids(rc)
    check_generation(len(prompt), rc.tokens)
    if args.model:
        params = _load_any_model(args.model)
    else:
        params = gen_model(model_config_from(rc), rc.seed)
    t0 = time.perf_counter()
    streams, transcript = run_simulation(
        params,
        [prompt],
        rc.tokens,
        transport_kind=rc.transport,
        latency=rc.latency_ms / 1e3,
        seed=rc.seed,
        host=rc.host,
    )
    wall = time.perf_counter() - t0
    if args.transcript:
        transcript.to_jsonl(args.transcript)
    local = greedy_generate(params, prompt, rc.tokens)
    tokens = max(len(streams[0]), 1)
    results = {
        "tokens": streams[0],
        "matches_local_greedy": streams[0] == local,
        "rounds": rc.tokens,
        "transcript_messages": len(transcript.entries),
        "inference_messages": transcript.inference_count(),
        "wall_s": wall,
        "ms_per_token": 1e3 * wall / max(rc.tokens, 1),
        "request_bytes_per_token": transcript.frame_bytes(wire.MsgType.INFER_REQUEST)
        / tokens,
        "response_bytes_per_token": transcript.frame_bytes(wire.MsgType.INFER_RESPONSE)
        / tokens,
        "ref_rows": sum(e["ref_rows"] or 0 for e in transcript.entries),
        "transcript_path": args.transcript or None,
    }
    _emit(rc, "simulate", results, csv_rows=[dict(results, tokens=str(results["tokens"]))])
    return EXIT_OK


def cmd_attack(rc, args):
    rng = np.random.default_rng(rc.seed)
    if args.kind == "kpa":
        x = rng.normal(size=(rc.rows, rc.d_model)).astype(np.float32)
        pi = gen_permutation(rc.d_model, rc.seed + 1)
        res = kpa_column_match(x, x[:, pi.indices])
        results = {
            "kind": "kpa",
            "outcome": res.outcome.value,
            "recovered_matches_key": bool(
                res.outcome is KpaOutcome.RECOVERED and res.permutation == pi
            ),
            "groups": res.groups,
        }
    elif args.kind == "bfa":
        x = rng.normal(size=(rc.rows, rc.d_model)).astype(np.float32)
        pi = gen_permutation(rc.d_model, rc.seed + 1)
        try:
            res = bfa_exhaustive(x, x[:, pi.indices], max_dim=args.bfa_cap)
            results = {
                "kind": "bfa",
                "outcome": res.outcome.value,
                "refused": False,
                "recovered_matches_key": bool(
                    res.outcome is KpaOutcome.RECOVERED and res.permutation == pi
                ),
            }
        except KeyspaceTooLargeError as exc:
            results = {"kind": "bfa", "outcome": "refused", "refused": True, "detail": str(exc)}
    else:
        if args.model:
            params = _load_any_model(args.model)
        else:
            params = gen_model(model_config_from(rc), rc.seed)
        pset = gen_permutation_set(params.config, rc.seed + 1)
        transformed = para_trans(params, pset)
        report = unauthorized_use_demo(
            transformed, _prompt_ids(rc), params.embedding, pset, max_tokens=rc.tokens
        )
        results = dict(report, kind="unauthorized")
    _emit(rc, "attack", results)
    return EXIT_OK


def cmd_bench(rc, args):
    cfg = model_config_from(rc)
    if args.what in ("e2e", "all"):
        check_generation(len(_prompt_ids(rc)), rc.tokens)
    results = {}
    rows = []
    what = args.what
    if what in ("perm", "all"):
        r = bench_mod.bench_permutation(d=args.perm_d, reps=args.reps, seed=rc.seed)
        results["permutation"] = r
        rows.append(dict(r, metric="permutation"))
    if what in ("transform", "all"):
        r = bench_mod.bench_transform(cfg, seed=rc.seed)
        results["transform"] = r
        rows.append(dict(r, metric="transform"))
    if what in ("traffic", "all"):
        r = bench_mod.bench_traffic(rc.rows, rc.d_model, rc.vocab_size)
        results["traffic"] = r
        rows.append(dict(r, metric="traffic"))
    if what in ("e2e", "all"):
        params = gen_model(cfg, rc.seed)
        r = bench_mod.bench_generation(
            params, _prompt_ids(rc), rc.tokens, latency=rc.latency_ms / 1e3, seed=rc.seed
        )
        results["generation"] = r
        rows.append(dict(r, metric="generation"))
    _emit(rc, "bench", results, csv_rows=rows)
    return EXIT_OK


def _add_config_flags(p):
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--n-layers", dest="n_layers", type=int)
    p.add_argument("--d-model", dest="d_model", type=int)
    p.add_argument("--d-ff", dest="d_ff", type=int)
    p.add_argument("--vocab-size", dest="vocab_size", type=int)
    p.add_argument("--n-experts", dest="n_experts", type=int)
    p.add_argument("--attn-scale", dest="attn_scale", type=float)
    p.add_argument("--norm-kind", dest="norm_kind", choices=[k.value for k in NormKind])
    p.add_argument(
        "--norm-placement", dest="norm_placement", choices=[k.value for k in NormPlacement]
    )
    p.add_argument("--ffn-kind", dest="ffn_kind", choices=[k.value for k in FfnKind])
    p.add_argument("--mask-kind", dest="mask_kind", choices=[k.value for k in MaskKind])
    p.add_argument("--seed", type=int)
    p.add_argument("--transport", choices=["inproc", "socket"])
    p.add_argument("--host")
    p.add_argument("--latency-ms", dest="latency_ms", type=float)
    p.add_argument("--trials", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--rows", type=int)
    p.add_argument("--tokens", type=int)
    p.add_argument("--prompt", help="comma-separated token ids")
    p.add_argument("--out", help="write the JSON report here as well as stdout")
    p.add_argument("--csv", help="write a CSV twin of the report rows")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="stip",
        description="Permutation-protected transformer inference toolkit",
        epilog=(
            "Config precedence: defaults < --config file (key=value per line, "
            f"'#' comments) < {ENV_PREFIX}<KEY> environment variables < flags. "
            "Exit codes: 0 success, 1 verification failure, 2 usage error, "
            "3 I/O error, 4 protocol error."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("genmodel", help="write a random desk-scale model file")
    p.add_argument("model_out", help="output path (.json for the JSON mirror)")
    _add_config_flags(p)
    p.set_defaults(func=cmd_genmodel)

    p = sub.add_parser("transform", help="permute a model's parameters and emit keys")
    p.add_argument("--model", required=True)
    p.add_argument("--out-model", dest="out_model", required=True)
    p.add_argument("--out-keys", dest="out_keys", required=True)
    p.add_argument("--identity", action="store_true", help="identity permutations (debug)")
    p.add_argument("--epoch", type=_epoch, default=1)
    _add_config_flags(p)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("verify", help="check transformed-vs-original equivalence")
    p.add_argument("--model", required=True, help="original (un-transformed) model")
    p.add_argument("--keys", required=True, help="full permutation-set file")
    _add_config_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="run the three-party protocol end to end")
    p.add_argument("--model", help="model file; omitted = generate from config")
    p.add_argument("--transcript", help="write a JSONL message transcript here")
    _add_config_flags(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("attack", help="run a security demonstration")
    p.add_argument("--kind", choices=["kpa", "bfa", "unauthorized"], required=True)
    p.add_argument("--model", help="model file for the unauthorized demo")
    p.add_argument("--bfa-cap", dest="bfa_cap", type=int, default=8)
    _add_config_flags(p)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("bench", help="measure permutation, transform, traffic, e2e")
    p.add_argument(
        "--what", choices=["perm", "transform", "traffic", "e2e", "all"], default="all"
    )
    p.add_argument("--perm-d", dest="perm_d", type=int, default=1024)
    p.add_argument("--reps", type=int, default=30)
    _add_config_flags(p)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        rc = resolve_config(args)
        return args.func(rc, args)
    except InvalidConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CodecError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ProtocolError, TransportError, AbortedGenerationError) as exc:
        print(f"protocol error: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
    except StipError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
