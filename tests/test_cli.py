"""Operator CLI: subcommands, config precedence, exit codes, report bundles."""

import json
import os
import struct
import subprocess
import sys

import pytest

from conftest import make_config, overflowing_container
import stip.protocol
from stip import cli
from stip.container import (
    encode_model,
    load_keys,
    load_model,
    load_model_json,
    save_keys,
    save_model,
)
from stip.model import gen_model
from stip.protocol import DataOwnerParty, DeveloperParty, ServerParty
from stip.transform import PermutationSet, gen_permutation_set, para_trans


def run_cli(capsys, argv):
    capsys.readouterr()  # drop output from any setup invocations
    code = cli.main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


def cli_default_config(**kw):
    base = dict(n_layers=4, d_model=64, d_ff=256, vocab_size=100)
    base.update(kw)
    return make_config(**base)


def params_equal(a, b):
    import numpy as np

    if a.config != b.config:
        return False
    flat_a, flat_b = [], []

    def walk(p, into):
        into.append(p.embedding.table)
        for lw in p.layers:
            into.extend([lw.w_q, lw.w_k, lw.w_v, lw.w_o, lw.gamma_1, lw.gamma_2])
            ffns = (lw.ffn,) if lw.ffn is not None else lw.experts
            for f in ffns:
                into.append(f.w1)
                into.append(f.w2)
                if f.w3 is not None:
                    into.append(f.w3)
        into.append(p.w_c)

    walk(a, flat_a)
    walk(b, flat_b)
    return all(np.array_equal(x, y) for x, y in zip(flat_a, flat_b))


# --- genmodel ---------------------------------------------------------------


def test_genmodel_binary_round_trip(tmp_path, capsys):
    path = tmp_path / "m.bin"
    code, report, _ = run_cli(capsys, ["genmodel", str(path), "--seed", "7"])
    assert code == 0
    assert report["command"] == "genmodel"
    loaded = load_model(str(path))
    expected = gen_model(cli_default_config(), 7)
    assert params_equal(loaded, expected)


def test_genmodel_rerun_is_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    assert cli.main(["genmodel", str(a), "--seed", "3"]) == 0
    assert cli.main(["genmodel", str(b), "--seed", "3"]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_genmodel_json_mirror(tmp_path, capsys):
    path = tmp_path / "m.json"
    code, report, _ = run_cli(capsys, ["genmodel", str(path), "--seed", "5"])
    assert code == 0 and report["results"]["format"] == "json"
    loaded = load_model_json(str(path))
    assert params_equal(loaded, gen_model(cli_default_config(), 5))


def test_report_bundle_shape(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, report, _ = run_cli(
        capsys, ["genmodel", str(tmp_path / "m.bin"), "--seed", "9", "--out", str(out)]
    )
    assert code == 0
    assert len(report["config_hash"]) == 16
    assert report["seed"] == 9
    assert json.loads(out.read_text()) == report


# --- transform / verify --------------------------------------------------------


def test_transform_emits_model_and_full_key_set(tmp_path, capsys):
    m = tmp_path / "m.bin"
    cli.main(["genmodel", str(m), "--seed", "1"])
    code, report, _ = run_cli(
        capsys,
        [
            "transform",
            "--model",
            str(m),
            "--out-model",
            str(tmp_path / "t.bin"),
            "--out-keys",
            str(tmp_path / "k.bin"),
            "--seed",
            "2",
        ],
    )
    assert code == 0
    assert report["results"]["permutations"] == 3 * 4 + 2
    pset, epoch = load_keys(str(tmp_path / "k.bin"))
    assert epoch == report["results"]["epoch"]
    assert pset == gen_permutation_set(load_model(str(m)).config, 2)
    assert (tmp_path / "t.bin").read_bytes() != m.read_bytes()
    want = encode_model(para_trans(load_model(str(m)), pset))
    assert (tmp_path / "t.bin").read_bytes() == bytes(want)


def test_transform_epoch_comes_from_the_flag_alone(tmp_path, capsys):
    m, k = tmp_path / "m.bin", tmp_path / "k.bin"
    cli.main(["genmodel", str(m), "--seed", "1"])
    seen = []
    for flags in ([], ["--epoch", "7"], [], ["--epoch", "7"]):
        code, report, _ = run_cli(
            capsys,
            ["transform", "--model", str(m), "--out-model", str(tmp_path / "t.bin"),
             "--out-keys", str(k), *flags],
        )
        assert code == 0
        seen.append((report["results"]["epoch"], load_keys(str(k))[1]))
    assert seen == [(1, 1), (7, 7), (1, 1), (7, 7)]


@pytest.mark.parametrize("epoch", ["-1", str(2**64)])
def test_transform_epoch_out_of_u64_range_is_a_usage_error(tmp_path, capsys, epoch):
    m, t, k = tmp_path / "m.bin", tmp_path / "t.bin", tmp_path / "k.bin"
    cli.main(["genmodel", str(m), "--seed", "1"])
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["transform", "--model", str(m), "--out-model", str(t),
                  "--out-keys", str(k), "--epoch", epoch])
    assert exc.value.code == 2
    assert "epoch must be in [0, 2**64)" in capsys.readouterr().err
    assert not t.exists() and not k.exists()


def test_identity_transform_preserves_model_bytes(tmp_path, capsys):
    m, t = tmp_path / "m.bin", tmp_path / "t.bin"
    cli.main(["genmodel", str(m), "--seed", "4"])
    code = cli.main(
        ["transform", "--model", str(m), "--out-model", str(t),
         "--out-keys", str(tmp_path / "k.bin"), "--identity"]
    )
    capsys.readouterr()
    assert code == 0
    assert t.read_bytes() == m.read_bytes()


def transform_fixture(tmp_path, seed=11):
    m = tmp_path / "m.bin"
    k = tmp_path / "k.bin"
    cli.main(["genmodel", str(m), "--seed", str(seed)])
    cli.main(
        ["transform", "--model", str(m), "--out-model", str(tmp_path / "t.bin"),
         "--out-keys", str(k), "--seed", str(seed + 1)]
    )
    return m, k


def test_verify_passes_on_honest_transform(tmp_path, capsys):
    m, k = transform_fixture(tmp_path)
    code, report, _ = run_cli(
        capsys, ["verify", "--model", str(m), "--keys", str(k), "--trials", "3"]
    )
    assert code == 0
    assert report["results"]["passed"] is True


def test_verify_corrupted_key_file_is_io_error(tmp_path, capsys):
    m, k = transform_fixture(tmp_path)
    raw = bytearray(k.read_bytes())
    # first permutation's indices start after the 18-byte container header and
    # the 7-byte entry header; duplicating one index breaks the bijection
    start = 18 + 7
    raw[start : start + 4] = raw[start + 4 : start + 8]
    k.write_bytes(bytes(raw))
    code, _, err = run_cli(capsys, ["verify", "--model", str(m), "--keys", str(k)])
    assert code == 3
    assert "i/o error" in err


def test_verify_unreachable_tolerance_fails(tmp_path, capsys):
    m, k = transform_fixture(tmp_path)
    code, report, _ = run_cli(
        capsys,
        ["verify", "--model", str(m), "--keys", str(k), "--tol=-1", "--trials", "2"],
    )
    assert code == 1
    assert report["results"]["passed"] is False
    # so does a model whose outputs are NaN, at the default tolerance
    params = load_model(str(m))
    params.w_c[3, 5] = float("nan")
    save_model(params, str(m))
    code, report, _ = run_cli(capsys, ["verify", "--model", str(m), "--keys", str(k)])
    assert code == 1
    assert report["results"]["passed"] is False


def test_verify_model_with_overflowing_tensor_dims_is_io_error(tmp_path, capsys):
    m, k = transform_fixture(tmp_path)
    m.write_bytes(overflowing_container(load_model(str(m)).config))
    code, _, err = run_cli(capsys, ["verify", "--model", str(m), "--keys", str(k)])
    assert code == 3 and "i/o error" in err


def test_verify_zero_trials_is_usage_error(tmp_path, capsys):
    m, k = transform_fixture(tmp_path)
    code, _, err = run_cli(
        capsys, ["verify", "--model", str(m), "--keys", str(k), "--trials", "0"]
    )
    assert code == 2 and "usage error" in err


def test_verify_shared_half_keys_rejected(tmp_path, capsys):
    m, k = transform_fixture(tmp_path)
    pset, _ = load_keys(str(k))
    shared = PermutationSet(pi=pset.pi, pi_c=pset.pi_c, per_layer=())
    save_keys(shared, 1, str(k))
    code, _, err = run_cli(capsys, ["verify", "--model", str(m), "--keys", str(k)])
    assert code == 2 and "full key set" in err


def test_missing_model_file_is_io_error(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, ["verify", "--model", str(tmp_path / "no.bin"), "--keys", str(tmp_path / "no.k")]
    )
    assert code == 3 and "i/o error" in err


# --- simulate --------------------------------------------------------------------


def test_simulate_matches_local_greedy(tmp_path, capsys):
    tr = tmp_path / "transcript.jsonl"
    code, report, _ = run_cli(
        capsys,
        ["simulate", "--tokens", "4", "--prompt", "0,1,2", "--seed", "6",
         "--transcript", str(tr)],
    )
    assert code == 0
    res = report["results"]
    assert res["matches_local_greedy"] is True
    assert res["inference_messages"] == 2 * 4
    lines = tr.read_text().strip().splitlines()
    assert len(lines) == 2 + 2 * 4
    first = json.loads(lines[0])
    assert set(first) >= {"ts", "direction", "msg_type", "epoch"}


def test_simulate_reports_wire_bytes_per_token(capsys):
    code, report, _ = run_cli(
        capsys, ["simulate", "--tokens", "4", "--prompt", "0,1,2", "--seed", "6"]
    )
    assert code == 0
    res = report["results"]
    head = 31 + 8
    d, s = 64, 100  # the default desk config
    # a step's row travels by reference when its token came earlier in the
    # sequence: a u32 count and a (position, source) pair instead of 4·d bytes
    seq = [0, 1, 2] + res["tokens"]
    r = sum(seq[i] in seq[:i] for i in range(3, 6))
    assert res["ref_rows"] == r
    # every round asks for a TOP1 reply: each request ends in a u32 start and
    # a u32 mode, and each reply is a u32 count and one u32 index (no ties)
    assert res["request_bytes_per_token"] == (
        head + 4 * 3 * d + 8 + 3 * (head + 4 * d + 8) - r * (4 * d - 12)
    ) / 4
    assert res["response_bytes_per_token"] == 31 + 4 + 4
    # a bare prefill still gets the full reply, one row per request row
    params = gen_model(cli_default_config(), 6)
    p2, p3 = ServerParty(), DataOwnerParty(params.embedding)
    to_p2, to_p3 = DeveloperParty(params).initialize(6)
    p2.handle_deploy(to_p2)
    p3.handle_deploy_keys(to_p3)
    reply = p2.serve(p3.infer_request([0, 1, 2]))
    assert 31 + len(reply.payload) == head + 4 * 3 * s


def test_simulate_reports_referenced_rows_as_metadata_only(tmp_path, capsys):
    tr = tmp_path / "transcript.jsonl"
    code, report, _ = run_cli(
        capsys,
        ["simulate", "--tokens", "6", "--prompt", "3,3,5,3", "--seed", "6",
         "--transcript", str(tr)],
    )
    assert code == 0
    res = report["results"]
    entries = [json.loads(line) for line in tr.read_text().splitlines()]
    requests = [e for e in entries if e["msg_type"] == "INFER_REQUEST"]
    assert requests[0]["dims"] == [4, 64] and requests[0]["ref_rows"] == 2
    assert res["ref_rows"] == sum(e["ref_rows"] for e in requests) >= 2
    # counts only: no position, no row value, no permutation index
    for e in entries:
        for key, value in e.items():
            if key == "dims" and value is not None:
                assert len(value) == 2 and all(type(v) is int for v in value)
            else:
                assert value is None or isinstance(value, (str, int, float)), (key, value)
        assert e["ref_rows"] is None or type(e["ref_rows"]) is int


def test_simulate_socket_transport(capsys):
    code, report, _ = run_cli(
        capsys,
        ["simulate", "--transport", "socket", "--tokens", "3", "--prompt", "1,2",
         "--seed", "8"],
    )
    assert code == 0
    assert report["results"]["matches_local_greedy"] is True


def test_simulate_latency_floor(capsys):
    code, report, _ = run_cli(
        capsys,
        ["simulate", "--tokens", "3", "--latency-ms", "10", "--prompt", "0", "--seed", "1"],
    )
    assert code == 0
    assert report["results"]["ms_per_token"] >= 20.0


def test_simulate_custom_mask_model_is_protocol_error(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, ["simulate", "--mask-kind", "custom", "--tokens", "2"]
    )
    assert code == 4 and "protocol error" in err


@pytest.mark.parametrize(
    "argv",
    [["simulate"], ["bench", "--what", "e2e"], ["bench", "--what", "all"]],
    ids=["simulate", "bench-e2e", "bench-all"],
)
def test_a_generation_past_the_row_cap_is_refused_up_front(argv, capsys, monkeypatch):
    monkeypatch.setattr(stip.protocol, "MAX_ROWS", 6)
    ran = []
    monkeypatch.setattr(cli, "gen_model", lambda *a: ran.append(a))
    code, report, err = run_cli(capsys, [*argv, "--prompt", "0,1,2,3", "--tokens", "4"])
    assert code == 2 and report is None and "past the 6-row cap" in err
    assert not ran  # refused before any model was made


def test_simulate_bad_prompt_is_usage_error(capsys):
    code, _, err = run_cli(capsys, ["simulate", "--prompt", "0,x,2"])
    assert code == 2 and "usage error" in err


# --- attack ---------------------------------------------------------------------------


def test_attack_kpa(capsys):
    code, report, _ = run_cli(capsys, ["attack", "--kind", "kpa", "--seed", "3"])
    assert code == 0
    assert report["results"]["outcome"] == "recovered"
    assert report["results"]["recovered_matches_key"] is True


def test_attack_bfa_small_dimension_recovers(capsys):
    code, report, _ = run_cli(
        capsys, ["attack", "--kind", "bfa", "--d-model", "4", "--seed", "5"]
    )
    assert code == 0
    assert report["results"]["refused"] is False
    assert report["results"]["recovered_matches_key"] is True


def test_attack_bfa_refuses_large_dimension(capsys):
    code, report, _ = run_cli(
        capsys, ["attack", "--kind", "bfa", "--d-model", "9", "--seed", "5"]
    )
    assert code == 0
    assert report["results"]["refused"] is True
    assert report["results"]["outcome"] == "refused"


def test_attack_unauthorized(capsys):
    code, report, _ = run_cli(
        capsys, ["attack", "--kind", "unauthorized", "--tokens", "10", "--seed", "2"]
    )
    assert code == 0
    res = report["results"]
    assert res["argmax_mismatch_rate"] >= 0.9
    assert len(res["legitimate_tokens"]) == 10
    assert len(res["unauthorized_tokens"]) == 10


# --- bench ------------------------------------------------------------------------------


def test_bench_traffic_bundle(tmp_path, capsys):
    csv_path = tmp_path / "bench.csv"
    code, report, _ = run_cli(
        capsys, ["bench", "--what", "traffic", "--csv", str(csv_path)]
    )
    assert code == 0
    t = report["results"]["traffic"]
    assert t["request_bytes_computed"] == t["request_bytes_measured"]
    assert t["ref_step_bytes_computed"] == t["ref_step_bytes_measured"] == 59
    header = csv_path.read_text().splitlines()[0]
    assert "request_bytes_computed" in header


def test_bench_perm(capsys):
    code, report, _ = run_cli(
        capsys, ["bench", "--what", "perm", "--perm-d", "128", "--reps", "3"]
    )
    assert code == 0
    assert "index_median_s" in report["results"]["permutation"]


# --- configuration layering -------------------------------------------------------------


def test_config_file_comments_and_values(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\nd_model = 32  # trailing\nseed=5\n\n")
    code, report, _ = run_cli(
        capsys, ["genmodel", str(tmp_path / "m.bin"), "--config", str(cfg)]
    )
    assert code == 0
    assert report["config"]["d_model"] == 32
    assert report["config"]["seed"] == 5


def test_env_overrides_file_and_flag_overrides_env(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("d_model=32\nseed=5\n")
    monkeypatch.setenv("STIP_D_MODEL", "16")
    code, report, _ = run_cli(
        capsys,
        ["genmodel", str(tmp_path / "m.bin"), "--config", str(cfg), "--seed", "9"],
    )
    assert code == 0
    assert report["config"]["d_model"] == 16  # env beats file
    assert report["config"]["seed"] == 9  # flag beats file


def test_flag_overrides_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("STIP_D_MODEL", "16")
    code, report, _ = run_cli(
        capsys, ["genmodel", str(tmp_path / "m.bin"), "--d-model", "8"]
    )
    assert code == 0
    assert report["config"]["d_model"] == 8


def test_config_unknown_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("warp_factor=9\n")
    code, _, err = run_cli(
        capsys, ["genmodel", str(tmp_path / "m.bin"), "--config", str(cfg)]
    )
    assert code == 2 and "unknown key" in err


def test_config_bad_value_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("d_model=abc\n")
    code, _, err = run_cli(
        capsys, ["genmodel", str(tmp_path / "m.bin"), "--config", str(cfg)]
    )
    assert code == 2 and "bad value" in err


def test_bad_env_value_is_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("STIP_TRIALS", "many")
    code, _, err = run_cli(capsys, ["genmodel", str(tmp_path / "m.bin")])
    assert code == 2 and "bad value" in err


def test_invalid_model_dimensions_are_usage_error(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, ["genmodel", str(tmp_path / "m.bin"), "--d-model", "0"]
    )
    assert code == 2
    # an attention scale of 0 means d_model; no other value but a finite
    # positive one is accepted
    for scale in ("-5", "nan", "inf"):
        code, _, err = run_cli(
            capsys, ["genmodel", str(tmp_path / "m.bin"), "--attn-scale", scale]
        )
        assert code == 2 and "attn_scale" in err, scale
    assert not (tmp_path / "m.bin").exists()


# --- installed entry point -----------------------------------------------------------------


def child_env():
    """Environment for a child interpreter that imports this same `stip`."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_console_script_smoke(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from stip.cli import main; sys.exit(main(sys.argv[1:]))",
         "genmodel", str(tmp_path / "m.bin"), "--d-model", "8", "--d-ff", "16",
         "--vocab-size", "10"],
        capture_output=True,
        text=True,
        timeout=120,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["command"] == "genmodel"


def test_unknown_flag_exits_two():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from stip.cli import main; sys.exit(main(sys.argv[1:]))",
         "genmodel", "x.bin", "--warp", "9"],
        capture_output=True,
        text=True,
        timeout=60,
        env=child_env(),
    )
    assert proc.returncode == 2
