"""The benchmark's workloads: one model, one transport and one session shape each.

Every workload is a closed loop: one client, one session at a time, and the
next request goes out only after the previous reply. The model weights are
fixed (MODEL_SEED); the run's seed draws the prompts and the permutation keys.
"""

from dataclasses import dataclass

from stip.model import FfnKind, ModelConfig, NormKind, NormPlacement

MODEL_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    config: ModelConfig
    transport: str  # "tcp" or "inproc"
    prompt_len: int
    new_tokens: int
    rekey_every: int  # P1 re-keys before every n-th session; 0 = never
    setup_reps: int  # set-ups per run; setup_s is their median
    warmup_sessions: int


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's desk model over TCP with long generations: every round
        # resends and recomputes the whole prefix, so O(n^2) model work and
        # per-round wire traffic dominate. A KV cache shows here.
        Workload(
            name="desk-decode",
            config=ModelConfig(
                n_layers=4, d_model=64, d_ff=256, vocab_size=100, attn_scale=64.0
            ),
            transport="tcp",
            prompt_len=16,
            new_tokens=256,
            rekey_every=0,
            setup_reps=101,
            warmup_sessions=1,
        ),
        # Compute-bound in the MoE FFN and matmul: long prompts, few new tokens,
        # no sockets. f32 accumulation and sparse dispatch show here; a
        # decode-only change should not.
        Workload(
            name="moe-prefill",
            config=ModelConfig(
                n_layers=4,
                d_model=512,
                d_ff=1024,
                vocab_size=1000,
                attn_scale=512.0,
                norm_kind=NormKind.RMSNORM,
                norm_placement=NormPlacement.PRE,
                ffn_kind=FfnKind.SWIGLU,
                n_experts=4,
            ),
            transport="inproc",
            prompt_len=64,
            new_tokens=4,
            rekey_every=0,
            setup_reps=7,
            warmup_sessions=2,
        ),
        # The write path beside the read path: short sessions and a full re-key
        # (new keys, para_trans, container encode, DEPLOY_MODEL, P3 keys) every
        # few sessions. The 4096-token vocabulary makes replies heavy. A cache
        # that a re-key must drop shows its cost here.
        Workload(
            name="rekey-churn",
            config=ModelConfig(
                n_layers=4,
                d_model=256,
                d_ff=1024,
                vocab_size=4096,
                attn_scale=256.0,
                ffn_kind=FfnKind.GELU,
            ),
            transport="tcp",
            prompt_len=8,
            new_tokens=8,
            rekey_every=4,
            setup_reps=15,
            warmup_sessions=8,
        ),
    )
}
