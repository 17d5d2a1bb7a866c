"""Count wrong tokens against local greedy decoding, in a worker process.

Reads a pickled (config, new_tokens, [(prompt, tokens), ...]) from standard
input and prints the number of mismatched tokens. `driver.py` starts it with
`stip` importable and waits for it to end.
"""

import pickle
import sys

from stip.model import gen_model, greedy_generate

from workloads import MODEL_SEED


def bad_tokens(config, new_tokens, sessions):
    """Wrong tokens in [(prompt, tokens), ...] against local greedy decoding."""
    params = gen_model(config, MODEL_SEED)
    bad = 0
    for prompt, tokens in sessions:
        ref = greedy_generate(params, prompt, new_tokens)
        bad += sum(a != b for a, b in zip(tokens, ref)) + abs(len(ref) - len(tokens))
    return bad


if __name__ == "__main__":
    print(bad_tokens(*pickle.load(sys.stdin.buffer)))
