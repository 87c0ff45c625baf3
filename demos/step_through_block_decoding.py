"""
Stepping through blockwise decoding
===================================

A scripted model makes the predict/verify/accept loop visible. Its base
head follows one fixed continuation, its lookahead heads agree with that
continuation two positions out and then go off script, so every iteration
accepts exactly two tokens.
"""

import numpy as np

from blockdec import (
    DecodeConfig, DecodeState, blockwise_decode, blockwise_decode_combined, greedy_decode,
)
from blockdec.models.base import TableBackedModel

# the continuation the base head follows, one token per position
STORY = (5, 3, 7, 2, 6, 1, 4, 0, 5, 2, 7, 3)
VOCAB = 8


def one_hot_row(token):
    # near-one-hot log-probabilities, normalized so the engine accepts them
    logits = np.zeros(VOCAB)
    logits[token] = 12.0
    shifted = logits - logits.max()
    return shifted - np.log(np.exp(shifted).sum())


class ScriptedModel(TableBackedModel):
    """Head j proposes the token j+1 positions ahead; heads beyond the
    second deliberately propose a wrong token."""

    vocab_size = VOCAB
    num_heads = 4

    def head_logprobs(self, input_tokens, context):
        n = len(context)
        rows = []
        for j in range(self.num_heads):
            target = STORY[(n + j) % len(STORY)]
            if j >= 2:
                target = (target + 1) % VOCAB
            rows.append(one_hot_row(target))
        return np.stack(rows)


model = ScriptedModel()
config = DecodeConfig(block_size=4, max_len=12)

# one manual round first: the decode state names each scoring call and takes
# its grid back. The predict call scores the bare prefix and proposes a block;
# the verify call scores the proposals so the base head can check each one
# against its own next-token distribution
state = DecodeState((0,), config, "standard")
state.feed(model.score_grid((0,), *state.next_call()))
prefix, proposals, k = state.next_call()
print(f"proposed block: {proposals}")
state.feed(model.score_grid((0,), prefix, proposals, k))
print(f"accepted prefix length: {state.accepted_sizes[0]}")

# the full loop repeats that round until max_len tokens are out
result = blockwise_decode(model, (0,), config)
position = 0
for step, size in enumerate(result.accepted_sizes, start=1):
    block = result.output[position : position + size]
    position += size
    print(f"iteration {step}: accepted {size} tokens {block}")

# greedy spends one model call per token; the standard block loop pays two
# calls per iteration (predict, verify); the combined scheme reads the next
# proposals out of the verify call and only pays the first predict once
greedy = greedy_decode(model, (0,), config)
combined = blockwise_decode_combined(model, (0,), config)
print(f"greedy: {greedy.model_invocations} invocations for {len(greedy.output)} tokens")
print(f"standard: {result.model_invocations} invocations in {result.iterations} iterations")
print(f"combined: {combined.model_invocations} invocations in {combined.iterations} iterations")

# the exact criterion keeps all three outputs identical
print(f"all outputs equal: {greedy.output == result.output == combined.output}")
