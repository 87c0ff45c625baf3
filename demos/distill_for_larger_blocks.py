"""
Distillation makes targets easier to propose
============================================

Lookahead heads only earn large blocks when the continuation is
predictable. Noisy gold targets cap how consistent the heads can be, but a
teacher's own greedy decodes are a deterministic function of the input, so
a student trained on them agrees with itself further ahead and accepts
bigger blocks, even when the teacher itself is mediocre.
"""

from blockdec.harness.bench import BenchConfig, distill_corpus, run_bench
from blockdec.harness.corpus import make_pattern_corpus
from blockdec.harness.training import TrainingConfig, default_model_config, train_model

SMALL = dict(num_heads=4, d_model=32, d_hidden=32, num_layers=2)
TRAINING = TrainingConfig(steps=2000, batch_size=16, learning_rate=0.3, seed=0)
# combined scheme and exact criterion at k=4 over the first 48 gold inputs
K4 = BenchConfig(block_sizes=(4,), repeats=1, max_pairs=48)


def mean_block(model, corpus):
    (row,) = run_bench(model, corpus, K4).rows
    return row["mean_accepted_block_size"]


# gold data with 15% label noise: the true rule is repeat-twice, but the
# targets contradict it often enough to keep any model hedging
gold = make_pattern_corpus("repeat", alphabet=8, n_pairs=1024, min_len=3,
                           max_len=3, copies=2, noise=0.15, seed=1)

teacher, _ = train_model(gold, default_model_config(gold, **SMALL), TRAINING)

# replace every target with the teacher's greedy decode of the same input
distilled = distill_corpus(teacher, gold)
changed = sum(a != b for (_, a), (_, b) in zip(gold.pairs, distilled.pairs))
print(f"teacher rewrote {changed}/{len(gold)} targets")

# same architecture, same schedule, same seed; only the targets differ
student, _ = train_model(distilled, default_model_config(distilled, **SMALL), TRAINING)

print("mean accepted block size at k=4, exact criterion:")
print(f"  trained on noisy gold targets: {mean_block(teacher, gold):.2f}")
print(f"  trained on teacher decodes:    {mean_block(student, gold):.2f}")
