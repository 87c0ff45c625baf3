"""Regenerate the neural-decode checkpoint and its record.

    python3 perfbench/make_checkpoint.py

Trains a TinyBlockModel (C=64, d=64, d_hidden=64, k=4, 2 layers, float32)
for 2000 steps on the repeat task, writes `data/neural_decode.ckpt`, then
records in `data/neural_decode.json` how it was made and the greedy output
of a few probe inputs. The benchmark checks those outputs at set-up, so a
swapped or stale checkpoint fails before any timing. Everything is seeded
and BLAS runs on one thread, so a rerun on the same numpy and BLAS build
reproduces the same file. Takes about a minute.
"""

from __future__ import annotations

import hashlib
import json

import env

env.prepare()

from blockdec.harness.corpus import make_pattern_corpus  # noqa: E402
from blockdec.harness.training import (  # noqa: E402
    TrainingConfig,
    default_model_config,
    train_model,
)
from blockdec.models.checkpoint import load_checkpoint, save_checkpoint  # noqa: E402

from workloads import (  # noqa: E402
    CHECKPOINT,
    CHECKPOINT_RECORD,
    NEURAL_SHAPE,
    REPEAT_TASK,
    decode,
    repeat_requests,
)

CORPUS = dict(n_pairs=2048, seed=1, **REPEAT_TASK)
TRAINING = dict(steps=2000, batch_size=16, learning_rate=0.3, seed=0)
PROBE_SEED = 424242
PROBES = 3


def main() -> None:
    corpus = make_pattern_corpus(**CORPUS)
    config = default_model_config(corpus, **NEURAL_SHAPE)
    model, losses = train_model(corpus, config, TrainingConfig(**TRAINING))
    CHECKPOINT.parent.mkdir(exist_ok=True)
    save_checkpoint(model, CHECKPOINT)

    loaded = load_checkpoint(CHECKPOINT)
    probes = [
        {"input": list(r.input_tokens), "greedy_output": list(decode(r, "greedy")[0].output)}
        for r in repeat_requests(loaded, PROBE_SEED, PROBES)
    ]
    record = {
        "corpus": CORPUS,
        "model": NEURAL_SHAPE,
        "training": TRAINING,
        "final_loss_mean_100": sum(losses[-100:]) / 100,
        "sha256": hashlib.sha256(CHECKPOINT.read_bytes()).hexdigest(),
        "environment": env.environment(seed=CORPUS["seed"]),
        "probes": probes,
    }
    CHECKPOINT_RECORD.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {CHECKPOINT} ({CHECKPOINT.stat().st_size} bytes) and {CHECKPOINT_RECORD.name}")


if __name__ == "__main__":
    main()
