"""Acceptance gate: one test per headline guarantee, each printing a
single pass/fail line with its measurements.

Run with plain `pytest`; the summary lines print straight to the terminal
even under output capture.
"""

import json
import time

import numpy as np
import pytest

from blockdec.criteria import EXACT, distance, exact, top_k
from blockdec.engine import (
    BlockScores,
    DecodeConfig,
    blockwise_decode,
    blockwise_decode_combined,
    greedy_decode,
    verify_block,
)
from blockdec.harness.bench import BenchConfig, distill_corpus, run_bench
from blockdec.harness.cli import cli
from blockdec.harness.corpus import make_pattern_corpus
from blockdec.harness.training import TrainingConfig, default_model_config, train_model
from blockdec.models.neural import (
    FreezeMask,
    ModelConfig,
    TinyBlockModel,
    TrainBatch,
    loss_and_gradients,
    partition_of,
    sub_loss,
    train_step,
)
from blockdec.models.synthetic import make_synthetic_model

TRAIN_BUDGET_S = 15 * 60


def announce(capsys, number, name, ok, detail):
    with capsys.disabled():
        print(f"\ncriterion {number} {name}: {'PASS' if ok else 'FAIL'}  ({detail})")
    assert ok, f"criterion {number} {name}: {detail}"


def test_criterion_1_greedy_equivalence(capsys):
    started = time.time()
    models = comparisons = matches = 0
    for seed in range(168):
        for k in (2, 4, 8):
            model = make_synthetic_model("random_table", seed=seed * 3 + k,
                                         vocab_size=16, num_heads=k)
            models += 1
            config = DecodeConfig(block_size=k, max_len=8 + (seed + k) % 25)
            inp = (seed % 16, (seed // 16) % 16)
            gold = greedy_decode(model, inp, config)
            for fn in (blockwise_decode, blockwise_decode_combined):
                comparisons += 1
                matches += fn(model, inp, config).output == gold.output
    elapsed = time.time() - started
    ok = models >= 500 and matches == comparisons and elapsed < 10.0
    announce(capsys, 1, "greedy equivalence", ok,
             f"{matches}/{comparisons} greedy-identical over {models} models, "
             f"{elapsed:.1f}s")


def test_criterion_2_invocation_arithmetic(capsys):
    model = make_synthetic_model("perfect_proposals", seed=5, vocab_size=16, num_heads=4)
    config = DecodeConfig(block_size=4, max_len=12)
    gold = greedy_decode(model, (3, 1), config)
    standard = blockwise_decode(model, (3, 1), config)
    combined = blockwise_decode_combined(model, (3, 1), config)
    counts = (gold.model_invocations,
              standard.iterations, standard.model_invocations,
              combined.iterations, combined.model_invocations)
    ok = (counts == (12, 3, 6, 3, 4)
          and standard.output == gold.output == combined.output
          and len(gold.output) == 12)
    announce(capsys, 2, "invocation arithmetic", ok,
             f"m=12 k=4: greedy {counts[0]} invocations, "
             f"standard {counts[1]} iterations/{counts[2]} invocations, "
             f"combined {counts[3]} iterations/{counts[4]} invocations")


def test_criterion_3_criterion_equivalences(capsys):
    failures = []
    for seed in range(100):
        model = make_synthetic_model("random_table", seed=seed, vocab_size=16,
                                     num_heads=4)
        inp = (seed % 16,)
        for fn in (blockwise_decode, blockwise_decode_combined):
            results = {}
            for label, criterion in (("exact", exact()), ("top_1", top_k(1)),
                                     ("distance_0", distance(0))):
                config = DecodeConfig(block_size=4, max_len=16, criterion=criterion)
                r = fn(model, inp, config)
                results[label] = (r.output, r.accepted_sizes)
            if not results["exact"] == results["top_1"] == results["distance_0"]:
                failures.append(seed)
    ladder_bad = 0
    for call in range(1000):
        rng = np.random.default_rng(call)
        logits = rng.standard_normal((5, 4, 16))
        shifted = logits - logits.max(axis=-1, keepdims=True)
        grid = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        scores = BlockScores(grid=grid, base_len=0)
        # mix argmaxes with random tokens so accepted lengths vary
        proposals = tuple(
            int(np.argmax(grid[i, 0])) if rng.random() < 0.5
            else int(rng.integers(0, 16))
            for i in range(4)
        )
        ladder = [verify_block(scores, proposals, c)
                  for c in (exact(), top_k(2), top_k(3))]
        ladder_bad += ladder != sorted(ladder)
    ok = not failures and ladder_bad == 0
    announce(capsys, 3, "criterion equivalences", ok,
             f"top-1 and distance-0 identical to exact on 100 models "
             f"({len(failures)} mismatches), k-hat monotone on 1000/"
             f"{1000 - ladder_bad} verify calls")


def test_criterion_4_fixed_block_mode(capsys):
    failures = []
    fixed = exact(min_block=4)
    for kind in ("perfect_proposals", "adversarial"):
        model = make_synthetic_model(kind, seed=2, vocab_size=16, num_heads=4)
        for fn in (blockwise_decode, blockwise_decode_combined):
            full = fn(model, (1,), DecodeConfig(block_size=4, max_len=12, criterion=fixed))
            if full.accepted_sizes != (4, 4, 4):
                failures.append((kind, "full", full.accepted_sizes))
            ragged = fn(model, (1,), DecodeConfig(block_size=4, max_len=10, criterion=fixed))
            if ragged.accepted_sizes != (4, 4, 2):
                failures.append((kind, "ragged", ragged.accepted_sizes))
    ok = not failures
    announce(capsys, 4, "fixed block mode", ok,
             "floor=k gives blocks (4,4,4) at max_len 12 and (4,4,2) at 10 "
             f"on perfect and adversarial models; failures: {failures or 'none'}")


def micro_setup():
    config = ModelConfig(vocab_size=11, d_model=6, d_hidden=8, num_heads=3,
                         num_layers=1, max_context=12, sep_token=9, eos_token=10)
    model = TinyBlockModel(config, seed=3, dtype=np.float64)
    pairs = [((1, 2, 3), (4, 5, 6, 10)),
             ((2, 2), (7, 8, 10)),
             ((0, 4, 1, 5), (3, 3, 3, 3, 10))]
    return model, TrainBatch.from_pairs(pairs, config)


def test_criterion_5_gradient_check(capsys):
    model, batch = micro_setup()
    n_params = model.param_count()
    step, head = 1e-5, 2
    _, grads = loss_and_gradients(model, batch, head)
    worst = {}
    for name in sorted(model.params):
        flat = model.params[name].reshape(-1)
        part = partition_of(name)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = sub_loss(model, batch, head)
            flat[i] = orig - step
            down = sub_loss(model, batch, head)
            flat[i] = orig
            fd = (up - down) / (2 * step)
            analytic = grads[name].reshape(-1)[i]
            err = abs(analytic - fd) / max(abs(analytic) + abs(fd), 1e-8)
            worst[part] = max(worst.get(part, 0.0), err)
    sweep_ok = set(worst) == {"base", "head_extension", "vocab_projection"} and \
        max(worst.values()) <= 1e-4

    # frozen partitions must not move while the rest still take the
    # finite-difference-validated update
    frozen = FreezeMask(base=True, vocab_projection=True)
    before = {k: v.copy() for k, v in model.params.items()}
    train_step(model, batch, head, 0.05, freeze=frozen)
    freeze_ok = True
    for name in model.params:
        unchanged = np.array_equal(model.params[name], before[name])
        if frozen.frozen(partition_of(name)):
            freeze_ok &= unchanged
        else:
            expected = before[name] - 0.05 * grads[name]
            freeze_ok &= np.allclose(model.params[name], expected, rtol=0, atol=1e-12)
    ok = n_params <= 2000 and sweep_ok and freeze_ok
    announce(capsys, 5, "gradient check", ok,
             f"{n_params} parameters, worst relative error "
             + ", ".join(f"{p}={e:.2e}" for p, e in sorted(worst.items()))
             + f", freeze respected: {freeze_ok}")


def test_criterion_6_sub_loss_unbiasedness(capsys):
    model, batch = micro_setup()
    heads = model.config.num_heads
    per_head = np.array([sub_loss(model, batch, h) for h in range(1, heads + 1)])
    mean_of_k = per_head.mean()
    draws = np.random.default_rng(12).integers(1, heads + 1, size=10_000)
    # sub-losses are deterministic per head, so the mean over draws is the
    # count-weighted mean of the per-head values
    counts = np.bincount(draws, minlength=heads + 1)[1:]
    sampled_mean = float((counts * per_head).sum() / 10_000)
    rel = abs(sampled_mean - mean_of_k) / mean_of_k
    ok = rel < 0.01 and len(set(per_head.tolist())) == heads
    announce(capsys, 6, "sub-loss unbiasedness", ok,
             f"10000-draw mean {sampled_mean:.6f} vs mean-of-{heads} "
             f"{mean_of_k:.6f}, relative gap {rel:.2%}")


def _mean_block(model, criterion, inputs, eos, max_len):
    config = DecodeConfig(block_size=4, max_len=max_len, criterion=criterion,
                          eos_token=eos)
    tokens = iterations = 0
    for inp in inputs:
        r = blockwise_decode_combined(model, inp, config)
        tokens += len(r.output)
        iterations += r.iterations
    return tokens / iterations


@pytest.mark.slow
def test_criterion_7_desk_scale_trends(capsys):
    gold = make_pattern_corpus("repeat", alphabet=32, n_pairs=4096, min_len=6,
                               max_len=6, copies=3, noise=0.1, seed=42)
    eos = gold.vocab.eos_token
    max_len = gold.decode_budget()
    training = TrainingConfig(steps=8000, batch_size=16, learning_rate=0.3, seed=0)

    started = time.time()
    teacher, _ = train_model(gold, default_model_config(gold), training)
    teacher_s = time.time() - started
    distilled = distill_corpus(teacher, gold)
    started = time.time()
    student, _ = train_model(distilled, default_model_config(distilled), training)
    student_s = time.time() - started

    eval_inputs = [inp for inp, _ in make_pattern_corpus(
        "repeat", alphabet=32, n_pairs=64, min_len=6, max_len=6, copies=3, seed=7).pairs]
    adversarial = make_synthetic_model("adversarial", seed=0,
                                       vocab_size=gold.vocab.size, num_heads=4)
    student_block = _mean_block(student, exact(), eval_inputs, eos, max_len)
    gold_block = _mean_block(teacher, exact(), eval_inputs, eos, max_len)
    top2_block = _mean_block(teacher, top_k(2), eval_inputs, eos, max_len)
    adv_block = _mean_block(adversarial, exact(), eval_inputs, None, max_len)

    ok = (student_block >= 2.0 and adv_block == 1.0
          and student_block >= gold_block and top2_block >= gold_block
          and teacher_s <= TRAIN_BUDGET_S and student_s <= TRAIN_BUDGET_S)
    announce(capsys, 7, "desk-scale trends", ok,
             f"k=4 mean blocks: distilled {student_block:.2f} >= 2.0 and >= gold "
             f"{gold_block:.2f}, top-2 {top2_block:.2f} >= exact {gold_block:.2f}, "
             f"adversarial {adv_block:.2f}; trained in {teacher_s:.0f}s + {student_s:.0f}s")


def test_criterion_8_accounting_invariants(capsys):
    corpus = make_pattern_corpus("repeat", alphabet=10, n_pairs=20, min_len=2,
                                 max_len=4, copies=2, seed=6)
    model = make_synthetic_model("random_table", seed=8, vocab_size=12, num_heads=4)
    eos = corpus.vocab.eos_token
    decodes = 0
    failures = []
    for k in (1, 2, 4):
        for criterion in (exact(), top_k(2)):
            config = DecodeConfig(block_size=k, max_len=10, criterion=criterion,
                                  eos_token=eos)
            for inp, _ in corpus.pairs:
                for fn, rule in ((greedy_decode, lambda r: r.model_invocations == len(r.output)),
                                 (blockwise_decode, lambda r: r.model_invocations == 2 * r.iterations),
                                 (blockwise_decode_combined, lambda r: r.model_invocations == r.iterations + 1)):
                    r = fn(model, inp, config)
                    decodes += 1
                    if not (sum(r.accepted_sizes) == len(r.output)
                            and r.iterations == len(r.accepted_sizes)
                            and all(s >= 1 for s in r.accepted_sizes)
                            and rule(r)):
                        failures.append((k, criterion.kind, fn.__name__))
    report = run_bench(model, corpus, BenchConfig(block_sizes=(1, 2, 4), repeats=1))
    pairs = report.meta["pairs"]
    for row in report.rows:
        expect = row["iterations_total"] + (0 if row["scheme"] == "greedy" else pairs)
        if row["invocations_total"] != expect:
            failures.append(("bench", row["k"], row["scheme"]))
    ok = not failures
    announce(capsys, 8, "accounting invariants", ok,
             f"{decodes} decodes plus a bench grid; failures: {failures or 'none'}")


def test_criterion_9_determinism(capsys, tmp_path):
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps({
        "kind": "synthetic_pattern", "alphabet": 8, "rule": "repeat",
        "pairs": 48, "min_len": 2, "max_len": 3, "copies": 2, "seed": 21,
    }))
    wall_clock = ("wall_clock_speedup_vs_greedy", "wall_clock_ns_total",
                  "baseline_wall_clock_ns")
    runs = []
    for tag in ("a", "b"):
        ckpt = tmp_path / f"{tag}.ckpt"
        report = tmp_path / f"{tag}.json"
        assert cli(["train", "--corpus", str(corpus), "--steps", "120",
                    "--batch-size", "8", "--heads", "2", "--d-model", "16",
                    "--d-hidden", "16", "--layers", "1", "--seed", "5",
                    "--out", str(ckpt)]) == 0
        assert cli(["bench", "--model", str(ckpt), "--corpus", str(corpus),
                    "--block-sizes", "1,2", "--criteria", "kind=exact;kind=top_k,k=2",
                    "--repeats", "2", "--max-pairs", "8", "--out", str(report)]) == 0
        doc = json.loads(report.read_text())
        runs.append({
            "ckpt": ckpt.read_bytes(),
            "meta": doc["meta"],
            "rows": [{k: v for k, v in row.items() if k not in wall_clock}
                     for row in doc["rows"]],
        })
    capsys.readouterr()
    ok = runs[0] == runs[1]
    announce(capsys, 9, "determinism", ok,
             "identical seeds give identical checkpoints and bench reports "
             "modulo wall-clock fields")
