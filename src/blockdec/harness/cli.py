"""Command line interface.

Subcommands:

  train    fit a k-head model on a corpus and write a checkpoint
  distill  regenerate a corpus's targets with a teacher's greedy decodes
  decode   run one input through a model, printing the per-step trace
  bench    decode a corpus under a grid of configurations and report

Criteria are written as comma-separated key=value lists, for example
`kind=exact`, `kind=top_k,k=2` or `kind=distance,eps=2,min_block=1`; a bare
kind name is accepted as shorthand. The criterion's `min_block` is the only
floor on tokens accepted per iteration.
Each option is declared only on the subcommands that read it: `--out` on all
four, `--report-format` on bench, and `--seed` on train, decode and bench.
argparse refuses an option given anywhere else (exit code 2).
A --synthetic model gets as many heads as the largest block size asked for.
bench and distill refuse a model whose vocabulary differs from the corpus's.
An option left out is not passed on, so the library's own types keep every
default; an option the command would ignore is refused before any work:
an architecture flag with `train --init-from`, and `--vocab-size` or `--seed`
with a `--model` checkpoint.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from functools import partial

from .. import __version__
from ..criteria import parse_criterion
from ..engine import SCHEMES, DecodeConfig, decode
from ..errors import BlockdecError, ConfigurationError, ParseError
from ..models.checkpoint import load_checkpoint, save_checkpoint
from ..models.neural import FreezeMask, PARTITIONS
from ..models.synthetic import SYNTHETIC_KINDS, make_synthetic_model
from .bench import BenchConfig, distill_corpus, run_bench
from .corpus import _text_vocab, decode_text, encode_text, load_corpus, save_corpus, strip_eos
from .report import FORMATS, emit_report
from .training import TrainingConfig, default_model_config, train_model


def _parse_int_list(text: str, what: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ParseError(f"{what} must be comma-separated integers, got {text!r}") from None


def _parse_criteria(text: str) -> tuple:
    return tuple(parse_criterion(c) for c in text.split(";") if c.strip())


def _parse_freeze(text: str) -> FreezeMask:
    flags = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if part not in PARTITIONS:
            raise ParseError(f"unknown partition {part!r}, pick from {PARTITIONS}")
        flags[part] = True
    return FreezeMask(**flags)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockdec",
        description="Blockwise parallel decoding: train, distill, decode, benchmark.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    source = argparse.ArgumentParser(add_help=False)
    model = source.add_mutually_exclusive_group(required=True)
    model.add_argument("--model", help="model checkpoint")
    model.add_argument("--synthetic", choices=SYNTHETIC_KINDS, help="use a seeded table model")
    source.add_argument("--seed", type=int, help="--synthetic model seed")
    sub = parser.add_subparsers(dest="command", required=True)

    # an option without a default is passed on only when given (`_given`), so
    # the library's config types own every default; dests are library names
    t = sub.add_parser("train", help="train a k-head model on a corpus")
    t.add_argument("--corpus", required=True)
    t.add_argument("--out", default="model.ckpt", help="checkpoint path")
    t.add_argument("--seed", type=int, help="initialization and batch seed")
    t.add_argument("--corpus-kind", default=None)
    t.add_argument("--steps", type=int)
    t.add_argument("--batch-size", type=int)
    t.add_argument("--learning-rate", type=float)
    t.add_argument("--heads", dest="num_heads", type=int)
    t.add_argument("--d-model", type=int)
    t.add_argument("--d-hidden", type=int)
    t.add_argument("--layers", dest="num_layers", type=int)
    t.add_argument("--max-context", type=int)
    t.add_argument("--freeze", type=_parse_freeze, help="comma list of partitions to freeze")
    t.add_argument("--init-from", default=None, help="checkpoint to continue training from")
    t.add_argument("--log-every", type=int)

    d = sub.add_parser("distill", help="rewrite corpus targets with teacher decodes")
    d.add_argument("--teacher", required=True)
    d.add_argument("--corpus", required=True)
    d.add_argument("--out", default="distilled_corpus", help="distilled corpus path")
    d.add_argument("--corpus-kind", default=None)
    d.add_argument("--max-len", type=int, default=None)

    dec = sub.add_parser("decode", help="decode one input, printing the block trace",
                         parents=[source])
    dec.add_argument("--out", help="also write the output to this file")
    what = dec.add_mutually_exclusive_group(required=True)
    what.add_argument("--input", help="input text (byte tokens)")
    what.add_argument("--tokens", type=partial(_parse_int_list, what="--tokens"),
                      help="input token ids, comma separated")
    dec.add_argument("--block-size", type=int, default=4)
    dec.add_argument("--criterion", type=parse_criterion)
    dec.add_argument("--max-len", type=int, default=32)
    dec.add_argument("--scheme", choices=SCHEMES, default="combined")
    dec.add_argument("--vocab-size", type=int, help="synthetic model vocabulary")
    dec.add_argument("--check-greedy", action="store_true",
                     help="also run greedy decoding and compare outputs")
    dec.add_argument("--no-trace", action="store_true")

    b = sub.add_parser("bench", help="benchmark decode configurations over a corpus",
                       parents=[source])
    b.add_argument("--corpus", required=True)
    b.add_argument("--out", help="write the report to this file instead of stdout")
    b.add_argument("--report-format", dest="fmt", choices=FORMATS, help="report serialization")
    b.add_argument("--corpus-kind", default=None)
    b.add_argument("--block-sizes", type=partial(_parse_int_list, what="--block-sizes"))
    b.add_argument("--criteria", type=_parse_criteria, help="semicolon-separated criterion specs")
    b.add_argument("--repeats", type=int)
    b.add_argument("--max-pairs", type=int)
    b.add_argument("--max-len", type=int)
    b.add_argument("--scheme", choices=SCHEMES)
    return parser


def _given(args, *names) -> dict:
    """The named options the user gave, as keyword arguments; one left out is
    not passed, so the library's own default holds."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _cmd_train(args) -> int:
    corpus = load_corpus(args.corpus, kind=args.corpus_kind)
    training = TrainingConfig(
        **_given(args, "seed", "steps", "batch_size", "learning_rate", "freeze", "log_every")
    )
    # train_model refuses an architecture given for an --init-from model
    shape = _given(args, "num_heads", "d_model", "d_hidden", "num_layers", "max_context")
    model_config = default_model_config(corpus, **shape) if shape else None
    model = load_checkpoint(args.init_from) if args.init_from else None
    model, losses = train_model(corpus, model_config, training, model)
    save_checkpoint(model, args.out)
    tail = losses[-min(50, len(losses)):]
    print(f"trained {len(losses)} steps on {len(corpus)} pairs; "
          f"final loss {sum(tail) / len(tail):.4f} (mean of last {len(tail)})")
    print(f"checkpoint written to {args.out}")
    return 0


def _cmd_distill(args) -> int:
    teacher = load_checkpoint(args.teacher)
    corpus = load_corpus(args.corpus, kind=args.corpus_kind)
    distilled = distill_corpus(teacher, corpus, args.max_len)
    skipped = len(corpus) - len(distilled)
    if skipped:
        print(f"warning: skipped {skipped} pairs with empty teacher output", file=sys.stderr)
    save_corpus(distilled, args.out)
    print(f"distilled {len(distilled)} pairs written to {args.out}")
    return 0


def _token_renderer(model):
    text = _text_vocab()
    if text.fits(model):
        def render(t):
            if t == text.sep_token:
                return "<sep>"
            if t == text.eos_token:
                return "<eos>"
            if 32 <= t < 127:
                return chr(t)
            return f"\\x{t:02x}"
        return render, True
    return str, False


def _model(args, num_heads: int, **synthetic):
    """The --model checkpoint, or a --synthetic model with `num_heads` heads,
    built with --seed and the `synthetic` keyword arguments."""
    if args.model:
        if args.seed is not None:
            raise ConfigurationError("--seed seeds a --synthetic model; a checkpoint "
                                     "has its own weights")
        return load_checkpoint(args.model)
    return make_synthetic_model(args.synthetic, num_heads=num_heads,
                                **_given(args, "seed"), **synthetic)


def _cmd_decode(args) -> int:
    # the config checks the block size before a synthetic model is built with that many heads
    config = DecodeConfig(
        block_size=args.block_size, max_len=args.max_len, **_given(args, "criterion")
    )
    if args.model and args.vocab_size is not None:
        raise ConfigurationError("--vocab-size sizes a --synthetic model; a checkpoint "
                                 "has its own vocabulary")
    model = _model(args, config.block_size, **_given(args, "vocab_size"))
    eos = model.config.eos_token if args.model else None
    config = replace(config, eos_token=eos)
    source = args.tokens if args.tokens is not None else encode_text(args.input)
    result = decode(model, source, config, args.scheme)
    render, is_text = _token_renderer(model)
    if not args.no_trace:
        pos = 0
        for step, size in enumerate(result.accepted_sizes, start=1):
            chunk = result.output[pos : pos + size]
            pos += size
            print(f"Step {step}: {size} tokens [{', '.join(render(t) for t in chunk)}]")
    stripped = strip_eos(result.output, eos)
    rendered = decode_text(stripped) if is_text else ",".join(str(t) for t in stripped)
    print(f"output: {rendered}")
    print(
        f"{len(result.output)} tokens in {result.iterations} iterations, "
        f"{result.model_invocations} model invocations, "
        f"mean block {result.mean_accepted_block_size:.2f}, "
        f"{result.wall_clock_ns / 1e6:.2f} ms"
    )
    if args.check_greedy:
        greedy = decode(model, source, config, "greedy")
        match = greedy.output == result.output
        print(f"matches greedy: {match} "
              f"({greedy.model_invocations} greedy invocations)")
        if not match:
            return 1
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(rendered + "\n")
    return 0


def _cmd_bench(args) -> int:
    corpus = load_corpus(args.corpus, kind=args.corpus_kind)
    bench = BenchConfig(
        **_given(args, "block_sizes", "criteria", "repeats", "max_pairs", "max_len", "scheme")
    )
    model = _model(args, max(bench.block_sizes), vocab_size=corpus.vocab.size)
    report = run_bench(model, corpus, bench)
    text = emit_report(report, **_given(args, "fmt"))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"report written to {args.out}")
    else:
        print(text, end="")
    return 0


def cli(argv=None) -> int:
    """Entry point; returns a process exit code."""
    try:
        # options parsed to library values raise BlockdecError, reported below
        args = build_parser().parse_args(argv)
        command = {
            "train": _cmd_train,
            "distill": _cmd_distill,
            "decode": _cmd_decode,
            "bench": _cmd_bench,
        }[args.command]
        return command(args)
    except (BlockdecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
