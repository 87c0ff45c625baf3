"""Command line interface.

Subcommands:

  train    fit a k-head model on a corpus and write a checkpoint
  distill  regenerate a corpus's targets with a teacher's greedy decodes
  decode   run one input through a model, printing the per-step trace
  bench    decode a corpus under a grid of configurations and report

Criteria are written as comma-separated key=value lists, for example
`kind=exact`, `kind=top_k,k=2` or `kind=distance,eps=2,min_block=1`; a bare
kind name is accepted as shorthand. The criterion's `min_block` is the only
floor on tokens accepted per iteration. The global --seed falls back to the
BLOCKDEC_SEED environment variable, then to 0.
A --synthetic model gets as many heads as the largest block size asked for.
bench and distill refuse a model whose vocabulary differs from the corpus's.
"""

from __future__ import annotations

import argparse
import os
import sys

from .. import __version__
from ..criteria import PARAMS, AcceptanceCriterion
from ..engine import SCHEMES, DecodeConfig, decode
from ..errors import BlockdecError, ParseError
from ..models.checkpoint import load_checkpoint, save_checkpoint
from ..models.neural import FreezeMask, PARTITIONS
from ..models.synthetic import SYNTHETIC_KINDS, make_synthetic_model
from .bench import BenchConfig, distill_corpus, run_bench
from .corpus import _text_vocab, decode_text, encode_text, load_corpus, save_corpus, strip_eos
from .report import FORMATS, emit_report
from .training import TrainingConfig, default_model_config, train_model


def parse_criterion(text: str) -> AcceptanceCriterion:
    """Parse the criterion grammar of `criteria.PARAMS`, e.g.
    `kind=top_k,k=2,min_block=1`."""
    fields = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            if part in PARAMS and "kind" not in fields:
                fields["kind"] = part
                continue
            raise ParseError(f"expected key=value in criterion, got {part!r}")
        key, _, value = part.partition("=")
        key, value = key.strip(), value.strip()
        if key in fields:
            raise ParseError(f"duplicate criterion key {key!r}")
        fields[key] = value
    kind = fields.pop("kind", None)
    if kind is None:
        raise ParseError(f"criterion needs a kind, one of {', '.join(PARAMS)}")
    if kind not in PARAMS:
        raise ParseError(f"unknown criterion kind {kind!r}")
    names = {**PARAMS[kind], "min_block": "min_block"}
    kwargs = {"kind": kind}
    for key, value in fields.items():
        if key not in names:
            raise ParseError(f"key {key!r} is not valid for kind={kind}")
        try:
            kwargs[names[key]] = int(value)
        except ValueError:
            raise ParseError(f"criterion key {key} needs an integer, got {value!r}") from None
    return AcceptanceCriterion(**kwargs)


def _parse_int_list(text: str, what: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ParseError(f"{what} must be comma-separated integers, got {text!r}") from None


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


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    raw = os.environ.get("BLOCKDEC_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"BLOCKDEC_SEED must be an integer, got {raw!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockdec",
        description="Blockwise parallel decoding: train, distill, decode, benchmark.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--seed", type=int, default=None,
                        help="RNG seed (default: $BLOCKDEC_SEED, then 0)")
    parser.add_argument("--report-format", choices=FORMATS, default="json",
                        help="serialization for bench reports")
    parser.add_argument("--out", default=None, help="output path (default depends on command)")
    # the same options are accepted after the subcommand; SUPPRESS keeps an
    # omitted one from overwriting a value given before the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--report-format", choices=FORMATS, default=argparse.SUPPRESS)
    common.add_argument("--out", default=argparse.SUPPRESS)
    source = argparse.ArgumentParser(add_help=False)
    model = source.add_mutually_exclusive_group(required=True)
    model.add_argument("--model", help="model checkpoint")
    model.add_argument("--synthetic", choices=SYNTHETIC_KINDS, help="use a seeded table model")
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train a k-head model on a corpus", parents=[common])
    t.add_argument("--corpus", required=True)
    t.add_argument("--corpus-kind", default=None)
    t.add_argument("--steps", type=int, default=8000)
    t.add_argument("--batch-size", type=int, default=16)
    t.add_argument("--learning-rate", type=float, default=0.3)
    t.add_argument("--heads", type=int, default=4)
    t.add_argument("--d-model", type=int, default=64)
    t.add_argument("--d-hidden", type=int, default=64)
    t.add_argument("--layers", type=int, default=2)
    t.add_argument("--max-context", type=int, default=None)
    t.add_argument("--freeze", default="", help="comma list of partitions to freeze")
    t.add_argument("--init-from", default=None, help="checkpoint to continue training from")
    t.add_argument("--log-every", type=int, default=0)

    d = sub.add_parser("distill", help="rewrite corpus targets with teacher decodes",
                       parents=[common])
    d.add_argument("--teacher", required=True)
    d.add_argument("--corpus", required=True)
    d.add_argument("--corpus-kind", default=None)
    d.add_argument("--max-len", type=int, default=None)

    dec = sub.add_parser("decode", help="decode one input, printing the block trace",
                         parents=[common, source])
    what = dec.add_mutually_exclusive_group(required=True)
    what.add_argument("--input", help="input text (byte tokens)")
    what.add_argument("--tokens", help="input token ids, comma separated")
    dec.add_argument("--block-size", type=int, default=4)
    dec.add_argument("--criterion", default="kind=exact")
    dec.add_argument("--max-len", type=int, default=32)
    dec.add_argument("--scheme", choices=SCHEMES, default="combined")
    dec.add_argument("--vocab-size", type=int, default=16, help="synthetic model vocabulary")
    dec.add_argument("--check-greedy", action="store_true",
                     help="also run greedy decoding and compare outputs")
    dec.add_argument("--no-trace", action="store_true")

    b = sub.add_parser("bench", help="benchmark decode configurations over a corpus",
                       parents=[common, source])
    b.add_argument("--corpus", required=True)
    b.add_argument("--corpus-kind", default=None)
    b.add_argument("--block-sizes", default="1,2,4,8")
    b.add_argument("--criteria", default="kind=exact",
                   help="semicolon-separated criterion specs")
    b.add_argument("--repeats", type=int, default=3)
    b.add_argument("--max-pairs", type=int, default=None)
    b.add_argument("--max-len", type=int, default=None)
    b.add_argument("--scheme", choices=SCHEMES, default="combined")
    return parser


def _cmd_train(args, seed: int) -> int:
    corpus = load_corpus(args.corpus, kind=args.corpus_kind)
    training = TrainingConfig(
        steps=args.steps,
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        seed=seed,
        freeze=_parse_freeze(args.freeze),
        log_every=args.log_every,
    )
    model = None
    model_config = None
    if args.init_from:
        model = load_checkpoint(args.init_from)
    else:
        model_config = default_model_config(
            corpus,
            num_heads=args.heads,
            d_model=args.d_model,
            d_hidden=args.d_hidden,
            num_layers=args.layers,
            max_context=args.max_context,
        )
    model, losses = train_model(corpus, model_config=model_config, training=training, model=model)
    out = args.out or "model.ckpt"
    save_checkpoint(model, out)
    tail = losses[-min(50, len(losses)):]
    print(f"trained {len(losses)} steps on {len(corpus)} pairs; "
          f"final loss {sum(tail) / len(tail):.4f} (mean of last {len(tail)})")
    print(f"checkpoint written to {out}")
    return 0


def _cmd_distill(args, seed: int) -> int:
    del seed  # greedy distillation is deterministic
    teacher = load_checkpoint(args.teacher)
    corpus = load_corpus(args.corpus, kind=args.corpus_kind)
    distilled = distill_corpus(teacher, corpus, args.max_len)
    skipped = len(corpus) - len(distilled)
    if skipped:
        print(f"warning: skipped {skipped} pairs with empty teacher output", file=sys.stderr)
    out_path = args.out or "distilled_corpus"
    save_corpus(distilled, out_path)
    print(f"distilled {len(distilled)} pairs written to {out_path}")
    return 0


def _token_renderer(model):
    cfg = getattr(model, "config", None)
    text = _text_vocab()
    if cfg is not None and cfg.vocab_size == text.size and cfg.sep_token == text.sep_token:
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


def _model(args, seed: int, vocab_size: int, block_sizes):
    """The --model checkpoint, or a --synthetic model with a head per block position."""
    if args.model:
        return load_checkpoint(args.model)
    return make_synthetic_model(
        args.synthetic, seed=seed, vocab_size=vocab_size, num_heads=max(block_sizes)
    )


def _cmd_decode(args, seed: int) -> int:
    model = _model(args, seed, args.vocab_size, (args.block_size,))
    eos = model.config.eos_token if args.model else None
    if args.tokens:
        source = _parse_int_list(args.tokens, "--tokens")
    else:
        source = encode_text(args.input)
    config = DecodeConfig(
        block_size=args.block_size,
        max_len=args.max_len,
        criterion=parse_criterion(args.criterion),
        eos_token=eos,
    )
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


def _cmd_bench(args, seed: int) -> int:
    corpus = load_corpus(args.corpus, kind=args.corpus_kind)
    block_sizes = _parse_int_list(args.block_sizes, "--block-sizes")
    criteria = tuple(parse_criterion(c) for c in args.criteria.split(";") if c.strip())
    bench = BenchConfig(
        block_sizes=block_sizes,
        criteria=criteria,
        repeats=args.repeats,
        max_pairs=args.max_pairs,
        max_len=args.max_len,
        scheme=args.scheme,
    )
    model = _model(args, seed, corpus.vocab.size, bench.block_sizes)
    report = run_bench(model, corpus, bench)
    text = emit_report(report, args.report_format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"report written to {args.out}")
    else:
        print(text, end="")
    return 0


def cli(argv=None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        seed = _resolve_seed(args)
        command = {
            "train": _cmd_train,
            "distill": _cmd_distill,
            "decode": _cmd_decode,
            "bench": _cmd_bench,
        }[args.command]
        return command(args, seed)
    except (BlockdecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
