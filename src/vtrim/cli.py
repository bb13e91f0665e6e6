"""Command-line pipeline: build sub-vocabularies, trim models, decode,
evaluate output drift, benchmark, and print footprint tables.

All artifacts are files named by flags; every command also prints a
human-readable summary. Commands are deterministic given their inputs
and seed, wall-clock fields aside.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

from . import bench as bench_mod
from . import bpe, metrics, subvocab, toylm
from .atomic import atomic_write
from .errors import VtError, expect, expect_ints


def _prompt(record: dict) -> tuple[int, str]:
    return expect(record["id"], int, "id"), expect(record["text"], str, "text")


def _output(record: dict) -> tuple[int, list[int], str]:
    return (expect(record["id"], int, "id"), expect_ints(record["output_ids"], "output_ids"),
            expect(record["text"], str, "text"))


def _read_jsonl(path: str, kind: str, parse) -> list:
    """JSON Lines, one record per non-blank line, each turned into a row by
    ``parse``: prompts are {"id": int, "text": str}, outputs
    {"id": int, "output_ids": [int], "text": str}. Lines stay bytes until
    ``json.loads`` decodes them, so invalid UTF-8 is reported with its line."""
    rows = []
    try:
        with open(path, "rb") as f:
            for lineno, line in enumerate(f, start=1):
                if not line.strip():
                    continue
                try:
                    rows.append(parse(json.loads(line)))
                except (KeyError, TypeError, ValueError, RecursionError) as e:
                    raise VtError(f"{path}:{lineno}: malformed {kind} record: {e}") from e
    except FileNotFoundError:
        raise VtError(f"{kind}s file not found: {path}") from None
    return rows


def _ids_to_text(ids: list[int], vocab: bpe.Vocabulary) -> str:
    # Random toy models can emit byte tokens that do not form valid UTF-8.
    # surrogateescape keeps the text field lossless (distinct byte
    # sequences stay distinct), so exact-match comparisons remain exact.
    return bpe.decode_bytes(ids, vocab).decode("utf-8", "surrogateescape")


def _load_prompts(
    path: str, vocab: bpe.Vocabulary, merges: bpe.Merges
) -> list[tuple[int, list[int]]]:
    """The prompts file's records as (id, token ids of the text)."""
    encoded = []
    for prompt_id, text in _read_jsonl(path, "prompt", _prompt):
        try:
            encoded.append((prompt_id, bpe.encode(text, vocab, merges)))
        except VtError as e:
            raise VtError(f"prompt {prompt_id}: {e}") from e
    return encoded


def _served_sub(path: str | None, vocab: bpe.Vocabulary) -> subvocab.SubVocabulary:
    """The id space a model is served in: the sub-vocabulary file's, which
    must be built over ``vocab``, or all of ``vocab`` for a full model."""
    if path is None:
        return subvocab.full_vocabulary(vocab.size)
    sub = subvocab.load_subvocab(path)
    if sub.vocab_size != vocab.size:
        raise VtError(f"sub-vocabulary {path} was built over {sub.vocab_size!r:.40} tokens, "
                      f"the tokenizer has {vocab.size}")
    return sub


def _int(raw: str) -> int:
    # Every integer option's type: argparse's type=int quotes the whole argument.
    try:
        return int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {raw!r:.40}") from None


def _int_list(raw: str) -> list[int]:
    try:
        values = [int(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise VtError(f"expected comma-separated integers, got {raw!r:.40}") from None
    for value in values:
        if value > toylm.U32_MAX:
            raise VtError(f"size {value!r:.40} exceeds the u32 format limit")
    return values


def _write_json(path: str, payload) -> None:
    with atomic_write(path) as f:
        json.dump(payload, f, indent=2)
        f.write("\n")
    print(f"wrote {path}")


def cmd_init_model(args: argparse.Namespace) -> int:
    config = toylm.ModelConfig(
        vocab_size=args.vocab_size,
        hidden=args.hidden,
        layers=args.layers,
        heads=args.heads,
        max_context=args.max_context,
        tied_embeddings=not args.untied,
    )
    model = toylm.init_random(config, args.seed)
    toylm.save_model(args.out, model)
    vocab_params, total_params = toylm.count_params(config)
    print(f"wrote {args.out}")
    print(f"params: {total_params} total, {vocab_params} in vocabulary matrices "
          f"({100.0 * vocab_params / total_params:.1f}%)")
    return 0


def cmd_build(args: argparse.Namespace) -> int:
    vocab, merges = bpe.load_vocab(args.vocab, args.merges)

    if args.lang is not None or args.script_spec is not None:
        spec = (subvocab.PRESETS[args.lang] if args.lang is not None
                else subvocab.ScriptSpec.from_json_file(args.script_spec))
        sub = subvocab.script_filter(vocab, spec, base_k=args.base_k)
    elif args.corpus is not None:
        try:
            with open(args.corpus, encoding="utf-8") as f:
                sub = subvocab.corpus_select(vocab, merges, f, base_k=args.base_k)
        except UnicodeDecodeError as e:
            raise VtError(f"corpus file {args.corpus} is not valid UTF-8: {e}") from e
    else:  # --outputs: oracle
        records = _read_jsonl(args.outputs, "output", _output)
        sub = subvocab.oracle_select(
            [ids for _, ids, _ in records], base_k=args.base_k, vocab_size=vocab.size
        )

    if args.prompts is not None:
        prompts = _load_prompts(args.prompts, vocab, merges)
        sub = subvocab.with_input_tokens(sub, [ids for _, ids in prompts])

    subvocab.save_subvocab(sub, args.out)
    reduction = 100.0 * (1.0 - sub.size / vocab.size) if vocab.size else 0.0
    print(f"|V|  = {vocab.size}")
    print(f"|V'| = {sub.size}")
    print(f"reduction = {reduction:.1f}%")
    print(f"wrote {args.out}")
    return 0


def cmd_trim(args: argparse.Namespace) -> int:
    sub = subvocab.load_subvocab(args.sub)  # before the model: a bad file fails fast
    model = toylm.load_model(args.model)
    trimmed = toylm.trim_model(model, sub)
    toylm.save_model(args.out, trimmed)
    print(f"trimmed |V| {model.config.vocab_size} -> {trimmed.config.vocab_size}")
    print(f"wrote {args.out}")
    return 0


def cmd_decode(args: argparse.Namespace) -> int:
    vocab, merges = bpe.load_vocab(args.vocab, args.merges)
    sub = _served_sub(args.sub, vocab)
    prompts = _load_prompts(args.prompts, vocab, merges)
    _, _, outputs = bench_mod.time_end_to_end(
        args.model, sub, prompts, args.max_new, repeats=1, eos=args.eos
    )
    with atomic_write(args.out) as f:
        for (prompt_id, _), generated in zip(prompts, outputs):
            record = {
                "id": prompt_id,
                "output_ids": generated,
                "text": _ids_to_text(generated, vocab),
            }
            f.write(json.dumps(record) + "\n")
    print(f"decoded {len(prompts)} prompts -> {args.out}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    full = _read_jsonl(args.full, "output", _output)
    vt = _read_jsonl(args.vt, "output", _output)
    if len(full) != len(vt):
        raise VtError(f"output files differ in length: {len(full)} vs {len(vt)}")
    for (fid, _, _), (vid, _, _) in zip(full, vt):
        if fid != vid:
            raise VtError(f"misaligned ids: {fid!r:.40} vs {vid!r:.40}")
    full_texts = [text for _, _, text in full]
    vt_texts = [text for _, _, text in vt]

    sub = subvocab.load_subvocab(args.sub) if args.sub else None
    report = metrics.EvalReport(
        n_prompts=len(full),
        miss=metrics.miss_count(full_texts, vt_texts),
        o_bleu=metrics.o_bleu(vt_texts, full_texts, lang=args.lang),
        o_chrf=metrics.o_chrf(vt_texts, full_texts),
        subvocab_size=sub.size if sub else None,
        language=args.lang,
        method=sub.method if sub else None,
    )
    if args.out:
        _write_json(args.out, asdict(report))
    print(f"n_prompts = {report.n_prompts}")
    print(f"miss      = {report.miss}")
    print(f"o-BLEU    = {report.o_bleu:.2f}")
    print(f"o-chrF    = {report.o_chrf:.2f}")
    if sub is not None:
        print(f"|V'|      = {sub.size}")
    return 0


def cmd_scaling(args: argparse.Namespace) -> int:
    results = bench_mod.output_layer_scaling(
        args.hidden, _int_list(args.sizes), trials=args.trials
    )
    print(f"{'|V|':>10}  {'s/projection':>14}")
    for vocab_size, seconds in results:
        print(f"{vocab_size:>10}  {seconds:>14.6f}")
    if args.out:
        _write_json(args.out, [{"vocab_size": v, "seconds": s} for v, s in results])
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    vocab, merges = bpe.load_vocab(args.vocab, args.merges)
    prompts = _load_prompts(args.prompts, vocab, merges)

    runs = [("full", args.model, _served_sub(None, vocab))]
    for model_path, sub_path in args.trimmed or []:
        runs.append((os.path.basename(sub_path).removesuffix(".json"), model_path,
                     _served_sub(sub_path, vocab)))
    for _, model_path, sub in runs:
        toylm.load_model(model_path, sub)  # a mismatched model fails before any timing
    rows = []
    baseline_texts: list[str] | None = None
    for label, model_path, sub in runs:
        load_s, decode_s, outputs = bench_mod.time_end_to_end(
            model_path, sub, prompts, args.max_new, repeats=args.repeats, eos=args.eos
        )
        texts = [_ids_to_text(ids, vocab) for ids in outputs]
        if baseline_texts is None:
            baseline_texts = texts
        rows.append(
            {
                "label": label,
                "vocab_size": sub.size,
                "end_to_end_seconds": load_s + decode_s,
                "load_seconds": load_s,
                "decode_seconds": decode_s,
                "tokens_generated": sum(map(len, outputs)),
                "repeats": args.repeats,
                "miss": metrics.miss_count(baseline_texts, texts),
            }
        )

    vocab_col = "|V'|"
    print(f"{'label':<20} {vocab_col:>9} {'e2e(s)':>10} {'load(s)':>9} "
          f"{'decode(s)':>10} {'tokens':>7} {'miss':>5}")
    for row in rows:
        print(
            f"{row['label']:<20} {row['vocab_size']:>9} {row['end_to_end_seconds']:>10.4f} "
            f"{row['load_seconds']:>9.4f} {row['decode_seconds']:>10.4f} "
            f"{row['tokens_generated']:>7} {row['miss']:>5}"
        )
    if args.out:
        _write_json(args.out, rows)
    return 0


def cmd_memory(args: argparse.Namespace) -> int:
    vocab_sizes = _int_list(args.vocab_sizes)
    hidden_sizes = _int_list(args.hidden_sizes)
    if not vocab_sizes or not hidden_sizes:
        raise VtError("need at least one vocab size and one hidden size")
    width = max(10, *(len(str(h)) + 2 for h in hidden_sizes))
    print(f"{'|V|':>10} " + " ".join(f"{'H=' + str(h):>{width}}" for h in hidden_sizes))
    for vocab_size in vocab_sizes:
        cells = [metrics.format_gib(metrics.memory_footprint(vocab_size, h))
                 for h in hidden_sizes]
        print(f"{vocab_size:>10} " + " ".join(f"{c:>{width}}" for c in cells))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vtrim",
        description="Build language-targeted sub-vocabularies, trim model "
        "embeddings, and measure the speed/memory/quality trade-offs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init-model", help="create a random seeded toy model file")
    p.add_argument("--out", required=True)
    p.add_argument("--vocab-size", type=_int, required=True)
    p.add_argument("--hidden", type=_int, required=True)
    p.add_argument("--layers", type=_int, required=True)
    p.add_argument("--heads", type=_int, required=True)
    p.add_argument("--max-context", type=_int, default=512)
    p.add_argument("--untied", action="store_true",
                   help="separate output matrix instead of reusing the embedding")
    p.add_argument("--seed", type=_int, default=0)
    p.set_defaults(func=cmd_init_model)

    p = sub.add_parser("build", help="build a sub-vocabulary file")
    p.add_argument("--vocab", required=True)
    p.add_argument("--merges", required=True)
    p.add_argument("--out", required=True)
    source = p.add_mutually_exclusive_group(required=True)  # its one source names the method
    source.add_argument("--lang", choices=sorted(subvocab.PRESETS),
                        help="unicode: keep tokens of this preset's script")
    source.add_argument("--script-spec", help="unicode: keep tokens of a ScriptSpec JSON's script")
    source.add_argument("--corpus", help="corpus: keep tokens seen in this text, one line "
                        "per document")
    source.add_argument("--outputs", help="oracle: keep the ids of this full-vocabulary "
                        "decode output file")
    p.add_argument("--prompts", help="prompt batch whose token ids get folded in")
    p.add_argument("--base-k", type=_int, default=300)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("trim", help="slice a model's vocabulary matrices")
    p.add_argument("--model", required=True)
    p.add_argument("--sub", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_trim)

    p = sub.add_parser("decode", help="greedy-decode a prompt file")
    p.add_argument("--model", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--merges", required=True)
    p.add_argument("--prompts", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--sub", help="sub-vocabulary the model was trimmed with")
    p.add_argument("--max-new", type=_int, default=128)
    p.add_argument("--eos", type=_int, default=2)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("eval", help="score a trimmed decode against the full one")
    p.add_argument("--full", required=True)
    p.add_argument("--vt", required=True)
    p.add_argument("--out")
    p.add_argument("--lang", default="en")
    p.add_argument("--sub")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="time loading and decoding the full model "
                       "against trimmed files")
    p.add_argument("--model", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--merges", required=True)
    p.add_argument("--prompts", required=True)
    p.add_argument("--trimmed", nargs=2, action="append", metavar=("MODEL", "SUB"),
                   help="a model written by trim and its sub-vocabulary, to bench "
                   "against the full --model (repeatable)")
    p.add_argument("--max-new", type=_int, default=16)
    p.add_argument("--repeats", type=_int, default=5)
    p.add_argument("--eos", type=_int, default=2)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("scaling", help="time the output projection at each vocab size")
    p.add_argument("--sizes", required=True, help="comma-separated vocab sizes")
    p.add_argument("--hidden", type=_int, default=1024)
    p.add_argument("--trials", type=_int, default=5)
    p.add_argument("--out")
    p.set_defaults(func=cmd_scaling)

    p = sub.add_parser("memory", help="print the theoretical footprint table")
    p.add_argument("--vocab-sizes", required=True, help="comma-separated")
    p.add_argument("--hidden-sizes", required=True, help="comma-separated")
    p.set_defaults(func=cmd_memory)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (VtError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
