#!/usr/bin/env python3
"""Benchmark of the vocabulary-trimming pipeline, end to end and per module.

    python3 perfbench/run.py --workload corpus-build --seed 1 --seconds 50 --trace 0

Run from the repository root. Set-up generates the workload's seeded
inputs and full model file several times and reports the median. The
measured window then repeats whole rounds of three phases, each in a
fresh process: prepare (build the sub-vocabulary, write the trimmed
model file), serve the full model, serve the trimmed file. After the
window, outputs are checked against references computed apart from the
toolkit. The last line of standard output is one JSON object with the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``,
from spans recorded around the toolkit's public functions).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
PHASE_TIMEOUT_S = 60
SETUP_REPEATS = 3

# Per-layer metric -> (unit, the end-to-end metric and workload it should move).
LAYER_METRICS = {
    "bpe.encode_s": ("s", "prepare_s on corpus-build; none on long-context"),
    "bpe.encode_chars_s": ("chars/s", "prepare_s on corpus-build"),
    "bpe.load_vocab_s": ("s", "first_token_s.* on corpus-build"),
    "subvocab.script_filter_s": ("s", "prepare_s on long-context"),
    "subvocab.corpus_select_self_s": ("s", "prepare_s on corpus-build"),
    "subvocab.kept": ("tokens", "none: |V'| must repeat exactly"),
    "toylm.load_model_s.full": ("s", "first_token_s.full on corpus-build"),
    "toylm.load_model_s.trim": ("s", "first_token_s.trim on corpus-build"),
    "toylm.trim_model_s": ("s", "prepare_s, prepare_peak_rss_mib on corpus-build"),
    "toylm.save_model_s": ("s", "prepare_s, prepare_peak_rss_mib on corpus-build"),
    "toylm.forward_s.full": ("s", "decode_tok_s.full on every workload"),
    "toylm.forward_s.trim": ("s", "decode_tok_s.trim on every workload"),
    "toylm.project_rows_s.full": ("s", "decode_tok_s.full on corpus-build; none on long-context"),
    "toylm.project_rows_s.trim": ("s", "decode_tok_s.trim on corpus-build; none on long-context"),
    "toylm.project_rows_gbps.full": ("GB/s", "decode_tok_s.full on corpus-build"),
    "toylm.body_s.full": ("s", "decode_tok_s.full on long-context"),
    "toylm.body_s.trim": ("s", "decode_tok_s.trim on long-context"),
    "toylm.decode_loop_s": ("s", "decode_tok_s.trim on corpus-build"),
    "toylm.steps.full": ("tokens", "none: must repeat exactly"),
    "toylm.steps.trim": ("tokens", "none: must repeat exactly"),
}
E2E_METRICS = {
    "setup_s": "s", "prepare_s": "s", "prepare_peak_rss_mib": "MiB",
    "first_token_s.full": "s", "first_token_s.trim": "s",
    "decode_tok_s.full": "tok/s", "decode_tok_s.trim": "tok/s",
    "peak_rss_mib.full": "MiB", "peak_rss_mib.trim": "MiB",
}


def _now() -> float:
    return time.perf_counter()


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 22), b""):
            h.update(block)
    return h.hexdigest()


def fsync_dir(root: str) -> None:
    """Flush the generated files, so that no phase shares the disk with
    their write-back."""
    for name in os.listdir(root):
        fd = os.open(os.path.join(root, name), os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def run_phase(spec: dict, work: str, env: dict) -> dict:
    """Run one phase in a child process and return its result."""
    spec_path = os.path.join(work, "spec.json")
    result_path = os.path.join(work, "result.json")
    with open(spec_path, "w", encoding="utf-8") as f:
        json.dump(spec, f)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "phases.py"), spec_path, result_path],
        env=env, timeout=PHASE_TIMEOUT_S, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"phase {spec['phase']} failed:\n{proc.stderr}")
    with open(result_path, encoding="utf-8") as f:
        return json.load(f)


def run_round(w, inputs, trace: bool, env: dict) -> dict:
    """prepare, serve full, serve trimmed: one whole round."""
    from workloads import BASE_K, EOS, TARGET_PRESET

    common = dict(src=SRC, trace=trace, vocab=inputs.vocab, merges=inputs.merges,
                  prompts=inputs.prompts)
    prep = run_phase(dict(common, phase="prepare", corpus=inputs.corpus, model=inputs.model,
                          sub=inputs.sub, trimmed=inputs.trimmed, preset=TARGET_PRESET,
                          base_k=BASE_K), inputs.root, env)
    fsync_dir(inputs.root)
    with open(inputs.sub, encoding="utf-8") as f:
        prep["kept_ids"] = json.load(f)["kept"]
    prep["trimmed_sha256"] = _sha256(inputs.trimmed)
    serve = dict(common, phase="serve", eos=EOS, max_new=w.max_new)
    full = run_phase(dict(serve, model=inputs.model), inputs.root, env)
    trim = run_phase(dict(serve, model=inputs.trimmed, sub=inputs.sub), inputs.root, env)
    return {"prepare": prep, "full": full, "trim": trim}


# --- end-to-end metrics -------------------------------------------------

def _span(window: list[float]) -> float:
    return window[1] - window[0]


def end_to_end(rounds: list[dict], setup_times: list[float]) -> dict[str, float]:
    """Medians over rounds; decode rates pool all rounds' tokens."""
    med = statistics.median
    m = {
        "setup_s": med(setup_times),
        "prepare_s": med(_span(r["prepare"]["windows"]["prepare"]) for r in rounds),
        "prepare_peak_rss_mib": med(r["prepare"]["peak_rss_mib"] for r in rounds),
    }
    for side in ("full", "trim"):
        m[f"first_token_s.{side}"] = med(_span(r[side]["windows"]["first_token"]) for r in rounds)
        tokens = sum(len(g) for r in rounds for g in r[side]["generated"])
        seconds = sum(_span(r[side]["windows"]["decode"]) for r in rounds)
        m[f"decode_tok_s.{side}"] = tokens / seconds
        m[f"peak_rss_mib.{side}"] = med(r[side]["peak_rss_mib"] for r in rounds)
    return m


# --- per-layer metrics --------------------------------------------------

def _durations(result: dict, name: str) -> list[float]:
    return [end - start for n, start, end, _ in result["spans"] if n == name]


def _child_time(spans: list, index: int, name: str) -> float:
    return sum(e - s for n, s, e, parent in spans if parent == index and n == name)


def per_layer(rounds: list[dict], w, chars: int) -> dict[str, float]:
    """Layer metrics from traced rounds: a phase's summed time per round
    or a per-call median, then the median over rounds."""
    med = statistics.median
    preps = [r["prepare"] for r in rounds]
    m: dict[str, float] = {}
    m["bpe.encode_s"] = med(sum(_durations(p, "bpe.encode")) for p in preps)
    m["bpe.encode_chars_s"] = chars / m["bpe.encode_s"]
    m["bpe.load_vocab_s"] = med(
        d for r in rounds for side in ("full", "trim") for d in _durations(r[side], "bpe.load_vocab"))
    m["subvocab.script_filter_s"] = med(sum(_durations(p, "subvocab.script_filter")) for p in preps)
    m["subvocab.corpus_select_self_s"] = med(
        sum(e - s - _child_time(p["spans"], i, "bpe.encode")
            for i, (n, s, e, _) in enumerate(p["spans"]) if n == "subvocab.corpus_select")
        for p in preps)
    m["subvocab.kept"] = med(p["kept"] for p in preps)
    m["toylm.trim_model_s"] = med(sum(_durations(p, "toylm.trim_model")) for p in preps)
    m["toylm.save_model_s"] = med(sum(_durations(p, "toylm.save_model")) for p in preps)
    loop, loop_steps = 0.0, 0
    for side in ("full", "trim"):
        res = [r[side] for r in rounds]
        m[f"toylm.load_model_s.{side}"] = med(d for x in res for d in _durations(x, "toylm.load_model"))
        fwd, proj, steps = [], [], []
        for x in res:
            lo, hi = x["windows"]["decode"]
            spans = [(i, n, s, e) for i, (n, s, e, _) in enumerate(x["spans"]) if lo <= s and e <= hi]
            steps.append(sum(n == "toylm.forward_logits" for _, n, _, _ in spans))
            for i, n, s, e in spans:
                if n == "toylm.forward_logits":
                    fwd.append(e - s)
                    proj.append(_child_time(x["spans"], i, "toylm.project_rows"))
                elif n == "toylm.greedy_decode":
                    loop += e - s - _child_time(x["spans"], i, "toylm.forward_logits")
        m[f"toylm.forward_s.{side}"] = med(fwd)
        m[f"toylm.project_rows_s.{side}"] = med(proj)
        m[f"toylm.body_s.{side}"] = med(f - p for f, p in zip(fwd, proj))
        m[f"toylm.steps.{side}"] = med(steps)
        loop_steps += len(fwd)
    m["toylm.project_rows_gbps.full"] = (
        w.vocab_size * w.hidden * 4 / m["toylm.project_rows_s.full"] / 1e9)
    m["toylm.decode_loop_s"] = loop / loop_steps
    return m


# --- checks -------------------------------------------------------------

def corpus_texts(inputs) -> tuple[list[str], list[str]]:
    """What the prepare phase encodes: corpus lines, then the prompts."""
    with open(inputs.prompts, encoding="utf-8") as f:
        prompts = json.load(f)
    with open(inputs.corpus, encoding="utf-8") as f:
        return f.read().splitlines() + prompts, prompts


def check_outputs(rounds: list[dict], w, inputs, seed: int) -> list[tuple[str, list[str]]]:
    """Every check as (name, failures). Round 0 is checked against
    references; later rounds must repeat it exactly."""
    import checks
    from vtrim import bpe
    from workloads import EOS

    with open(inputs.vocab, encoding="utf-8") as f:
        surfaces = [s for s, _ in sorted(json.load(f).items(), key=lambda kv: kv[1])]
    with open(inputs.merges, encoding="utf-8") as f:
        merge_pairs = [tuple(line.rstrip("\n").split(" ")) for line in f if not line.startswith("#")]
    lines, prompts = corpus_texts(inputs)
    vocab, merges = bpe.load_vocab(inputs.vocab, inputs.merges)
    encoded = [bpe.encode(line, vocab, merges) for line in lines]
    sample = sorted(random.Random(seed).sample(range(len(lines)), min(2, len(lines))))

    first = rounds[0]
    kept = first["prepare"]["kept_ids"]
    full_runs = list(zip(first["full"]["prompt_ids"], first["full"]["generated"]))
    trim_runs = list(zip(first["trim"]["prompt_ids"], first["trim"]["generated"]))
    cfg, tensors = checks.read_vtlm(inputs.model)
    full_greedy, n_full = checks.check_greedy(cfg, tensors, full_runs)
    trim_greedy, n_trim = checks.check_greedy(cfg, tensors, trim_runs, kept)
    prompt_ids = encoded[len(encoded) - len(prompts):]

    def decoded_ok(side: str) -> list[str]:
        res = first[side]
        errors = [f"{side} prompt {i}: prompt ids differ from the tokenizer's"
                  for i, ids in enumerate(res["prompt_ids"]) if ids != prompt_ids[i]]
        for i, (gen, text) in enumerate(zip(res["generated"], res["texts"])):
            if checks.to_bytes(gen, surfaces).decode("utf-8", "surrogateescape") != text:
                errors.append(f"{side} prompt {i}: text is not the decoding of its ids")
            if len(gen) != w.max_new and not (gen and gen[-1] == EOS):
                errors.append(f"{side} prompt {i}: {len(gen)} tokens without eos")
        return errors

    def repeats() -> list[str]:
        keys = [("prepare", "kept_ids"), ("prepare", "trimmed_sha256"), ("full", "generated"),
                ("trim", "generated"), ("full", "texts"), ("trim", "texts")]
        return [f"round {n}: {a}.{b} differs from round 0"
                for n, r in enumerate(rounds[1:], 1) for a, b in keys if r[a][b] != first[a][b]]

    return [
        ("encoding", checks.check_encoding(lines, encoded, surfaces, sample, merge_pairs)),
        ("subvocab", checks.check_subvocab(kept, surfaces, encoded)),
        ("trimmed_file", checks.check_trimmed_file(inputs.model, inputs.trimmed, kept)),
        ("full_greedy", full_greedy + ([] if n_full else ["no full step checked"])),
        ("trim_greedy", trim_greedy + ([] if n_trim else ["no trimmed step checked"])),
        ("trim_follows_full", checks.check_trim_follows_full(full_runs, trim_runs, kept)),
        ("decoded_full", decoded_ok("full")),
        ("decoded_trim", decoded_ok("trim")),
        ("rounds_repeat", repeats()),
    ]


def quality(first: dict) -> str:
    from vtrim import metrics

    full, trim = first["full"]["texts"], first["trim"]["texts"]
    return (f"miss {metrics.miss_count(full, trim)}/{len(full)}  "
            f"o-BLEU {metrics.o_bleu(trim, full):.2f}  o-chrF {metrics.o_chrf(trim, full):.2f}")


def ids_digest(first: dict) -> str:
    ids = [first["full"]["generated"], first["trim"]["generated"]]
    return hashlib.sha256(json.dumps(ids).encode()).hexdigest()[:16]


def compare_untraced(name: str, seed: int, digest: str, trace: bool) -> list[tuple[str, list[str]]]:
    """An untraced run records its token-id digest; a traced run of the
    same workload and seed must reproduce it."""
    path = os.path.join(WORK, "ids", f"{name}-{seed}.txt")
    if not trace:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(digest)
        return []
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as f:
        want = f.read()
    return [("traced_ids", [] if want == digest else [f"ids digest {digest} != untraced {want}"])]


# --- main ---------------------------------------------------------------

def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "vtrim", "__init__.py")):
        print(f"no toolkit source under {SRC}", file=sys.stderr)
        return 2
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    sys.path.insert(0, SRC)
    import vtrim  # noqa: F401  (imported before set-up is timed)
    from workloads import WORKLOADS, Inputs, generate

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    inputs = Inputs(os.path.join(WORK, f"{w.name}-{args.seed}-{os.getpid()}"))
    env = dict(os.environ, PYTHONPATH=SRC)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = _now()
            generate(w, args.seed, inputs)
            setup_times.append(_now() - t0)
            fsync_dir(inputs.root)

        # Whole rounds until one more would overrun the window by more
        # than half a round.
        rounds, start = [], _now()
        while True:
            t0 = _now()
            rounds.append(run_round(w, inputs, bool(args.trace), env))
            if _now() - start + (_now() - t0) / 2 >= args.seconds:
                break

        results = check_outputs(rounds, w, inputs, args.seed)
        first = rounds[0]
        digest = ids_digest(first)
        results += compare_untraced(w.name, args.seed, digest, bool(args.trace))
        summary = quality(first)
        chars = sum(len(line) for line in corpus_texts(inputs)[0])
    finally:
        shutil.rmtree(inputs.root, ignore_errors=True)

    failed = [(name, errs) for name, errs in results if errs]
    for name, errs in failed:
        print(f"CHECK FAILED {name}: " + "; ".join(errs[:3]), file=sys.stderr)
    print(f"{w.name} seed {args.seed}: {len(rounds)} rounds, {len(results)} checks, "
          f"ids {digest}, {summary}")
    e2e = end_to_end(rounds, setup_times)
    if args.trace:
        metrics = per_layer(rounds, w, chars)
        units = {k: u for k, (u, _) in LAYER_METRICS.items()}
        print(f"{'layer metric':32} {'value':>14} unit      moves")
        for name, value in metrics.items():
            print(f"{name:32} {value:14.6g} {units[name]:9} {LAYER_METRICS[name][1]}")
        print(f"traced decode_tok_s.full {e2e['decode_tok_s.full']:.4f} "
              f"decode_tok_s.trim {e2e['decode_tok_s.trim']:.4f}")
    else:
        metrics, units = e2e, E2E_METRICS
    print(json.dumps({
        "correct": not failed,
        "attempted": 3 * len(rounds) + len(results),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
