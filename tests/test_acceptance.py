"""End-goal checks for the whole toolkit, one per promised behavior.

Each test prints a single [PASS]/[FAIL] verdict line (run with -s to see
them) before asserting, so a red run still reports every verdict.
"""
import random
import time

import numpy as np
import pytest

import oracles
from vtrim import bpe, metrics
from vtrim.bench import output_layer_scaling, time_end_to_end
from vtrim.errors import VtError
from vtrim.metrics import (
    embedding_fraction,
    format_gib,
    memory_footprint,
    miss_count,
    o_bleu,
    o_chrf,
)
from vtrim.subvocab import (
    PRESETS,
    build_mapping,
    full_vocabulary,
    oracle_select,
    script_filter,
    with_input_tokens,
)
from vtrim.toylm import (
    ModelConfig,
    forward_logits,
    greedy_decode,
    init_random,
    save_model,
    trim_model,
)

TOLERANCE_GIB = 0.02

# reference footprint cells: (|V'|, expected GiB) per column, full row first
CELLS_H1024 = [
    (250680, 0.90),
    (22912, 0.09), (58642, 0.22),
    (186752, 0.70), (113024, 0.44),
    (187008, 0.70), (112128, 0.43),
    (51584, 0.20), (104320, 0.40),
]
CELLS_H4096_SMALL_VOCAB = [
    (32000, 0.50),
    (4736, 0.07), (26496, 0.41),
    (27520, 0.43), (30720, 0.48),
    (27648, 0.43), (30336, 0.47),
    (2688, 0.04), (28160, 0.44),
]


def _verdict(name: str, ok: bool) -> bool:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}")
    return ok


def test_memory_table_matches_reference_cells():
    t0 = time.perf_counter()
    deltas = []
    for hidden, cells in ((1024, CELLS_H1024), (4096, CELLS_H4096_SMALL_VOCAB)):
        for vocab_size, expected in cells:
            got = memory_footprint(vocab_size, hidden)
            deltas.append((vocab_size, hidden, expected, abs(got - expected)))
    outliers = [d for d in deltas if d[3] > TOLERANCE_GIB]
    # one reference cell is a known transcription outlier; it must match
    # the formula instead, and the audit must flag exactly that cell
    flagged_ok = (
        len(outliers) == 1
        and outliers[0][:2] == (250680, 1024)
        and format_gib(memory_footprint(250680, 1024)) == "0.96"
    )
    mid_full = abs(memory_footprint(250680, 2048) - 1.90) <= TOLERANCE_GIB
    small_full = abs(memory_footprint(32000, 4096) - 0.50) <= TOLERANCE_GIB
    elapsed = time.perf_counter() - t0
    ok = flagged_ok and mid_full and small_full and elapsed < 1.0
    _verdict(
        "memory reference table: 17 of 18 cells within 0.02 GiB, "
        "outlier pinned to formula 0.96",
        ok,
    )
    assert len(deltas) == 18
    assert flagged_ok, f"outliers: {outliers}"
    assert mid_full and small_full
    assert elapsed < 1.0


@pytest.mark.xfail(
    strict=True,
    reason="reference value 3.80 GiB vs formula 250680*4096*4/2^30 = 3.8251; "
    "the 0.0251 gap exceeds the stated 0.02 tolerance",
)
def test_memory_large_model_full_vocab_cell_within_tolerance():
    delta = abs(memory_footprint(250680, 4096) - 3.80)
    _verdict(
        "memory reference table: largest full-vocab cell within 0.02 GiB",
        delta <= TOLERANCE_GIB,
    )
    assert delta <= TOLERANCE_GIB


def test_embedding_fraction_nears_half_on_small_tied_config():
    t0 = time.perf_counter()
    cfg = ModelConfig(
        vocab_size=250680, hidden=1024, layers=24, heads=16, max_context=2048
    )
    fraction = embedding_fraction(cfg)
    elapsed = time.perf_counter() - t0
    ok = 0.40 <= fraction <= 0.50 and elapsed < 1.0
    _verdict(
        f"embedding fraction of a small tied config = {fraction:.4f} in [0.40, 0.50]",
        ok,
    )
    assert 0.40 <= fraction <= 0.50
    assert elapsed < 1.0


def _ids_to_text(ids: list[int]) -> str:
    return " ".join(f"t{i}" for i in ids)


def test_oracle_subvocabulary_reproduces_full_decode():
    t0 = time.perf_counter()
    cfg = ModelConfig(
        vocab_size=4096, hidden=128, layers=2, heads=4, max_context=64
    )
    model = init_random(cfg, seed=0)
    rng = random.Random(0)
    prompts = [
        [rng.randrange(3, 4096) for _ in range(rng.randrange(2, 6))]
        for _ in range(50)
    ]
    full = [greedy_decode(model, p, max_new=24, eos=2).ids for p in prompts]
    sub = oracle_select(full, base_k=300, vocab_size=4096)
    sub = with_input_tokens(sub, prompts)
    trimmed = trim_model(model, sub)
    again = [
        greedy_decode(trimmed, p, max_new=24, eos=2, sub=sub).ids for p in prompts
    ]
    full_text = [_ids_to_text(ids) for ids in full]
    again_text = [_ids_to_text(ids) for ids in again]
    miss = miss_count(full_text, again_text)
    bleu = o_bleu(again_text, full_text)
    chrf = o_chrf(again_text, full_text)
    elapsed = time.perf_counter() - t0
    ok = miss == 0 and bleu == 100.0 and chrf == 100.0 and elapsed < 300.0
    _verdict(
        f"oracle trim: miss={miss}, o-BLEU={bleu:.2f}, o-chrF={chrf:.2f} "
        f"on 50 random prompts",
        ok,
    )
    assert miss == 0
    assert bleu == 100.0
    assert chrf == 100.0
    assert elapsed < 300.0


def test_kept_logits_survive_trimming_bitwise():
    t0 = time.perf_counter()
    rng = random.Random(7)
    checked = 0
    for _ in range(100):
        heads = rng.choice([1, 2, 4])
        hidden = heads * rng.choice([4, 8, 16])
        cfg = ModelConfig(
            vocab_size=rng.randrange(4, 1025),
            hidden=hidden,
            layers=rng.randrange(0, 3),
            heads=heads,
            max_context=16,
            tied_embeddings=rng.random() < 0.5,
        )
        model = init_random(cfg, seed=rng.randrange(2**31))
        context = [
            rng.randrange(cfg.vocab_size) for _ in range(rng.randrange(1, 9))
        ]
        kept = {
            i for i in range(cfg.vocab_size) if rng.random() < 0.5
        } | set(context)
        sub = build_mapping(kept, cfg.vocab_size)
        trimmed = trim_model(model, sub)
        full = forward_logits(model, context)
        small = forward_logits(trimmed, [sub.to_new(i) for i in context])
        assert np.array_equal(small, full[list(sub.kept)]), (
            f"bitwise mismatch at config {cfg}"
        )
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked == 100 and elapsed < 60.0
    _verdict(
        f"logit preservation: {checked}/100 random model/context/subset "
        f"triples bitwise equal",
        ok,
    )
    assert checked == 100
    assert elapsed < 60.0


def _surface(text: str) -> str:
    return "".join(bpe.BYTE_TO_CHAR[b] for b in text.encode("utf-8"))


def _mixed_script_vocab(n: int) -> bpe.Vocabulary:
    rng = random.Random(13)
    pools = [
        lambda: chr(rng.randrange(0x61, 0x7B)),  # a-z
        lambda: chr(rng.randrange(0x430, 0x450)),  # Cyrillic а-я
        lambda: rng.choice("ñáéüčž"),  # Latin beyond ASCII
        lambda: chr(rng.randrange(0x4E00, 0x4E80)),  # common CJK
        lambda: rng.choice("。、！"),  # CJK punctuation
        lambda: chr(rng.randrange(0x3040, 0x30FF)),  # kana, outside presets
        lambda: rng.choice("!?#@09"),  # ASCII symbols and digits
        lambda: rng.choice(" \t 　"),  # assorted whitespace
        lambda: rng.choice("😀🚀"),  # emoji
    ]
    seen = {}
    surfaces = []
    while len(surfaces) < n:
        k = len(surfaces)
        if k % 17 == 0:
            s = bpe.BYTE_TO_CHAR[rng.randrange(0x80, 0xC0)]  # invalid UTF-8
        else:
            word = "".join(rng.choice(pools)() for _ in range(rng.randrange(1, 5)))
            if rng.random() < 0.3:
                word = " " + word
            s = _surface(word)
        if s in seen:
            s = s + bpe.BYTE_TO_CHAR[rng.randrange(0x80, 0xC0)]
            if s in seen:
                continue
        seen[s] = True
        surfaces.append(s)
    return bpe.Vocabulary.from_mapping({s: i for i, s in enumerate(surfaces)})


RANGES = {
    "bg": [(0x0400, 0x04FF)],
    "en": [(0x0000, 0x007F)],
    "es": [(0x0000, 0x017F)],
    "zh": [(0x3000, 0x303F), (0x4E00, 0x9FFF), (0xFF00, 0xFFEF)],
}


def test_script_filter_agrees_with_rule_on_every_token():
    vocab = _mixed_script_vocab(5000)
    base_k = 300
    mismatches = 0
    for lang, ranges in RANGES.items():
        sub = script_filter(vocab, PRESETS[lang], base_k=base_k)
        kept = set(sub.kept)
        assert set(range(base_k)) <= kept, f"first-{base_k} retention broke for {lang}"
        for i in range(vocab.size):
            text = oracles.ref_token_text(vocab.surface(i))
            expected = i < base_k or oracles.ref_script_keeps(
                None if text is None else [ord(c) for c in text], ranges
            )
            if (i in kept) != expected:
                mismatches += 1
    _verdict(
        "script filter: 5000-token audit under all four presets, "
        f"{mismatches} mismatches",
        mismatches == 0,
    )
    assert mismatches == 0


def _random_bpe_instance(rng: random.Random):
    alphabet = rng.sample("abcdкдож ", k=rng.randrange(3, 6))
    byte_chars = sorted({bpe.BYTE_TO_CHAR[b] for ch in alphabet for b in ch.encode("utf-8")})
    surfaces = list(byte_chars)
    pairs = []
    for _ in range(rng.randrange(0, 12)):
        left, right = rng.choice(surfaces), rng.choice(surfaces)
        if (left, right) in pairs:
            continue
        pairs.append((left, right))
        if left + right not in surfaces:
            surfaces.append(left + right)
    vocab = bpe.Vocabulary.from_mapping({s: i for i, s in enumerate(surfaces)})
    merges = bpe.Merges.from_pairs(pairs, vocab)
    corpus = [
        "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 25)))
        for _ in range(rng.randrange(1, 8))
    ]
    return vocab, merges, corpus


def test_corpus_selection_equals_brute_force():
    from vtrim.subvocab import corpus_select

    rng = random.Random(42)
    for trial in range(20):
        vocab, merges, corpus = _random_bpe_instance(rng)
        base_k = rng.randrange(0, 5)
        sub = corpus_select(vocab, merges, corpus, base_k=base_k)
        expected = set()
        for line in corpus:
            expected |= set(oracles.ref_encode(line, vocab.ids, merges.pairs))
        got = set(sub.kept) - set(range(base_k))
        assert got == expected - set(range(base_k)), f"trial {trial} diverged"
    _verdict("corpus selection equals brute-force re-tokenization on 20 instances", True)


def test_round_trip_over_multilingual_fuzz_corpus(demo):
    vocab, merges = demo
    rng = random.Random(99)
    pools = [
        [chr(c) for c in range(0x20, 0x7F)],
        [chr(c) for c in range(0x400, 0x450)],  # Cyrillic
        [chr(c) for c in range(0x4E00, 0x4E60)],  # CJK
        [chr(c) for c in range(0x1F600, 0x1F620)],  # emoji
        ["é", "ñ", "ć", "ș"],
        [" ", "\t", "\n", "　"],
    ]
    failures = 0
    count = 10_000
    for _ in range(count):
        k = rng.randrange(0, 40)
        s = "".join(rng.choice(rng.choice(pools)) for _ in range(k))
        if bpe.decode(bpe.encode(s, vocab, merges), vocab) != s:
            failures += 1
    _verdict(
        f"tokenizer round-trip over {count} multilingual strings, "
        f"{failures} failures",
        failures == 0,
    )
    assert failures == 0


BLEU_MICRO = [
    (["the cat sat on mat"], ["the cat sat on the mat"], "en"),
    (
        ["he ate the apple", "a quick brown fox ran"],
        ["he ate an apple", "the quick brown fox runs fast"],
        "en",
    ),
    (["the big black cat sat down"], ["the black cat sat"], "en"),
    (["a b x c"], ["a b c d"], "en"),
    (["今天天气很好"], ["今天天气真好"], "zh"),
]
CHRF_MICRO = [
    (["the cat sat on mat"], ["the cat sat on the mat"]),
    (["abcd"], ["abce"]),
    (["hello"], ["help"]),
    (
        ["he ate the apple", "a quick brown fox ran"],
        ["he ate an apple", "the quick brown fox runs fast"],
    ),
    (["今天天气很好"], ["今天天气真好"]),
]


def test_quality_metrics_match_independent_scorers():
    worst = 0.0
    for hyps, refs, lang in BLEU_MICRO:
        worst = max(worst, abs(o_bleu(hyps, refs, lang=lang) - oracles.ref_bleu(hyps, refs, lang=lang)))
    for hyps, refs in CHRF_MICRO:
        worst = max(worst, abs(o_chrf(hyps, refs) - oracles.ref_chrf(hyps, refs)))
    identity_exact = (
        o_bleu(["ab cd"], ["ab cd"]) == 100.0 and o_chrf(["ab cd"], ["ab cd"]) == 100.0
    )
    disjoint_exact = (
        o_bleu(["x y"], ["a b"]) == 0.0 and o_chrf(["xy"], ["ab"]) == 0.0
    )
    ok = worst <= 1e-4 and identity_exact and disjoint_exact
    _verdict(
        f"metrics vs brute-force references: max |delta| = {worst:.2e}, "
        "identity and disjoint exact",
        ok,
    )
    assert worst <= 1e-4
    assert identity_exact and disjoint_exact


def test_removing_an_emitted_token_causes_a_miss(small_model):
    prompts = [[3, 4], [9, 8, 7]]
    full = [greedy_decode(small_model, p, max_new=8, eos=2).ids for p in prompts]
    emitted = set()
    for p, ids in zip(prompts, full):
        emitted |= set(ids[len(p):])
    prompt_ids = {i for p in prompts for i in p}
    victims = sorted(emitted - prompt_ids - {2})
    assert victims, "seeded decode emitted only prompt/eos tokens"
    victim = victims[0]
    sub = build_mapping((set(range(64)) - {victim}) | prompt_ids | {2}, 64)
    trimmed = trim_model(small_model, sub)
    again = [
        greedy_decode(trimmed, p, max_new=8, eos=2, sub=sub).ids for p in prompts
    ]
    full_text = [_ids_to_text(ids) for ids in full]
    again_text = [_ids_to_text(ids) for ids in again]
    miss = miss_count(full_text, again_text)
    bleu = o_bleu(again_text, full_text)
    ok = miss >= 1 and bleu < 100.0
    _verdict(
        f"forced divergence: removing emitted token {victim} gives "
        f"miss={miss}, o-BLEU={bleu:.2f}",
        ok,
    )
    assert miss >= 1
    assert bleu < 100.0


SCALING_SIZES = [22912, 58642, 104320, 250680]


def test_projection_scales_with_vocab_and_trim_speeds_decode(tmp_path):
    t0 = time.perf_counter()
    results = output_layer_scaling(1024, SCALING_SIZES, trials=5)
    times = dict(results)
    monotone = all(
        times[a] <= times[b]
        for a, b in zip(SCALING_SIZES, SCALING_SIZES[1:])
    )
    linear = True
    for i, a in enumerate(SCALING_SIZES):
        for b in SCALING_SIZES[i + 1:]:
            ratio = b / a
            if ratio >= 5:
                measured = times[b] / times[a]
                linear = linear and 0.5 * ratio <= measured <= 2.0 * ratio

    # The wide model (about 1 GiB) and its trim are written only now, so
    # neither write can slow the scaling sizes above.
    cfg = ModelConfig(
        vocab_size=250680, hidden=1024, layers=1, heads=16, max_context=32
    )
    wide = init_random(cfg, seed=0)
    sub = build_mapping(set(range(22912)), 250680)
    wide_path, trimmed_path = tmp_path / "wide.vtlm", tmp_path / "trimmed.vtlm"
    try:
        save_model(str(wide_path), wide)
        save_model(str(trimmed_path), trim_model(wide, sub))
        del wide
        # Each load checks the file's vocabulary size against the id space
        # it is served in: 250680 for the full model, 22912 for the trimmed one.
        prompts = [(0, [3, 5]), (1, [7, 11])]
        full_load, full_decode, _ = time_end_to_end(
            str(wide_path), full_vocabulary(250680), prompts, max_new=4, repeats=5
        )
        trim_load, trim_decode, _ = time_end_to_end(
            str(trimmed_path), sub, prompts, max_new=4, repeats=5
        )
    finally:  # do not leave a GiB in tmp retention
        wide_path.unlink(missing_ok=True)
        trimmed_path.unlink(missing_ok=True)
    full_e2e, trim_e2e = full_load + full_decode, trim_load + trim_decode
    faster = trim_e2e < full_e2e
    decodes_faster = trim_decode < full_decode
    elapsed = time.perf_counter() - t0
    ok = monotone and linear and faster and decodes_faster and elapsed < 600.0
    _verdict(
        f"speed: projection monotone={monotone}, linear-within-2x={linear}; "
        f"trimmed e2e {trim_e2e:.2f}s < full {full_e2e:.2f}s = {faster}; "
        f"trimmed decode {trim_decode:.3f}s < full {full_decode:.3f}s = "
        f"{decodes_faster}",
        ok,
    )
    assert monotone, f"times: {results}"
    assert linear, f"times: {results}"
    assert faster
    assert decodes_faster
    assert elapsed < 600.0
