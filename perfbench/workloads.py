"""Workload definitions and seeded input generation.

Each workload fixes a model shape, a prompt batch and a corpus; the seed
fixes the vocabulary, the words, the corpus lines, the prompts and the
weights. Generation uses the toolkit's own ``init_random``, ``save_model``
and ``encode``, so the set-up time the benchmark reports moves when those
functions do.
"""
from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

# Letter ranges of the synthetic scripts. The target language is written
# in Cyrillic, so the toolkit's "bg" preset (U+0400-U+04FF) selects it.
SCRIPTS: dict[str, tuple[int, int]] = {
    "cyrillic": (0x0430, 0x044F),
    "latin": (0x0061, 0x007A),
    "greek": (0x03B1, 0x03C9),
    "armenian": (0x0561, 0x0586),
    "hebrew": (0x05D0, 0x05EA),
    "arabic": (0x0627, 0x064A),
    "devanagari": (0x0915, 0x0939),
    "thai": (0x0E01, 0x0E2E),
    "hangul": (0xAC00, 0xD7A3),
    "cjk": (0x4E00, 0x9FFF),
}
TARGET_SCRIPT = "cyrillic"
TARGET_PRESET = "bg"
# Share of vocabulary words per script. About half of a two-byte
# script's merge prefixes end inside a character, so a 0.2 share puts
# roughly a tenth of |V| in the script filter's sub-vocabulary.
SCRIPT_WEIGHTS = {"cyrillic": 0.20, **{s: 0.08 for s in SCRIPTS if s != "cyrillic"}}
MIXED_WORD_SHARE = 0.03  # Cyrillic+Latin words the filter must reject
BASE_K = 300
EOS = 2

# Byte -> stand-in character, the byte-level BPE convention: printable
# ASCII and most of Latin-1 map to themselves, the rest to 256 upward.
_PRINTABLE = [*range(0x21, 0x7F), *range(0xA1, 0xAD), *range(0xAE, 0x100)]
BYTE_CHARS: dict[int, str] = {b: chr(b) for b in _PRINTABLE}
for _b in range(256):
    if _b not in BYTE_CHARS:
        BYTE_CHARS[_b] = chr(256 + len(BYTE_CHARS) - len(_PRINTABLE))
CHAR_BYTES: dict[str, int] = {c: b for b, c in BYTE_CHARS.items()}


@dataclass(frozen=True)
class Workload:
    name: str
    vocab_size: int
    hidden: int
    layers: int
    heads: int
    max_context: int
    n_prompts: int
    prompt_tokens: int  # most tokens in a prompt
    max_new: int
    corpus_lines: int = 0
    corpus_line_words: int = 0


WORKLOADS: dict[str, Workload] = {
    # Attention and MLP over a near-full context dominate every step.
    "long-context": Workload(
        "long-context", vocab_size=32000, hidden=512, layers=4, heads=8,
        max_context=256, n_prompts=2, prompt_tokens=240, max_new=8,
    ),
    # Corpus selection over long lines makes the BPE merge loop dominate
    # preparation; short prompts make the projection most of a step.
    "corpus-build": Workload(
        "corpus-build", vocab_size=64000, hidden=512, layers=4, heads=8,
        max_context=64, n_prompts=4, prompt_tokens=10, max_new=8,
        corpus_lines=16, corpus_line_words=100,
    ),
}


@dataclass
class Inputs:
    """Paths of one workload's generated files, inside ``root``."""

    root: str

    def path(self, name: str) -> str:
        return os.path.join(self.root, name)

    @property
    def vocab(self) -> str:
        return self.path("vocab.json")

    @property
    def merges(self) -> str:
        return self.path("merges.txt")

    @property
    def prompts(self) -> str:
        return self.path("prompts.json")

    @property
    def corpus(self) -> str:
        return self.path("corpus.txt")

    @property
    def model(self) -> str:
        return self.path("full.vtlm")

    @property
    def sub(self) -> str:
        return self.path("sub.json")

    @property
    def trimmed(self) -> str:
        return self.path("trim.vtlm")


def _word(rng: random.Random, script: str) -> str:
    lo, hi = SCRIPTS[script]
    return "".join(chr(rng.randint(lo, hi)) for _ in range(rng.randint(2, 8)))


def _pick_script(rng: random.Random) -> str:
    return rng.choices(list(SCRIPT_WEIGHTS), weights=list(SCRIPT_WEIGHTS.values()))[0]


def make_vocab(size: int, rng: random.Random) -> tuple[list[str], list[tuple[str, str]], dict[str, list[str]]]:
    """A byte-level vocabulary of exactly ``size`` tokens and its merges.

    Ids 0-2 are specials, 3-258 the byte symbols, 259-299 digit strings;
    the rest are left-to-right merge chains of words, so every prefix of
    a word's byte sequence is a token and every merge result is in the
    vocabulary. Returns surfaces, merges and the words of each script.
    """
    surfaces = ["<pad>", "<unk>", "</s>"] + [BYTE_CHARS[b] for b in range(256)]
    surfaces += [str(n) for n in range(10, 50)] + ["100"]
    known = set(surfaces)
    merges: list[tuple[str, str]] = []
    words: dict[str, list[str]] = {s: [] for s in SCRIPTS}
    while len(surfaces) < size:
        if rng.random() < MIXED_WORD_SHARE:
            script, text = "mixed", _word(rng, TARGET_SCRIPT) + _word(rng, "latin")
        else:
            script = _pick_script(rng)
            text = _word(rng, script)
            words[script].append(text)
        if rng.random() < 0.5:
            text = " " + text
        symbols = [BYTE_CHARS[b] for b in text.encode("utf-8")]
        current = symbols[0]
        for nxt in symbols[1:]:
            merged = current + nxt
            if merged not in known:
                if len(surfaces) == size:
                    break
                known.add(merged)
                surfaces.append(merged)
                merges.append((current, nxt))
            current = merged
    return surfaces, merges, words


def _text(rng: random.Random, words: dict[str, list[str]], n_words: int, foreign: float) -> str:
    """Target-script words, a ``foreign`` share from other scripts, and a
    quarter of unseen words, so encoding also ends mid-word."""
    out = []
    for _ in range(n_words):
        script = _pick_script(rng) if rng.random() < foreign else TARGET_SCRIPT
        if rng.random() < 0.25 or not words[script]:
            out.append(_word(rng, script))
        else:
            out.append(rng.choice(words[script]))
    return " ".join(out)


def _prompt(rng, words, hi: int, encode) -> str:
    """The longest word prefix of a target-script text that encodes to at
    most ``hi`` tokens."""
    parts = _text(rng, words, hi, 0.0).split(" ")
    fits, over = 1, len(parts) + 1  # invariant: parts[:fits] fits, parts[:over] does not
    while over - fits > 1:
        mid = (fits + over) // 2
        if len(encode(" ".join(parts[:mid]))) <= hi:
            fits = mid
        else:
            over = mid
    return " ".join(parts[:fits])


def generate(w: Workload, seed: int, inputs: Inputs) -> None:
    """Write vocabulary, merges, prompts, corpus and the full model."""
    from vtrim import bpe, toylm

    rng = random.Random(f"{w.name}/{seed}")
    surfaces, merges, words = make_vocab(w.vocab_size, rng)
    os.makedirs(inputs.root, exist_ok=True)
    with open(inputs.vocab, "w", encoding="utf-8") as f:
        json.dump({s: i for i, s in enumerate(surfaces)}, f, ensure_ascii=False)
    with open(inputs.merges, "w", encoding="utf-8") as f:
        f.write("#version: perfbench\n")
        f.writelines(f"{a} {b}\n" for a, b in merges)
    vocab, bpe_merges = bpe.load_vocab(inputs.vocab, inputs.merges)

    def encode(text: str) -> list[int]:
        return bpe.encode(text, vocab, bpe_merges)

    prompts = [_prompt(rng, words, w.prompt_tokens, encode) for _ in range(w.n_prompts)]
    with open(inputs.prompts, "w", encoding="utf-8") as f:
        json.dump(prompts, f, ensure_ascii=False)
    with open(inputs.corpus, "w", encoding="utf-8") as f:
        for _ in range(w.corpus_lines):
            f.write(_text(rng, words, w.corpus_line_words, 0.2) + "\n")

    cfg = toylm.ModelConfig(
        vocab_size=w.vocab_size, hidden=w.hidden, layers=w.layers,
        heads=w.heads, max_context=w.max_context,
    )
    toylm.save_model(inputs.model, toylm.init_random(cfg, seed))
