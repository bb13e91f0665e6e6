#!/usr/bin/env python3
"""Regenerate the bundled demo fixtures in src/vtrim/data/.

    python3 tools/make_demo_fixtures.py [OUT_DIR]

writes demo_vocab.json, demo_merges.txt and prompts_en.jsonl into OUT_DIR
(default: the package's data directory).

The demo vocabulary keeps the layout the toolkit assumes for real
byte-level BPE models: ids 0-2 are special tokens, 3-258 the 256 raw
byte symbols, 259-299 digit-string fillers (so the default first-300
retention is meaningful), and 300+ merged word tokens across four
scripts plus deliberately code-mixed entries. Merge chains are
left-associative, and every intermediate concatenation is a vocabulary
entry so encoding can stop mid-chain.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from vtrim.bpe import BYTE_TO_CHAR

WORDS = {
    "bg": ["кот", "котка", "ден", "нощ", "здравей", "свят", "куче", "вода"],
    "en": ["the", "cat", "sat", "hello", "world", "dog", "http", "www", "question", "time"],
    "es": ["niño", "mañana", "señor", "años", "café", "agua"],
    "zh": ["你好", "世界", "天气", "今天", "很好"],
    "mixed": ["котcat", "ab你", "httpБГ"],
}

PROMPT_TEXTS = [
    "what is the cat",
    "hello world",
    "the dog sat",
    "where is the time",
    "who sat on the cat",
    "the question is hello",
    "a dog and a cat",
    "what time is it",
    "the world is big",
    "how is the dog",
    "the cat sat on the dog",
    "is the world round",
    "hello hello hello",
    "what is a question",
    "the the the",
    "dog cat dog cat",
    "where did the cat go",
    "is it time yet",
    "the big world",
    "a question of time",
    "what did the dog say",
    "hello to the world",
    "the cat and the question",
    "sat the dog sat",
    "who is at the www",
    "the http question",
    "what is www",
    "a cat in time",
    "the dog in the world",
    "is hello a word",
    "time for the cat",
    "the question of the dog",
    "world hello world",
    "what sat where",
    "the cat the dog",
    "is the cat big",
    "a big question",
    "hello big world",
    "the time of the world",
    "what is the www",
    "dog says hello",
    "the cat says what",
    "who sat where",
    "a world of cats",
    "the question sat",
    "is time big",
    "hello question world",
    "the dog and the time",
    "what world is this",
    "the last question",
]


def build_demo_vocab() -> tuple[dict[str, int], list[tuple[str, str]]]:
    vocab: dict[str, int] = {}
    merges: list[tuple[str, str]] = []
    seen_pairs: set[tuple[str, str]] = set()

    def add(surface: str) -> None:
        if surface not in vocab:
            vocab[surface] = len(vocab)

    for special in ("<pad>", "<unk>", "</s>"):
        add(special)
    for b in range(256):
        add(BYTE_TO_CHAR[b])
    for n in range(10, 50):
        add(str(n))
    add("100")
    assert len(vocab) == 300, len(vocab)

    def add_word(text: str) -> None:
        symbols = [BYTE_TO_CHAR[b] for b in text.encode("utf-8")]
        current = symbols[0]
        for nxt in symbols[1:]:
            pair = (current, nxt)
            current = current + nxt
            if pair not in seen_pairs:
                seen_pairs.add(pair)
                merges.append(pair)
            add(current)

    for words in WORDS.values():
        for word in words:
            add_word(word)
            add_word(" " + word)
    return vocab, merges


def main() -> None:
    parser = argparse.ArgumentParser(description="Regenerate the demo fixtures.")
    parser.add_argument(
        "out_dir", nargs="?",
        default=os.path.join(os.path.dirname(__file__), "..", "src", "vtrim", "data"),
    )
    out_dir = parser.parse_args().out_dir
    os.makedirs(out_dir, exist_ok=True)
    vocab, merges = build_demo_vocab()

    with open(os.path.join(out_dir, "demo_vocab.json"), "w", encoding="utf-8") as f:
        json.dump(vocab, f, ensure_ascii=False, indent=0)
        f.write("\n")
    with open(os.path.join(out_dir, "demo_merges.txt"), "w", encoding="utf-8") as f:
        f.write("#version: demo\n")
        for left, right in merges:
            f.write(f"{left} {right}\n")
    with open(os.path.join(out_dir, "prompts_en.jsonl"), "w", encoding="utf-8") as f:
        for i, text in enumerate(PROMPT_TEXTS):
            f.write(json.dumps({"id": i, "text": text}, ensure_ascii=False) + "\n")

    print(f"vocab size {len(vocab)}, {len(merges)} merges, {len(PROMPT_TEXTS)} prompts")


if __name__ == "__main__":
    main()
