"""Sub-vocabulary construction: script filtering, corpus hits, oracle sets.

Every selection strategy unconditionally retains the first ``base_k``
vocabulary ids (special tokens, raw byte symbols, digit strings) and can
fold in the token ids of a prompt batch, since trimmed decoding must be
able to embed its own inputs. Every builder grows a checked base of those
ids through ``with_input_tokens``. ``SubVocabulary.__post_init__`` is the
only check of a kept set, and ``kept`` is the only id map: new id ``j`` is
original id ``kept[j]``, and ``to_new`` finds ``j`` by bisection.

A script is one rule, ``ScriptSpec.pattern``: a token is kept when its
text holds at least one allowed character and nothing but allowed
characters and whitespace (``str.isspace``, which is ``re``'s ``\\s``).
"""
from __future__ import annotations

import json
import re
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable

from .atomic import atomic_write
from .bpe import Merges, Vocabulary, encode, token_texts
from .errors import VtError, expect, expect_ints, read_json

_MAX_CODEPOINT = 0x10FFFF

_METHODS = ("unicode", "corpus", "oracle", "full", "custom")


@dataclass(frozen=True)
class ScriptSpec:
    """Named set of allowed codepoint ranges; whitespace is always tolerated.

    ``allowed_ranges`` are inclusive [lo, hi] intervals within
    0..0x10FFFF, normalized to be sorted and non-overlapping. Whitespace,
    what ``str.isspace`` accepts (29 codepoints, ``re``'s ``\\s``), may
    appear in a token without disqualifying it, but does not count as
    evidence that the token belongs to the script.
    """

    name: str
    allowed_ranges: tuple[tuple[int, int], ...]
    # The rule, applied only as ``pattern.fullmatch(text)``: whitespace,
    # one allowed character, then allowed characters or whitespace.
    pattern: re.Pattern = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        normalized = _normalize_ranges(self.allowed_ranges)
        object.__setattr__(self, "allowed_ranges", normalized)
        object.__setattr__(self, "pattern", _compile_rule(normalized))

    @classmethod
    def from_json_file(cls, path: str) -> "ScriptSpec":
        raw = read_json(path, "script spec")
        try:
            unknown = [key for key in expect(raw, dict, "script spec")
                       if key not in ("name", "allowed_ranges")]
            if unknown:
                raise VtError(f"unknown key {unknown[0]!r:.40}")
            ranges = tuple(
                (expect(lo, int, "range start"), expect(hi, int, "range end"))
                for lo, hi in expect(raw["allowed_ranges"], list, "allowed_ranges")
            )
            return cls(name=expect(raw["name"], str, "name"), allowed_ranges=ranges)
        except (KeyError, TypeError, ValueError, VtError) as e:
            raise VtError(f"malformed script spec {path}: {e}") from e


def _normalize_ranges(ranges: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    items = sorted(tuple(r) for r in ranges)
    if not items:
        raise VtError("script spec needs at least one codepoint range")
    merged: list[tuple[int, int]] = []
    for lo, hi in items:
        if lo < 0 or hi < lo or hi > _MAX_CODEPOINT:
            raise VtError(f"invalid codepoint range [{lo!r:.40}, {hi!r:.40}]")
        if merged and lo <= merged[-1][1] + 1:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return tuple(merged)


def _compile_rule(allowed: tuple[tuple[int, int], ...]) -> re.Pattern:
    r"""``[T]*[A][A∪T]*``, where A is the allowed ranges and T the
    whitespace outside A. ``re``'s ``\s`` matches exactly what
    ``str.isspace`` accepts, so the class ``[^\S A]`` is T."""
    a = "".join(f"\\U{lo:08x}-\\U{hi:08x}" for lo, hi in allowed)
    return re.compile(f"[^\\S{a}]*[{a}][{a}\\s]*")


# Built-in per-language presets. "es" spans Basic Latin through Latin
# Extended-A because accented Spanish letters sit in Latin-1 Supplement;
# "zh" adds CJK punctuation and fullwidth forms alongside the unified
# ideographs.
PRESETS: dict[str, ScriptSpec] = {
    "bg": ScriptSpec("bg", ((0x0400, 0x04FF),)),
    "en": ScriptSpec("en", ((0x0000, 0x007F),)),
    "es": ScriptSpec("es", ((0x0000, 0x017F),)),
    "zh": ScriptSpec("zh", ((0x4E00, 0x9FFF), (0x3000, 0x303F), (0xFF00, 0xFFEF))),
}


@dataclass(frozen=True)
class SubVocabulary:
    """Kept-id set of a ``vocab_size``-token vocabulary, the four fields
    its file stores.

    ``kept`` is strictly ascending and is the one id map: new id ``j`` is
    original id ``kept[j]``, and ``to_new`` inverts it by bisection.
    """

    kept: tuple[int, ...]
    method: str
    base_k: int
    vocab_size: int

    def __post_init__(self) -> None:
        if self.method not in _METHODS:
            raise VtError(f"unknown method {self.method!r:.40}; expected one of {_METHODS}")
        if self.base_k < 0:
            raise VtError(f"base_k must be >= 0, got {self.base_k!r:.40}")
        if self.vocab_size < 0:
            raise VtError(f"vocab_size must be >= 0, got {self.vocab_size!r:.40}")
        if self.kept and (self.kept[0] < 0 or self.kept[-1] >= self.vocab_size):
            bad = self.kept[0] if self.kept[0] < 0 else self.kept[-1]
            raise VtError(f"kept id {bad!r:.40} out of range [0, {self.vocab_size!r:.40})")
        prev = -1
        for i in self.kept:
            if i <= prev:
                raise VtError("kept ids must be strictly ascending")
            prev = i
        # kept ascends from >= 0, so one entry checks the prefix: no range is built.
        retained = min(self.base_k, self.vocab_size)
        if retained and self.kept[retained - 1:retained] != (retained - 1,):
            raise VtError(f"kept set must contain ids 0..{retained - 1!r:.40} (base_k retention)")
        if self.method == "full" and len(self.kept) != self.vocab_size:
            raise VtError("method 'full' requires the complete id range")

    @property
    def size(self) -> int:
        return len(self.kept)

    @property
    def space(self) -> str:
        """What the id space is called in messages."""
        return "the tokenizer" if self.method == "full" else "the sub-vocabulary"

    def to_new(self, original_id: int) -> int:
        new = bisect_left(self.kept, original_id)
        if new == len(self.kept) or self.kept[new] != original_id:
            raise VtError(f"token id {original_id!r:.40} is not in {self.space}")
        return new


def build_mapping(
    kept_set: Iterable[int],
    vocab_size: int,
    *,
    method: str = "custom",
    base_k: int = 0,
) -> SubVocabulary:
    """The sub-vocabulary of an arbitrary kept set, sorted and deduplicated."""
    kept = sorted(set(kept_set))
    return SubVocabulary(
        kept=tuple(kept), method=method, base_k=base_k, vocab_size=vocab_size
    )


def full_vocabulary(vocab_size: int) -> SubVocabulary:
    return SubVocabulary(
        kept=tuple(range(vocab_size)), method="full", base_k=0, vocab_size=vocab_size
    )


def _base(method: str, base_k: int, vocab_size: int) -> SubVocabulary:
    # A builder's first ids, checked before any pass; base_k is clamped so
    # tiny test vocabularies stay usable.
    return SubVocabulary(tuple(range(min(base_k, vocab_size))), method, base_k, vocab_size)


def script_filter(vocab: Vocabulary, spec: ScriptSpec, base_k: int = 300) -> SubVocabulary:
    """Keep tokens whose codepoints are all allowed by the spec or
    whitespace, with at least one allowed codepoint; plus the first
    ``base_k`` ids unconditionally."""
    base = _base("unicode", base_k, vocab.size)
    fullmatch = spec.pattern.fullmatch
    texts = token_texts(vocab, base.size)
    found = [i for i, text in enumerate(texts, base.size) if text is not None and fullmatch(text)]
    return with_input_tokens(base, [found])


def corpus_select(
    vocab: Vocabulary,
    merges: Merges,
    corpus: Iterable[str],
    base_k: int = 300,
) -> SubVocabulary:
    """Keep tokens observed when encoding the corpus, one line at a time."""
    base = _base("corpus", base_k, vocab.size)
    found: set[int] = set()
    for lineno, line in enumerate(corpus, start=1):
        try:
            found.update(encode(line.rstrip("\n"), vocab, merges))
        except VtError as e:
            raise VtError(f"corpus line {lineno}: {e}") from e
    return with_input_tokens(base, [found])


def oracle_select(
    full_outputs: Iterable[Iterable[int]],
    base_k: int = 300,
    *,
    vocab_size: int,
) -> SubVocabulary:
    """Keep exactly the ids emitted by full-vocabulary decoding (plus the
    retained prefix): the upper bound for trimming on a fixed test set."""
    return with_input_tokens(_base("oracle", base_k, vocab_size), full_outputs)


def with_input_tokens(
    sub: SubVocabulary, batch_prompts: Iterable[Iterable[int]]
) -> SubVocabulary:
    """Union the ids of a prompt batch into the kept set; method and
    base_k are preserved. Every builder grows its base through here."""
    return build_mapping(set(sub.kept).union(*batch_prompts), sub.vocab_size,
                         method=sub.method, base_k=sub.base_k)


def save_subvocab(sub: SubVocabulary, path: str) -> None:
    payload = {
        "method": sub.method,
        "base_k": sub.base_k,
        "vocab_size": sub.vocab_size,
        "kept": list(sub.kept),
    }
    with atomic_write(path) as f:
        json.dump(payload, f)
        f.write("\n")


def load_subvocab(path: str) -> SubVocabulary:
    """Load a sub-vocabulary file; a value ``SubVocabulary`` rejects is
    reported, like a malformed one, with the file's path."""
    raw = read_json(path, "sub-vocabulary")
    try:
        return SubVocabulary(
            kept=tuple(expect_ints(raw["kept"], "kept")),
            method=expect(raw["method"], str, "method"),
            base_k=expect(raw["base_k"], int, "base_k"),
            vocab_size=expect(raw["vocab_size"], int, "vocab_size"),
        )
    except (KeyError, TypeError, ValueError, VtError) as e:
        raise VtError(f"malformed sub-vocabulary file {path}: {e}") from e
