"""Sub-vocabulary construction: script filtering, corpus hits, oracle sets.

Every selection strategy unconditionally retains the first ``base_k``
vocabulary ids (special tokens, raw byte symbols, digit strings) and can
fold in the token ids of a prompt batch, since trimmed decoding must be
able to embed its own inputs.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Iterable

from .atomic import atomic_write
from .bpe import Merges, Vocabulary, encode, token_text
from .errors import VtError, read_json

# All Unicode whitespace lives in the BMP.
WHITESPACE_CODEPOINTS: frozenset[int] = frozenset(
    cp for cp in range(0x10000) if chr(cp).isspace()
)
_MAX_CODEPOINT = 0x10FFFF

_METHODS = ("unicode", "corpus", "oracle", "full", "custom")


@dataclass(frozen=True)
class ScriptSpec:
    """Named set of allowed codepoint ranges plus always-tolerated codepoints.

    ``allowed_ranges`` are inclusive [lo, hi] intervals, normalized to be
    sorted and non-overlapping. ``tolerated`` codepoints (whitespace by
    default) may appear in a token without disqualifying it, but do not
    count as evidence that the token belongs to the script.
    """

    name: str
    allowed_ranges: tuple[tuple[int, int], ...]
    tolerated: frozenset[int] = WHITESPACE_CODEPOINTS
    # The rule as one regular expression for ``fullmatch``: tolerated
    # characters, one allowed character, then allowed or tolerated ones.
    pattern: re.Pattern = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        normalized = _normalize_ranges(self.allowed_ranges)
        object.__setattr__(self, "allowed_ranges", normalized)
        object.__setattr__(self, "tolerated", frozenset(self.tolerated))
        object.__setattr__(self, "pattern", _compile_rule(normalized, self.tolerated))

    def allows(self, codepoint: int) -> bool:
        return any(lo <= codepoint <= hi for lo, hi in self.allowed_ranges)

    def classify(self, codepoints: list[int] | None) -> bool:
        """True iff the codepoints contain at least one allowed codepoint
        and nothing outside allowed ∪ tolerated. None (invalid UTF-8), the
        empty sequence and any value outside 0..0x10FFFF are rejected."""
        if not codepoints:
            return False
        try:
            text = "".join(map(chr, codepoints))
        except (ValueError, OverflowError):  # not a codepoint
            return False
        return self.pattern.fullmatch(text) is not None

    @classmethod
    def from_json_file(cls, path: str) -> "ScriptSpec":
        raw = read_json(path, "script spec")
        try:
            ranges = tuple((int(lo), int(hi)) for lo, hi in raw["allowed_ranges"])
            tolerated = raw.get("tolerated")
            return cls(
                name=str(raw["name"]),
                allowed_ranges=ranges,
                tolerated=(
                    WHITESPACE_CODEPOINTS
                    if tolerated is None
                    else frozenset(int(cp) for cp in tolerated)
                ),
            )
        except (KeyError, TypeError, ValueError) as e:
            raise VtError(f"malformed script spec {path}: {e}") from e


def _normalize_ranges(ranges: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    items = sorted(tuple(r) for r in ranges)
    if not items:
        raise VtError("script spec needs at least one codepoint range")
    merged: list[tuple[int, int]] = []
    for lo, hi in items:
        if lo < 0 or hi < lo:
            raise VtError(f"invalid codepoint range [{lo}, {hi}]")
        if merged and lo <= merged[-1][1] + 1:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return tuple(merged)


def _compile_rule(allowed: tuple[tuple[int, int], ...],
                  tolerated: frozenset[int]) -> re.Pattern:
    """``[T]*[A][A∪T]*``, where A is the allowed ranges cut at U+10FFFF
    and T the tolerated codepoints that are not allowed; a tolerated
    value outside 0..0x10FFFF is no character and is left out."""
    def char_class(ranges) -> str:
        return "".join(f"\\U{lo:08x}-\\U{hi:08x}" for lo, hi in ranges)

    a = char_class((lo, min(hi, _MAX_CODEPOINT)) for lo, hi in allowed if lo <= _MAX_CODEPOINT)
    if not a:
        return re.compile("(?!)")  # no allowed character: nothing matches
    extra = [(cp, cp) for cp in tolerated
             if 0 <= cp <= _MAX_CODEPOINT and not any(lo <= cp <= hi for lo, hi in allowed)]
    if not extra:
        return re.compile(f"[{a}]+")
    t = char_class(_normalize_ranges(extra))
    return re.compile(f"[{t}]*[{a}][{a}{t}]*")


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
    """Kept-id set with dense, order-preserving old/new id mappings.

    ``kept`` is strictly ascending, so new id ``j`` corresponds to
    original id ``kept[j]``; ``new_to_old`` is the ``kept`` tuple itself.
    """

    kept: tuple[int, ...]
    method: str
    base_k: int
    vocab_size: int
    old_to_new: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.method not in _METHODS:
            raise VtError(f"unknown method {self.method!r}; expected one of {_METHODS}")
        if self.base_k < 0:
            raise VtError(f"base_k must be >= 0, got {self.base_k}")
        if self.vocab_size < 0:
            raise VtError(f"vocab_size must be >= 0, got {self.vocab_size}")
        prev = -1
        for i in self.kept:
            if i <= prev:
                raise VtError("kept ids must be strictly ascending")
            prev = i
        if self.kept and (self.kept[0] < 0 or self.kept[-1] >= self.vocab_size):
            raise VtError(
                f"kept ids must lie in [0, {self.vocab_size}), got "
                f"[{self.kept[0]}, {self.kept[-1]}]"
            )
        retained = min(self.base_k, self.vocab_size)
        if self.kept[:retained] != tuple(range(retained)):
            raise VtError(f"kept set must contain ids 0..{retained - 1} (base_k retention)")
        if self.method == "full" and len(self.kept) != self.vocab_size:
            raise VtError("method 'full' requires the complete id range")
        object.__setattr__(
            self, "old_to_new", {old: new for new, old in enumerate(self.kept)}
        )

    @property
    def new_to_old(self) -> tuple[int, ...]:
        return self.kept

    @property
    def size(self) -> int:
        return len(self.kept)

    def contains(self, original_id: int) -> bool:
        return original_id in self.old_to_new

    def to_new(self, original_id: int) -> int:
        new = self.old_to_new.get(original_id)
        if new is None:
            raise VtError(f"token id {original_id} is not in the sub-vocabulary")
        return new

    def to_old(self, new_id: int) -> int:
        if not 0 <= new_id < len(self.kept):
            raise VtError(f"new id {new_id} out of range [0, {len(self.kept)})")
        return self.kept[new_id]


def build_mapping(
    kept_set: Iterable[int],
    vocab_size: int,
    *,
    method: str = "custom",
    base_k: int = 0,
) -> SubVocabulary:
    """Build the dense order-preserving mapping for an arbitrary kept set."""
    kept = sorted(set(kept_set))
    if kept and (kept[0] < 0 or kept[-1] >= vocab_size):
        raise VtError(f"kept id out of range [0, {vocab_size})")
    return SubVocabulary(
        kept=tuple(kept), method=method, base_k=base_k, vocab_size=vocab_size
    )


def full_vocabulary(vocab_size: int) -> SubVocabulary:
    return SubVocabulary(
        kept=tuple(range(vocab_size)), method="full", base_k=0, vocab_size=vocab_size
    )


def _base_ids(base_k: int, vocab_size: int) -> set[int]:
    # base_k is clamped so tiny test vocabularies stay usable.
    if base_k < 0:
        raise VtError(f"base_k must be >= 0, got {base_k}")
    return set(range(min(base_k, vocab_size)))


def script_filter(vocab: Vocabulary, spec: ScriptSpec, base_k: int = 300) -> SubVocabulary:
    """Keep tokens whose codepoints all fall in the spec's allowed or
    tolerated sets, with at least one allowed codepoint; plus the first
    ``base_k`` ids unconditionally."""
    kept = _base_ids(base_k, vocab.size)
    fullmatch = spec.pattern.fullmatch
    for token_id in range(min(base_k, vocab.size), vocab.size):
        text = token_text(vocab.surfaces[token_id])
        if text is not None and fullmatch(text):
            kept.add(token_id)
    return build_mapping(kept, vocab.size, method="unicode", base_k=base_k)


def corpus_select(
    vocab: Vocabulary,
    merges: Merges,
    corpus: Iterable[str],
    base_k: int = 300,
) -> SubVocabulary:
    """Keep tokens observed when encoding the corpus, one line at a time."""
    kept = _base_ids(base_k, vocab.size)
    for lineno, line in enumerate(corpus, start=1):
        try:
            kept.update(encode(line.rstrip("\n"), vocab, merges))
        except VtError as e:
            raise VtError(f"corpus line {lineno}: {e}") from e
    return build_mapping(kept, vocab.size, method="corpus", base_k=base_k)


def oracle_select(
    full_outputs: Iterable[Iterable[int]],
    base_k: int = 300,
    *,
    vocab_size: int,
) -> SubVocabulary:
    """Keep exactly the ids emitted by full-vocabulary decoding (plus the
    retained prefix): the upper bound for trimming on a fixed test set."""
    kept = _base_ids(base_k, vocab_size)
    for seq in full_outputs:
        kept.update(seq)
    return build_mapping(kept, vocab_size, method="oracle", base_k=base_k)


def with_input_tokens(
    sub: SubVocabulary, batch_prompts: Iterable[Iterable[int]]
) -> SubVocabulary:
    """Union the ids of a prompt batch into the kept set.

    Method and base_k are preserved; the mappings are rebuilt.
    """
    kept = set(sub.kept)
    for prompt in batch_prompts:
        for token_id in prompt:
            if not 0 <= token_id < sub.vocab_size:
                raise VtError(
                    f"prompt token id {token_id} out of range [0, {sub.vocab_size})"
                )
            kept.add(token_id)
    return build_mapping(kept, sub.vocab_size, method=sub.method, base_k=sub.base_k)


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
    """Load a sub-vocabulary artifact; mappings are recomputed, not stored."""
    raw = read_json(path, "sub-vocabulary")
    try:
        return SubVocabulary(
            kept=tuple(int(i) for i in raw["kept"]),
            method=str(raw["method"]),
            base_k=int(raw["base_k"]),
            vocab_size=int(raw["vocab_size"]),
        )
    except (KeyError, TypeError, ValueError) as e:
        raise VtError(f"malformed sub-vocabulary file {path}: {e}") from e
