"""Sub-vocabulary construction: script filtering, corpus hits, oracle sets.

Every selection strategy unconditionally retains the first ``base_k``
vocabulary ids (special tokens, raw byte symbols, digit strings) and can
fold in the token ids of a prompt batch, since trimmed decoding must be
able to embed its own inputs.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable

from .atomic import atomic_write
from .bpe import Merges, Vocabulary, encode, token_codepoints
from .errors import VtError

# All Unicode whitespace lives in the BMP.
WHITESPACE_CODEPOINTS: frozenset[int] = frozenset(
    cp for cp in range(0x10000) if chr(cp).isspace()
)

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

    def __post_init__(self) -> None:
        normalized = _normalize_ranges(self.allowed_ranges)
        object.__setattr__(self, "allowed_ranges", normalized)
        object.__setattr__(self, "tolerated", frozenset(self.tolerated))

    def allows(self, codepoint: int) -> bool:
        return any(lo <= codepoint <= hi for lo, hi in self.allowed_ranges)

    def classify(self, codepoints: list[int] | None) -> bool:
        """True iff the codepoints contain at least one allowed codepoint
        and nothing outside allowed ∪ tolerated. None (invalid UTF-8) and
        the empty sequence are rejected."""
        if not codepoints:
            return False
        has_allowed = False
        for cp in codepoints:
            if self.allows(cp):
                has_allowed = True
            elif cp not in self.tolerated:
                return False
        return has_allowed

    @classmethod
    def from_json_file(cls, path: str) -> "ScriptSpec":
        try:
            with open(path, encoding="utf-8") as f:
                raw = json.load(f)
        except FileNotFoundError:
            raise VtError(f"script spec file not found: {path}") from None
        except json.JSONDecodeError as e:
            raise VtError(f"script spec {path} is not valid JSON: {e}") from e
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
    return set(range(min(base_k, vocab_size)))


def script_filter(vocab: Vocabulary, spec: ScriptSpec, base_k: int = 300) -> SubVocabulary:
    """Keep tokens whose codepoints all fall in the spec's allowed or
    tolerated sets, with at least one allowed codepoint; plus the first
    ``base_k`` ids unconditionally."""
    if base_k < 0:
        raise VtError(f"base_k must be >= 0, got {base_k}")
    kept = _base_ids(base_k, vocab.size)
    for token_id in range(min(base_k, vocab.size), vocab.size):
        if spec.classify(token_codepoints(vocab.surfaces[token_id])):
            kept.add(token_id)
    return build_mapping(kept, vocab.size, method="unicode", base_k=base_k)


def corpus_select(
    vocab: Vocabulary,
    merges: Merges,
    corpus: Iterable[str],
    base_k: int = 300,
) -> SubVocabulary:
    """Keep tokens observed when encoding the corpus, one line at a time."""
    if base_k < 0:
        raise VtError(f"base_k must be >= 0, got {base_k}")
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
    if base_k < 0:
        raise VtError(f"base_k must be >= 0, got {base_k}")
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
    try:
        with open(path, encoding="utf-8") as f:
            raw = json.load(f)
    except FileNotFoundError:
        raise VtError(f"sub-vocabulary file not found: {path}") from None
    except json.JSONDecodeError as e:
        raise VtError(f"sub-vocabulary file {path} is not valid JSON: {e}") from e
    try:
        return SubVocabulary(
            kept=tuple(int(i) for i in raw["kept"]),
            method=str(raw["method"]),
            base_k=int(raw["base_k"]),
            vocab_size=int(raw["vocab_size"]),
        )
    except (KeyError, TypeError, ValueError) as e:
        raise VtError(f"malformed sub-vocabulary file {path}: {e}") from e
