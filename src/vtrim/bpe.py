"""Byte-level BPE tokenizer: vocabulary loading, encoding, decoding.

Text is encoded by remapping its UTF-8 bytes onto printable stand-in
codepoints and then greedily applying the lowest-ranked merge, at every
site left to right, until none applies. The merge runs on a doubly linked
list of symbols and a min-heap of (rank, position) pairs, in O(n log n)
for n bytes instead of one full rescan per merge. Pairs that a merge
forms join the heap only once that merge's sites are used up, so the
result equals a rescan even when such a pair has a lower rank than the
merge itself. The byte remapping is a bijection, so decoding is lossless
for any valid UTF-8 input. There is no pre-tokenizer: merges run over the
whole byte stream, which keeps the reference behavior simple and means
corpus statistics do not depend on word-splitting heuristics.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import VtError, read_json


def _build_byte_table() -> tuple[str, ...]:
    # Bytes in the three printable ranges map to themselves; the rest get
    # consecutive codepoints from 256 upward, in ascending byte order.
    direct = (
        list(range(0x21, 0x7F)) + list(range(0xA1, 0xAD)) + list(range(0xAE, 0x100))
    )
    table: dict[int, str] = {b: chr(b) for b in direct}
    fill = 0x100
    for b in range(0x100):
        if b not in table:
            table[b] = chr(fill)
            fill += 1
    return tuple(table[b] for b in range(0x100))


BYTE_TO_CHAR: tuple[str, ...] = _build_byte_table()
CHAR_TO_BYTE: dict[str, int] = {c: b for b, c in enumerate(BYTE_TO_CHAR)}
# str.translate table: each stand-in to the character of its byte value,
# every other character below U+0100 to U+FFFD. Encoding the result as
# Latin-1 then fails on exactly the characters that are not stand-ins.
_STAND_IN_TO_LATIN1 = {c: 0xFFFD for c in range(0x100)} | {
    ord(c): b for b, c in enumerate(BYTE_TO_CHAR)
}


@dataclass(frozen=True)
class Vocabulary:
    """Dense id -> surface table; ``surfaces[i]`` is the token with id ``i``."""

    surfaces: tuple[str, ...]
    ids: dict[str, int]

    @property
    def size(self) -> int:
        return len(self.surfaces)

    def surface(self, token_id: int) -> str:
        if not 0 <= token_id < len(self.surfaces):
            raise VtError(f"token id {token_id} out of range [0, {len(self.surfaces)})")
        return self.surfaces[token_id]

    @classmethod
    def from_mapping(cls, mapping: dict[str, int]) -> "Vocabulary":
        """Validate a surface -> id map: ids must be exactly 0..n-1, once each."""
        if not isinstance(mapping, dict):
            raise VtError("vocabulary file must contain a JSON object")
        n = len(mapping)
        surfaces: list[str | None] = [None] * n
        for surface, token_id in mapping.items():
            if not isinstance(token_id, int) or isinstance(token_id, bool):
                raise VtError(f"non-integer id for token {surface!r}")
            if not 0 <= token_id < n:
                raise VtError(f"non-dense ids: id {token_id} outside [0, {n})")
            if surfaces[token_id] is not None:
                raise VtError(f"duplicate id {token_id} ({surfaces[token_id]!r} and {surface!r})")
            surfaces[token_id] = surface
        return cls(surfaces=tuple(surfaces), ids=dict(mapping))  # type: ignore[arg-type]


@dataclass(frozen=True)
class Merges:
    """Ranked merge pairs; rank equals list position."""

    pairs: tuple[tuple[str, str], ...]
    ranks: dict[tuple[str, str], int]

    def __len__(self) -> int:
        return len(self.pairs)

    @classmethod
    def from_pairs(cls, pairs: list[tuple[str, str]], vocab: Vocabulary) -> "Merges":
        ranks: dict[tuple[str, str], int] = {}
        for rank, (left, right) in enumerate(pairs):
            pair = (left, right)
            if pair in ranks:
                raise VtError(f"duplicate merge pair {left!r} {right!r}")
            if left + right not in vocab.ids:
                raise VtError(f"merge result {left + right!r} not in vocabulary")
            ranks[pair] = rank
        return cls(pairs=tuple(pairs), ranks=ranks)


def load_vocab(vocab_path: str, merges_path: str) -> tuple[Vocabulary, Merges]:
    """Load and validate a vocabulary JSON file and a merges text file.

    The vocabulary file is a JSON object mapping token surface strings to
    integer ids. The merges file holds one "LEFT RIGHT" pair per line in
    rank order; a first line starting with "#" is ignored.
    """
    vocab = Vocabulary.from_mapping(read_json(vocab_path, "vocabulary"))

    pairs: list[tuple[str, str]] = []
    try:
        with open(merges_path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                line = line.rstrip("\n")
                if lineno == 1 and line.startswith("#"):
                    continue
                if not line:
                    continue
                fields = line.split(" ")
                if len(fields) != 2:
                    raise VtError(f"{merges_path}:{lineno}: expected 'LEFT RIGHT', got {line!r}")
                pairs.append((fields[0], fields[1]))
    except FileNotFoundError:
        raise VtError(f"merges file not found: {merges_path}") from None
    except UnicodeDecodeError as e:
        raise VtError(f"merges file {merges_path} is not valid UTF-8: {e}") from e
    return vocab, Merges.from_pairs(pairs, vocab)


def _apply_merges(symbols: list[str], ranks: dict[tuple[str, str], int]) -> list[str]:
    # Merge the lowest-ranked adjacent pair, every occurrence left to right,
    # until no pair has a rank. Symbols sit in a doubly linked list over
    # their original positions: a merge keeps the left node and unlinks the
    # right one. The heap holds (rank, left position) for every ranked pair
    # ever formed; a neighbour's merge makes an entry stale, so a popped
    # entry is checked against the pair now at its position, which is exact
    # because each rank belongs to one pair. A rank's sites pop in position
    # order, so overlapping runs resolve left to right. The pairs its merges
    # form are pushed only after those sites are used up: ranks need not
    # follow creation order, and such a pair may outrank the merge that
    # formed it, yet a rescan would only see it in the next round. Each
    # merge pushes at most two entries, so encoding costs O(n log n).
    n = len(symbols)
    sym: list[str | None] = list(symbols)  # None marks a merged-away node
    nxt = list(range(1, n + 1))  # n: no successor
    prv = list(range(-1, n - 1))  # -1: no predecessor
    heap = [(r, i) for i, pair in enumerate(zip(symbols, symbols[1:]))
            if (r := ranks.get(pair)) is not None]
    heapq.heapify(heap)
    while heap:
        rank = heap[0][0]
        merged = []
        while heap and heap[0][0] == rank:
            i = heapq.heappop(heap)[1]
            j = nxt[i]
            if j == n or ranks.get((sym[i], sym[j])) != rank:
                continue  # stale
            sym[i] += sym[j]
            sym[j] = None
            nxt[i] = nxt[j]
            if nxt[j] < n:
                prv[nxt[j]] = i
            merged.append(i)
        for i in {left for i in merged for left in (prv[i], i) if left >= 0}:
            j = nxt[i]
            if j < n and (r := ranks.get((sym[i], sym[j]))) is not None:
                heapq.heappush(heap, (r, i))
    return [s for s in sym if s is not None]


def encode(text: str, vocab: Vocabulary, merges: Merges) -> list[int]:
    """Encode UTF-8 text to token ids.

    Raises VtError if a post-merge symbol is missing from the vocabulary,
    which signals a vocabulary/merges mismatch.
    """
    try:
        data = text.encode("utf-8")
    except UnicodeEncodeError as e:
        raise VtError(f"input is not encodable as UTF-8: {e}") from e
    if not data:
        return []
    symbols = _apply_merges([BYTE_TO_CHAR[b] for b in data], merges.ranks)
    ids = []
    for symbol in symbols:
        token_id = vocab.ids.get(symbol)
        if token_id is None:
            raise VtError(f"symbol {symbol!r} not in vocabulary after merging")
        ids.append(token_id)
    return ids


def decode_bytes(ids: list[int], vocab: Vocabulary) -> bytes:
    """Map token ids to their underlying byte sequence (always defined)."""
    joined = "".join(vocab.surface(i) for i in ids)
    try:
        return bytes(CHAR_TO_BYTE[ch] for ch in joined)
    except KeyError as e:
        raise VtError(f"surface contains non byte-level symbol {e.args[0]!r}") from None


def decode(ids: list[int], vocab: Vocabulary) -> str:
    """Decode token ids back to the original UTF-8 string."""
    raw = decode_bytes(ids, vocab)
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise VtError(f"decoded bytes are not valid UTF-8 (partial multi-byte sequence): {e}") from e


def token_text(surface: str) -> str | None:
    """The text one token's underlying bytes spell.

    Returns None when the token's bytes are not self-contained valid
    UTF-8 (e.g. a lone continuation byte), which is a value rather than
    an error: script filtering treats such tokens as unclassifiable.
    """
    try:
        return surface.translate(_STAND_IN_TO_LATIN1).encode("latin-1").decode("utf-8")
    except UnicodeError:  # a character that is no stand-in, or invalid UTF-8
        return None


def token_codepoints(surface: str) -> list[int] | None:
    """Unicode codepoints of one token's underlying bytes, or None as for
    ``token_text``."""
    text = token_text(surface)
    return None if text is None else [ord(c) for c in text]
