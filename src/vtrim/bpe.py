"""Byte-level BPE tokenizer: vocabulary loading, encoding, decoding.

Text is encoded by remapping its UTF-8 bytes onto printable stand-in
codepoints, taking each stand-in's token id and then greedily applying
the lowest-ranked merge, at every site left to right, until none applies.
Merges live in token-id space (see ``Merges``): both parts of a merge
must be tokens, as Hugging Face ``tokenizers`` also requires, and a merge
writes the merged id instead of concatenating strings. The merge runs on
a doubly linked list of symbols and a min-heap of (rank, position)
pairs, in O(n log n) for n bytes instead of one full rescan per merge.
Pairs that a merge forms join the heap only once that merge's sites are
used up, so the result equals a rescan even when such a pair has a lower
rank than the merge itself. A loaded vocabulary keeps no object per
token: its surfaces are one string plus an array of offsets (see
``Vocabulary``), and the JSON map is dropped once the merge table is
built from it. The byte remapping is a bijection, so
decoding is lossless for any valid UTF-8 input. There is no
pre-tokenizer: merges run over the whole byte stream, which keeps the
reference behavior simple and means corpus statistics do not depend on
word-splitting heuristics.
"""
from __future__ import annotations

import heapq
from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

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
# The one way back from surfaces to bytes, as a str.translate table: each
# stand-in to the character of its byte value, every other character below
# U+0100 to U+FFFD. Encoding the result as Latin-1 then fails on exactly
# the characters that are not stand-ins.
_STAND_IN_TO_LATIN1 = {c: 0xFFFD for c in range(0x100)} | {
    ord(c): b for b, c in enumerate(BYTE_TO_CHAR)
}


@dataclass(frozen=True)
class Vocabulary:
    """Dense id -> surface table held as one string.

    ``text`` is every surface joined in id order, and token ``i`` is
    ``text[starts[i]:starts[i + 1]]``; ``byte_ids`` is the id of each
    byte's stand-in, or -1 where it is no token. No object is kept per
    token: ``surfaces`` and ``ids`` are built when first read, and
    nothing on the serve path reads them.
    """

    text: str
    starts: array
    byte_ids: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.starts) - 1

    @cached_property
    def surfaces(self) -> tuple[str, ...]:
        """``surfaces[i]`` is the token with id ``i``."""
        text, starts = self.text, self.starts
        return tuple(text[a:b] for a, b in zip(starts, starts[1:]))

    @cached_property
    def ids(self) -> dict[str, int]:
        """The surface -> id map the vocabulary was loaded from."""
        return {s: i for i, s in enumerate(self.surfaces)}

    def surface(self, token_id: int) -> str:
        if not 0 <= token_id < self.size:
            raise VtError(f"token id {token_id} out of range [0, {self.size})")
        return self.text[self.starts[token_id]:self.starts[token_id + 1]]

    @classmethod
    def from_mapping(cls, mapping: dict[str, int]) -> "Vocabulary":
        """Validate a surface -> id map: ids must be exactly 0..n-1, once
        each. The vocabulary keeps no reference to ``mapping``."""
        if not isinstance(mapping, dict):
            raise VtError("vocabulary file must contain a JSON object")
        n = len(mapping)
        values = list(mapping.values())
        # A vocabulary file usually lists its tokens in id order, which two
        # comparisons at C speed confirm; any other map takes the loop,
        # which names the first entry that breaks a rule.
        if set(map(type, values)) <= {int} and values == list(range(n)):
            surfaces: list = list(mapping)
        else:
            surfaces = [None] * n
            for surface, token_id in mapping.items():
                if not isinstance(token_id, int) or isinstance(token_id, bool):
                    raise VtError(f"non-integer id for token {surface!r:.40}")
                if not 0 <= token_id < n:
                    raise VtError(f"non-dense ids: id {token_id!r:.40} outside [0, {n})")
                if surfaces[token_id] is not None:
                    raise VtError(f"duplicate id {token_id} "
                                  f"({surfaces[token_id]!r:.40} and {surface!r:.40})")
                surfaces[token_id] = surface
        text = "".join(surfaces)  # n distinct ids in [0, n) fill every slot
        return cls(text=text,  # 4-byte offsets while they fit
                   starts=array("I" if len(text) < 1 << 32 else "q",
                                accumulate(map(len, surfaces), initial=0)),
                   byte_ids=tuple(mapping.get(c, -1) for c in BYTE_TO_CHAR))


@dataclass(frozen=True)
class Merges:
    """Ranked merges in token-id space; rank equals position in the list.

    ``ranks`` maps a pair's key, ``left_id * vocab.size + right_id``, to
    its rank, in rank order; ``merged[rank]`` is the id of the pair's
    result. No string or tuple is kept per merge.
    """

    vocab: Vocabulary
    ranks: dict[int, int]
    merged: array

    @property
    def pairs(self) -> tuple[tuple[str, str], ...]:
        """The (LEFT, RIGHT) surfaces of every merge in rank order."""
        surface, width = self.vocab.surface, self.vocab.size
        return tuple((surface(key // width), surface(key % width)) for key in self.ranks)

    @classmethod
    def from_pairs(cls, pairs: Iterable[Sequence[str]], vocab: Vocabulary,
                   ids: dict[str, int] | None = None) -> "Merges":
        """The table of ``pairs`` in rank order. Both parts of a pair and
        their concatenation must be tokens, and no pair may repeat.
        ``ids`` is ``vocab.ids`` unless given: ``load_vocab`` passes the
        map it loaded, so that map is never rebuilt."""
        ids, width = vocab.ids if ids is None else ids, vocab.size
        ranks: dict[int, int] = {}
        merged: list[int] = []
        for left, right in pairs:
            left_id, right_id, result = ids.get(left), ids.get(right), ids.get(left + right)
            if left_id is None or right_id is None:
                part = left if left_id is None else right
                raise VtError(f"merge part {part!r:.40} not in vocabulary")
            rank = len(merged)
            if ranks.setdefault(left_id * width + right_id, rank) != rank:
                raise VtError(f"duplicate merge pair {left!r:.40} {right!r:.40}")
            if result is None:
                raise VtError(f"merge result {left + right!r:.40} not in vocabulary")
            merged.append(result)
        # One conversion, as a per-merge array.append is slower than
        # list.append; 4-byte ids, as no vocabulary of 2**32 tokens loads.
        return cls(vocab=vocab, ranks=ranks, merged=array("I", merged))


def load_vocab(vocab_path: str, merges_path: str) -> tuple[Vocabulary, Merges]:
    """Load and validate a vocabulary JSON file and a merges text file.

    The vocabulary file is a JSON object mapping token surface strings to
    integer ids. The merges file holds one "LEFT RIGHT" pair per line in
    rank order; a first line starting with "#" and blank lines are
    ignored. The table is built as the lines are read; an error names the
    first line that breaks a rule of ``Merges.from_pairs``, or the
    vocabulary file whose map breaks a rule of ``Vocabulary.from_mapping``.
    """
    raw = read_json(vocab_path, "vocabulary")
    try:
        vocab = Vocabulary.from_mapping(raw)
    except VtError as e:
        raise VtError(f"malformed vocabulary file {vocab_path}: {e}") from e
    lineno = 0

    def pairs(lines: Iterable[str]) -> Iterator[list[str]]:
        nonlocal lineno
        for lineno, line in enumerate(lines, start=1):
            line = line.rstrip("\n")
            if not line or (lineno == 1 and line.startswith("#")):
                continue
            fields = line.split(" ")
            if len(fields) != 2:
                raise VtError(f"expected 'LEFT RIGHT', got {line!r:.40}")
            yield fields  # no tuple per merge: from_pairs unpacks the list

    try:
        with open(merges_path, encoding="utf-8") as f:
            return vocab, Merges.from_pairs(pairs(f), vocab, raw)
    except FileNotFoundError:
        raise VtError(f"merges file not found: {merges_path}") from None
    except UnicodeDecodeError as e:
        raise VtError(f"merges file {merges_path} is not valid UTF-8: {e}") from e
    except VtError as e:
        raise VtError(f"{merges_path}:{lineno}: {e}") from None


def _apply_merges(ids: list[int], merges: Merges) -> list[int]:
    # Merge the lowest-ranked adjacent pair, every occurrence left to right,
    # until no pair has a rank. Symbols sit in a doubly linked list over
    # their original positions: a merge writes the merged id into the left
    # node and unlinks the right one. The heap holds (rank, left position)
    # for every ranked pair ever formed; a neighbour's merge makes an entry
    # stale, so a popped entry is checked against the pair now at its
    # position, which is exact because each rank belongs to one pair. A
    # rank's sites pop in position order, so overlapping runs resolve left
    # to right. The pairs its merges form are pushed only after those sites
    # are used up: ranks need not follow creation order, and such a pair
    # may outrank the merge that formed it, yet a rescan would only see it
    # in the next round. Each merge pushes at most two entries, so encoding
    # costs O(n log n).
    ranks, merged, width = merges.ranks, merges.merged, merges.vocab.size
    n = len(ids)
    sym = list(ids)  # -1 marks a merged-away node; its keys are negative
    nxt = list(range(1, n + 1))  # n: no successor
    prv = list(range(-1, n - 1))  # -1: no predecessor
    heap = [(r, i) for i, (a, b) in enumerate(zip(ids, ids[1:]))
            if (r := ranks.get(a * width + b)) is not None]
    heapq.heapify(heap)
    while heap:
        rank = heap[0][0]
        sites = []
        while heap and heap[0][0] == rank:
            i = heapq.heappop(heap)[1]
            j = nxt[i]
            if j == n or ranks.get(sym[i] * width + sym[j]) != rank:
                continue  # stale
            sym[i] = merged[rank]
            sym[j] = -1
            nxt[i] = nxt[j]
            if nxt[j] < n:
                prv[nxt[j]] = i
            sites.append(i)
        for i in {left for i in sites for left in (prv[i], i) if left >= 0}:
            j = nxt[i]
            if j < n and (r := ranks.get(sym[i] * width + sym[j])) is not None:
                heapq.heappush(heap, (r, i))
    return [s for s in sym if s >= 0]


def encode(text: str, vocab: Vocabulary, merges: Merges) -> list[int]:
    """Encode UTF-8 text to token ids.

    Raises VtError if a byte's stand-in is not a token: no merge part can
    be one, so it would survive merging as a symbol outside the vocabulary.
    """
    try:
        data = text.encode("utf-8")
    except UnicodeEncodeError as e:
        raise VtError(f"input is not encodable as UTF-8: {e}") from e
    byte_ids = vocab.byte_ids
    ids = [byte_ids[b] for b in data]
    if -1 in ids:
        symbol = BYTE_TO_CHAR[data[ids.index(-1)]]
        raise VtError(f"symbol {symbol!r} not in vocabulary after merging")
    return _apply_merges(ids, merges)


def decode_bytes(ids: list[int], vocab: Vocabulary) -> bytes:
    """Map token ids to their underlying byte sequence (always defined)."""
    joined = "".join(vocab.surface(i) for i in ids)
    try:
        return joined.translate(_STAND_IN_TO_LATIN1).encode("latin-1")
    except UnicodeEncodeError as e:  # translate keeps positions: one char per char
        raise VtError(f"surface contains non byte-level symbol {joined[e.start]!r}") from None


def decode(ids: list[int], vocab: Vocabulary) -> str:
    """Decode token ids back to the original UTF-8 string."""
    raw = decode_bytes(ids, vocab)
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise VtError(f"decoded bytes are not valid UTF-8 (partial multi-byte sequence): {e}") from e


def token_texts(vocab: Vocabulary, first: int = 0) -> Iterator[str | None]:
    """The text each token's underlying bytes spell, from id ``first`` on,
    in id order. A token's text is None when its bytes are not valid UTF-8
    on their own (e.g. a lone continuation byte), which is a value rather
    than an error: script filtering treats such a token as unclassifiable.
    One translate of ``vocab.text`` serves every token: a translate keeps
    positions, so each token's slice of the result is its own translation."""
    latin, starts = vocab.text.translate(_STAND_IN_TO_LATIN1), vocab.starts
    return (_spelled(latin[a:b]) for a, b in zip(starts[first:], starts[first + 1:]))


def _spelled(latin: str) -> str | None:
    try:
        return latin.encode("latin-1").decode("utf-8")
    except UnicodeError:  # a character that is no stand-in, or invalid UTF-8
        return None
