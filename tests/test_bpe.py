import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_vocab
from vtrim import bpe
from vtrim.errors import VtError


def test_byte_table_matches_reference_everywhere():
    ref = oracles.ref_byte_table()
    for b in range(256):
        assert bpe.BYTE_TO_CHAR[b] == ref[b]


def test_byte_table_is_a_bijection():
    assert len(set(bpe.BYTE_TO_CHAR)) == 256
    vocab = make_vocab(list(bpe.BYTE_TO_CHAR))  # id b is byte b's stand-in
    for b in range(256):
        assert bpe.decode_bytes([b], vocab) == bytes([b])
    assert bpe.decode_bytes(list(range(256)), vocab) == bytes(range(256))


def test_byte_table_printable_ranges_map_to_themselves():
    for b in (
        list(range(0x21, 0x7F)) + list(range(0xA1, 0xAD)) + list(range(0xAE, 0x100))
    ):
        assert bpe.BYTE_TO_CHAR[b] == chr(b)


def test_byte_table_remapped_bytes_take_consecutive_codepoints():
    remapped = [b for b in range(256) if bpe.BYTE_TO_CHAR[b] != chr(b)]
    # ascending byte order, codepoints 256, 257, ...
    for offset, b in enumerate(remapped):
        assert bpe.BYTE_TO_CHAR[b] == chr(256 + offset)
    assert bpe.BYTE_TO_CHAR[0x20] == chr(288)


def test_vocabulary_from_mapping_minimal():
    vocab = bpe.Vocabulary.from_mapping({"a": 0, "b": 1, "ab": 2})
    assert vocab.size == 3
    assert vocab.surface(2) == "ab"


def test_vocabulary_rejects_non_dense_ids():
    with pytest.raises(VtError, match="non-dense"):
        bpe.Vocabulary.from_mapping({"a": 0, "b": 2})


def test_vocabulary_rejects_duplicate_ids():
    with pytest.raises(VtError, match="duplicate id"):
        bpe.Vocabulary.from_mapping({"a": 0, "b": 0})


def test_vocabulary_rejects_non_integer_ids():
    with pytest.raises(VtError, match="non-integer"):
        bpe.Vocabulary.from_mapping({"a": 0, "b": "1"})
    with pytest.raises(VtError, match="non-integer"):
        bpe.Vocabulary.from_mapping({"a": 0, "b": True})


def test_vocabulary_surface_range_check():
    vocab = make_vocab(["a", "b"])
    with pytest.raises(VtError, match="out of range"):
        vocab.surface(2)
    with pytest.raises(VtError, match="out of range"):
        vocab.surface(-1)


def test_merges_reject_pair_without_concatenation():
    vocab = make_vocab(["a", "b"])
    with pytest.raises(VtError, match="not in vocabulary"):
        bpe.Merges.from_pairs([("a", "b")], vocab)


def test_merges_reject_duplicate_pair():
    vocab = make_vocab(["a", "b", "ab"])
    with pytest.raises(VtError, match="duplicate merge"):
        bpe.Merges.from_pairs([("a", "b"), ("a", "b")], vocab)


def test_load_vocab_demo_files(demo):
    vocab, merges = demo
    assert vocab.size >= 300
    assert len(merges.pairs) > 0
    # every byte symbol is present, so any UTF-8 text is encodable
    for b in range(256):
        assert bpe.BYTE_TO_CHAR[b] in vocab.ids


def test_load_vocab_missing_files(tmp_path, data_dir):
    with pytest.raises(VtError, match="not found"):
        bpe.load_vocab(str(tmp_path / "nope.json"), str(data_dir / "demo_merges.txt"))
    with pytest.raises(VtError, match="not found"):
        bpe.load_vocab(str(data_dir / "demo_vocab.json"), str(tmp_path / "nope.txt"))


def test_load_vocab_rejects_bad_merge_line(tmp_path):
    vocab_path = tmp_path / "v.json"
    vocab_path.write_text('{"a": 0, "b": 1, "ab": 2}', encoding="utf-8")
    merges_path = tmp_path / "m.txt"
    merges_path.write_text("a b extra\n", encoding="utf-8")
    with pytest.raises(VtError, match="expected 'LEFT RIGHT'"):
        bpe.load_vocab(str(vocab_path), str(merges_path))


def test_load_vocab_header_and_blank_lines(tmp_path):
    vocab_path = tmp_path / "v.json"
    vocab_path.write_text('{"a": 0, "b": 1, "ab": 2}', encoding="utf-8")
    merges_path = tmp_path / "m.txt"
    merges_path.write_text("#version: test\n\na b\n\n", encoding="utf-8")
    _, merges = bpe.load_vocab(str(vocab_path), str(merges_path))
    assert merges.pairs == (("a", "b"),)


def _tiny():
    vocab = make_vocab(["a", "b", "ab"])
    merges = bpe.Merges.from_pairs([("a", "b")], vocab)
    return vocab, merges


def test_encode_applies_merge():
    vocab, merges = _tiny()
    assert bpe.encode("ab", vocab, merges) == [2]


def test_encode_empty_string():
    vocab, merges = _tiny()
    assert bpe.encode("", vocab, merges) == []


def test_encode_merge_never_applicable():
    vocab, merges = _tiny()
    assert bpe.encode("ba", vocab, merges) == [1, 0]


def test_encode_lowest_rank_first():
    # merging (b, c) first starves the later (a, b) merge
    vocab = make_vocab(["a", "b", "c", "ab", "bc", "abc"])
    merges = bpe.Merges.from_pairs([("b", "c"), ("a", "bc")], vocab)
    assert bpe.encode("abc", vocab, merges) == [5]
    merges = bpe.Merges.from_pairs([("a", "b"), ("b", "c")], vocab)
    assert bpe.encode("abc", vocab, merges) == [3, 2]


def test_encode_merges_all_occurrences_left_to_right():
    vocab = make_vocab(["a", "b", "ab"])
    merges = bpe.Merges.from_pairs([("a", "b")], vocab)
    assert bpe.encode("abab", vocab, merges) == [2, 2]
    # overlapping sites resolve left to right
    vocab = make_vocab(["a", "aa"])
    merges = bpe.Merges.from_pairs([("a", "a")], vocab)
    assert bpe.encode("aaa", vocab, merges) == [1, 0]


def test_encode_rejects_symbol_missing_from_vocab():
    vocab = make_vocab(["a", "b", "ab"])
    merges = bpe.Merges.from_pairs([("a", "b")], vocab)
    with pytest.raises(VtError, match="not in vocabulary"):
        bpe.encode("abc", vocab, merges)


def test_encode_is_deterministic(demo):
    vocab, merges = demo
    text = "здравей свят hello world"
    assert bpe.encode(text, vocab, merges) == bpe.encode(text, vocab, merges)


def test_encode_ids_in_range(demo):
    vocab, merges = demo
    for text in ("кот", "hello", "今天天气", "a b c"):
        for i in bpe.encode(text, vocab, merges):
            assert 0 <= i < vocab.size


def test_decode_round_trips_cyrillic(demo):
    vocab, merges = demo
    assert bpe.decode(bpe.encode("Здравей", vocab, merges), vocab) == "Здравей"


def test_decode_rejects_out_of_range_id(demo):
    vocab, _ = demo
    with pytest.raises(VtError, match="out of range"):
        bpe.decode([vocab.size], vocab)


def _byte_vocab():
    return make_vocab(list(bpe.BYTE_TO_CHAR))


def test_decode_rejects_partial_multibyte_sequence():
    vocab = _byte_vocab()
    merges = bpe.Merges.from_pairs([], vocab)
    ids = bpe.encode("к", vocab, merges)
    assert len(ids) == 2
    with pytest.raises(VtError, match="not valid UTF-8"):
        bpe.decode(ids[:1], vocab)


def test_decode_bytes_is_total_on_any_ids():
    vocab = _byte_vocab()
    merges = bpe.Merges.from_pairs([], vocab)
    ids = bpe.encode("к", vocab, merges)
    assert bpe.decode_bytes(ids[:1], vocab) == "к".encode("utf-8")[:1]


_STAND_INS = st.sampled_from(bpe.BYTE_TO_CHAR)
# Stand-ins, other characters below U+0200, a surrogate and anything else.
_SYMBOLS = st.one_of(_STAND_INS, st.characters(max_codepoint=0x1FF), st.just("\ud800"),
                     st.characters())


@given(st.lists(_SYMBOLS, max_size=8))
@settings(max_examples=500, deadline=None)
def test_decode_bytes_agrees_with_byte_table_definition(surfaces):
    vocab = make_vocab(list(dict.fromkeys(surfaces)))
    ids = [vocab.ids[s] for s in surfaces]
    want = oracles.ref_decode_bytes(surfaces)
    if isinstance(want, bytes):
        assert bpe.decode_bytes(ids, vocab) == want
    else:
        with pytest.raises(VtError, match=re.escape(f"non byte-level symbol {want!r}") + "$"):
            bpe.decode_bytes(ids, vocab)


def test_token_codepoints_ascii():
    assert bpe.token_text("ab") == "ab"


def test_token_codepoints_space_prefixed_cyrillic():
    surface = "".join(bpe.BYTE_TO_CHAR[b] for b in " кот".encode("utf-8"))
    assert bpe.token_text(surface) == " кот"


def test_token_codepoints_invalid_sequences_yield_none():
    assert bpe.token_text(bpe.BYTE_TO_CHAR[0x80]) is None  # lone continuation
    assert bpe.token_text(bpe.BYTE_TO_CHAR[0xD0]) is None  # dangling lead
    assert bpe.token_text("漢") is None  # not a byte-level surface at all
    # Below U+0100 but not stand-ins: bytes 0x20 and 0xAD map to U+0120 and
    # U+0143, so a raw space or soft hyphen is no byte-level surface either.
    for stray in (" ", "\xad", "\x00", "\x7f", "a b", "a\xad"):
        assert bpe.token_text(stray) is None, repr(stray)


_VALID_UTF8 = st.text(max_size=4).map(
    lambda t: "".join(bpe.BYTE_TO_CHAR[b] for b in t.encode("utf-8")))


@given(st.lists(st.one_of(_VALID_UTF8, _STAND_INS, st.characters()), max_size=6).map("".join))
@settings(max_examples=500, deadline=None)
def test_token_codepoints_agrees_with_byte_table_definition(surface):
    assert bpe.token_text(surface) == oracles.ref_token_text(surface)


@given(st.text(max_size=80))
@settings(max_examples=300, deadline=None)
def test_round_trip_property(s):
    vocab = _byte_vocab()
    merges = bpe.Merges.from_pairs([], vocab)
    assert bpe.decode(bpe.encode(s, vocab, merges), vocab) == s


@given(st.text(alphabet="abкд ", max_size=30), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_encode_agrees_with_reference_encoder(text, seed):
    import random

    rng = random.Random(seed)
    surfaces = sorted({bpe.BYTE_TO_CHAR[b] for b in "abкд ".encode("utf-8")})
    pairs = []
    for _ in range(rng.randrange(0, 8)):
        left = rng.choice(surfaces)
        right = rng.choice(surfaces)
        if (left, right) in pairs:
            continue
        pairs.append((left, right))
        if left + right not in surfaces:
            surfaces.append(left + right)
    vocab = make_vocab(surfaces)
    merges = bpe.Merges.from_pairs(pairs, vocab)
    assert bpe.encode(text, vocab, merges) == oracles.ref_encode(
        text, vocab.ids, merges.pairs
    )


def test_encode_defers_pairs_ranked_below_the_merge_that_formed_them():
    # ("ab", "a") ranks first but only forms once ("a", "b") merges. Every
    # ("a", "b") site merges before the encoder looks at lower ranks again,
    # so "abab" becomes [ab, ab], not [aba, b].
    vocab = make_vocab(["a", "b", "ab", "aba"])
    merges = bpe.Merges.from_pairs([("ab", "a"), ("a", "b")], vocab)
    assert bpe.encode("abab", vocab, merges) == [2, 2]
    assert bpe.encode("abab", vocab, merges) == oracles.ref_encode(
        "abab", vocab.ids, merges.pairs
    )


_LADDER = [("a", "a"), ("aa", "aa"), ("aa", "a"), ("a", "aa"), ("aaaa", "aaaa")]


@pytest.mark.parametrize("order", [
    [0, 1, 2, 3, 4], [4, 3, 2, 1, 0], [1, 0, 4, 2, 3], [2, 3, 0, 1, 4], [0], [0, 1],
])
def test_encode_resolves_overlapping_runs_like_reference(order):
    pairs = [_LADDER[i] for i in order]
    vocab = make_vocab(["a", "aa", "aaa", "aaaa", "aaaaaaaa"])
    merges = bpe.Merges.from_pairs(pairs, vocab)
    for n in list(range(1, 40)) + [255, 256, 257, 3001]:
        text = "a" * n
        assert bpe.encode(text, vocab, merges) == oracles.ref_encode(
            text, vocab.ids, merges.pairs
        ), (order, n)


@st.composite
def _shuffled_table_and_text(draw):
    """A merge table built by random pair creation, then ranked in a
    shuffled order (so a merge may rank below the pairs it forms), and a
    text of up to a few thousand bytes mixing random symbols with runs."""
    import random

    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    alphabet = draw(st.sampled_from(["a", "ab", "abк"]))
    surfaces = sorted({bpe.BYTE_TO_CHAR[b] for b in alphabet.encode("utf-8")})
    pairs = []
    for _ in range(rng.randrange(0, 16)):
        left, right = rng.choice(surfaces), rng.choice(surfaces)
        if (left, right) in pairs:
            continue
        pairs.append((left, right))
        if left + right not in surfaces:
            surfaces.append(left + right)
    rng.shuffle(pairs)
    chunks: list[str] = []
    length = draw(st.sampled_from([8, 60, 3000]))
    while sum(map(len, chunks)) < length:
        c = rng.choice(alphabet)
        chunks.append(c * rng.randrange(1, 12) if rng.random() < 0.3 else c)
    return surfaces, pairs, "".join(chunks)


@given(_shuffled_table_and_text())
@settings(max_examples=200, deadline=None)
def test_encode_agrees_with_reference_on_shuffled_rank_tables(case):
    surfaces, pairs, text = case
    vocab = make_vocab(surfaces)
    merges = bpe.Merges.from_pairs(pairs, vocab)
    assert bpe.encode(text, vocab, merges) == oracles.ref_encode(
        text, vocab.ids, merges.pairs
    )
