import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_vocab, spell, stand_ins, tiny_bpe
from vtrim import bpe, subvocab
from vtrim.errors import VtError
from vtrim.subvocab import (
    PRESETS,
    ScriptSpec,
    SubVocabulary,
    build_mapping,
    corpus_select,
    full_vocabulary,
    load_subvocab,
    oracle_select,
    save_subvocab,
    script_filter,
    with_input_tokens,
)


def test_script_spec_normalizes_ranges():
    spec = ScriptSpec("x", [(10, 20), (15, 30), (31, 40), (100, 100)])
    assert spec.allowed_ranges == ((10, 40), (100, 100))


def test_script_spec_rejects_bad_ranges():
    with pytest.raises(VtError):
        ScriptSpec("x", [(20, 10)])
    with pytest.raises(VtError):
        ScriptSpec("x", [])
    with pytest.raises(VtError):
        ScriptSpec("x", [(-1, 5)])
    # U+10FFFF is the last codepoint: a range reaching past it is no script.
    with pytest.raises(VtError, match=r"^invalid codepoint range \[1113856, 1114112\]$"):
        ScriptSpec("x", [(0x41, 0x5A), (0x10FF00, 0x110000)])
    with pytest.raises(VtError, match=r"^invalid codepoint range \[1114112, 1179648\]$"):
        ScriptSpec("x", [(0x110000, 0x120000)])


# The script rule is applied only as ``spec.pattern.fullmatch(text)``, on
# the text a token's bytes spell; a token whose bytes are not valid UTF-8
# alone has no text and is never kept (test_script_filter_removes_invalid_utf8_beyond_base_k).
def test_script_spec_allows():
    spec = ScriptSpec("x", [(0x400, 0x4FF)])
    assert spec.pattern.fullmatch("\u0430")
    assert not spec.pattern.fullmatch("a")


def test_classify_requires_an_allowed_codepoint():
    bg = PRESETS["bg"].pattern
    assert bg.fullmatch("кот")
    assert not bg.fullmatch("cat")
    assert not bg.fullmatch("")  # nothing allowed inside
    assert not bg.fullmatch(" ")  # whitespace alone does not qualify


def test_classify_tolerates_whitespace_alongside():
    bg = PRESETS["bg"].pattern
    assert bg.fullmatch(" кот")
    assert bg.fullmatch("кот\t")
    assert not bg.fullmatch("кот!")


def test_classify_rejects_mixed_script():
    assert not PRESETS["bg"].pattern.fullmatch("котcat")
    assert not PRESETS["en"].pattern.fullmatch("abк")


def test_preset_ranges():
    assert PRESETS["bg"].allowed_ranges == ((0x0400, 0x04FF),)
    assert PRESETS["en"].allowed_ranges == ((0x0000, 0x007F),)
    assert PRESETS["es"].allowed_ranges == ((0x0000, 0x017F),)
    assert PRESETS["zh"].allowed_ranges == (
        (0x3000, 0x303F),
        (0x4E00, 0x9FFF),
        (0xFF00, 0xFFEF),
    )


def test_preset_spot_checks():
    assert PRESETS["es"].pattern.fullmatch("ñ")
    assert PRESETS["es"].pattern.fullmatch("á")
    assert not PRESETS["en"].pattern.fullmatch("ñ")
    assert PRESETS["zh"].pattern.fullmatch("好")
    assert PRESETS["zh"].pattern.fullmatch("。")  # CJK punctuation block
    assert not PRESETS["zh"].pattern.fullmatch("a")


def test_script_spec_from_json_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(
        json.dumps({"name": "greek", "allowed_ranges": [[0x370, 0x3FF]]}),
        encoding="utf-8",
    )
    spec = ScriptSpec.from_json_file(str(path))
    assert spec.name == "greek"
    assert spec.pattern.fullmatch("α")
    assert not spec.pattern.fullmatch("a")


def test_subvocabulary_mapping_round_trip():
    sub = build_mapping({0, 5, 9}, 10)
    assert sub.kept == (0, 5, 9)
    assert [sub.to_new(i) for i in (0, 5, 9)] == [0, 1, 2]
    for old in sub.kept:
        assert sub.kept[sub.to_new(old)] == old


def test_build_mapping_full_set_is_identity():
    sub = build_mapping(set(range(7)), 7)
    assert sub.kept == tuple(range(7))
    assert all(sub.to_new(i) == i for i in range(7))


def test_build_mapping_empty_set():
    sub = build_mapping(set(), 10)
    assert sub.kept == ()
    assert sub.size == 0


def test_build_mapping_rejects_out_of_range():
    with pytest.raises(VtError, match="out of range"):
        build_mapping({0, 10}, 10)
    with pytest.raises(VtError, match="out of range"):
        build_mapping({-1}, 10)


def test_subvocabulary_validates_base_k_prefix():
    with pytest.raises(VtError, match="base_k"):
        SubVocabulary(kept=(0, 2), method="custom", base_k=2, vocab_size=10)
    # clamped to |V| for tiny vocabularies
    sub = SubVocabulary(kept=(0, 1, 2), method="custom", base_k=300, vocab_size=3)
    assert sub.size == 3


def test_subvocabulary_validates_order_and_method():
    with pytest.raises(VtError, match="ascending"):
        SubVocabulary(kept=(3, 1), method="custom", base_k=0, vocab_size=10)
    with pytest.raises(VtError, match="method"):
        SubVocabulary(kept=(0,), method="bogus", base_k=0, vocab_size=10)
    with pytest.raises(VtError, match="full"):
        SubVocabulary(kept=(0, 1), method="full", base_k=0, vocab_size=3)


def test_to_new_rejects_removed_id():
    sub = build_mapping({0, 5}, 10)
    with pytest.raises(VtError, match="not in the sub-vocabulary"):
        sub.to_new(3)


def test_full_vocabulary():
    sub = full_vocabulary(5)
    assert sub.method == "full"
    assert sub.kept == tuple(range(5))
    with pytest.raises(VtError, match="^token id 5 is not in the tokenizer$"):
        sub.to_new(5)


def _script_vocab():
    # ids 0-2: specials; then one token per script situation
    surfaces = ["<pad>", "<unk>", "</s>"]
    words = ["кот", "cat", " кот", " cat", "niño", "你好", "котcat", "  "]
    for w in words:
        surfaces.append(stand_ins(w))
    surfaces.append(bpe.BYTE_TO_CHAR[0x80])  # invalid UTF-8 alone
    return make_vocab(surfaces), words


def test_script_filter_bulgarian():
    vocab, words = _script_vocab()
    sub = script_filter(vocab, PRESETS["bg"], base_k=3)
    kept_words = {words[i - 3] for i in sub.kept if i >= 3}
    assert kept_words == {"кот", " кот"}
    assert set(sub.kept) >= {0, 1, 2}


def test_script_filter_base_k_overrides_script():
    vocab, _ = _script_vocab()
    sub = script_filter(vocab, PRESETS["bg"], base_k=5)
    assert 4 in sub.kept  # "cat" retained purely by position
    assert sub.base_k == 5


def test_script_filter_removes_invalid_utf8_beyond_base_k():
    vocab, words = _script_vocab()
    sub = script_filter(vocab, PRESETS["en"], base_k=3)
    assert (3 + len(words)) not in sub.kept
    kept_words = {words[i - 3] for i in sub.kept if i >= 3 and i < 3 + len(words)}
    # "  " stays: 0x20 sits inside the en allowed range, not just whitespace
    assert kept_words == {"cat", " cat", "  "}


def test_script_filter_method_tag():
    vocab, _ = _script_vocab()
    sub = script_filter(vocab, PRESETS["bg"], base_k=3)
    assert sub.method == "unicode"
    assert sub.vocab_size == vocab.size


# Every codepoint that str.isspace accepts: what the script rule tolerates.
_WHITESPACE = [cp for cp in range(0x110000) if chr(cp).isspace()]


def test_re_whitespace_is_str_isspace():
    # The script rule's premise: its pattern spells whitespace as re's \s.
    fullmatch = re.compile(r"\s").fullmatch
    assert [cp for cp in range(0x110000) if fullmatch(chr(cp))] == _WHITESPACE


# Codepoints near the test ranges, whitespace, and anywhere in 0..0x10FFFF.
_CODEPOINTS = st.one_of(
    st.integers(0x3F0, 0x510), st.sampled_from(_WHITESPACE + [0x10FFFF]),
    st.integers(0, 0x10FFFF),
)
# Those that a token's text can hold: characters that UTF-8 encodes.
_CHARACTERS = _CODEPOINTS.filter(lambda cp: not 0xD800 <= cp <= 0xDFFF)
# Up to three ranges, plus none, some or all of the whitespace codepoints
# as ranges of their own; with all of them allowed, whitespace is never
# merely tolerated.
_RANGES = st.builds(
    lambda spans, spaces: spans + [(cp, cp) for cp in spaces],
    st.lists(st.tuples(_CODEPOINTS, _CODEPOINTS).map(sorted), max_size=3),
    st.just(_WHITESPACE) | st.lists(st.sampled_from(_WHITESPACE), max_size=4),
).filter(bool)


# Whitespace alone is kept where it is allowed and dropped where it is
# only tolerated; tolerated whitespace may surround an allowed character.
@given(ranges=_RANGES, codepoints=st.none() | st.lists(_CHARACTERS, max_size=6))
@example(ranges=[(0x9, 0x3000)], codepoints=[0x20, 0x3000])
@example(ranges=[(cp, cp) for cp in _WHITESPACE], codepoints=[0x85])
@example(ranges=[(0x400, 0x4FF)], codepoints=[0x20, 0x3000])
@example(ranges=[(0x400, 0x4FF)], codepoints=[0x2028, 0x430, 0x1680])
@settings(max_examples=500, deadline=None)
def test_script_rule_pattern_agrees_with_the_loop_rule(ranges, codepoints):
    spec = ScriptSpec("x", ranges)
    want = oracles.ref_script_keeps(codepoints, ranges)
    # One token spelling the codepoints; None stands for a lone continuation
    # byte, which is no valid UTF-8.
    raw = b"\x80" if codepoints is None else "".join(map(chr, codepoints)).encode("utf-8")
    vocab = make_vocab(["".join(bpe.BYTE_TO_CHAR[b] for b in raw)])
    assert script_filter(vocab, spec, base_k=0).kept == ((0,) if want else ())


# Surfaces: the stand-ins of a text, a prefix of them that may cut a
# character (invalid UTF-8), characters near the stand-ins (some below
# U+0100 are none, like " " and "\xad") and anywhere else, and "".
_SURFACES = st.one_of(
    st.text("aкé 你\t", max_size=4).map(stand_ins),
    st.tuples(st.text(min_size=1, max_size=3), st.integers(1, 3)).map(
        lambda cut: stand_ins(cut[0])[:cut[1]]),
    st.text(st.sampled_from(["a", bpe.BYTE_TO_CHAR[0x20], " ", "\xad", "\x00", "\x7f"]),
            min_size=1, max_size=3),
    st.text(max_size=3),
    st.just(""),
)


@given(st.lists(_SURFACES, unique=True, max_size=12), st.sampled_from(sorted(PRESETS)),
       st.integers(0, 4))
@settings(max_examples=300, deadline=None)
def test_script_filter_keeps_what_each_surface_spells_alone(surfaces, lang, base_k):
    # One translate of the joined surfaces, sliced per token, spells what
    # each surface spells as the one token of its own vocabulary.
    vocab, fullmatch = make_vocab(surfaces), PRESETS[lang].pattern.fullmatch
    first = min(base_k, len(surfaces))
    texts = [spell(s) for s in surfaces]
    assert list(bpe.token_texts(vocab, first)) == texts[first:]
    want = [i for i, text in enumerate(texts)
            if i < first or (text is not None and fullmatch(text))]
    assert script_filter(vocab, PRESETS[lang], base_k=base_k).kept == tuple(want)


def _no_pass(*_args):
    raise AssertionError("a pass ran before base_k was checked")


@pytest.mark.parametrize("select", [
    lambda vocab, merges: script_filter(vocab, PRESETS["bg"], base_k=-1),
    lambda vocab, merges: corpus_select(vocab, merges, ["ab"], base_k=-1),
    lambda vocab, merges: oracle_select(map(_no_pass, [[0]]), base_k=-1, vocab_size=vocab.size),
], ids=["script", "corpus", "oracle"])
def test_selectors_reject_negative_base_k(select, monkeypatch):
    # The base is checked before any pass: no token is decoded, no line
    # encoded and no output read.
    monkeypatch.setattr(subvocab, "token_texts", _no_pass)
    monkeypatch.setattr(subvocab, "encode", _no_pass)
    vocab, merges = tiny_bpe()
    with pytest.raises(VtError, match="base_k must be >= 0, got -1"):
        select(vocab, merges)


def test_corpus_select_records_merge_hit():
    vocab, merges = tiny_bpe()
    sub = corpus_select(vocab, merges, ["ab"], base_k=0)
    assert sub.kept == (2,)
    assert sub.method == "corpus"


def test_corpus_select_single_symbols():
    vocab, merges = tiny_bpe()
    sub = corpus_select(vocab, merges, ["ba"], base_k=0)
    assert sub.kept == (0, 1)


def test_corpus_select_empty_corpus_keeps_base_prefix():
    surfaces = [f"t{i}" for i in range(1000)]
    vocab = make_vocab(surfaces)
    merges = bpe.Merges.from_pairs([], vocab)
    sub = corpus_select(vocab, merges, [], base_k=300)
    assert sub.kept == tuple(range(300))


def test_corpus_select_reports_offending_line():
    vocab, merges = tiny_bpe()
    with pytest.raises(VtError, match="line 2"):
        corpus_select(vocab, merges, ["ab", "xyz"], base_k=0)


def test_corpus_select_monotone_in_corpus(demo):
    vocab, merges = demo
    lines = ["здравей свят", "hello world", "кот и куче"]
    small = corpus_select(vocab, merges, lines[:1], base_k=10)
    big = corpus_select(vocab, merges, lines, base_k=10)
    assert set(small.kept) <= set(big.kept)


def test_oracle_select_union_of_outputs():
    sub = oracle_select([[310, 311], [312]], base_k=300, vocab_size=1000)
    assert set(sub.kept) == set(range(300)) | {310, 311, 312}
    assert sub.method == "oracle"


def test_oracle_select_empty_outputs():
    sub = oracle_select([], base_k=0, vocab_size=1000)
    assert sub.kept == ()


def test_oracle_select_output_inside_prefix():
    sub = oracle_select([[5]], base_k=300, vocab_size=1000)
    assert sub.kept == tuple(range(300))


def test_with_input_tokens_adds_prompt_ids():
    base = build_mapping(set(range(300)), 1000)
    ext = with_input_tokens(base, [[5, 400]])
    assert set(ext.kept) == set(range(300)) | {400}
    assert ext.method == base.method
    assert ext.base_k == base.base_k


def test_with_input_tokens_idempotent_when_covered():
    base = build_mapping(set(range(300)), 1000)
    same = with_input_tokens(base, [[5, 10, 299]])
    assert same.kept == base.kept


def test_with_input_tokens_accepts_last_id():
    base = build_mapping(set(range(300)), 250680)
    ext = with_input_tokens(base, [[250679]])
    assert 250679 in ext.kept


def test_with_input_tokens_rejects_out_of_range():
    base = build_mapping(set(range(10)), 10)
    with pytest.raises(VtError, match="out of range"):
        with_input_tokens(base, [[10]])


def test_subvocab_json_round_trip(tmp_path):
    sub = build_mapping({0, 1, 2, 17, 40}, 64)
    path = tmp_path / "sub.json"
    save_subvocab(sub, str(path))
    loaded = load_subvocab(str(path))
    assert loaded == sub
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert set(payload) == {"method", "base_k", "vocab_size", "kept"}


def test_load_subvocab_rejects_corrupt_payload(tmp_path):
    path = tmp_path / "sub.json"
    path.write_text(
        json.dumps(
            {"method": "custom", "base_k": 0, "vocab_size": 5, "kept": [3, 1]}
        ),
        encoding="utf-8",
    )
    with pytest.raises(VtError, match="ascending"):
        load_subvocab(str(path))
    path.write_text(json.dumps({"method": "custom"}), encoding="utf-8")
    with pytest.raises(VtError):
        load_subvocab(str(path))


@given(st.sets(st.integers(0, 199)), st.integers(0, 10))
@settings(max_examples=200, deadline=None)
def test_mapping_invariants_hold_for_random_kept_sets(extra, base_k):
    kept = extra | set(range(base_k))
    sub = build_mapping(kept, 200, method="custom", base_k=base_k)
    assert list(sub.kept) == sorted(kept)
    # kept is the one id map: to_new inverts it, and names its id space
    # for every id it lacks, inside the vocabulary or not.
    for i in range(-3, 203):
        if i in kept:
            assert sub.to_new(i) == sub.kept.index(i)
        else:
            with pytest.raises(VtError, match=f"^token id {i} is not in {sub.space}$"):
                sub.to_new(i)
    assert sub.size <= sub.vocab_size


@given(
    st.lists(st.lists(st.integers(0, 99), max_size=5), max_size=4),
    st.lists(st.lists(st.integers(0, 99), max_size=5), max_size=4),
)
@settings(max_examples=100, deadline=None)
def test_with_input_tokens_monotone_and_idempotent(batch_a, batch_b):
    base = build_mapping(set(range(10)), 100)
    once = with_input_tokens(base, batch_a)
    assert set(once.kept) >= set(base.kept)
    twice = with_input_tokens(once, batch_a)
    assert twice.kept == once.kept
    both = with_input_tokens(once, batch_b)
    assert set(both.kept) >= set(once.kept)


def test_failed_subvocab_save_keeps_previous_file(tmp_path):
    # json cannot serialize a numpy integer, so the dump fails part-way
    # through, after the header fields are written.
    sub = SubVocabulary(kept=(0, np.int64(3)), method="custom", base_k=0, vocab_size=5)
    path = tmp_path / "sub.json"
    save_subvocab(build_mapping({0, 1}, 5), str(path))
    before = path.read_bytes()
    with pytest.raises(TypeError):
        save_subvocab(sub, str(path))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["sub.json"]
