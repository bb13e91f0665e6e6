import json
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from vtrim import metrics
from vtrim.errors import VtError
from vtrim.metrics import (
    EvalReport,
    embedding_fraction,
    format_gib,
    memory_footprint,
    miss_count,
    o_bleu,
    o_chrf,
)
from vtrim.toylm import ModelConfig, count_params, init_random

# Frozen outputs of the exact-arithmetic reference implementations in
# oracles.py. Regenerate by calling the ref_* functions on these inputs.
BLEU_CASES = [
    (["the cat sat on mat"], ["the cat sat on the mat"], "en", 57.89300674674097),
    (
        ["he ate the apple", "a quick brown fox ran"],
        ["he ate an apple", "the quick brown fox runs fast"],
        "en",
        27.954242789228463,
    ),
    (["the big black cat sat down"], ["the black cat sat"], "en", 32.46679154750989),
    (["a b x c"], ["a b c d"], "en", 35.35533905932737),
    (["今天天气很好"], ["今天天气真好"], "zh", 53.7284965911771),
]
CHRF_CASES = [
    (["the cat sat on mat"], ["the cat sat on the mat"], 66.91951006882776),
    (["abcd"], ["abce"], 47.916666666666664),
    (["hello"], ["help"], 35.87662337662338),
    (
        ["he ate the apple", "a quick brown fox ran"],
        ["he ate an apple", "the quick brown fox runs fast"],
        55.562858028065044,
    ),
    (["今天天气很好"], ["今天天气真好"], 37.77777777777778),
]


def test_miss_count():
    assert miss_count(["a", "b"], ["a", "b"]) == 0
    assert miss_count(["a", "b"], ["a", "c"]) == 1
    assert miss_count(["a"], ["a "]) == 1  # exact string compare, no stripping


def test_miss_count_rejects_length_mismatch():
    with pytest.raises(VtError):
        miss_count(["a"], ["a", "b"])


@pytest.mark.parametrize("hyps,refs,lang,want", BLEU_CASES)
def test_bleu_matches_frozen_reference(hyps, refs, lang, want):
    assert o_bleu(hyps, refs, lang=lang) == pytest.approx(want, abs=1e-4)
    # and the reference still reproduces its own frozen value
    assert oracles.ref_bleu(hyps, refs, lang=lang) == pytest.approx(want, abs=1e-9)


def test_bleu_identity_is_exactly_100():
    assert o_bleu(["ab cd"], ["ab cd"]) == 100.0
    assert o_bleu(["x"], ["x"]) == 100.0


def test_bleu_disjoint_is_exactly_0():
    assert o_bleu(["x y z"], ["a b c"]) == 0.0


def test_bleu_empty_sides():
    assert o_bleu([""], [""]) == 100.0
    assert o_bleu([""], ["a b"]) == 0.0


def test_bleu_rejects_degenerate_corpora():
    with pytest.raises(VtError):
        o_bleu([], [])
    with pytest.raises(VtError):
        o_bleu(["a"], ["a", "b"])


@pytest.mark.parametrize("hyps,refs,want", CHRF_CASES)
def test_chrf_matches_frozen_reference(hyps, refs, want):
    assert o_chrf(hyps, refs) == pytest.approx(want, abs=1e-4)
    assert oracles.ref_chrf(hyps, refs) == pytest.approx(want, abs=1e-9)


def test_chrf_identity_is_exactly_100():
    assert o_chrf(["hello world"], ["hello world"]) == 100.0
    assert o_chrf(["ab"], ["ab"]) == 100.0  # shorter than the max n-gram order


def test_chrf_disjoint_is_exactly_0():
    assert o_chrf(["aaaa"], ["zzzz"]) == 0.0


def test_chrf_whitespace_only_pair_counts_as_identical():
    assert o_chrf(["   "], ["\t"]) == 100.0


def test_chrf_ignores_whitespace_differences():
    assert o_chrf(["ab cd"], ["abcd"]) == 100.0


# Latin, Cyrillic and CJK letters, and whitespace runs of several kinds;
# a small alphabet so that hypothesis and reference share n-grams.
_LINES = st.text(alphabet="abc абв 天气好\t\n\u3000", max_size=16)
_CORPORA = st.integers(1, 4).flatmap(
    lambda n: st.tuples(st.lists(_LINES, min_size=n, max_size=n),
                        st.lists(_LINES, min_size=n, max_size=n))
)


@given(_CORPORA, st.sampled_from(["en", "zh"]))
@settings(max_examples=300, deadline=None)
def test_scores_match_the_exact_references_on_random_corpora(corpus, lang):
    hyps, refs = corpus
    assert o_bleu(hyps, refs, lang=lang) == pytest.approx(
        oracles.ref_bleu(hyps, refs, lang=lang), abs=1e-9)
    assert o_chrf(hyps, refs) == pytest.approx(oracles.ref_chrf(hyps, refs), abs=1e-9)


def test_memory_footprint_exact_values():
    assert memory_footprint(250680, 1024) == 250680 * 1024 * 4 / 2**30
    assert memory_footprint(32000, 4096) == 32000 * 4096 * 4 / 2**30
    assert memory_footprint(2**28, 1) == 1.0


def test_memory_footprint_linear_in_vocab_size():
    base = memory_footprint(22912, 1024)
    assert memory_footprint(2 * 22912, 1024) == 2 * base
    assert memory_footprint(22912, 512) == base / 2


def test_memory_footprint_validation():
    with pytest.raises(VtError):
        memory_footprint(0, 1024)
    with pytest.raises(VtError):
        memory_footprint(100, 0)


def test_format_gib_rounds_half_up():
    # footprints are exact binary rationals, so ties only look like x.xx5
    # when the value is k/2^n; those round up
    assert format_gib(0.125) == "0.13"
    assert format_gib(0.375) == "0.38"
    assert format_gib(memory_footprint(250680, 1024)) == "0.96"
    assert format_gib(memory_footprint(250680, 4096)) == "3.83"
    assert format_gib(0.0) == "0.00"


def test_embedding_fraction_tied_and_untied():
    tied = ModelConfig(
        vocab_size=100, hidden=16, layers=2, heads=4, max_context=8
    )
    vocab_params, total = count_params(tied)
    assert embedding_fraction(tied) == vocab_params / total
    untied = ModelConfig(
        vocab_size=100, hidden=16, layers=2, heads=4, max_context=8,
        tied_embeddings=False,
    )
    assert embedding_fraction(untied) > embedding_fraction(tied)


def test_embedding_fraction_against_materialized_model():
    cfg = ModelConfig(vocab_size=60, hidden=8, layers=1, heads=2, max_context=4)
    model = init_random(cfg, seed=0)
    total = sum(
        t.size
        for t in [model.embedding, model.lnf_w, model.lnf_b]
        + [getattr(model.blocks[0], n) for n in
           ("ln1_w", "ln1_b", "wq", "wk", "wv", "wo", "ln2_w", "ln2_b", "w1", "w2")]
    )
    assert embedding_fraction(cfg) == model.embedding.size / total


def test_eval_report_round_trip():
    report = EvalReport(
        n_prompts=50,
        miss=3,
        o_bleu=91.25,
        o_chrf=95.5,
        subvocab_size=22912,
        language="bg",
        method="unicode",
    )
    payload = json.loads(json.dumps(asdict(report)))
    assert payload["miss"] == 3
    assert EvalReport(**payload) == report


def test_eval_report_optional_fields_default_to_none():
    report = EvalReport(n_prompts=1, miss=0, o_bleu=100.0, o_chrf=100.0)
    assert (report.subvocab_size, report.language, report.method) == (None, None, None)


def test_eval_report_validates_ranges():
    with pytest.raises(VtError):
        EvalReport(n_prompts=1, miss=2, o_bleu=50.0, o_chrf=50.0)
    with pytest.raises(VtError):
        EvalReport(n_prompts=1, miss=0, o_bleu=101.0, o_chrf=50.0)
    with pytest.raises(VtError):
        EvalReport(n_prompts=1, miss=0, o_bleu=50.0, o_chrf=-0.5)


def test_metrics_module_has_no_scorer_dependencies():
    # self-contained on purpose; stdlib plus the local error type only
    import vtrim.metrics as m

    assert not hasattr(m, "sacrebleu")
    assert not hasattr(m, "nltk")
