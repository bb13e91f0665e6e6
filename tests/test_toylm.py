import contextlib
import math
import os
import platform
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import oracles
from vtrim import bpe, toylm
from vtrim.errors import VtError
from vtrim.subvocab import build_mapping, full_vocabulary
from vtrim.toylm import (
    DecodeResult,
    ModelConfig,
    ModelWeights,
    count_params,
    forward_logits,
    greedy_decode,
    init_random,
    load_model,
    project_rows,
    save_model,
    trim_model,
)


def _tensors(model):
    ts = [model.embedding]
    for blk in model.blocks:
        ts += [blk.ln1_w, blk.ln1_b, blk.wq, blk.wk, blk.wv, blk.wo,
               blk.ln2_w, blk.ln2_b, blk.w1, blk.w2]
    ts += [model.lnf_w, model.lnf_b]
    if model.output is not None:
        ts.append(model.output)
    return ts


def test_config_rejects_indivisible_heads():
    with pytest.raises(VtError, match="divisible"):
        ModelConfig(vocab_size=10, hidden=8, layers=1, heads=3, max_context=4)


def test_config_dimension_bounds():
    with pytest.raises(VtError):
        ModelConfig(vocab_size=0, hidden=8, layers=1, heads=2, max_context=4)
    with pytest.raises(VtError):
        ModelConfig(vocab_size=10, hidden=8, layers=-1, heads=2, max_context=4)
    cfg = ModelConfig(vocab_size=10, hidden=8, layers=0, heads=2, max_context=4)
    assert cfg.layers == 0


def test_init_random_is_deterministic():
    cfg = ModelConfig(vocab_size=32, hidden=8, layers=2, heads=2, max_context=16)
    a = init_random(cfg, seed=7)
    b = init_random(cfg, seed=7)
    for ta, tb in zip(_tensors(a), _tensors(b)):
        assert ta.tobytes() == tb.tobytes()


def test_init_random_seeds_differ():
    cfg = ModelConfig(vocab_size=32, hidden=8, layers=1, heads=2, max_context=16)
    a = init_random(cfg, seed=1)
    b = init_random(cfg, seed=2)
    assert not np.array_equal(a.embedding, b.embedding)


@pytest.mark.parametrize("tied", [True, False])
@pytest.mark.parametrize("layers", [0, 1, 2])
def test_init_random_matches_documented_draw_order(tied, layers):
    # Independent recomputation: N(0, 0.02) float32 matrices drawn in the
    # README's file order, LayerNorm weights ones and biases zeros.
    cfg = ModelConfig(vocab_size=12, hidden=8, layers=layers, heads=2,
                      max_context=4, tied_embeddings=tied)
    model = init_random(cfg, seed=5)
    rng = np.random.default_rng(5)

    def draw(*shape):
        return rng.standard_normal(shape, dtype=np.float32) * np.float32(0.02)

    ones, zeros = np.ones(8, dtype=np.float32), np.zeros(8, dtype=np.float32)
    want = [("embedding", model.embedding, draw(12, 8))]
    for i, blk in enumerate(model.blocks):
        want += [
            (f"{i}.ln1_w", blk.ln1_w, ones), (f"{i}.ln1_b", blk.ln1_b, zeros),
            (f"{i}.wq", blk.wq, draw(8, 8)), (f"{i}.wk", blk.wk, draw(8, 8)),
            (f"{i}.wv", blk.wv, draw(8, 8)), (f"{i}.wo", blk.wo, draw(8, 8)),
            (f"{i}.ln2_w", blk.ln2_w, ones), (f"{i}.ln2_b", blk.ln2_b, zeros),
            (f"{i}.w1", blk.w1, draw(8, 32)), (f"{i}.w2", blk.w2, draw(32, 8)),
        ]
    want += [("lnf_w", model.lnf_w, ones), ("lnf_b", model.lnf_b, zeros)]
    if tied:
        assert model.output is None
    else:
        want.append(("output", model.output, draw(12, 8)))
    assert len(model.blocks) == layers
    for name, got, expected in want:
        assert got.dtype == np.float32, name
        assert got.tobytes() == expected.tobytes(), name


def test_init_weights_are_float32():
    cfg = ModelConfig(vocab_size=8, hidden=4, layers=1, heads=1, max_context=4)
    for t in _tensors(init_random(cfg, seed=0)):
        assert t.dtype == np.float32


def test_count_params_matches_reference():
    for tied in (True, False):
        cfg = ModelConfig(
            vocab_size=100, hidden=16, layers=3, heads=4, max_context=8,
            tied_embeddings=tied,
        )
        vocab_params, total = count_params(cfg)
        assert total == oracles.ref_param_count(100, 16, 3, tied)
        assert vocab_params == 100 * 16 * (1 if tied else 2)


def test_count_params_matches_actual_tensor_sizes():
    for tied in (True, False):
        cfg = ModelConfig(
            vocab_size=50, hidden=8, layers=2, heads=2, max_context=4,
            tied_embeddings=tied,
        )
        model = init_random(cfg, seed=0)
        _, total = count_params(cfg)
        assert total == sum(t.size for t in _tensors(model))


def test_save_load_round_trip(tmp_path):
    for tied in (True, False):
        cfg = ModelConfig(
            vocab_size=20, hidden=8, layers=2, heads=2, max_context=6,
            tied_embeddings=tied,
        )
        model = init_random(cfg, seed=3)
        path = str(tmp_path / f"m_{tied}.vtlm")
        save_model(path, model)
        loaded = load_model(path)
        assert loaded.config == cfg
        for ta, tb in zip(_tensors(model), _tensors(loaded)):
            assert ta.tobytes() == tb.tobytes()


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.vtlm"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(VtError, match="bad magic"):
        load_model(str(path))


def test_load_rejects_unknown_version(tmp_path):
    import struct

    path = tmp_path / "v9.vtlm"
    header = struct.pack("<IIIIIIB", 9, 4, 2, 0, 1, 4, 1)
    path.write_bytes(toylm.MAGIC + header)
    with pytest.raises(VtError, match="version"):
        load_model(str(path))


def test_load_rejects_truncated_file(tmp_path):
    cfg = ModelConfig(vocab_size=8, hidden=4, layers=1, heads=1, max_context=4)
    path = str(tmp_path / "t.vtlm")
    save_model(path, init_random(cfg, seed=0))
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[: len(blob) // 2])
    with pytest.raises(VtError, match="truncated"):
        load_model(path)


def test_load_rejects_trailing_data(tmp_path):
    cfg = ModelConfig(vocab_size=8, hidden=4, layers=1, heads=1, max_context=4)
    path = str(tmp_path / "t.vtlm")
    save_model(path, init_random(cfg, seed=0))
    with open(path, "ab") as f:
        f.write(b"\x00")
    with pytest.raises(VtError, match="trailing"):
        load_model(path)


def test_load_missing_file(tmp_path):
    with pytest.raises(VtError, match="not found"):
        load_model(str(tmp_path / "absent.vtlm"))


def test_load_checks_the_sub_vocabulary_from_the_header(tmp_path):
    import struct

    cfg = ModelConfig(vocab_size=64, hidden=8, layers=1, heads=2, max_context=8)
    sub = build_mapping(set(range(10)), 64)
    path = str(tmp_path / "trimmed.vtlm")
    save_model(path, trim_model(init_random(cfg, seed=0), sub))
    assert load_model(path, sub).config.vocab_size == 10
    # A header with no tensors after it: the size check comes before any read.
    bare = tmp_path / "bare.vtlm"
    bare.write_bytes(toylm.MAGIC + struct.pack("<IIIIIIB", 1, 64, 8, 1, 2, 8, 1))
    with pytest.raises(VtError) as exc:
        load_model(str(bare), sub)
    assert str(exc.value) == f"model file {bare} has vocab size 64, the sub-vocabulary has 10"


def test_positions_match_documented_formula():
    for hidden in (8, 7):
        got = toylm._sinusoidal_positions(0, 5, hidden)
        assert got.shape == (5, hidden)
        assert got.dtype == np.float32
        for t in range(5):
            for i in range(hidden):
                freq = math.exp(-2.0 * math.log(10000.0) * (i // 2) / hidden)
                angle = t * freq
                want = math.sin(angle) if i % 2 == 0 else math.cos(angle)
                assert got[t, i] == pytest.approx(want, abs=1e-6)


def test_position_rows_do_not_depend_on_the_table_length():
    # A pass computes only the rows of its new positions; each must be the
    # bytes a pass from position 0 computes for it, whatever the range.
    for hidden in (7, 8, 512):
        longest = toylm._sinusoidal_positions(0, 300, hidden)
        for a, b in ((0, 1), (0, 300), (5, 6), (17, 260), (255, 256), (100, 300)):
            got = toylm._sinusoidal_positions(a, b, hidden)
            assert got.tobytes() == longest[a:b].tobytes(), (hidden, a, b)


def test_max_context_in_the_header_does_not_size_memory():
    # A header may claim a context of 2**32 - 1 positions; decoding a short
    # prompt must give the same ids as at 64, and allocate as little.
    ids = []
    for max_context in (64, 2**32 - 1):
        cfg = ModelConfig(vocab_size=64, hidden=16, layers=2, heads=2,
                          max_context=max_context)
        model = init_random(cfg, seed=11)
        tracemalloc.start()
        try:
            ids.append(greedy_decode(model, [3, 1, 4, 1, 5], 12, eos=2).ids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert ids[0] == ids[1]
    assert peak < 2**20


def test_forward_logits_shape_and_validation():
    cfg = ModelConfig(vocab_size=16, hidden=8, layers=1, heads=2, max_context=4)
    model = init_random(cfg, seed=0)
    assert forward_logits(model, [0, 1]).shape == (16,)
    with pytest.raises(VtError, match="non-empty"):
        forward_logits(model, [])
    with pytest.raises(VtError, match="max_context"):
        forward_logits(model, [0] * 5)
    with pytest.raises(VtError, match="ids must lie"):
        forward_logits(model, [16])


def test_forward_logits_deterministic():
    cfg = ModelConfig(vocab_size=16, hidden=8, layers=2, heads=2, max_context=8)
    model = init_random(cfg, seed=5)
    a = forward_logits(model, [1, 2, 3])
    b = forward_logits(model, [1, 2, 3])
    assert np.array_equal(a, b)


def test_layer_free_model_matches_reference_forward():
    # independent float64 recomputation of the L=0 path
    rng = np.random.default_rng(11)
    cfg = ModelConfig(vocab_size=13, hidden=6, layers=0, heads=1, max_context=9)
    model = ModelWeights(
        config=cfg,
        embedding=rng.normal(size=(13, 6)).astype(np.float32),
        blocks=[],
        lnf_w=rng.normal(size=6).astype(np.float32),
        lnf_b=rng.normal(size=6).astype(np.float32),
    )
    context = [3, 7, 0, 12]
    got = forward_logits(model, context)

    pos = np.zeros((len(context), 6))
    for t in range(len(context)):
        for i in range(6):
            freq = math.exp(-2.0 * math.log(10000.0) * (i // 2) / 6)
            pos[t, i] = math.sin(t * freq) if i % 2 == 0 else math.cos(t * freq)
    x = model.embedding.astype(np.float64)[context] + pos
    h = x[-1]
    mean = sum(h) / 6
    var = sum((v - mean) ** 2 for v in h) / 6
    normed = [(v - mean) / math.sqrt(var + 1e-5) for v in h]
    affine = [n * w + b for n, w, b in zip(normed, model.lnf_w, model.lnf_b)]
    want = [
        sum(float(model.embedding[r, c]) * affine[c] for c in range(6))
        for r in range(13)
    ]
    assert got == pytest.approx(want, rel=1e-4, abs=1e-5)


def _ref_forward64(model, context):
    """Independent float64 recomputation of forward_logits."""
    cfg = model.config
    n, h, heads = len(context), cfg.hidden, cfg.heads
    d = h // heads

    def f(a):
        return np.asarray(a, dtype=np.float64)

    def ln(x, w, b):
        mu = x.mean(axis=-1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
        return (x - mu) / np.sqrt(var + 1e-5) * f(w) + f(b)

    x = f(model.embedding)[context] + f(toylm._sinusoidal_positions(0, n, h))
    mask = np.triu(np.full((n, n), -np.inf), k=1)
    for blk in model.blocks:
        a = ln(x, blk.ln1_w, blk.ln1_b)
        q, k, v = ((a @ f(w)).reshape(n, heads, d).transpose(1, 0, 2)
                   for w in (blk.wq, blk.wk, blk.wv))
        s = q @ k.transpose(0, 2, 1) / math.sqrt(d) + mask
        p = np.exp(s - s.max(axis=-1, keepdims=True))
        p /= p.sum(axis=-1, keepdims=True)
        x = x + (p @ v).transpose(1, 0, 2).reshape(n, h) @ f(blk.wo)
        u = ln(x, blk.ln2_w, blk.ln2_b) @ f(blk.w1)
        gelu = 0.5 * u * (1 + np.tanh(math.sqrt(2 / math.pi) * (u + 0.044715 * u**3)))
        x = x + gelu @ f(blk.w2)
    return f(model.output_matrix) @ ln(x, model.lnf_w, model.lnf_b)[-1]


def test_forward_logits_match_float64_reference(small_model, demo_case):
    # Uncached, prefill and cached steps: the last block runs its MLP on the
    # last position only, and every position must still reach the cache.
    for model, prompts in ((small_model, [[3, 4], [1], [5, 6, 7, 8, 9]]), demo_case):
        for prompt in prompts[:3]:
            context = list(prompt)
            cache = toylm._KVCache(model.config, len(prompt) + 3)
            for _ in range(4):
                want = _ref_forward64(model, context)
                scale = np.abs(want).max()
                for got in (forward_logits(model, context),
                            forward_logits(model, context, cache=cache)):
                    assert np.abs(got - want).max() <= 1e-5 * scale
                context.append(int(np.argmax(want)))


# project_rows runs GEMVs of 1024 rows: whole blocks, then a last block that
# overlaps the one before it, or one zero-padded block below 1024 rows. H of
# 512 and 1024 are the benchmark models' hidden sizes.
_WIDE_V = 3 * 1024 + 37


def test_project_rows_survives_row_deletion():
    rng = np.random.default_rng(0)
    for rows, hidden in ((257, 33), (1023, 33), (1024, 33), (1025, 33),
                         (_WIDE_V, 33), (_WIDE_V, 65), (_WIDE_V, 8), (_WIDE_V, 512),
                         (2085, 1024)):
        w = rng.standard_normal((rows, hidden)).astype(np.float32)
        v = rng.standard_normal(hidden).astype(np.float32)
        full = project_rows(w, v)
        subsets = [[0], [5, rows - 1], list(range(0, rows, 3)), list(range(1, rows)),
                   list(range(rows - 1))]
        subsets += [sorted(rng.choice(rows, size=n, replace=False)) for n in (700, 1500)
                    if n < rows]
        for kept in subsets + [list(rng.permutation(rows)), list(range(rows))[::-1]]:
            assert project_rows(w[kept], v).tobytes() == full[kept].tobytes(), (rows, hidden)


def test_project_rows_runs_on_one_blas_thread_and_restores_the_count(monkeypatch):
    # With two BLAS threads every 1024-row call would hand half its rows to
    # a worker thread, and each hand-off can wait for a busy CPU.
    set_threads = toylm._set_blas_threads
    seen = []

    def record(threads):
        seen.append(threads)
        return set_threads(threads)

    before = set_threads(2)
    try:
        monkeypatch.setattr(toylm, "_set_blas_threads", record)
        w = np.ones((_WIDE_V, 16), dtype=np.float32)
        project_rows(w, np.ones(16, dtype=np.float32))
        assert seen == [1, 2]  # one thread for the calls, then the count put back
        # The setter reaches OpenBLAS: it returns the count in force (2),
        # where the stand-in used without OpenBLAS echoes its argument (1).
        assert set_threads(1) == 2
    finally:
        set_threads(before)


def test_short_passes_run_on_one_blas_thread_and_long_prefills_keep_the_count(monkeypatch):
    # Decode steps and short prompts make many sub-millisecond BLAS calls;
    # a second thread would make each of them wait for a second CPU.
    set_threads = toylm._set_blas_threads
    seen = []

    def record(threads):
        seen.append(threads)
        return set_threads(threads)

    cfg = ModelConfig(vocab_size=100, hidden=8, layers=2, heads=2, max_context=80)
    model = init_random(cfg, seed=3)
    long = toylm._THREADED_POSITIONS
    before = set_threads(2)
    try:
        monkeypatch.setattr(toylm, "_set_blas_threads", record)
        cache = toylm._KVCache(cfg, long + 1)
        forward_logits(model, list(range(long)), cache=cache)
        assert seen == [1, 2]  # the prefill: only the projection on one thread
        seen.clear()
        forward_logits(model, list(range(long + 1)), cache=cache)
        assert seen == [1, 1, 1, 2]  # the step on one thread, the count put back
        seen.clear()
        forward_logits(model, [1, 2, 3])
        assert seen == [1, 1, 1, 2]
        assert set_threads(2) == 2
    finally:
        set_threads(before)


@pytest.mark.parametrize("rows,hidden", [
    (1, 5), (1000, 33), (2048, 8), (2048 + 37, 33), (_WIDE_V, 65), (5 * 1024 + 1, 17),
])
def test_project_rows_matches_float64_reference(rows, hidden):
    # A slicing fault that full and trimmed runs share (say, a wrong tail
    # offset) passes every bitwise test; this one compares with float64.
    rng = np.random.default_rng(rows * hidden)
    w = rng.standard_normal((rows, hidden)).astype(np.float32)
    v = rng.standard_normal(hidden).astype(np.float32)
    got = project_rows(w, v)
    w64, v64 = w.astype(np.float64), v.astype(np.float64)
    assert got.shape == (rows,) and got.dtype == np.float32
    # A float32 dot product of H terms errs by at most about H * 6e-8 times
    # the sum of |terms|, under 4e-6 of it for H <= 65.
    assert np.all(np.abs(got - w64 @ v64) <= 1e-5 * (np.abs(w64) @ np.abs(v64)))


def test_trim_model_gathers_rows():
    cfg = ModelConfig(vocab_size=6, hidden=2, layers=0, heads=1, max_context=4)
    model = init_random(cfg, seed=0)
    sub = build_mapping({0, 3}, 6)
    trimmed = trim_model(model, sub)
    assert trimmed.config.vocab_size == 2
    assert np.array_equal(trimmed.embedding, model.embedding[[0, 3]])
    assert trimmed.embedding.tobytes() == model.embedding[[0, 3]].tobytes()


def test_trim_model_identity_is_identity():
    cfg = ModelConfig(vocab_size=6, hidden=4, layers=1, heads=2, max_context=4)
    model = init_random(cfg, seed=2)
    trimmed = trim_model(model, full_vocabulary(6))
    assert trimmed.config == cfg
    assert trimmed.embedding.tobytes() == model.embedding.tobytes()
    # non-vocabulary tensors are shared, not copied
    assert trimmed.blocks[0].wq is model.blocks[0].wq
    assert trimmed.lnf_w is model.lnf_w


def test_trim_model_untied_slices_both_matrices():
    cfg = ModelConfig(
        vocab_size=6, hidden=2, layers=0, heads=1, max_context=4,
        tied_embeddings=False,
    )
    model = init_random(cfg, seed=0)
    sub = build_mapping({1, 4, 5}, 6)
    trimmed = trim_model(model, sub)
    assert np.array_equal(trimmed.embedding, model.embedding[[1, 4, 5]])
    assert np.array_equal(trimmed.output, model.output[[1, 4, 5]])


def test_trim_model_rejects_empty_and_mismatched():
    cfg = ModelConfig(vocab_size=6, hidden=2, layers=0, heads=1, max_context=4)
    model = init_random(cfg, seed=0)
    with pytest.raises(VtError, match="empty"):
        trim_model(model, build_mapping(set(), 6))
    with pytest.raises(VtError, match="built for"):
        trim_model(model, build_mapping({0}, 7))


# (|V|, H, kept ids). The 3109-row sets cross the block edges at 1024, 2048
# and 3072 and the tail block's start at 2085, keeping fewer and more than
# 1024 rows; the last case has the benchmark models' hidden size.
_TRIM_CASES = [
    (48, 8, set(range(10)) | {17, 33, 47}),
    (_WIDE_V, 8, set(range(10)) | set(range(1000, 1050)) | set(range(2040, 2100))
     | set(range(3060, _WIDE_V))),
    (_WIDE_V, 8, set(range(10)) | set(range(900, 2150)) | set(range(3070, _WIDE_V))),
    (_WIDE_V, 512, set(range(10)) | set(range(900, 2150)) | set(range(3070, _WIDE_V))),
]


def test_trimmed_logits_bitwise_equal_kept_rows():
    for vocab_size, hidden, kept in _TRIM_CASES:
        cfg = ModelConfig(vocab_size=vocab_size, hidden=hidden, layers=2, heads=2,
                          max_context=8)
        model = init_random(cfg, seed=9)
        sub = build_mapping(kept, vocab_size)
        trimmed = trim_model(model, sub)
        context = [4, 9, 2]
        full = forward_logits(model, context)
        small = forward_logits(trimmed, [sub.to_new(i) for i in context])
        assert np.array_equal(small, full[list(sub.kept)]), (vocab_size, sub.size)


def test_remap_output_examples():
    # greedy_decode maps its new ids back through kept: new id j is kept[j].
    sub = build_mapping({0, 5, 9}, 10)
    cfg = ModelConfig(vocab_size=3, hidden=4, layers=1, heads=1, max_context=8)
    model = init_random(cfg, seed=0)
    assert greedy_decode(model, [0, 5, 9], 0, eos=9, sub=sub).ids == [0, 5, 9]
    assert greedy_decode(model, [], 0, eos=9, sub=sub).ids == []
    new_ids = greedy_decode(model, [2, 1], 6, eos=2).ids
    assert set(new_ids[2:]) == {0, 1, 2}  # the decode emits every new id
    assert greedy_decode(model, [9, 5], 6, eos=9, sub=sub).ids == [sub.kept[j] for j in new_ids]
    with pytest.raises(VtError, match="not in the sub-vocabulary"):
        greedy_decode(model, [3], 0, eos=9, sub=sub)


def test_greedy_decode_max_new_zero():
    cfg = ModelConfig(vocab_size=16, hidden=4, layers=0, heads=1, max_context=8)
    model = init_random(cfg, seed=0)
    result = greedy_decode(model, [3, 1], max_new=0, eos=2)
    assert result.ids == [3, 1]


def test_greedy_decode_length_budget():
    cfg = ModelConfig(vocab_size=16, hidden=4, layers=1, heads=1, max_context=32)
    model = init_random(cfg, seed=4)
    result = greedy_decode(model, [1], max_new=6, eos=2)
    assert len(result.ids) <= 1 + 6


def test_greedy_decode_stops_after_appending_eos():
    cfg = ModelConfig(vocab_size=16, hidden=4, layers=1, heads=1, max_context=32)
    model = init_random(cfg, seed=4)
    free = greedy_decode(model, [1], max_new=3, eos=0)
    if len(free.ids) == 4:  # eos never came up; force it
        eos = free.ids[1]
        result = greedy_decode(model, [1], max_new=3, eos=eos)
        assert result.ids == [1, eos]
    else:
        assert free.ids[-1] == 0


def test_greedy_decode_breaks_ties_toward_lowest_id():
    cfg = ModelConfig(vocab_size=4, hidden=2, layers=0, heads=1, max_context=4)
    emb = np.array([[-1.0, -1.0], [5.0, 5.0], [-1.0, -1.0], [5.0, 5.0]], dtype=np.float32)
    model = ModelWeights(
        config=cfg,
        embedding=emb,
        blocks=[],
        lnf_w=np.ones(2, dtype=np.float32),
        lnf_b=np.zeros(2, dtype=np.float32),
    )
    logits = forward_logits(model, [0])
    ties = np.flatnonzero(logits == logits.max())
    assert len(ties) >= 2  # duplicated rows guarantee an exact tie
    result = greedy_decode(model, [0], max_new=1, eos=3)
    assert result.ids[-1] == ties[0]


def test_greedy_decode_determinism():
    cfg = ModelConfig(vocab_size=32, hidden=8, layers=2, heads=2, max_context=16)
    model = init_random(cfg, seed=8)
    a = greedy_decode(model, [5, 2], max_new=8, eos=1)
    b = greedy_decode(model, [5, 2], max_new=8, eos=1)
    assert a.ids == b.ids


def test_decode_result_stays_in_original_id_space(small_model):
    full = greedy_decode(small_model, [3, 4], max_new=8, eos=2)
    kept = set(range(5)) | set(full.ids)
    sub = build_mapping(kept, 64)
    trimmed = trim_model(small_model, sub)
    again = greedy_decode(trimmed, [3, 4], max_new=8, eos=2, sub=sub)
    assert again.ids == full.ids


def test_trimmed_decode_requires_prompt_and_eos_in_sub(small_model):
    sub = build_mapping(set(range(10)), 64)
    trimmed = trim_model(small_model, sub)
    with pytest.raises(VtError, match="not in the sub-vocabulary"):
        greedy_decode(trimmed, [50], max_new=2, eos=2, sub=sub)
    with pytest.raises(VtError, match="eos"):
        greedy_decode(trimmed, [3], max_new=2, eos=63, sub=sub)


def test_trimmed_decode_rejects_size_mismatch(small_model):
    for sub, space in ((build_mapping(set(range(10)), 64), "the sub-vocabulary's size 10"),
                       (full_vocabulary(63), "the tokenizer's size 63")):
        with pytest.raises(VtError, match=f"does not match {space}$"):
            greedy_decode(small_model, [3], max_new=1, eos=2, sub=sub)


def test_excluding_a_generated_token_forces_divergence(small_model):
    full = greedy_decode(small_model, [3, 4], max_new=8, eos=2)
    generated = full.ids[2:]
    assert len(generated) >= 2, "seed must generate at least two tokens"
    victim = generated[1]
    assert victim not in (2, 3, 4)
    kept = (set(range(64)) - {victim}) | {2, 3, 4}
    sub = build_mapping(kept, 64)
    trimmed = trim_model(small_model, sub)
    diverged = greedy_decode(trimmed, [3, 4], max_new=8, eos=2, sub=sub)
    assert diverged.ids[:3] == full.ids[:3]  # first step still agrees
    assert diverged.ids != full.ids
    assert victim not in diverged.ids


def test_decode_result_dataclass():
    r = DecodeResult(ids=[1, 2])
    assert r.ids == [1, 2]


# --- KV-cached decoding -------------------------------------------------

# Largest |cached - uncached| logit allowed. The cached step multiplies one
# row where the uncached pass multiplies the whole context, so BLAS may sum
# in another order; measured drift was at most 1.5e-7 on these models.
CACHE_DRIFT_BOUND = 1e-5


@pytest.fixture(scope="module")
def demo_case(demo, demo_prompts):
    """The README walkthrough's model and the first bundled prompts."""
    cfg = ModelConfig(vocab_size=602, hidden=64, layers=2, heads=4, max_context=128)
    vocab, merges = demo
    prompts = [bpe.encode(r["text"], vocab, merges) for r in demo_prompts[:8]]
    return init_random(cfg, seed=0), prompts


@pytest.fixture(params=["small", "demo"])
def decode_case(request, small_model):
    if request.param == "small":
        return small_model, [[3, 4], [1], [5, 6, 7, 8, 9]]
    return request.getfixturevalue("demo_case")


def test_cached_decode_matches_uncached_loop(decode_case):
    model, prompts = decode_case
    max_new, eos = 16, 2
    worst = 0.0
    for prompt in prompts:
        ids = list(prompt)
        cache = toylm._KVCache(model.config, len(prompt) + max_new - 1)
        for _ in range(max_new):
            uncached = forward_logits(model, ids)
            cached = forward_logits(model, ids, cache=cache)
            worst = max(worst, float(np.abs(cached - uncached).max()))
            ids.append(int(np.argmax(uncached)))
            if ids[-1] == eos:
                break
        assert greedy_decode(model, prompt, max_new, eos).ids == ids
    assert worst < CACHE_DRIFT_BOUND


def test_cached_prefill_is_bitwise_uncached(decode_case):
    model, prompts = decode_case
    for prompt in prompts:
        cache = toylm._KVCache(model.config, len(prompt) + 3)
        got = forward_logits(model, prompt, cache=cache)
        assert got.tobytes() == forward_logits(model, prompt).tobytes()
        assert cache.length == len(prompt)


def _ref_forward32(model, context, ends):
    """forward_logits over context[:end] for each end in turn, the passes
    sharing keys and values as a cache does, written with whole-array
    float32 ops: a fresh array from every op, no tiles, no in-place
    writes. Each pass runs under the same BLAS thread rule."""
    cfg = model.config
    h, heads = cfg.hidden, cfg.heads
    dh = h // heads
    keys = [np.empty((heads, ends[-1], dh), dtype=np.float32) for _ in model.blocks]
    values = [np.empty((heads, ends[-1], dh), dtype=np.float32) for _ in model.blocks]

    def ln(x, w, b):
        mean = x.mean(axis=-1, keepdims=True, dtype=np.float32)
        centered = x - mean
        var = (centered * centered).mean(axis=-1, keepdims=True, dtype=np.float32)
        return centered / np.sqrt(var + np.float32(1e-5)) * w + b

    out, start = [], 0
    for end in ends:
        t = end - start
        one = t < toylm._THREADED_POSITIONS
        with toylm._one_blas_thread() if one else contextlib.nullcontext():
            x = model.embedding[np.asarray(context[start:end])] + toylm._sinusoidal_positions(
                start, end, h)
            causal = np.triu(np.full((t, end), -np.inf, dtype=np.float32), k=start + 1)
            for i, blk in enumerate(model.blocks):
                a = ln(x, blk.ln1_w, blk.ln1_b)
                keys[i][:, start:end] = (a @ blk.wk).reshape(t, heads, dh).transpose(1, 0, 2)
                values[i][:, start:end] = (a @ blk.wv).reshape(t, heads, dh).transpose(1, 0, 2)
                # The last block queries from the last position alone.
                r = 1 if i == cfg.layers - 1 else t
                q = (a[t - r:] @ blk.wq).reshape(r, heads, dh).transpose(1, 0, 2)
                scores = q @ keys[i][:, :end].transpose(0, 2, 1) / np.float32(math.sqrt(dh))
                shifted = scores + causal[t - r:]
                shifted = shifted - shifted.max(axis=-1, keepdims=True)
                e = np.exp(shifted)
                attn = e / e.sum(axis=-1, keepdims=True, dtype=np.float32)
                x = x[t - r:] + (attn @ values[i][:, :end]).transpose(1, 0, 2).reshape(r, h) @ blk.wo
                u = ln(x, blk.ln2_w, blk.ln2_b) @ blk.w1
                c = np.float32(math.sqrt(2.0 / math.pi))
                gelu = np.float32(0.5) * u * (
                    np.float32(1.0) + np.tanh(c * (u + np.float32(0.044715) * u * u * u)))
                x = x + gelu @ blk.w2
            x = ln(x[-1:], model.lnf_w, model.lnf_b)
            out.append(project_rows(model.output_matrix, x[-1]))
        start = end
    return out


# New positions on both sides of each 32-row tile edge and of the
# 64-position BLAS thread threshold.
@pytest.mark.parametrize("new", [1, 31, 32, 33, 64, 65, 97])
def test_tiled_forward_is_bitwise_the_whole_array_reference(small_model, demo_case, new):
    # small_model's weights with room for 5 + 97 positions.
    small = replace(small_model, config=replace(small_model.config, max_context=128))
    rng = np.random.default_rng(new)
    for model in (small, demo_case[0]):
        context = rng.integers(0, model.config.vocab_size, size=5 + new).tolist()
        want = _ref_forward32(model, context[:new], [new])[0]
        assert forward_logits(model, context[:new]).tobytes() == want.tobytes()
        # Extend a cache that already holds 5 positions by all the new ones.
        cache = toylm._KVCache(model.config, len(context))
        got = [forward_logits(model, context[:5], cache=cache),
               forward_logits(model, context, cache=cache)]
        want = _ref_forward32(model, context, [5, len(context)])
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


_REPEAT_PREFILL = """
import resource
from vtrim import toylm
model = toylm.init_random(toylm.ModelConfig(1000, 512, 2, 8, 256), seed=0)
prompt = [i % 1000 for i in range(240)]
toylm.greedy_decode(model, prompt, 2, eos=-1)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
toylm.greedy_decode(model, prompt, 2, eos=-1)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's mallopt only")
def test_a_repeated_prefill_reuses_the_heap():
    # In a fresh process, so no earlier test shapes the heap. With glibc's
    # dynamic thresholds the second prefill faulted in over 1,600 pages.
    src = str(Path(toylm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _REPEAT_PREFILL], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    assert int(proc.stdout) < 300


@pytest.mark.parametrize("tied", [True, False])
def test_forward_passes_write_no_model_tensor(tied):
    cfg = ModelConfig(vocab_size=64, hidden=16, layers=2, heads=2, max_context=80,
                      tied_embeddings=tied)
    model = init_random(cfg, seed=3)
    tensors = _tensors(model)
    before = [t.tobytes() for t in tensors]
    context = [i % 64 for i in range(70)]
    forward_logits(model, context)  # uncached
    cache = toylm._KVCache(cfg, len(context) + 2)
    forward_logits(model, context, cache=cache)  # prefill
    forward_logits(model, context + [5], cache=cache)  # cached step
    forward_logits(model, context + [5, 6], cache=cache)
    assert [t.tobytes() for t in tensors] == before


@pytest.mark.parametrize("tied", [True, False])
def test_cached_trimmed_logits_stay_bitwise_kept_rows(tied):
    for vocab_size, hidden, kept in _TRIM_CASES:
        cfg = ModelConfig(vocab_size=vocab_size, hidden=hidden, layers=2, heads=2,
                          max_context=16, tied_embeddings=tied)
        model = init_random(cfg, seed=9)
        sub = build_mapping(kept, vocab_size)
        trimmed = trim_model(model, sub)
        context = [4, 9, 2]
        full_cache = toylm._KVCache(cfg, 12)
        trim_cache = toylm._KVCache(trimmed.config, 12)
        for _ in range(10):
            full = forward_logits(model, context, cache=full_cache)
            small = forward_logits(trimmed, [sub.to_new(i) for i in context], cache=trim_cache)
            assert small.tobytes() == full[list(sub.kept)].tobytes(), (vocab_size, sub.size)
            context.append(sub.kept[int(np.argmax(small))])


def test_cache_rejects_context_that_does_not_extend_it(small_model):
    cache = toylm._KVCache(small_model.config, 5)
    forward_logits(small_model, [1, 2, 3], cache=cache)
    for context in ([1, 2, 3], [1, 2], [1, 2, 3, 4, 5, 6]):
        with pytest.raises(VtError, match="must extend"):
            forward_logits(small_model, context, cache=cache)
    assert cache.length == 3
    want = forward_logits(small_model, [1, 2, 3, 4])
    got = forward_logits(small_model, [1, 2, 3, 4], cache=cache)
    assert np.abs(got - want).max() < CACHE_DRIFT_BOUND


def test_greedy_decode_checks_context_budget_up_front(small_model, monkeypatch):
    # small_model has max_context 32: a 29-token prompt feeds at most
    # 29 + 4 - 1 = 32 positions for 4 new tokens, a 30-token one 33.
    assert len(greedy_decode(small_model, [1] * 29, max_new=4, eos=2).ids) - 29 >= 1

    def no_forward(*args, **kwargs):
        raise AssertionError("forward pass ran before the budget check")

    monkeypatch.setattr(toylm, "forward_logits", no_forward)
    with pytest.raises(VtError, match="max_context 32"):
        greedy_decode(small_model, [1] * 30, max_new=4, eos=2)
    assert len(greedy_decode(small_model, [1] * 40, max_new=0, eos=2).ids) - 40 == 0


@pytest.mark.parametrize("existing", [False, True])
def test_failed_save_leaves_no_partial_file(tmp_path, existing):
    cfg = ModelConfig(vocab_size=50, hidden=8, layers=2, heads=2, max_context=8)
    model = init_random(cfg, seed=0)
    model.blocks[1].w1 = model.blocks[1].w1[:, :-1]  # raises after block 0 is written
    path = tmp_path / "m.vtlm"
    if existing:
        path.write_bytes(b"previous")
    with pytest.raises(VtError, match="shape"):
        save_model(str(path), model)
    assert sorted(p.name for p in tmp_path.iterdir()) == (["m.vtlm"] if existing else [])
    if existing:
        assert path.read_bytes() == b"previous"


def test_greedy_decode_rejects_nan_weight(small_model):
    blocks = [replace(blk) for blk in small_model.blocks]
    blocks[0].w1 = blocks[0].w1.copy()
    blocks[0].w1[0, 0] = np.nan
    broken = replace(small_model, blocks=blocks)
    with pytest.raises(VtError, match="non-finite logit nan at decode step 0"):
        greedy_decode(broken, [5, 6], max_new=5, eos=1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_greedy_decode_names_the_step_of_a_non_finite_winner(small_model, monkeypatch, bad):
    calls = []

    def fake_forward(model, context, cache=None):
        calls.append(len(context))
        logits = np.zeros(model.config.vocab_size, dtype=np.float32)
        logits[3] = 1.0
        if len(calls) == 3 and bad < 0:
            logits[:] = bad  # all -inf: argmax lands on id 0
        elif len(calls) == 3:
            logits[7] = bad
        return logits

    monkeypatch.setattr(toylm, "forward_logits", fake_forward)
    with pytest.raises(VtError, match="decode step 2"):
        greedy_decode(small_model, [1], max_new=5, eos=2)
    assert len(calls) == 3


def test_greedy_decode_accepts_non_finite_losers(small_model, monkeypatch):
    def fake_forward(model, context, cache=None):
        logits = np.full(model.config.vocab_size, -np.inf, dtype=np.float32)
        logits[4] = 0.5
        return logits

    monkeypatch.setattr(toylm, "forward_logits", fake_forward)
    assert greedy_decode(small_model, [1], max_new=3, eos=2).ids == [1, 4, 4, 4]
