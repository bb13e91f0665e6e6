import re
from types import SimpleNamespace

import pytest

from vtrim import bench
from vtrim.bench import output_layer_scaling, time_end_to_end
from vtrim.errors import VtError
from vtrim.subvocab import build_mapping, full_vocabulary
from vtrim.toylm import ModelConfig, greedy_decode, init_random, save_model, trim_model

CONFIG = ModelConfig(vocab_size=64, hidden=16, layers=1, heads=2, max_context=48)
FULL = full_vocabulary(64)


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("bench") / "m.vtlm")
    save_model(path, init_random(CONFIG, seed=1))
    return path


def test_time_end_to_end_full_model(model_path):
    load_s, decode_s, outputs = time_end_to_end(
        model_path, FULL, [(0, [3, 4]), (1, [9])], max_new=4, repeats=3
    )
    assert load_s >= 0.0 and decode_s >= 0.0
    assert len(outputs) == 2
    assert all(1 <= len(o) <= 4 for o in outputs)


def test_time_end_to_end_matches_direct_decode(model_path):
    # timing must not alter outputs
    direct = greedy_decode(init_random(CONFIG, seed=1), [3, 4], max_new=4, eos=2).ids
    _, _, outputs = time_end_to_end(model_path, FULL, [(0, [3, 4])], max_new=4, repeats=2)
    assert outputs == [direct[2:]]


def test_time_end_to_end_trimmed(tmp_path):
    # A trimmed run serves the file trim wrote and decodes as the in-memory
    # trimmed model does, in original-id space.
    sub = build_mapping(set(range(64)) - {63}, 64)
    trimmed = trim_model(init_random(CONFIG, seed=1), sub)
    path = str(tmp_path / "trimmed.vtlm")
    save_model(path, trimmed)
    prompts = [[3, 4], [9]]
    _, _, outputs = time_end_to_end(path, sub, list(enumerate(prompts)), max_new=4, repeats=3)
    assert outputs == [greedy_decode(trimmed, p, max_new=4, eos=2, sub=sub).ids[len(p):]
                       for p in prompts]


def test_time_end_to_end_rejects_a_model_of_another_size(model_path):
    # The load checks the file's size against the id space's, so a trimmed
    # row and a full row are each served at the size they claim.
    for sub, space in ((build_mapping(set(range(10)), 64), "the sub-vocabulary has 10"),
                       (full_vocabulary(63), "the tokenizer has 63")):
        with pytest.raises(VtError, match=re.escape(
                f"model file {model_path} has vocab size 64, {space}")):
            time_end_to_end(model_path, sub, [], max_new=1, repeats=1)


def test_time_end_to_end_names_the_prompt_a_decode_fails_on(model_path):
    prompts = [(7, [3]), (12, [3] * 48)]  # 48 + 4 - 1 positions, over max_context 48
    with pytest.raises(VtError, match=r"^prompt 12: prompt of 48 tokens"):
        time_end_to_end(model_path, FULL, prompts, max_new=4, repeats=1)


def test_time_end_to_end_outputs_stable_across_repeat_counts(model_path):
    _, _, a = time_end_to_end(model_path, FULL, [(0, [5])], max_new=6, repeats=2)
    _, _, b = time_end_to_end(model_path, FULL, [(0, [5])], max_new=6, repeats=4)
    assert a == b


def test_time_end_to_end_zero_prompts(model_path):
    _, _, outputs = time_end_to_end(model_path, FULL, [], max_new=4, repeats=2)
    assert outputs == []


def test_time_end_to_end_rejects_outputs_that_change_between_repeats(model_path, monkeypatch):
    # A decode whose output differs on the second repeat: the median run's
    # outputs would stand for outputs that were not stable.
    runs = iter(range(2))
    monkeypatch.setattr(bench, "greedy_decode",
                        lambda _model, prompt, *_args, **_kwargs:
                        SimpleNamespace(ids=prompt + [next(runs)]))
    with pytest.raises(VtError, match="^decode outputs changed between repeats$"):
        time_end_to_end(model_path, FULL, [(0, [3])], max_new=1, repeats=2)


def test_time_end_to_end_validates_repeats(model_path):
    with pytest.raises(VtError, match="repeats"):
        time_end_to_end(model_path, FULL, [(0, [1])], max_new=1, repeats=0)


def test_scaling_is_measured_at_each_size():
    results = output_layer_scaling(32, [100, 1000], trials=3)
    assert [v for v, _ in results] == [100, 1000]
    assert all(t > 0 for _, t in results)


def test_scaling_monotone_at_small_scale():
    # 50x apart is far enough to beat timer noise even on a busy box
    results = output_layer_scaling(64, [200, 10000], trials=5)
    assert results[1][1] > results[0][1]


def test_scaling_validates_arguments():
    with pytest.raises(VtError, match="trials"):
        output_layer_scaling(8, [10], trials=2)
    with pytest.raises(VtError, match=">= 1"):
        output_layer_scaling(0, [10], trials=3)
    with pytest.raises(VtError, match=">= 1"):
        output_layer_scaling(8, [0], trials=3)
    with pytest.raises(VtError, match="no vocab sizes"):
        output_layer_scaling(8, [], trials=3)


def test_scaling_rejects_a_vocab_size_past_the_u32_limit():
    # Checked before any size is measured, so no |V| x H matrix is allocated.
    with pytest.raises(VtError, match=f"^size {10**30} exceeds the u32 format limit$"):
        output_layer_scaling(8, [10, 10**30], trials=3)
