import re

import pytest

from vtrim.bench import BenchResult, output_layer_scaling, time_end_to_end
from vtrim.errors import VtError
from vtrim.subvocab import build_mapping
from vtrim.toylm import ModelConfig, greedy_decode, init_random, save_model, trim_model

CONFIG = ModelConfig(vocab_size=64, hidden=16, layers=1, heads=2, max_context=48)


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("bench") / "m.vtlm")
    save_model(path, init_random(CONFIG, seed=1))
    return path


def test_bench_result_rejects_negative_phase_times():
    with pytest.raises(VtError, match="non-negative"):
        BenchResult(
            load_seconds=-0.1,
            decode_seconds=0.1,
            tokens_generated=1,
            vocab_size_used=4,
            repeats=1,
        )
    result = BenchResult(load_seconds=0.25, decode_seconds=0.5, tokens_generated=1,
                         vocab_size_used=4, repeats=1)
    assert result.end_to_end_seconds == 0.75


def test_time_end_to_end_full_model(model_path):
    result, outputs = time_end_to_end(
        model_path, None, [[3, 4], [9]], max_new=4, repeats=3
    )
    assert result.vocab_size_used == 64
    assert result.repeats == 3
    assert result.end_to_end_seconds == result.load_seconds + result.decode_seconds
    assert len(outputs) == 2
    assert result.tokens_generated == sum(len(o) for o in outputs) - 3


def test_time_end_to_end_matches_direct_decode(model_path):
    # timing must not alter outputs
    direct = greedy_decode(init_random(CONFIG, seed=1), [3, 4], max_new=4, eos=2).ids
    _, outputs = time_end_to_end(model_path, None, [[3, 4]], max_new=4, repeats=2)
    assert outputs == [direct]


def test_time_end_to_end_trimmed(tmp_path):
    # A trimmed run serves the file trim wrote and decodes as the in-memory
    # trimmed model does, in original-id space.
    sub = build_mapping(set(range(64)) - {63}, 64)
    trimmed = trim_model(init_random(CONFIG, seed=1), sub)
    path = str(tmp_path / "trimmed.vtlm")
    save_model(path, trimmed)
    prompts = [[3, 4], [9]]
    result, outputs = time_end_to_end(path, sub, prompts, max_new=4, repeats=3)
    assert result.vocab_size_used == 63
    assert outputs == [greedy_decode(trimmed, p, max_new=4, eos=2, sub=sub).ids
                       for p in prompts]


def test_time_end_to_end_rejects_a_model_of_another_size(model_path):
    sub = build_mapping(set(range(10)), 64)
    with pytest.raises(VtError, match=re.escape(f"model file {model_path} has vocab size 64")):
        time_end_to_end(model_path, sub, [], max_new=1, repeats=1)


def test_time_end_to_end_outputs_stable_across_repeat_counts(model_path):
    _, a = time_end_to_end(model_path, None, [[5]], max_new=6, repeats=2)
    _, b = time_end_to_end(model_path, None, [[5]], max_new=6, repeats=4)
    assert a == b


def test_time_end_to_end_zero_prompts(model_path):
    result, outputs = time_end_to_end(model_path, None, [], max_new=4, repeats=2)
    assert outputs == []
    assert result.tokens_generated == 0


def test_time_end_to_end_validates_repeats(model_path):
    with pytest.raises(VtError, match="repeats"):
        time_end_to_end(model_path, None, [[1]], max_new=1, repeats=0)


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
