"""The benchmark's own tests, on a tiny workload that runs in seconds.

    python3 -m pytest perfbench/tests
"""
from __future__ import annotations

import copy
import os
import shutil
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import checks  # noqa: E402
import run  # noqa: E402
from workloads import Inputs, Workload, generate  # noqa: E402

sys.path.insert(0, run.SRC)

TINY = Workload(
    "tiny", vocab_size=1500, hidden=16, layers=2, heads=2, max_context=32,
    n_prompts=3, prompt_tokens=8, max_new=6, corpus_lines=4, corpus_line_words=12,
)
SEED = 5


@pytest.fixture(scope="module")
def rounds(tmp_path_factory):
    """One untraced and one traced round on the same inputs."""
    inputs = Inputs(str(tmp_path_factory.mktemp("tiny")))
    generate(TINY, SEED, inputs)
    env = dict(os.environ, PYTHONPATH=run.SRC)
    plain = run.run_round(TINY, inputs, False, env)
    traced = run.run_round(TINY, inputs, True, env)
    return inputs, plain, traced


def _failed(results) -> set[str]:
    return {name for name, errors in results if errors}


def test_traced_and_untraced_rounds_agree(rounds):
    _, plain, traced = rounds
    for side in ("full", "trim"):
        for key in ("prompt_ids", "generated", "texts"):
            assert plain[side][key] == traced[side][key]
    assert plain["prepare"]["kept_ids"] == traced["prepare"]["kept_ids"]
    assert plain["prepare"]["trimmed_sha256"] == traced["prepare"]["trimmed_sha256"]
    assert not plain["full"]["spans"] and traced["full"]["spans"]


def test_layer_spans_fit_inside_their_phase_windows(rounds):
    _, _, traced = rounds
    prep = traced["prepare"]
    lo, hi = prep["windows"]["prepare"]
    top = [(s, e) for _, s, e, parent in prep["spans"] if parent is None]
    assert top and all(lo <= s <= e <= hi for s, e in top)
    assert sum(e - s for s, e in top) <= hi - lo
    for side in ("full", "trim"):
        res = traced[side]
        (a, b), (c, d) = res["windows"]["first_token"], res["windows"]["decode"]
        assert a <= b <= c <= d
        for name, s, e, parent in res["spans"]:
            assert a <= s <= e <= d
            if name in ("bpe.load_vocab", "toylm.load_model"):
                assert e <= b
            if name == "toylm.greedy_decode" and s >= c:
                assert e <= d
        steps = [n for n, s, _, _ in res["spans"] if n == "toylm.forward_logits" and s >= c]
        assert len(steps) == sum(len(g) for g in res["generated"])


def test_per_layer_and_end_to_end_metrics_are_complete(rounds):
    inputs, plain, traced = rounds
    chars = sum(len(line) for line in run.corpus_texts(inputs)[0])
    layer = run.per_layer([traced], TINY, chars)
    assert set(layer) == set(run.LAYER_METRICS)
    assert all(v > 0 for v in layer.values())
    e2e = run.end_to_end([plain], [1.0])
    assert set(e2e) == set(run.E2E_METRICS) and all(v > 0 for v in e2e.values())


def test_checks_pass_on_real_outputs(rounds):
    inputs, plain, traced = rounds
    results = run.check_outputs([plain, traced], TINY, inputs, SEED)
    assert not _failed(results), results
    steps = sum(len(g) for g in plain["full"]["generated"])
    cfg, tensors = checks.read_vtlm(inputs.model)
    runs = list(zip(plain["full"]["prompt_ids"], plain["full"]["generated"]))
    _, checked = checks.check_greedy(cfg, tensors, runs)
    assert checked >= steps // 2  # the margin skips few steps


def _corrupt_token(side: str):
    def corrupt(r):
        gen = r[side]["generated"][0]
        gen[0] = gen[0] + 1 if gen[0] + 1 in r["prepare"]["kept_ids"] else r["prepare"]["kept_ids"][-1]
    return corrupt


def _corrupt_text(r):
    r["trim"]["texts"][1] += "x"


def _corrupt_kept(r):
    r["prepare"]["kept_ids"] = r["prepare"]["kept_ids"][:-1]


@pytest.mark.parametrize("corrupt, check", [
    (_corrupt_token("full"), "full_greedy"),
    (_corrupt_token("trim"), "trim_greedy"),
    (_corrupt_text, "decoded_trim"),
    (_corrupt_kept, "subvocab"),
])
def test_each_check_rejects_a_corrupted_output(rounds, corrupt, check):
    inputs, plain, _ = rounds
    bad = copy.deepcopy(plain)
    corrupt(bad)
    assert check in _failed(run.check_outputs([bad], TINY, inputs, SEED))
    assert "rounds_repeat" in _failed(run.check_outputs([plain, bad], TINY, inputs, SEED))


def test_trimmed_file_check_rejects_one_flipped_bit(rounds, tmp_path):
    inputs, plain, _ = rounds
    kept = plain["prepare"]["kept_ids"]
    assert not checks.check_trimmed_file(inputs.model, inputs.trimmed, kept)
    bad = str(tmp_path / "bad.vtlm")
    shutil.copy(inputs.trimmed, bad)
    cfg, _ = checks.read_vtlm(bad)
    with open(bad, "r+b") as f:
        f.seek(cfg["size"] - 4 * TINY.hidden * 3)  # inside the final norm or last block
        byte = f.read(1)
        f.seek(-1, 1)
        f.write(bytes([byte[0] ^ 1]))
    assert checks.check_trimmed_file(inputs.model, bad, kept)


def test_trim_follows_full_rejects_a_divergence_on_a_kept_token():
    kept = [0, 1, 2, 5, 7]
    full = [([1], [5, 7, 9])]
    assert not checks.check_trim_follows_full(full, [([1], [5, 7, 2])], kept)
    assert checks.check_trim_follows_full(full, [([1], [5, 2, 2])], kept)
    assert checks.check_trim_follows_full(full, [([1], [5, 7])], kept)


def test_encoding_check_rejects_a_wrong_token_and_a_lossy_round_trip(rounds):
    inputs, _, _ = rounds
    from vtrim import bpe

    lines, _ = run.corpus_texts(inputs)
    vocab, merges = bpe.load_vocab(inputs.vocab, inputs.merges)
    encoded = [bpe.encode(line, vocab, merges) for line in lines]
    surfaces = list(vocab.surfaces)
    pairs = list(merges.pairs)
    everything = list(range(len(lines)))
    assert not checks.check_encoding(lines, encoded, surfaces, everything, pairs)
    split = copy.deepcopy(encoded)
    # Same bytes, different tokens: only the brute-force encoder sees it.
    long_tok = next(i for i, t in enumerate(split[0]) if len(surfaces[t]) > 1)
    surface = surfaces[split[0][long_tok]]
    split[0][long_tok : long_tok + 1] = [vocab.ids[c] for c in surface]
    errors = checks.check_encoding(lines, split, surfaces, everything, pairs)
    assert errors and all("brute-force" in e for e in errors)
    lossy = copy.deepcopy(encoded)
    lossy[1][0] = (lossy[1][0] + 1) % len(surfaces)
    assert any("decode" in e for e in checks.check_encoding(lines, lossy, surfaces, [], pairs))


def test_script_rule():
    from workloads import BYTE_CHARS

    def surface(text: str) -> str:
        return "".join(BYTE_CHARS[b] for b in text.encode("utf-8"))

    assert checks.script_keeps(surface(" кот"))
    assert not checks.script_keeps(surface("котcat"))
    assert not checks.script_keeps(surface(" "))
    assert not checks.script_keeps(surface("к")[:1])  # half a character
