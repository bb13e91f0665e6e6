import json
import os
import resource
import struct
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import vtrim
from vtrim import bpe, metrics, subvocab, toylm
from vtrim.cli import main


@pytest.fixture(scope="module")
def workdir(tmp_path_factory, data_dir):
    """One shared pipeline run: model, subvocabularies, decodes, report."""
    d = tmp_path_factory.mktemp("cli")
    vocab = str(data_dir / "demo_vocab.json")
    merges = str(data_dir / "demo_merges.txt")
    prompts = str(data_dir / "prompts_en.jsonl")

    def run(*argv):
        code = main(list(argv))
        assert code == 0, f"command failed: {argv}"

    run(
        "init-model", "--out", str(d / "model.vtlm"),
        "--vocab-size", "602", "--hidden", "32", "--layers", "1",
        "--heads", "2", "--max-context", "128", "--seed", "0",
    )
    run(
        "build", "--lang", "en",
        "--vocab", vocab, "--merges", merges,
        "--out", str(d / "sub_en.json"), "--base-k", "300",
    )
    run(
        "decode", "--model", str(d / "model.vtlm"),
        "--vocab", vocab, "--merges", merges, "--prompts", prompts,
        "--out", str(d / "full.jsonl"), "--max-new", "4",
    )
    run(
        "build",
        "--vocab", vocab, "--merges", merges,
        "--outputs", str(d / "full.jsonl"), "--prompts", prompts,
        "--out", str(d / "sub_oracle.json"),
        "--base-k", "300",
    )
    run(
        "trim", "--model", str(d / "model.vtlm"),
        "--sub", str(d / "sub_oracle.json"), "--out", str(d / "trimmed.vtlm"),
    )
    run(
        "decode", "--model", str(d / "trimmed.vtlm"),
        "--vocab", vocab, "--merges", merges, "--prompts", prompts,
        "--sub", str(d / "sub_oracle.json"),
        "--out", str(d / "vt.jsonl"), "--max-new", "4",
    )
    run(
        "eval", "--full", str(d / "full.jsonl"), "--vt", str(d / "vt.jsonl"),
        "--out", str(d / "report.json"), "--sub", str(d / "sub_oracle.json"),
        "--lang", "en",
    )
    return d


def test_walkthrough_artifacts_exist(workdir):
    for name in (
        "model.vtlm", "sub_en.json", "full.jsonl", "sub_oracle.json",
        "trimmed.vtlm", "vt.jsonl", "report.json",
    ):
        assert (workdir / name).exists()


def test_decode_records_have_the_documented_shape(workdir, data_dir):
    vocab, _ = bpe.load_vocab(
        str(data_dir / "demo_vocab.json"), str(data_dir / "demo_merges.txt")
    )
    lines = (workdir / "full.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 50
    for line in lines:
        record = json.loads(line)
        assert set(record) == {"id", "output_ids", "text"}
        assert all(isinstance(i, int) and 0 <= i < vocab.size
                   for i in record["output_ids"])
        # text is the lossless byte view of the generated ids
        raw = bpe.decode_bytes(record["output_ids"], vocab)
        assert record["text"].encode("utf-8", "surrogateescape") == raw


def test_oracle_pipeline_reports_zero_miss(workdir):
    report = metrics.EvalReport(
        **json.loads((workdir / "report.json").read_text(encoding="utf-8"))
    )
    assert report.n_prompts == 50
    assert report.miss == 0
    assert report.o_bleu == 100.0
    assert report.o_chrf == 100.0
    assert report.method == "oracle"
    sub = subvocab.load_subvocab(str(workdir / "sub_oracle.json"))
    assert report.subvocab_size == sub.size


def test_trimmed_outputs_are_in_original_id_space(workdir):
    sub = subvocab.load_subvocab(str(workdir / "sub_oracle.json"))
    for line in (workdir / "vt.jsonl").read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        assert all(i in sub.kept for i in record["output_ids"])


def test_decode_is_byte_deterministic(workdir, data_dir):
    out = workdir / "full_again.jsonl"
    code = main([
        "decode", "--model", str(workdir / "model.vtlm"),
        "--vocab", str(data_dir / "demo_vocab.json"),
        "--merges", str(data_dir / "demo_merges.txt"),
        "--prompts", str(data_dir / "prompts_en.jsonl"),
        "--out", str(out), "--max-new", "4",
    ])
    assert code == 0
    assert out.read_bytes() == (workdir / "full.jsonl").read_bytes()


def test_build_is_byte_deterministic(workdir, data_dir):
    out = workdir / "sub_en_again.json"
    code = main([
        "build", "--lang", "en",
        "--vocab", str(data_dir / "demo_vocab.json"),
        "--merges", str(data_dir / "demo_merges.txt"),
        "--out", str(out), "--base-k", "300",
    ])
    assert code == 0
    assert out.read_bytes() == (workdir / "sub_en.json").read_bytes()


def test_build_corpus_method(workdir, data_dir, tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("hello world\nкотка\n", encoding="utf-8")
    out = tmp_path / "sub_c.json"
    code = main([
        "build", "--corpus", str(corpus),
        "--vocab", str(data_dir / "demo_vocab.json"),
        "--merges", str(data_dir / "demo_merges.txt"),
        "--out", str(out), "--base-k", "10",
    ])
    assert code == 0
    sub = subvocab.load_subvocab(str(out))
    assert sub.method == "corpus"
    assert sub.size > 10


def test_build_takes_its_method_from_its_one_source(workdir, data_dir, demo, tmp_path):
    vocab, merges = demo
    spec = tmp_path / "spec.json"  # Cyrillic and a-z: more than the bg preset
    spec.write_text(json.dumps({"name": "x", "allowed_ranges": [[0x400, 0x4FF], [0x61, 0x7A]]}),
                    encoding="utf-8")
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("hello world\nкотка\n", encoding="utf-8")
    outputs = workdir / "full.jsonl"
    emitted = [json.loads(line)["output_ids"]
               for line in outputs.read_text(encoding="utf-8").splitlines()]
    want = {
        "--lang": ("bg", subvocab.script_filter(vocab, subvocab.PRESETS["bg"], 300)),
        "--script-spec": (str(spec), subvocab.script_filter(
            vocab, subvocab.ScriptSpec.from_json_file(str(spec)), 300)),
        "--corpus": (str(corpus), subvocab.corpus_select(
            vocab, merges, ["hello world", "котка"], 300)),
        "--outputs": (str(outputs), subvocab.oracle_select(emitted, 300, vocab_size=vocab.size)),
    }
    assert want["--lang"][1] != want["--script-spec"][1]
    base = ["build", "--vocab", str(data_dir / "demo_vocab.json"),
            "--merges", str(data_dir / "demo_merges.txt"), "--base-k", "300"]
    for flag, (value, sub) in want.items():
        out = tmp_path / f"sub{flag}.json"
        assert main(base + [flag, value, "--out", str(out)]) == 0
        assert subvocab.load_subvocab(str(out)) == sub
    # Two sources, none, an unknown preset or a --method are usage errors.
    bad = tmp_path / "bad.json"
    for extra in (*([a, want[a][0], b, want[b][0]] for a, b in combinations(want, 2)),
                  [], ["--lang", "xx"], ["--method", "unicode", "--lang", "bg"]):
        with pytest.raises(SystemExit) as exc:
            main(base + extra + ["--out", str(bad)])
        assert exc.value.code == 2, extra
    assert not bad.exists()


def test_bench_table_and_report(workdir, data_dir, tmp_path, capsys):
    out = tmp_path / "bench.json"
    code = main([
        "bench", "--model", str(workdir / "model.vtlm"),
        "--vocab", str(data_dir / "demo_vocab.json"),
        "--merges", str(data_dir / "demo_merges.txt"),
        "--prompts", str(data_dir / "prompts_en.jsonl"),
        "--trimmed", str(workdir / "trimmed.vtlm"), str(workdir / "sub_oracle.json"),
        "--max-new", "2", "--repeats", "2", "--eos", "2", "--out", str(out),
    ])
    assert code == 0
    table = capsys.readouterr().out
    assert "full" in table and "sub_oracle" in table
    rows = json.loads(out.read_text(encoding="utf-8"))
    assert [r["label"] for r in rows] == ["full", "sub_oracle"]
    assert rows[0]["vocab_size"] == 602
    assert rows[1]["vocab_size"] == subvocab.load_subvocab(str(workdir / "sub_oracle.json")).size
    assert rows[0]["miss"] == 0  # full vs itself
    assert rows[1]["miss"] == 0  # oracle covers everything
    # Greedy outputs for --max-new 2 are the first two tokens of those for 4.
    full = [json.loads(line)["output_ids"]
            for line in (workdir / "full.jsonl").read_text(encoding="utf-8").splitlines()]
    for r in rows:
        assert r["end_to_end_seconds"] == r["load_seconds"] + r["decode_seconds"] >= 0.0
        assert r["tokens_generated"] == sum(min(2, len(ids)) for ids in full)


@pytest.mark.parametrize("prompts", ["demo", "empty"])
def test_decode_of_a_model_not_trimmed_with_sub_exits_one(
    workdir, data_dir, tmp_path, capsys, prompts
):
    # The full model served with the oracle sub-vocabulary: the pair is
    # rejected at load, whatever the prompts.
    prompts_file = data_dir / "prompts_en.jsonl"
    if prompts == "empty":
        prompts_file = tmp_path / "empty.jsonl"
        prompts_file.write_text("", encoding="utf-8")
    model = workdir / "model.vtlm"
    sub = subvocab.load_subvocab(str(workdir / "sub_oracle.json"))
    out = tmp_path / "out.jsonl"
    code = main([
        "decode", "--model", str(model), "--sub", str(workdir / "sub_oracle.json"),
        "--vocab", str(data_dir / "demo_vocab.json"),
        "--merges", str(data_dir / "demo_merges.txt"),
        "--prompts", str(prompts_file), "--out", str(out),
    ])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: model file {model} has vocab size 602, the sub-vocabulary has {sub.size}\n"
    )
    assert not out.exists()


def test_bench_rejects_a_mismatched_pair_before_timing(
    workdir, data_dir, tmp_path, capsys, monkeypatch
):
    timed = []
    monkeypatch.setattr("vtrim.bench.time_end_to_end", lambda *a, **k: timed.append(a))
    out = tmp_path / "bench.json"
    code = main([
        "bench", "--model", str(workdir / "model.vtlm"),
        "--vocab", str(data_dir / "demo_vocab.json"),
        "--merges", str(data_dir / "demo_merges.txt"),
        "--prompts", str(data_dir / "prompts_en.jsonl"),
        "--trimmed", str(workdir / "model.vtlm"), str(workdir / "sub_oracle.json"),
        "--out", str(out),
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith(
        f"error: model file {workdir / 'model.vtlm'} has vocab size 602, the sub-vocabulary has "
    )
    assert timed == []
    assert not out.exists()


def test_bench_rejects_a_trimmed_file_as_the_full_model_before_timing(
    workdir, data_dir, tmp_path, capsys, monkeypatch
):
    timed = []
    monkeypatch.setattr("vtrim.bench.time_end_to_end", lambda *a, **k: timed.append(a))
    trimmed = workdir / "trimmed.vtlm"
    sub = subvocab.load_subvocab(str(workdir / "sub_oracle.json"))
    out = tmp_path / "bench.json"
    code = main([
        "bench", "--model", str(trimmed),
        "--vocab", str(data_dir / "demo_vocab.json"),
        "--merges", str(data_dir / "demo_merges.txt"),
        "--prompts", str(data_dir / "prompts_en.jsonl"), "--out", str(out),
    ])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: model file {trimmed} has vocab size {sub.size}, the tokenizer has 602\n"
    )
    assert timed == []
    assert not out.exists()


def test_bench_names_the_prompt_a_decode_fails_on(workdir, data_dir, tmp_path, capsys):
    # Record 9 needs more context than the model's 128 positions.
    prompts = tmp_path / "prompts.jsonl"
    prompts.write_bytes(_jsonl({"id": 5, "text": "hello"},
                               {"id": 9, "text": "the quick brown fox " * 60}))
    out = tmp_path / "bench.json"
    code = main([
        "bench", "--model", str(workdir / "model.vtlm"),
        "--vocab", str(data_dir / "demo_vocab.json"),
        "--merges", str(data_dir / "demo_merges.txt"),
        "--prompts", str(prompts), "--max-new", "4", "--repeats", "1", "--out", str(out),
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: prompt 9: prompt of ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["decode", "bench"])
@pytest.mark.parametrize("wrong", ["sub", "model"])
def test_a_model_or_sub_vocabulary_over_another_tokenizer_exits_one(
    workdir, data_dir, tmp_path, capsys, command, wrong
):
    # The demo tokenizer has 602 tokens. A sub-vocabulary file built over
    # 700 would map ids the tokenizer never makes; a full model of 700
    # would emit them.
    model, trimmed = workdir / "model.vtlm", workdir / "trimmed.vtlm"
    sub = workdir / "sub_oracle.json"
    if wrong == "sub":
        raw = json.loads(sub.read_text(encoding="utf-8"))
        sub = tmp_path / "sub_700.json"
        sub.write_text(json.dumps({**raw, "vocab_size": 700}), encoding="utf-8")
        expected = f"sub-vocabulary {sub} was built over 700 tokens, the tokenizer has 602"
    else:
        model = tmp_path / "model_700.vtlm"
        cfg = toylm.ModelConfig(vocab_size=700, hidden=32, layers=1, heads=2, max_context=128)
        toylm.save_model(str(model), toylm.init_random(cfg, seed=0))
        expected = f"model file {model} has vocab size 700, the tokenizer has 602"
    out = tmp_path / "out"
    argv = [command, "--vocab", str(data_dir / "demo_vocab.json"),
            "--merges", str(data_dir / "demo_merges.txt"),
            "--prompts", str(data_dir / "prompts_en.jsonl"), "--out", str(out),
            "--max-new", "2"]
    if command == "bench":
        argv += ["--model", str(model), "--trimmed", str(trimmed), str(sub), "--repeats", "1"]
    elif wrong == "sub":
        argv += ["--model", str(trimmed), "--sub", str(sub)]
    else:
        argv += ["--model", str(model)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {expected}\n"
    assert not out.exists()


def test_decode_with_an_eos_outside_the_tokenizer_exits_one(
    workdir, data_dir, tmp_path, capsys
):
    # A full model is served in the tokenizer's whole id space, so an eos
    # outside it is rejected as it is for a trimmed model.
    out = tmp_path / "out.jsonl"
    code = main([
        "decode", "--model", str(workdir / "model.vtlm"),
        "--vocab", str(data_dir / "demo_vocab.json"),
        "--merges", str(data_dir / "demo_merges.txt"),
        "--prompts", str(data_dir / "prompts_en.jsonl"), "--out", str(out),
        "--eos", "9999",
    ])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: prompt 0: eos token 9999 is not in the tokenizer\n"
    )
    assert not out.exists()


def test_eval_reports_the_method_of_its_sub_vocabulary_file(workdir, tmp_path):
    argv = ["eval", "--full", str(workdir / "full.jsonl"), "--vt", str(workdir / "vt.jsonl")]
    for sub, method in (("sub_en.json", "unicode"), ("sub_oracle.json", "oracle"), (None, None)):
        out = tmp_path / "report.json"
        extra = ["--sub", str(workdir / sub)] if sub else []
        assert main(argv + extra + ["--out", str(out)]) == 0
        report = metrics.EvalReport(**json.loads(out.read_text(encoding="utf-8")))
        assert report.method == method


def test_scaling_command(tmp_path, capsys):
    report = tmp_path / "scaling.json"
    code = main([
        "scaling", "--hidden", "16",
        "--sizes", "100,1000", "--trials", "3", "--out", str(report),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "100" in out and "1000" in out
    rows = json.loads(report.read_text(encoding="utf-8"))
    assert [row["vocab_size"] for row in rows] == [100, 1000]
    assert all(row["seconds"] > 0.0 for row in rows)


def test_init_model_untied_writes_a_separate_output_matrix(tmp_path):
    out = tmp_path / "untied.vtlm"
    assert main(["init-model", "--out", str(out), "--vocab-size", "40", "--hidden", "8",
                 "--layers", "1", "--heads", "2", "--untied"]) == 0
    tied = struct.unpack_from("<IIIIIIB", out.read_bytes(), 4)[-1]
    assert tied == 0
    model = toylm.load_model(str(out))
    assert model.output is not None and model.output.shape == (40, 8)


def test_memory_table_matches_formula(capsys):
    code = main([
        "memory", "--vocab-sizes", "250680,22912", "--hidden-sizes", "1024,4096",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert metrics.format_gib(metrics.memory_footprint(250680, 1024)) in out
    assert metrics.format_gib(metrics.memory_footprint(22912, 4096)) in out


def test_errors_exit_nonzero(tmp_path, data_dir, capsys):
    # missing input file
    code = main([
        "build", "--lang", "en",
        "--vocab", str(tmp_path / "missing.json"),
        "--merges", str(data_dir / "demo_merges.txt"),
        "--out", str(tmp_path / "s.json"),
    ])
    assert code == 1
    # scaling with a list of sizes that names none
    assert main(["scaling", "--sizes", ","]) == 1
    assert "no vocab sizes" in capsys.readouterr().err
    # a missing required flag, or a flag that is gone, is a usage error
    for argv in (
        ["bench", "--vocab", str(data_dir / "demo_vocab.json"),
         "--merges", str(data_dir / "demo_merges.txt")],
        ["scaling"],
        ["bench", "--scaling", "--sizes", "100"],
        ["eval", "--full", "f.jsonl", "--vt", "v.jsonl", "--method", "oracle"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


@pytest.mark.parametrize("kind", ["prompts", "outputs"])
@pytest.mark.parametrize("bad", [b'{"id": 1}', b"{not json", b'"\xff"'],
                         ids=["missing-field", "not-json", "not-utf8"])
def test_malformed_jsonl_line_exits_one_with_location(
    workdir, data_dir, tmp_path, capsys, kind, bad
):
    good = (data_dir / "prompts_en.jsonl") if kind == "prompts" else (workdir / "full.jsonl")
    path = tmp_path / f"{kind}.jsonl"
    path.write_bytes(b"".join(good.read_bytes().splitlines(keepends=True)[:2]) + bad + b"\n")
    if kind == "prompts":
        argv = ["decode", "--model", str(workdir / "model.vtlm"),
                "--vocab", str(data_dir / "demo_vocab.json"),
                "--merges", str(data_dir / "demo_merges.txt"),
                "--prompts", str(path), "--out", str(tmp_path / "o.jsonl")]
    else:
        argv = ["eval", "--full", str(path), "--vt", str(workdir / "vt.jsonl")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"{path}:3: malformed" in err


_NOT_UTF8 = b"\xff\xfe not utf-8\n"
_DEEP_JSON = b"[" * 200000 + b"]" * 200000 + b"\n"


@pytest.mark.parametrize("command, content", [
    ("build --lang en --vocab {bad} --merges {merges}", _NOT_UTF8),
    ("build --lang en --vocab {vocab} --merges {bad}", _NOT_UTF8),
    ("trim --model {model} --sub {bad}", _NOT_UTF8),
    ("build --script-spec {bad} --vocab {vocab} --merges {merges}",
     _NOT_UTF8),
    ("build --corpus {bad} --vocab {vocab} --merges {merges}",
     b"hello world\n" + _NOT_UTF8),
    ("build --lang en --vocab {bad} --merges {merges}", _DEEP_JSON),
    ("trim --model {model} --sub {bad}", _DEEP_JSON),
    ("build --lang en --prompts {bad} --vocab {vocab} --merges {merges}",
     _DEEP_JSON),
], ids=["vocab-utf8", "merges-utf8", "sub-utf8", "script-spec-utf8", "corpus-utf8",
        "vocab-deep", "sub-deep", "prompts-deep"])
def test_hostile_input_file_exits_one_without_traceback(
    workdir, data_dir, tmp_path, capsys, command, content
):
    bad = tmp_path / "bad"
    bad.write_bytes(content)
    paths = {"bad": bad, "model": workdir / "model.vtlm",
             "vocab": data_dir / "demo_vocab.json", "merges": data_dir / "demo_merges.txt"}
    argv = [arg.format(**paths) for arg in command.split()]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad"]


def _jsonl(*records) -> bytes:
    return b"".join(json.dumps(r).encode() + b"\n" for r in records)


def _write_input(path, value):
    """``value`` as a whole JSON file if an object, as a JSON Lines file of
    records if a list, and as it is if bytes."""
    path.write_bytes(value if isinstance(value, bytes)
                     else _jsonl(*value) if isinstance(value, list) else _jsonl(value))
    return path


_SUB = {"method": "custom", "base_k": 0, "vocab_size": 602, "kept": [0, 1, 2]}
_SPEC = {"name": "latin", "allowed_ranges": [[97, 122]]}


@pytest.mark.parametrize("command, bad, other", [
    ("trim --model {model} --sub {bad}", {**_SUB, "kept": "012"}, None),
    ("trim --model {model} --sub {bad}", {**_SUB, "kept": [0, 1, 2.9]}, None),
    ("trim --model {model} --sub {bad}", {**_SUB, "base_k": True}, None),
    ("trim --model {model} --sub {bad}", {**_SUB, "vocab_size": "602"}, None),
    ("build --script-spec {bad} --vocab {vocab} --merges {merges}",
     {**_SPEC, "tolerated": "123"}, None),
    ("build --script-spec {bad} --vocab {vocab} --merges {merges}",
     {"name": "bg", "allowed_ranges": [[1024, 1279.9]]}, None),
    ("build --script-spec {bad} --vocab {vocab} --merges {merges}",
     {**_SPEC, "name": 7}, None),
    ("eval --full {bad} --vt {other}",
     [{"id": 1.9, "output_ids": "123", "text": None}],
     [{"id": "1", "output_ids": [1, 2, 3], "text": "None"}]),
    ("eval --full {bad} --vt {bad}", [{"id": True, "output_ids": [1], "text": "x"}], None),
    ("build --outputs {bad} --vocab {vocab} --merges {merges}",
     [{"id": 0, "output_ids": [1, 2.0], "text": "x"}], None),
    ("decode --model {model} --vocab {vocab} --merges {merges} --prompts {bad}",
     [{"id": "0", "text": "hello"}], None),
    ("decode --model {model} --vocab {vocab} --merges {merges} --prompts {bad}",
     [{"id": 0, "text": None}], None),
], ids=["kept-string", "kept-float", "base_k-bool", "vocab_size-string",
        "tolerated-string", "range-end-float", "name-int", "eval-pair-coerced",
        "output-id-bool", "output-ids-float", "prompt-id-string", "prompt-text-null"])
def test_input_values_of_the_wrong_json_type_exit_one(
    workdir, data_dir, tmp_path, capsys, command, bad, other
):
    paths = {"bad": _write_input(tmp_path / "bad", bad), "model": workdir / "model.vtlm",
             "vocab": data_dir / "demo_vocab.json", "merges": data_dir / "demo_merges.txt"}
    if other is not None:
        paths["other"] = _write_input(tmp_path / "other", other)
    inputs = sorted(p.name for p in tmp_path.iterdir())
    argv = [arg.format(**paths) for arg in command.split()]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(paths["bad"]) in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == inputs


@pytest.mark.parametrize("command, what, bad, expected", [
    ("trim --model {model} --sub {bad}", "sub-vocabulary file",
     {**_SUB, "kept": [3, 1]}, "kept ids must be strictly ascending"),
    ("trim --model {model} --sub {bad}", "sub-vocabulary file",
     {**_SUB, "kept": [-1, 3]}, "kept id -1 out of range [0, 602)"),
    ("build --script-spec {bad} --vocab {vocab} --merges {merges}", "script spec",
     {**_SPEC, "allowed_ranges": [[5, 1]]}, "invalid codepoint range [5, 1]"),
    ("build --script-spec {bad} --vocab {vocab} --merges {merges}", "script spec",
     {**_SPEC, "allowed_ranges": [[0x10FF00, 0x110000]]},
     "invalid codepoint range [1113856, 1114112]"),
    ("build --script-spec {bad} --vocab {vocab} --merges {merges}", "script spec",
     {**_SPEC, "tolerated": [32]}, "unknown key 'tolerated'"),
    ("build --lang en --vocab {bad} --merges {merges}", "vocabulary file",
     {"a": 0, "b": 5}, "non-dense ids: id 5 outside [0, 2)"),
    ("build --lang en --vocab {bad} --merges {merges}", "vocabulary file",
     ["a", "b"], "vocabulary file must contain a JSON object"),
], ids=["kept-descending", "kept-negative", "range-reversed", "range-past-max",
        "tolerated-key", "vocab-sparse", "vocab-array"])
def test_a_rejected_input_value_names_its_file(
    workdir, data_dir, tmp_path, capsys, command, what, bad, expected
):
    path = tmp_path / "bad"
    path.write_bytes(_jsonl(bad))
    paths = {"bad": path, "model": workdir / "model.vtlm",
             "vocab": data_dir / "demo_vocab.json", "merges": data_dir / "demo_merges.txt"}
    argv = [arg.format(**paths) for arg in command.split()]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: malformed {what} {path}: {expected}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad"]


_BIG = "9" * 4000  # digits: below Python's int parsing limit, far past any size
_LONG = "x" * 100000


@pytest.mark.parametrize("command, bad, other", [
    ("init-model --out {out} --vocab-size " + _BIG + " --hidden 8 --layers 1 --heads 1",
     None, None),
    ("init-model --out {out} --vocab-size -" + _BIG + " --hidden 8 --layers 1 --heads 1",
     None, None),
    ("init-model --out {out} --vocab-size 10 --hidden 8 --layers 1 --heads 1 --seed -" + _BIG,
     None, None),
    ("trim --model {model} --sub {bad} --out {out}", {**_SUB, "kept": [0, 1, int(_BIG)]}, None),
    ("trim --model {model} --sub {bad} --out {out}", {**_SUB, "base_k": -int(_BIG)}, None),
    ("trim --model {model} --sub {bad} --out {out}", {**_SUB, "vocab_size": -int(_BIG)}, None),
    ("trim --model {model} --sub {bad} --out {out}",
     {**_SUB, "base_k": int(_BIG), "vocab_size": int(_BIG)}, None),
    ("trim --model {model} --sub {bad} --out {out}", {**_SUB, "method": _LONG}, None),
    ("trim --model {model} --sub {bad} --out {out}", {**_SUB, "vocab_size": int(_BIG)}, None),
    ("decode --model {model} --vocab {vocab} --merges {merges} --prompts {prompts} "
     "--sub {bad} --out {out}", {**_SUB, "vocab_size": int(_BIG)}, None),
    ("build --script-spec {bad} --vocab {vocab} --merges {merges} --out {out}",
     {**_SPEC, "allowed_ranges": [[0, int(_BIG)]]}, None),
    ("build --lang en --vocab {bad} --merges {merges} --out {out}", {"a": int(_BIG)}, None),
    ("build --lang en --vocab {bad} --merges {merges} --out {out}", {_LONG: "0"}, None),
    ("build --lang en --vocab {bad} --merges {merges} --out {out}",
     {_LONG: 0, _LONG + "y": 0}, None),
    ("build --outputs {bad} --vocab {vocab} --merges {merges} --out {out}",
     [{"id": 0, "output_ids": [int(_BIG)], "text": "x"}], None),
    ("build --lang en --vocab {vocab} --merges {bad} --out {out}", _LONG.encode(), None),
    ("build --lang en --vocab {vocab} --merges {bad} --out {out}", b"%s a" % _LONG.encode(),
     None),
    ("eval --full {bad} --vt {other} --out {out}",
     [{"id": int(_BIG), "output_ids": [1], "text": "x"}],
     [{"id": 0, "output_ids": [1], "text": "x"}]),
    ("decode --model {model} --vocab {vocab} --merges {merges} --prompts {prompts} "
     "--out {out} --eos " + _BIG, None, None),
    ("decode --model {model} --vocab {vocab} --merges {merges} --prompts {prompts} "
     "--out {out} --max-new -" + _BIG, None, None),
    ("bench --model {model} --vocab {vocab} --merges {merges} --prompts {prompts} "
     "--out {out} --repeats -" + _BIG, None, None),
    ("scaling --sizes 10 --out {out} --trials -" + _BIG, None, None),
], ids=["config-size", "config-negative-size", "seed", "kept-id", "base_k", "vocab_size",
        "retention", "method", "trim-size", "served-size", "script-range", "vocab-id",
        "vocab-surface", "vocab-duplicate", "outputs-id", "merges-line", "merges-part",
        "eval-ids", "eos", "max-new", "repeats", "trials"])
def test_an_error_quotes_at_most_40_characters_of_a_value(
    workdir, data_dir, tmp_path, capsys, command, bad, other
):
    # A 4000-digit integer or a 100,000-character string in a file or an
    # option gives one short error line, not a line that repeats it whole.
    paths = {"model": workdir / "model.vtlm", "out": tmp_path / "out",
             "vocab": data_dir / "demo_vocab.json", "merges": data_dir / "demo_merges.txt",
             "prompts": data_dir / "prompts_en.jsonl"}
    for name, value in (("bad", bad), ("other", other)):
        if value is not None:
            paths[name] = _write_input(tmp_path / name, value)
    inputs = sorted(p.name for p in tmp_path.iterdir())
    assert main([arg.format(**paths) for arg in command.split()]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err[:300]
    assert len(err.encode()) <= 300, err[:300]
    assert sorted(p.name for p in tmp_path.iterdir()) == inputs


@pytest.mark.parametrize("command", [
    "scaling --sizes 10 --hidden {nines}",
    "decode --model {model} --vocab {vocab} --merges {merges} --prompts {prompts} "
    "--out {out} --max-new {nines}",
    "decode --model {model} --vocab {vocab} --merges {merges} --prompts {prompts} "
    "--out {out} --max-new={nines}",
], ids=["scaling-hidden", "decode-max-new", "decode-max-new-after-equals"])
def test_an_unparsable_integer_option_exits_two_with_a_short_line(
    workdir, data_dir, tmp_path, capsys, command
):
    # 5000 digits are past Python's int parsing limit, so int() rejects them.
    paths = {"model": workdir / "model.vtlm", "out": tmp_path / "out", "nines": "9" * 5000,
             "vocab": data_dir / "demo_vocab.json", "merges": data_dir / "demo_merges.txt",
             "prompts": data_dir / "prompts_en.jsonl"}
    with pytest.raises(SystemExit) as exc:
        main([arg.format(**paths) for arg in command.split()])
    assert exc.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.endswith("invalid int value: '" + "9" * 39)
    assert len(last.encode()) < 200
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, quoted", [
    (["build", "--lang", "x" * 5000], "invalid choice: '" + "x" * 39),
    (["build", "--lang=" + "x" * 5000], "invalid choice: '" + "x" * 39),
    (["build", "--lang", "x " * 2500], "invalid choice: '" + "x " * 19 + "x"),
    (["build", "--lang", "en", "--vocab", "v.json", "--merges", "m.txt", "--out", "o",
      "--" + "x" * 5000], "unrecognized arguments: --" + "x" * 38),
    (["x" * 5000], "invalid choice: '" + "x" * 39),
], ids=["invalid-choice", "invalid-choice-after-equals", "invalid-choice-with-spaces",
        "unrecognized-option", "unknown-command"])
def test_a_usage_error_quotes_at_most_40_characters_of_an_argument(capsys, argv, quoted):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert quoted in err, err[-300:]
    for line in err.splitlines():
        assert len(line.encode()) < 300, line[:300]


def test_build_folds_in_prompt_tokens_exactly_when_prompts_is_given(
    workdir, data_dir, demo, demo_prompts, tmp_path
):
    vocab, merges = demo
    outputs = workdir / "full.jsonl"
    argv = ["build", "--outputs", str(outputs),
            "--vocab", str(data_dir / "demo_vocab.json"),
            "--merges", str(data_dir / "demo_merges.txt"), "--base-k", "300"]
    assert main(argv + ["--out", str(tmp_path / "plain.json")]) == 0
    assert main(argv + ["--prompts", str(data_dir / "prompts_en.jsonl"),
                        "--out", str(tmp_path / "prompted.json")]) == 0
    plain = subvocab.load_subvocab(str(tmp_path / "plain.json"))
    prompted = subvocab.load_subvocab(str(tmp_path / "prompted.json"))

    emitted = [json.loads(line)["output_ids"]
               for line in outputs.read_text(encoding="utf-8").splitlines()]
    assert plain == subvocab.oracle_select(emitted, base_k=300, vocab_size=vocab.size)
    prompt_ids = [bpe.encode(p["text"], vocab, merges) for p in demo_prompts]
    assert all(i in prompted.kept for ids in prompt_ids for i in ids)
    assert prompted == subvocab.with_input_tokens(plain, prompt_ids)
    assert prompted.size > plain.size  # the prompts add ids the outputs lack

    with pytest.raises(SystemExit) as exc:
        main(argv + ["--include-inputs", "--out", str(tmp_path / "flag.json")])
    assert exc.value.code == 2
    assert not (tmp_path / "flag.json").exists()


def _decode(workdir, data_dir, prompts, out) -> int:
    return main(["decode", "--model", str(workdir / "model.vtlm"),
                 "--vocab", str(data_dir / "demo_vocab.json"),
                 "--merges", str(data_dir / "demo_merges.txt"),
                 "--prompts", str(prompts), "--out", str(out), "--max-new", "4"])


def test_decode_skips_blank_lines_between_prompt_records(workdir, data_dir, tmp_path):
    records = [json.dumps({"id": i, "text": t}) + "\n" for i, t in ((3, "hello"), (5, "a cat"))]
    (tmp_path / "plain.jsonl").write_text("".join(records), encoding="utf-8")
    (tmp_path / "blank.jsonl").write_text(records[0] + "\n  \t\n" + records[1],
                                          encoding="utf-8")
    assert _decode(workdir, data_dir, tmp_path / "plain.jsonl", tmp_path / "plain.out") == 0
    assert _decode(workdir, data_dir, tmp_path / "blank.jsonl", tmp_path / "blank.out") == 0
    decoded = (tmp_path / "blank.out").read_bytes()
    assert decoded == (tmp_path / "plain.out").read_bytes()
    assert [json.loads(line)["id"] for line in decoded.splitlines()] == [3, 5]


@pytest.mark.parametrize("content, error", [
    (None, "prompts file not found: {prompts}"),
    (json.dumps({"id": 7, "text": "\ud800"}) + "\n",
     "prompt 7: input is not encodable as UTF-8: 'utf-8' codec can't encode"),
], ids=["missing", "lone-surrogate"])
def test_decode_of_an_unreadable_prompt_batch_exits_one_without_output(
    workdir, data_dir, tmp_path, capsys, content, error
):
    prompts = tmp_path / "prompts.jsonl"
    if content is not None:
        prompts.write_text(content, encoding="utf-8")
    inputs = sorted(p.name for p in tmp_path.iterdir())
    assert _decode(workdir, data_dir, prompts, tmp_path / "out.jsonl") == 1
    assert capsys.readouterr().err.startswith("error: " + error.format(prompts=prompts))
    assert sorted(p.name for p in tmp_path.iterdir()) == inputs


def test_eval_of_output_files_of_different_lengths_exits_one(workdir, tmp_path, capsys):
    lines = (workdir / "full.jsonl").read_bytes().splitlines(keepends=True)
    (tmp_path / "two.jsonl").write_bytes(b"".join(lines[:2]))
    (tmp_path / "one.jsonl").write_bytes(lines[0])
    code = main(["eval", "--full", str(tmp_path / "two.jsonl"),
                 "--vt", str(tmp_path / "one.jsonl"), "--out", str(tmp_path / "report.json")])
    assert code == 1
    assert capsys.readouterr().err == "error: output files differ in length: 2 vs 1\n"
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("vocab_sizes, error", [
    (",", "need at least one vocab size and one hidden size"),
    (f"10,{10**30}", f"size {10**30} exceeds the u32 format limit"),
], ids=["no-sizes", "second-size-past-u32"])
def test_memory_rejects_its_sizes_before_printing(capsys, vocab_sizes, error):
    assert main(["memory", "--vocab-sizes", vocab_sizes, "--hidden-sizes", "8"]) == 1
    assert capsys.readouterr() == ("", f"error: {error}\n")


def test_trim_rejects_a_tensor_record_with_swapped_dims(tmp_path, capsys):
    # H = 8: block0.w1 is (8, 32), so a record of (32, 8) keeps the file's
    # byte length and only its dims are wrong.
    config = toylm.ModelConfig(vocab_size=16, hidden=8, layers=1, heads=2, max_context=8)
    model = tmp_path / "model.vtlm"
    toylm.save_model(str(model), toylm.init_random(config, seed=0))
    blob = model.read_bytes()
    record = struct.pack("<3I", 2, 8, 32)
    assert blob.count(record) == 1
    model.write_bytes(blob.replace(record, struct.pack("<3I", 2, 32, 8)))
    sub = tmp_path / "sub.json"
    subvocab.save_subvocab(subvocab.full_vocabulary(16), str(sub))
    out = tmp_path / "out.vtlm"
    assert main(["trim", "--model", str(model), "--sub", str(sub), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: tensor block0.w1: shape (32, 8), expected (8, 32)\n")
    assert not out.exists()


def test_failed_decode_leaves_no_output_file(workdir, data_dir, tmp_path, capsys):
    # The second prompt needs more context than the model's 128 positions,
    # after the first prompt's record has been written.
    prompts = tmp_path / "prompts.jsonl"
    prompts.write_text(
        json.dumps({"id": 1, "text": "hello"}) + "\n"
        + json.dumps({"id": 2, "text": "the quick brown fox " * 60}) + "\n",
        encoding="utf-8",
    )
    out = tmp_path / "out.jsonl"
    assert _decode(workdir, data_dir, prompts, out) == 1
    assert "prompt 2:" in capsys.readouterr().err
    assert not out.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["prompts.jsonl"]



@pytest.mark.parametrize("command", ["decode", "bench"])
def test_decode_of_nan_model_exits_one_without_output(
    workdir, data_dir, tmp_path, capsys, command
):
    model = toylm.load_model(str(workdir / "model.vtlm"))
    model.blocks[0].w1[0, 0] = float("nan")
    toylm.save_model(str(tmp_path / "nan.vtlm"), model)
    out = tmp_path / "out.jsonl"
    code = main([
        command, "--model", str(tmp_path / "nan.vtlm"),
        "--vocab", str(data_dir / "demo_vocab.json"),
        "--merges", str(data_dir / "demo_merges.txt"),
        "--prompts", str(data_dir / "prompts_en.jsonl"), "--out", str(out),
        "--max-new", "4",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: prompt ") and "non-finite logit nan at decode step 0" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["nan.vtlm"]


@pytest.mark.parametrize("command", ["eval", "bench"])
def test_report_out_is_written_atomically(
    workdir, data_dir, tmp_path, capsys, monkeypatch, command
):
    # The report fails part-way through writing: no partial --out file and
    # no temp file may remain.
    def disk_full(*args, **kwargs):
        if args and hasattr(args[-1], "write"):
            args[-1].write("[")
        raise OSError("No space left on device")

    if command == "eval":
        argv = ["eval", "--full", str(workdir / "full.jsonl"), "--vt", str(workdir / "vt.jsonl")]
    else:
        argv = ["bench", "--model", str(workdir / "model.vtlm"),
                "--vocab", str(data_dir / "demo_vocab.json"),
                "--merges", str(data_dir / "demo_merges.txt"),
                "--prompts", str(data_dir / "prompts_en.jsonl"), "--max-new", "1"]
    monkeypatch.setattr(json, "dump", disk_full)
    assert main(argv + ["--out", str(tmp_path / "report.json")]) == 1
    assert capsys.readouterr().err == "error: No space left on device\n"
    assert not any(tmp_path.iterdir())

def _hostile_header(vocab_size, hidden, layers):
    header = b"VTLM" + struct.pack("<IIIIIIB", 1, vocab_size, hidden, layers, 1, 1, 1)
    if layers:
        return header  # 29 bytes
    return header + struct.pack("<III", 2, vocab_size, hidden)  # 41 bytes


@pytest.mark.parametrize("blob", [
    _hostile_header(2**31, 2**14, 0),  # declares a 2^31 x 2^14 embedding
    _hostile_header(4, 4, 2**31),      # declares 2^31 layers
], ids=["huge-embedding", "huge-layer-count"])
def test_trim_rejects_hostile_header_without_allocating(tmp_path, blob):
    model = tmp_path / "hostile.vtlm"
    model.write_bytes(blob)
    sub = tmp_path / "sub.json"
    subvocab.save_subvocab(subvocab.full_vocabulary(4), str(sub))

    def cap_memory():
        # 2 GiB of address space: an attempt to allocate the declared
        # tensors fails fast instead of exhausting the machine.
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    src = str(Path(vtrim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "vtrim.cli", "trim", "--model", str(model),
         "--sub", str(sub), "--out", str(tmp_path / "out.vtlm")],
        capture_output=True, text=True, env=env, preexec_fn=cap_memory, timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out.vtlm").exists()


@pytest.mark.parametrize("argv, error", [
    (["memory", "--vocab-sizes", "9" * 401, "--hidden-sizes", "1024"],
     "error: size " + "9" * 40 + " exceeds the u32 format limit\n"),
    (["scaling", "--sizes", str(10**30)],
     f"error: size {10**30} exceeds the u32 format limit\n"),
    (["scaling", "--sizes", str(2**32 - 1), "--hidden", "1024"],
     "error: out of memory: Unable to allocate 16.0 TiB"),
    (["init-model", "--out", "{out}", "--vocab-size", str(2**32 - 1), "--hidden", "1024",
      "--layers", "1", "--heads", "1"],
     "error: out of memory: Unable to allocate 16.0 TiB"),
    (["memory", "--vocab-sizes", "9" * 5000, "--hidden-sizes", "1024"],
     "error: expected comma-separated integers, got '" + "9" * 39 + "\n"),
    (["scaling", "--sizes", "10", "--hidden", str(10**30)],
     f"error: hidden {10**30} exceeds the u32 format limit\n"),
    (["init-model", "--out", "{out}", "--vocab-size", "10", "--hidden", "8",
      "--layers", str(2**32), "--heads", "1"],
     f"error: layers {2**32} exceeds the u32 format limit\n"),
    (["init-model", "--out", "{out}", "--vocab-size", "10", "--hidden", "8",
      "--layers", "1", "--heads", "1", "--seed", "-1"],
     "error: seed must be >= 0, got -1\n"),
], ids=["memory-401-digits", "scaling-1e30", "scaling-u32-max", "init-model-u32-max",
        "memory-5000-digits", "scaling-hidden-1e30", "init-model-layers-2e32",
        "init-model-negative-seed"])
def test_oversized_sizes_exit_one_without_traceback(tmp_path, argv, error):
    def cap_memory():
        # 2 GiB of address space, so no attempt can exhaust the machine.
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    out = tmp_path / "model.vtlm"
    src = str(Path(vtrim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "vtrim.cli", *(a.format(out=out) for a in argv)],
        capture_output=True, text=True, env=env, preexec_fn=cap_memory, timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith(error), proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("problem", ["missing", "malformed"])
def test_trim_reads_the_sub_vocabulary_before_the_model(
    workdir, tmp_path, capsys, monkeypatch, problem
):
    # A bad sub-vocabulary file is reported without reading the whole model.
    def no_model(*_args, **_kwargs):
        raise AssertionError("the model was loaded before the sub-vocabulary")

    monkeypatch.setattr(toylm, "load_model", no_model)
    sub = tmp_path / "sub.json"
    if problem == "malformed":
        sub.write_text('{"kept": [0, 1]}', encoding="utf-8")
    out = tmp_path / "out.vtlm"
    code = main(["trim", "--model", str(workdir / "model.vtlm"), "--sub", str(sub),
                 "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert ("not found" if problem == "missing" else "malformed sub-vocabulary") in err
    assert not out.exists()


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--no-such-flag"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
