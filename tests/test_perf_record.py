"""tools/perf_record.py on synthetic run results only: nothing here starts
a benchmark run."""
import importlib.util
import json
import sys
from pathlib import Path

import pytest

_TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, _TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


perf_compare = _load("perf_compare")
sys.modules.setdefault("perf_compare", perf_compare)  # perf_record imports it by name
perf_record = _load("perf_record")

END_TO_END = [{"name": "a_s", "unit": "s", "better": "lower", "bound": 0.25},
              {"name": "b_mib", "unit": "MiB", "better": "lower", "bound": 0.05}]


def _result(ids, failed=0, **values):
    return {"correct": failed == 0, "attempted": 10, "failed": failed, "ids": ids,
            "metrics": {k: {"value": v, "unit": "s"} for k, v in values.items()}}


def test_workload_record_summarises_untraced_runs_and_keeps_the_traced_layers():
    runs = [(1, False, _result("aa", a_s=1.0, b_mib=10.0)),
            (2, False, _result("bb", a_s=3.0, b_mib=30.0)),
            (3, False, _result("cc", a_s=2.0)),  # reports no b_mib
            (4, False, None),  # exited non-zero
            (1, True, _result("aa", layer_s=0.5))]
    got = perf_record.workload_record(END_TO_END, runs)
    assert got["end_to_end"] == {
        "a_s": {"median": 2.0, "q1": 1.5, "q3": 2.5, "n": 3, "unit": "s"},
        "b_mib": {"median": 20.0, "q1": 15.0, "q3": 25.0, "n": 2, "unit": "MiB"},
    }
    # The traced run's metrics are per-layer only; they never enter a summary.
    assert got["per_layer"] == {"layer_s": {"value": 0.5, "unit": "s"}}
    assert got["runs"] == [
        {"seed": 1, "trace": 0, "correct": True, "failed": 0, "attempted": 10, "ids": "aa"},
        {"seed": 2, "trace": 0, "correct": True, "failed": 0, "attempted": 10, "ids": "bb"},
        {"seed": 3, "trace": 0, "correct": True, "failed": 0, "attempted": 10, "ids": "cc"},
        {"seed": 4, "trace": 0, "correct": False, "failed": None, "attempted": None,
         "ids": None},
        {"seed": 1, "trace": 1, "correct": True, "failed": 0, "attempted": 10, "ids": "aa"},
    ]
    json.dumps(got)  # the record is plain JSON


def test_workload_record_with_no_result_reports_empty_metrics():
    got = perf_record.workload_record(END_TO_END, [(1, False, None), (1, True, None)])
    assert got["end_to_end"]["a_s"] == {"median": None, "q1": None, "q3": None, "n": 0,
                                        "unit": "s"}
    assert got["per_layer"] == {}
    assert [r["correct"] for r in got["runs"]] == [False, False]


def test_next_path_counts_past_the_highest_record(tmp_path):
    assert perf_record.next_path(str(tmp_path)) == str(tmp_path / "BENCH_1.json")
    for name in ("BENCH_1.json", "BENCH_3.json", "BENCH_x.json", "BENCH_9.json.bak"):
        (tmp_path / name).write_text("{}")
    assert perf_record.next_path(str(tmp_path)) == str(tmp_path / "BENCH_4.json")


def test_machine_names_the_blas():
    got = perf_record.machine()
    assert got["cpus"] >= 1 and got["python"] and got["numpy"]
    assert set(got["blas"]) == {"name", "version", "openblas configuration"}


def test_summary_line_pattern_reads_the_benchmark_digest():
    # The line perfbench/run.py prints before its JSON line.
    line = ("corpus-build seed 5: 3 rounds, 9 checks, ids 0123456789abcdef, "
            "miss 0/4  o-BLEU 100.00  o-chrF 100.00")
    assert perf_compare._SUMMARY.match(line).group(1) == "0123456789abcdef"
    assert perf_compare._SUMMARY.match("traced decode_tok_s.full 1.0") is None


def test_help_lists_the_options_without_running(capsys):
    with pytest.raises(SystemExit) as exc:
        perf_record.main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert all(opt in out for opt in ("--runs", "--seed-base"))
