"""The verdict rules of tools/perf_compare.py, on synthetic numbers only:
nothing here starts a benchmark run."""
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "perf_compare.py"
_spec = importlib.util.spec_from_file_location("perf_compare", _PATH)
perf_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_compare)
verdict = perf_compare.verdict

PARENT = [100.0 + i for i in range(10)]  # median 104.5, quartiles 102.25-106.75


def test_summary_gives_inclusive_quartiles():
    assert perf_compare.summary(PARENT) == (102.25, 104.5, 106.75)
    assert perf_compare.summary([3.0]) == (3.0, 3.0, 3.0)


def test_gain_needs_nine_of_ten_wins_and_a_gap_above_the_spread():
    assert verdict(PARENT, [p + 20 for p in PARENT], "higher", 0.25) == ("gain", 10)
    assert verdict(PARENT, [p - 20 for p in PARENT], "lower", 0.25) == ("gain", 10)
    # Every pair won, but by less than the parent's quartile spread (4.5).
    assert verdict(PARENT, [p + 4 for p in PARENT], "higher", 0.25) == ("same", 10)
    # Eight wins of ten are not enough, however large the gap.
    change = [p + 20 for p in PARENT[:8]] + [p - 1 for p in PARENT[8:]]
    assert verdict(PARENT, change, "higher", 0.25) == ("same", 8)
    # Fewer than ten pairs never make a gain, however clear.
    assert verdict(PARENT[:9], [p + 20 for p in PARENT[:9]], "higher", 0.25) == ("same", 9)
    assert verdict([1.0], [2.0], "higher", 0.25) == ("same", 1)


def test_ties_count_for_neither_side():
    assert verdict(PARENT, list(PARENT), "higher", 0.25) == ("same", 0)
    assert verdict(PARENT, list(PARENT), "lower", 0.25) == ("same", 0)
    # Nine wins and one tie is a gain; eight wins and two ties is not.
    nine = [p + 20 for p in PARENT[:9]] + PARENT[9:]
    assert verdict(PARENT, nine, "higher", 0.25) == ("gain", 9)
    eight = [p + 20 for p in PARENT[:8]] + PARENT[8:]
    assert verdict(PARENT, eight, "higher", 0.25) == ("same", 8)


def test_worse_is_a_median_past_the_bound_in_either_direction():
    assert verdict(PARENT, [p * 0.7 for p in PARENT], "higher", 0.25) == ("worse", 0)
    assert verdict(PARENT, [p * 1.3 for p in PARENT], "lower", 0.25) == ("worse", 0)
    # 20% worse is inside a 25% bound, but past a 5% one.
    assert verdict(PARENT, [p * 0.8 for p in PARENT], "higher", 0.25) == ("same", 0)
    assert verdict(PARENT, [p * 1.2 for p in PARENT], "lower", 0.05) == ("worse", 0)


def test_a_spread_wider_than_the_bound_is_unresolved():
    wide = [40.0, 60.0, 80.0, 90.0, 100.0, 100.0, 110.0, 120.0, 140.0, 160.0]
    change = [w + 1 if i % 2 else w - 1 for i, w in enumerate(wide)]
    assert verdict(wide, change, "higher", 0.25) == ("unresolved", 5)
    # The same runs under a bound wider than the spread.
    assert verdict(wide, change, "higher", 0.5) == ("same", 5)


def test_a_wide_spread_is_resolved_when_every_change_run_beats_every_parent_run():
    wide = [10.0] * 3 + [100.0] * 7  # quartiles 32.5-100: 68% of the median
    assert verdict(wide, [101.0] * 10, "higher", 0.25) == ("same", 10)
    low = [100.0] * 7 + [190.0] * 3  # quartiles 100-167.5
    assert verdict(low, [99.0] * 10, "lower", 0.25) == ("same", 10)
    # One change run inside the parent's range leaves it unresolved.
    assert verdict(wide, [101.0] * 9 + [50.0], "higher", 0.25) == ("unresolved", 9)


def test_more_failed_operations_void_a_gain():
    change = [p + 20 for p in PARENT]
    assert verdict(PARENT, change, "higher", 0.25, (0.0, 0.0)) == ("gain", 10)
    assert verdict(PARENT, change, "higher", 0.25, (0.01, 0.01)) == ("gain", 10)
    assert verdict(PARENT, change, "higher", 0.25, (0.0, 0.01)) == ("same", 10)


def _run(failed, **values):
    return {"correct": failed == 0, "attempted": 100, "failed": failed,
            "metrics": {k: {"value": v, "unit": "s"} for k, v in values.items()}}


def test_compare_reports_every_metric(capsys):
    metrics = [{"name": "a_s", "better": "lower", "bound": 0.25},
               {"name": "b_s", "better": "lower", "bound": 0.25},
               {"name": "c_s", "better": "lower", "bound": 0.25}]
    # c_s is in no run; it is still reported, as unresolved.
    runs = [(_run(0, a_s=p, b_s=p), _run(0, a_s=p - 20, b_s=p * 2)) for p in PARENT]
    assert perf_compare.compare("w", metrics, runs) == ["gain", "worse", "unresolved"]
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[-3:]] == ["a_s", "b_s", "c_s"]
    assert lines[-3].endswith("10/10  gain")
    # The change failing one operation more voids its gain.
    runs[0] = (runs[0][0], _run(1, a_s=80.0, b_s=200.0))
    assert perf_compare.compare("w", metrics, runs)[0] == "same"


def test_help_lists_the_options_without_running(capsys):
    with pytest.raises(SystemExit) as exc:
        perf_compare.main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert all(opt in out for opt in ("--pairs", "--seed-base", "--workload"))


def test_compare_counts_pairs_with_equal_ids_digests(capsys):
    metrics = [{"name": "a_s", "better": "lower", "bound": 0.25}]
    runs = [(_run(0, a_s=p), _run(0, a_s=p)) for p in PARENT[:3]]
    for (parent, change), ids in zip(runs, [("x", "x"), ("x", "y"), (None, None)]):
        parent["ids"], change["ids"] = ids
    perf_compare.compare("w", metrics, runs)
    assert "ids digests equal in 1/3 pairs" in capsys.readouterr().out
