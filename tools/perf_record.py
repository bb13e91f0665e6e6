#!/usr/bin/env python3
"""Record one revision's benchmark results as the next BENCH_<n>.json.

    python3 tools/perf_record.py REV [--runs 5] [--seed-base 1]

For each workload that REV's ``BENCHMARK.json`` names, the benchmark runs
``runs`` times untraced, on seeds ``seed-base`` to ``seed-base + runs - 1``,
then once traced on ``seed-base``, each run from its own fresh ``git
archive`` of REV (see ``perf_compare.run_once``). The file, written at the
repository's root with ``n`` one past the highest recorded so far, holds:

- the revision and the machine (CPU count, Python, NumPy, BLAS);
- the seeds;
- per workload and end-to-end metric, the untraced runs' median, inclusive
  quartiles, run count and unit;
- per workload, the traced run's per-layer metrics;
- every run's ``correct``, ``failed``, ``attempted`` and token-id digest.

Run it from inside the repository, on an otherwise idle machine, as for
``perf_compare.py``. Exit code 1 if a run exits non-zero or is not
``correct``; the file is written either way.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import re
import sys

import perf_compare


def machine() -> dict:
    """What the numbers depend on besides the code."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
    }


def run_entry(seed: int, trace: bool, result: dict | None) -> dict:
    """One run's outcome; a run with no result counts as not correct."""
    entry = {"seed": seed, "trace": int(trace)}
    if result is None:
        return entry | {"correct": False, "failed": None, "attempted": None, "ids": None}
    return entry | {k: result[k] for k in ("correct", "failed", "attempted", "ids")}


def workload_record(end_to_end: list[dict], runs: list[tuple[int, bool, dict | None]]) -> dict:
    """One workload's entry from its (seed, traced, result) runs: a summary
    of each end-to-end metric over the untraced runs that report it, the
    traced runs' per-layer metrics and every run's outcome."""
    metrics = {}
    for m in end_to_end:
        values = [r["metrics"][m["name"]]["value"] for _, trace, r in runs
                  if not trace and r is not None and m["name"] in r["metrics"]]
        q1, median, q3 = perf_compare.summary(values) if values else (None, None, None)
        metrics[m["name"]] = {"median": median, "q1": q1, "q3": q3, "n": len(values),
                              "unit": m["unit"]}
    return {
        "end_to_end": metrics,
        "per_layer": {k: v for _, trace, r in runs if trace and r is not None
                      for k, v in r["metrics"].items()},
        "runs": [run_entry(*run) for run in runs],
    }


def next_path(root: str) -> str:
    """BENCH_<n>.json in ``root``, n one past the highest there (1 if none)."""
    taken = [int(m.group(1)) for name in os.listdir(root)
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", name))]
    return os.path.join(root, f"BENCH_{max(taken, default=0) + 1}.json")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("rev")
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--seed-base", type=int, default=1)
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    git = perf_compare.git
    rev = git("rev-parse", "--verify", f"{args.rev}^{{commit}}").decode().strip()
    bench = json.loads(git("show", f"{rev}:BENCHMARK.json"))
    seeds = list(range(args.seed_base, args.seed_base + args.runs))
    record = {"revision": rev, "machine": machine(),
              "seeds": {"untraced": seeds, "traced": args.seed_base}, "workloads": {}}
    for w in bench["workloads"]:
        plan = [(seed, False) for seed in seeds] + [(args.seed_base, True)]
        runs = [(seed, trace, perf_compare.run_once(rev, bench["command"], w["name"], seed,
                                                    bench["run_seconds"], trace))
                for seed, trace in plan]
        record["workloads"][w["name"]] = workload_record(bench["end_to_end"], runs)
    path = next_path(git("rev-parse", "--show-toplevel").decode().strip())
    with open(path, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    print(f"wrote {path}")
    runs = [r for w in record["workloads"].values() for r in w["runs"]]
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
