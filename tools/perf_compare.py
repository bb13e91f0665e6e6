#!/usr/bin/env python3
"""Compare two revisions on the benchmark, in alternating pairs of runs.

    python3 tools/perf_compare.py PARENT CHANGE [--pairs 10] [--seed-base 1]
                                  [--workload W ...]

For each workload (default: every workload ``BENCHMARK.json`` names) and
each pair i, both revisions run the benchmark untraced on seed
``seed-base + i``, for the run length ``BENCHMARK.json`` sets. The side
that runs first alternates from pair to pair. Every run gets its own
fresh ``git archive`` of its revision in a new directory, removed after
the run: perfbench results of identical code have differed by checkout
directory. Run it from inside the repository, on an otherwise idle
machine, and do not run the test suite beside it: the timing tests and
the benchmark slow each other down, and both then misread.

Metric names, their direction (``better``) and bounds come from the
parent's ``BENCHMARK.json``. For every workload and end-to-end metric the
report gives each side's median with its quartiles, the pairs the change
won (ties count for neither) and one verdict:

- ``worse``: the change's median is worse than the parent's by more than
  the bound, relative to the parent's median;
- ``gain``: there are at least ten pairs, the change won at least nine
  tenths of them, its median beats the parent's by more than the parent's
  quartile spread, and its share of failed operations is no higher than
  the parent's;
- ``unresolved``: the parent's quartile spread, relative to its median,
  exceeds the bound, and not every change run beats every parent run;
- ``same``: none of the above.

Exit code 1 if a run exits non-zero or is not ``correct``, or if any
metric is ``worse``; 0 otherwise.
"""
from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile


def summary(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) of the values, by the inclusive quartile method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float,
            failed_share: tuple[float, float] = (0.0, 0.0)) -> tuple[str, int]:
    """(verdict, pairs the change won) for one metric; ``parent[i]`` and
    ``change[i]`` are pair i's runs, and ``failed_share`` is each side's
    failed / attempted operations."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    q1, p_med, q3 = summary(parent)
    c_med = summary(change)[1]
    gap = sign * (c_med - p_med)  # > 0 when the change's median is better
    if -gap > bound * abs(p_med):
        return "worse", wins
    if (len(parent) >= 10 and 10 * wins >= 9 * len(parent) and gap > q3 - q1
            and failed_share[1] <= failed_share[0]):
        return "gain", wins
    separated = min(sign * c for c in change) > max(sign * p for p in parent)
    if q3 - q1 > bound * abs(p_med) and not separated:
        return "unresolved", wins
    return "same", wins


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], check=True, capture_output=True).stdout


def run_once(rev: str, command: list[str], workload: str, seed: int,
             seconds: float) -> dict | None:
    """One untraced run of ``rev`` from a fresh archive; its last stdout line,
    or None if the run exits non-zero or prints no JSON last line."""
    root = tempfile.mkdtemp(prefix="perf_compare-")
    try:
        with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
            tar.extractall(root, filter="data")
        proc = subprocess.run(
            command + ["--workload", workload, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", "0"],
            cwd=root, capture_output=True, text=True)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        result = None
    state = "no result" if result is None else "correct" if result["correct"] else "INCORRECT"
    print(f"  {rev[:12]} {workload} seed {seed}: exit {proc.returncode}, {state}; "
          + (lines[-2] if len(lines) > 1 else proc.stderr.strip()[-200:]), flush=True)
    return result


def compare(workload: str, metrics: list[dict], runs: list[tuple[dict, dict]]) -> list[str]:
    """Print one workload's table; return the verdict of each metric."""
    shares = [sum(r[side]["failed"] for r in runs)
              / max(1, sum(r[side]["attempted"] for r in runs)) for side in (0, 1)]
    print(f"\n{workload}: {len(runs)} pairs; failed operations "
          f"{shares[0]:.3f} parent, {shares[1]:.3f} change")
    print(f"{'metric':24} {'parent median [q1-q3]':>30} {'change median [q1-q3]':>30} "
          f"{'won':>6}  verdict")
    verdicts = []
    for m in metrics:
        name = m["name"]
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"]) for p, c in runs
                 if name in p["metrics"] and name in c["metrics"]]
        if not pairs:
            print(f"{name:24} {'no runs':>30}")
            verdicts.append("unresolved")
            continue
        parent, change = [p for p, _ in pairs], [c for _, c in pairs]
        v, wins = verdict(parent, change, m["better"], m["bound"], tuple(shares))
        cells = ["{1:.4g} [{0:.4g}-{2:.4g}]".format(*summary(side)) for side in (parent, change)]
        print(f"{name:24} {cells[0]:>30} {cells[1]:>30} {wins:>3}/{len(pairs):<2}  {v}")
        verdicts.append(v)
    return verdicts


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args(argv)
    parent, change = (git("rev-parse", "--verify", f"{r}^{{commit}}").decode().strip()
                      for r in (args.parent, args.change))
    bench = json.loads(git("show", f"{parent}:BENCHMARK.json"))
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    ok = True
    for workload in workloads:
        runs = []
        for i in range(args.pairs):
            got = [None, None]  # parent's run, change's run
            for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                got[side] = run_once((parent, change)[side], bench["command"], workload,
                                     args.seed_base + i, bench["run_seconds"])
            if any(r is None or not r["correct"] for r in got):
                ok = False
            if None not in got:
                runs.append(tuple(got))
        if "worse" in compare(workload, bench["end_to_end"], runs):
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
