"""Wall-clock measurement: end-to-end decode runs and projection scaling.

An end-to-end run loads a model file inside the measured window and
decodes; ``vtrim decode`` serves a prompt batch through the same function
with one repeat. A trimmed run loads the file ``vtrim trim`` wrote, as a
deployment serves it, so its time and memory are the trimmed model's
alone; slicing is paid once, offline. The scaling microbenchmark instead
isolates the output projection with a warm-up pass, because it asks a
different question: how the per-step cost grows with |V|.
"""
from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from .errors import VtError
from .subvocab import SubVocabulary
from .toylm import U32_MAX, greedy_decode, load_model, project_rows


def time_end_to_end(
    model_path: str,
    sub: SubVocabulary,
    prompts: Sequence[tuple[int, Sequence[int]]],
    max_new: int,
    repeats: int = 5,
    eos: int = 2,
) -> tuple[float, float, list[list[int]]]:
    """Serve a model file on a prompt batch: load it, checked against
    ``sub`` (the sub-vocabulary it was trimmed with, or
    ``full_vocabulary(V)`` for a full model), then greedy-decode each
    ``(record id, token ids)`` prompt. A decode error names its prompt's
    record id. Returns the median of ``repeats`` runs by end-to-end time
    (lower median for even repeats) as load seconds, decode seconds and
    each prompt's generated original ids, which must be identical across
    repeats."""
    if repeats < 1:
        raise VtError(f"repeats must be >= 1, got {repeats!r:.40}")
    runs: list[tuple[float, float]] = []
    outputs_first: list[list[int]] | None = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        model = load_model(model_path, sub)
        t1 = time.perf_counter()
        outputs: list[list[int]] = []
        for prompt_id, prompt in prompts:
            try:
                result = greedy_decode(model, list(prompt), max_new, eos, sub=sub)
            except VtError as e:
                raise VtError(f"prompt {prompt_id}: {e}") from e
            outputs.append(result.ids[len(prompt):])
        t2 = time.perf_counter()
        runs.append((t1 - t0, t2 - t1))
        if outputs_first is None:
            outputs_first = outputs
        elif outputs != outputs_first:
            raise VtError("decode outputs changed between repeats")
        del model  # release before the next load; the big models are ~1 GiB

    load_s, decode_s = sorted(runs, key=sum)[(repeats - 1) // 2]
    assert outputs_first is not None
    return load_s, decode_s, outputs_first


def output_layer_scaling(
    hidden: int,
    vocab_sizes: Sequence[int],
    trials: int = 5,
) -> list[tuple[int, float]]:
    """Median seconds for one |V| x H -> |V| projection at each size.

    Uses the same kernel as the model forward pass. One untimed warm-up
    projection per size populates caches before measurement.
    """
    if trials < 3:
        raise VtError(f"trials must be >= 3, got {trials!r:.40}")
    if not vocab_sizes:
        raise VtError("no vocab sizes to measure")
    if hidden < 1 or any(v < 1 for v in vocab_sizes):
        raise VtError("hidden and vocab sizes must be >= 1")
    if hidden > U32_MAX:
        raise VtError(f"hidden {hidden!r:.40} exceeds the u32 format limit")
    rng = np.random.default_rng(0)
    vec = rng.standard_normal(hidden, dtype=np.float32)
    results: list[tuple[int, float]] = []
    for vocab_size in vocab_sizes:
        matrix = rng.standard_normal((vocab_size, hidden), dtype=np.float32)
        project_rows(matrix, vec)  # warm-up, untimed
        times = []
        for _ in range(trials):
            t0 = time.perf_counter()
            project_rows(matrix, vec)
            times.append(time.perf_counter() - t0)
        times.sort()
        results.append((vocab_size, times[(trials - 1) // 2]))
        del matrix
    return results
