"""Output-drift and footprint metrics for trimmed-vocabulary decoding.

BLEU and chrF here score trimmed output against the full-vocabulary
output of the same model, not against gold references: they measure how
much trimming altered generation. Both return exactly 100.0 on identical
corpora and exactly 0.0 on fully disjoint ones.
"""
from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal

from .errors import VtError
from .toylm import U32_MAX, ModelConfig, count_params

_BLEU_ORDER = 4
_CHRF_ORDER = 6
_CHRF_BETA = 2.0
_WS = re.compile(r"\s+")


def miss_count(full_outputs: list[str], vt_outputs: list[str]) -> int:
    """Number of positions where the trimmed output is not the exact same
    string as the full-vocabulary output. No normalization of any kind."""
    _check_lengths(full_outputs, vt_outputs, "output")
    return sum(1 for full, vt in zip(full_outputs, vt_outputs) if full != vt)


def _check_lengths(a: list[str], b: list[str], what: str) -> None:
    if len(a) != len(b):
        raise VtError(f"{what} lists differ in length: {len(a)} vs {len(b)}")


def _tokens(text: str, lang: str) -> list[str]:
    # zh has no whitespace word boundaries; score it at character level.
    if lang == "zh":
        return [ch for ch in text if not ch.isspace()]
    return text.split()


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _ngram_counts(
    hypotheses: list[str], references: list[str], split, order: int
) -> tuple[list[int], list[int], list[int]]:
    """Corpus totals for n = 1..order, each list indexed by n - 1: clipped
    n-gram matches, hypothesis n-grams and reference n-grams. ``split``
    turns a line into the units (words or characters) n-grams are made of."""
    if not hypotheses:
        raise VtError("empty corpus")
    _check_lengths(hypotheses, references, "corpus")
    matched, hyp_total, ref_total = [0] * order, [0] * order, [0] * order
    for hyp, ref in zip(hypotheses, references):
        hyp_units, ref_units = split(hyp), split(ref)
        for n in range(1, order + 1):
            hyp_counts, ref_counts = _ngrams(hyp_units, n), _ngrams(ref_units, n)
            matched[n - 1] += (hyp_counts & ref_counts).total()
            hyp_total[n - 1] += hyp_counts.total()
            ref_total[n - 1] += ref_counts.total()
    return matched, hyp_total, ref_total


def o_bleu(hypotheses: list[str], references: list[str], lang: str = "en") -> float:
    """Corpus BLEU of trimmed output against full-vocabulary output.

    4-gram modified precisions with brevity penalty. Orders the corpus is
    too short to instantiate are skipped (effective-order geometric mean);
    zero counts at higher orders get exponential smoothing; zero unigram
    overlap scores exactly 0.
    """
    matched, total, ref_total = _ngram_counts(
        hypotheses, references, lambda text: _tokens(text, lang), _BLEU_ORDER
    )
    sys_len, ref_len = total[0], ref_total[0]
    if sys_len == 0:
        return 100.0 if ref_len == 0 else 0.0
    if matched[0] == 0:
        return 0.0
    log_sum = 0.0
    orders = 0
    smooth = 1.0
    for n in range(_BLEU_ORDER):
        if total[n] == 0:
            continue
        if matched[n] == 0:
            smooth *= 2.0
            precision = 1.0 / (smooth * total[n])
        else:
            precision = matched[n] / total[n]
        log_sum += math.log(precision)
        orders += 1
    geo_mean = math.exp(log_sum / orders)
    brevity = 1.0 if sys_len > ref_len else math.exp(1.0 - ref_len / sys_len)
    return 100.0 * brevity * geo_mean


def o_chrf(hypotheses: list[str], references: list[str]) -> float:
    """Corpus chrF (character n-grams 1..6, beta=2) of trimmed output
    against full-vocabulary output. Whitespace is stripped entirely; the
    per-order F-scores are averaged over the orders either side actually
    instantiates."""
    matched, hyp_total, ref_total = _ngram_counts(
        hypotheses, references, lambda text: _WS.sub("", text), _CHRF_ORDER
    )
    beta_sq = _CHRF_BETA * _CHRF_BETA
    f_scores = []
    for n in range(_CHRF_ORDER):
        if hyp_total[n] == 0 and ref_total[n] == 0:
            continue
        precision = matched[n] / hyp_total[n] if hyp_total[n] else 0.0
        recall = matched[n] / ref_total[n] if ref_total[n] else 0.0
        if precision + recall == 0.0:
            f_scores.append(0.0)
        else:
            f_scores.append(
                (1.0 + beta_sq) * precision * recall / (beta_sq * precision + recall)
            )
    if not f_scores:
        return 100.0  # both sides empty after whitespace stripping
    return 100.0 * sum(f_scores) / len(f_scores)


def memory_footprint(vocab_size: int, hidden: int) -> float:
    """Float32 embedding-matrix footprint in GiB: V * H * 4 / 2^30. Every
    model here is float32, and so is the paper's reference table.

    Returns the exact value (it is exactly linear in each argument);
    round only for display, via format_gib.
    """
    if vocab_size <= 0 or hidden <= 0:
        raise VtError("vocab_size and hidden must be positive")
    if (size := max(vocab_size, hidden)) > U32_MAX:
        raise VtError(f"size {size!r:.40} exceeds the u32 format limit")
    return vocab_size * hidden * 4 / 2**30


def format_gib(value: float) -> str:
    """Two-decimal display rounding, half up."""
    return str(Decimal(value).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def embedding_fraction(config: ModelConfig) -> float:
    """Share of all parameters that live in the vocabulary-dimension
    matrices (embedding, plus the output layer when untied)."""
    vocab_params, total_params = count_params(config)
    return vocab_params / total_params


@dataclass
class EvalReport:
    """Quality summary of a trimmed decode scored against the full one; the
    sub-vocabulary fields are filled when ``eval`` gets ``--sub``."""

    n_prompts: int
    miss: int
    o_bleu: float
    o_chrf: float
    subvocab_size: int | None = None
    language: str | None = None
    method: str | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.miss <= self.n_prompts:
            raise VtError(f"miss {self.miss} outside [0, {self.n_prompts}]")
        for name in ("o_bleu", "o_chrf"):
            score = getattr(self, name)
            if not 0.0 <= score <= 100.0:
                raise VtError(f"{name} {score} outside [0, 100]")
