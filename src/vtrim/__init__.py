"""Vocabulary trimming toolkit for byte-level BPE language models.

Builds language-targeted sub-vocabularies (Unicode-script filtering,
corpus-based selection, oracle collection), slices embedding and output
matrices to them, and measures the resulting speed, memory, and output
drift on a self-contained toy decoder.
"""

from .bpe import (
    Merges,
    Vocabulary,
    decode,
    decode_bytes,
    encode,
    load_vocab,
)
from .errors import VtError
from .metrics import (
    EvalReport,
    embedding_fraction,
    memory_footprint,
    miss_count,
    o_bleu,
    o_chrf,
)
from .subvocab import (
    PRESETS,
    ScriptSpec,
    SubVocabulary,
    build_mapping,
    corpus_select,
    full_vocabulary,
    load_subvocab,
    oracle_select,
    save_subvocab,
    script_filter,
    with_input_tokens,
)
from .toylm import (
    DecodeResult,
    ModelConfig,
    ModelWeights,
    count_params,
    forward_logits,
    greedy_decode,
    init_random,
    load_model,
    save_model,
    trim_model,
)

__version__ = "0.1.0"

__all__ = [
    "VtError",
    "Vocabulary", "Merges", "load_vocab", "encode", "decode", "decode_bytes",
    "ScriptSpec", "SubVocabulary", "PRESETS", "script_filter", "corpus_select",
    "oracle_select", "with_input_tokens", "build_mapping", "full_vocabulary",
    "save_subvocab", "load_subvocab",
    "ModelConfig", "ModelWeights", "DecodeResult", "init_random", "forward_logits",
    "trim_model", "greedy_decode", "save_model", "load_model",
    "count_params",
    "EvalReport", "miss_count", "o_bleu", "o_chrf", "memory_footprint",
    "embedding_fraction",
    "__version__",
]
