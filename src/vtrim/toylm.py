"""Minimal decoder-only transformer with slice-friendly weights.

The model exists so vocabulary trimming can be measured without a real
LLM checkpoint. It is built so that trimming the vocabulary dimension
leaves every kept logit bit-identical. No interior layer ever sees the
vocabulary dimension, and the output projection (``project_rows``) gets
every logit from a single-threaded BLAS GEMV of one fixed shape, 1024
rows by H. Such a call sums each row in the same order wherever the row
sits in it, so a row's logit depends on the row and the hidden vector
alone, not on which rows share its call. Everything runs in float32.

Architecture: pre-norm blocks (LayerNorm -> causal multi-head attention
-> residual, LayerNorm -> GELU MLP with 4x expansion -> residual),
sinusoidal position encoding, a final LayerNorm, and a V x H output
projection that aliases the embedding when tied. Linear layers carry no
bias; LayerNorms carry weight and bias.

Every forward pass runs through a per-block key/value cache; a pass given
no cache fills a fresh one, so an uncached pass is a prefill. That cache
is the only state a pass keeps: a pass computes the position rows of its
new positions afresh, and a model holds nothing but its tensors. Each later
step runs only the new position and reads the earlier keys and values
from the cache, which holds hidden-size vectors, never the vocabulary
dimension, so full and trimmed runs share one code path and kept logits
stay bitwise equal. Only the last position's logits are wanted, so the
last block runs its query, attention output and MLP, and the final
LayerNorm runs, on that row alone; only its keys and values cover every
new position, for the cache's sake.
A step multiplies one row where a fresh pass over the same context
multiplies them all, so its logits may differ from that pass's in the
last bits: at most 1.2e-6, on logits of magnitude about 2, for 4-layer,
512-wide models at |V| 32000 and 64000 and contexts up to 247. A step,
like any pass over fewer than 64 new positions, makes all its BLAS calls
on one thread: its calls are too short to gain from a second thread that
may have to wait for a CPU; a long prompt's prefill keeps BLAS's own
thread count.

Outside its matrix products a pass works in place: the residual stream
gets each block's output added into it, LayerNorm fills one output array,
and attention's scaling, causal mask and softmax, and the MLP's GELU, run
over tiles of ``_TILE_ROWS`` rows that stay in the L2 cache, inside the
arrays the products wrote. Every element meets the same operations, on
the same operands and in the same order, as with one fresh array per op,
so the logits are bitwise those of whole-array code. On a 32000 x 512,
4-layer model at 2 BLAS threads, a 240-token prefill took 91-93 ms with
whole-array ops, softmax 16 ms and GELU 12 ms of it, and 59-67 ms in place.

One layout table (``_layout``) lists every tensor's name, shape and
initialisation; creating, saving, loading, trimming and counting
parameters all walk it. A ``.vtlm`` header fixes the file's exact byte
length, and ``load_model`` rejects a file of any other size before it
allocates a tensor.
"""
from __future__ import annotations

import contextlib
import ctypes
import math
import os
import struct
from dataclasses import dataclass, replace

import numpy as np

from .atomic import atomic_write
from .errors import VtError
from .subvocab import SubVocabulary

MAGIC = b"VTLM"
FORMAT_VERSION = 1
_INIT_STD = 0.02
U32_MAX = 2**32 - 1


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    hidden: int
    layers: int
    heads: int
    max_context: int
    tied_embeddings: bool = True

    def __post_init__(self) -> None:
        for name in ("vocab_size", "hidden", "layers", "heads", "max_context"):
            value, low = getattr(self, name), (0 if name == "layers" else 1)
            if value < low:
                raise VtError(f"{name} must be >= {low}, got {value!r:.40}")
            if value > U32_MAX:
                raise VtError(f"{name} {value!r:.40} exceeds the u32 format limit")
        if self.hidden % self.heads != 0:
            raise VtError(
                f"hidden ({self.hidden}) must be divisible by heads ({self.heads})"
            )


@dataclass
class BlockWeights:
    """One transformer block. Linear maps use the y = x @ W convention,
    so W has shape (in_features, out_features)."""

    ln1_w: np.ndarray
    ln1_b: np.ndarray
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    ln2_w: np.ndarray
    ln2_b: np.ndarray
    w1: np.ndarray
    w2: np.ndarray


@dataclass
class ModelWeights:
    config: ModelConfig
    embedding: np.ndarray
    blocks: list[BlockWeights]
    lnf_w: np.ndarray
    lnf_b: np.ndarray
    output: np.ndarray | None = None  # None iff tied_embeddings

    @property
    def output_matrix(self) -> np.ndarray:
        return self.embedding if self.config.tied_embeddings else self.output  # type: ignore[return-value]


def _sinusoidal_positions(start: int, stop: int, hidden: int) -> np.ndarray:
    """Position encoding rows ``start`` to ``stop - 1``, (stop - start, hidden)
    float32: column 2i is sin(t * f_i) and column 2i + 1 is cos(t * f_i), with
    f_i = 10000 ** (-2i / hidden). Computed in float64, then cast, so a row
    is the same bytes whatever range it is computed in."""
    half = (hidden + 1) // 2
    freqs = np.exp(np.arange(half, dtype=np.float64) * (-2.0 * math.log(10000.0) / hidden))
    angles = np.arange(start, stop, dtype=np.float64)[:, None] * freqs
    rows = np.empty((stop - start, hidden), dtype=np.float32)
    rows[:, 0::2] = np.sin(angles)
    rows[:, 1::2] = np.cos(angles[:, : hidden // 2])
    return rows


# The .vtlm tensor layout, the one description that init, save, load, trim
# and the parameter count all read. Each entry is (name, shape, init); init
# is "normal" (an N(0, 0.02) float32 draw), "ones" or "zeros". The file
# holds the head, then the block entries once per layer, then the tail.
def _layout(config: ModelConfig) -> tuple[list, list, list]:
    v, h = config.vocab_size, config.hidden
    head = [("embedding", (v, h), "normal")]
    block = [
        ("ln1_w", (h,), "ones"), ("ln1_b", (h,), "zeros"),
        ("wq", (h, h), "normal"), ("wk", (h, h), "normal"),
        ("wv", (h, h), "normal"), ("wo", (h, h), "normal"),
        ("ln2_w", (h,), "ones"), ("ln2_b", (h,), "zeros"),
        ("w1", (h, 4 * h), "normal"), ("w2", (4 * h, h), "normal"),
    ]
    tail = [("lnf_w", (h,), "ones"), ("lnf_b", (h,), "zeros")]
    if not config.tied_embeddings:
        tail.append(("output", (v, h), "normal"))
    return head, block, tail


# The only tensors that span the vocabulary, so the only ones trimming cuts.
_VOCAB_TENSORS = ("embedding", "output")

# Header after the magic: version, vocab_size, hidden, layers, heads,
# max_context as u32, then the tied flag as u8.
_HEADER = struct.Struct("<IIIIIIB")


def _layout_total(config: ModelConfig, size) -> int:
    """Sum of size(shape) over every tensor, in closed form over layers."""
    head, block, tail = (sum(size(s) for _, s, _ in part) for part in _layout(config))
    return head + config.layers * block + tail


def _walk(config: ModelConfig):
    """(label, block index or None, name, shape, init) in file order."""
    head, block, tail = _layout(config)
    for name, shape, init in head:
        yield name, None, name, shape, init
    for i in range(config.layers):
        for name, shape, init in block:
            yield f"block{i}.{name}", i, name, shape, init
    for name, shape, init in tail:
        yield name, None, name, shape, init


def _assemble(config: ModelConfig, make) -> ModelWeights:
    """Build a model by calling make(label, shape, init) for each tensor
    in file order and placing the result by name."""
    top: dict[str, np.ndarray] = {}
    blocks: list[dict[str, np.ndarray]] = [{} for _ in range(config.layers)]
    for label, i, name, shape, init in _walk(config):
        (top if i is None else blocks[i])[name] = make(label, shape, init)
    return ModelWeights(config=config, blocks=[BlockWeights(**b) for b in blocks], **top)


def count_params(config: ModelConfig) -> tuple[int, int]:
    """(vocabulary_params, total_params) from the serialized tensor shapes."""
    head, _, tail = _layout(config)
    vocab_params = sum(math.prod(s) for n, s, _ in head + tail if n in _VOCAB_TENSORS)
    return vocab_params, _layout_total(config, math.prod)


def init_random(config: ModelConfig, seed: int) -> ModelWeights:
    """Deterministic weights from a seed.

    Uses numpy's default generator (PCG64). Matrix weights are drawn as
    N(0, 0.02) float32 in serialization order; LayerNorm weights are ones
    and biases zeros (not drawn). Identical (config, seed) pairs produce
    bit-identical weights.
    """
    if seed < 0:
        raise VtError(f"seed must be >= 0, got {seed!r:.40}")
    rng = np.random.default_rng(seed)

    def make(_label: str, shape: tuple[int, ...], init: str) -> np.ndarray:
        if init == "normal":
            w = rng.standard_normal(shape, dtype=np.float32)
            w *= np.float32(_INIT_STD)  # in place: no second array of the tensor's size
            return w
        return (np.ones if init == "ones" else np.zeros)(shape, dtype=np.float32)

    return _assemble(config, make)


def save_model(path: str, model: ModelWeights) -> None:
    """Write the documented binary format.

    Layout: magic "VTLM"; format version u32; vocab_size, hidden, layers,
    heads, max_context as little-endian u32; tied flag u8; then each
    tensor in the fixed order as rank u32, dims u32 each, raw float32
    little-endian data.
    """
    cfg = model.config
    if len(model.blocks) != cfg.layers:
        raise VtError(f"model has {len(model.blocks)} blocks, config says {cfg.layers}")
    with atomic_write(path, binary=True) as f:
        f.write(MAGIC)
        f.write(_HEADER.pack(FORMAT_VERSION, cfg.vocab_size, cfg.hidden, cfg.layers,
                             cfg.heads, cfg.max_context, cfg.tied_embeddings))
        for label, i, name, shape, _ in _walk(cfg):
            arr = getattr(model if i is None else model.blocks[i], name)
            if tuple(arr.shape) != shape:
                raise VtError(f"tensor {label} has shape {arr.shape}, expected {shape}")
            data = np.ascontiguousarray(arr, dtype="<f4")
            f.write(struct.pack(f"<{1 + data.ndim}I", data.ndim, *data.shape))
            data.tofile(f)


def _read_exact(f, n: int, what: str) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise VtError(f"model file truncated while reading {what}")
    return data


def load_model(path: str, sub: SubVocabulary | None = None) -> ModelWeights:
    """Read a ``.vtlm`` file. Given ``sub``, the id space the model is served
    in (a trimmed model's sub-vocabulary, or the whole tokenizer's
    ``full_vocabulary``), reject a model of another size from its header alone."""
    try:
        f = open(path, "rb")
    except FileNotFoundError:
        raise VtError(f"model file not found: {path}") from None
    with f:
        if _read_exact(f, len(MAGIC), "magic") != MAGIC:
            raise VtError(f"{path} is not a model file (bad magic)")
        version, v, h, layers, heads, max_context, tied = _HEADER.unpack(
            _read_exact(f, _HEADER.size, "header")
        )
        if version != FORMAT_VERSION:
            raise VtError(f"unsupported format version {version}")
        config = ModelConfig(vocab_size=v, hidden=h, layers=layers, heads=heads,
                             max_context=max_context, tied_embeddings=bool(tied))
        if sub is not None and sub.size != v:
            raise VtError(f"model file {path} has vocab size {v}, {sub.space} has {sub.size}")
        # The header fixes the file's exact length (each tensor is rank u32,
        # dims u32 each, float32 data), so a hostile header is rejected here
        # before anything is allocated.
        expected = len(MAGIC) + _HEADER.size + _layout_total(
            config, lambda s: 4 * (1 + len(s) + math.prod(s)))
        actual = os.fstat(f.fileno()).st_size
        if actual != expected:
            problem = "truncated" if actual < expected else "has trailing data"
            raise VtError(
                f"model file {problem}: header implies {expected} bytes, file has {actual}"
            )

        # The per-read guards below still hold if the file changes after the stat.
        def read(label: str, shape: tuple[int, ...], _init: str) -> np.ndarray:
            (rank,) = struct.unpack("<I", _read_exact(f, 4, f"{label} rank"))
            if rank != len(shape):
                raise VtError(f"tensor {label}: rank {rank}, expected {len(shape)}")
            dims = struct.unpack(f"<{rank}I", _read_exact(f, 4 * rank, f"{label} dims"))
            if dims != shape:
                raise VtError(f"tensor {label}: shape {dims}, expected {shape}")
            count = math.prod(dims)
            data = np.fromfile(f, dtype="<f4", count=count)
            if data.size != count:
                raise VtError(f"model file truncated while reading {label} data")
            return data.reshape(dims)

        model = _assemble(config, read)
        if f.read(1):
            raise VtError("trailing data after the last tensor")
    return model


# Rows per tile of the elementwise work in _attention and _mlp. All of a
# tile's ops run before the next tile's, in place, so its data stays in the
# 2 MB per-core L2 cache from one op to the next, where a whole-array op
# streams a fresh temporary through memory. GELU over a (240, 2048) float32
# array (2-vCPU Xeon, medians of 41 calls) took 1.84-1.97 ms as whole-array
# ops, 1.52-1.61 ms in place, 1.02-1.10 ms in place over 32-row tiles and
# 1.20-1.43 ms over 128-row tiles (1 MB, and a scratch array as large).
_TILE_ROWS = 32


def _layer_norm(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    mean = x.mean(axis=-1, keepdims=True, dtype=np.float32)
    out = np.subtract(x, mean)
    var = np.square(out).mean(axis=-1, keepdims=True, dtype=np.float32)
    out /= np.sqrt(var + np.float32(1e-5))
    out *= w
    out += b
    return out


class _KVCache:
    """Keys and values of the positions already run, one (heads, capacity,
    head_dim) array each per block, allocated once per decode and filled in
    place; ``length`` counts the positions they hold."""

    def __init__(self, config: ModelConfig, capacity: int) -> None:
        shape = (config.heads, capacity, config.hidden // config.heads)
        self.keys = [np.empty(shape, dtype=np.float32) for _ in range(config.layers)]
        self.values = [np.empty(shape, dtype=np.float32) for _ in range(config.layers)]
        self.capacity = capacity
        self.length = 0


def _attention(x: np.ndarray, blk: BlockWeights, heads: int,
               keys: np.ndarray, values: np.ndarray, start: int,
               causal: np.ndarray, rows: int) -> np.ndarray:
    # x holds positions start on; their keys and values join the block's
    # cache. Only the last ``rows`` of them query, and the output has one
    # row per query. causal is the (t, start + t) mask: 0 where a position
    # may attend, -inf where it may not.
    t, h = x.shape
    dh = h // heads
    q = (x[t - rows:] @ blk.wq).reshape(rows, heads, dh).transpose(1, 0, 2)
    keys[:, start:start + t] = (x @ blk.wk).reshape(t, heads, dh).transpose(1, 0, 2)
    values[:, start:start + t] = (x @ blk.wv).reshape(t, heads, dh).transpose(1, 0, 2)
    k = keys[:, :start + t]
    v = values[:, :start + t]
    scores = q @ k.transpose(0, 2, 1)
    scale = np.float32(math.sqrt(dh))
    causal = causal[t - rows:]
    # Scale, mask and softmax each tile of query rows inside scores.
    for r in range(0, rows, _TILE_ROWS):
        tile = scores[:, r:r + _TILE_ROWS]
        tile /= scale
        tile += causal[r:r + _TILE_ROWS]
        tile -= tile.max(axis=-1, keepdims=True)
        np.exp(tile, out=tile)
        tile /= tile.sum(axis=-1, keepdims=True, dtype=np.float32)
    out = (scores @ v).transpose(1, 0, 2).reshape(rows, h)
    return out @ blk.wo


def _mlp(x: np.ndarray, blk: BlockWeights) -> np.ndarray:
    u = x @ blk.w1
    # GELU, tanh approximation, in place over each tile of rows:
    # 0.5 * u * (1 + tanh(c * (u + 0.044715 * u * u * u))), c = sqrt(2 / pi)
    c = np.float32(math.sqrt(2.0 / math.pi))
    inner = np.empty((min(len(u), _TILE_ROWS), u.shape[1]), dtype=np.float32)
    for r in range(0, len(u), _TILE_ROWS):
        tile = u[r:r + _TILE_ROWS]
        g = inner[:len(tile)]
        np.multiply(tile, np.float32(0.044715), out=g)
        g *= tile
        g *= tile
        g += tile
        g *= c
        np.tanh(g, out=g)
        g += np.float32(1.0)
        tile *= np.float32(0.5)
        tile *= g
    return u @ blk.w2


# Rows per GEMV call in project_rows; fixed, so every logit comes from a
# call of one shape.
_BLOCK = 1024


def _blas_thread_setter():
    """``openblas_set_num_threads_local`` of the OpenBLAS that numpy links:
    it sets the BLAS thread count and returns the one before. With another
    BLAS the stand-in does nothing and BLAS keeps its own thread count."""
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath

    # dlsym on numpy's own extension searches the libraries it links.
    setter = getattr(ctypes.CDLL(_multiarray_umath.__file__),
                     "openblas_set_num_threads_local", None)
    if setter is None:
        return lambda threads: threads
    setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
    return setter


_set_blas_threads = _blas_thread_setter()

# A prefill frees megabytes of temporaries per block. Under glibc's dynamic
# thresholds the freed heap top went back to the OS and was faulted in again by
# the next pass: 13,000 minor faults and 13% of a long-context decode's speed.
with contextlib.suppress(AttributeError, OSError, TypeError):  # no mallopt: no-op
    ctypes.CDLL(None).mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: the dynamic rule's ceiling
    ctypes.CDLL(None).mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD: twice it, as the rule sets


@contextlib.contextmanager
def _one_blas_thread():
    """Run the BLAS calls inside on the calling thread alone, then put the
    thread count back.

    With two threads every call hands part of its work to a worker thread
    and waits for it, and while another task holds the worker's CPU each
    hand-off waits for that task: on 2 vCPUs, in the second after a 1 GiB
    file write, each 1024-row projection call took 8 ms instead of 0.1 ms.
    With one busy-loop process beside it, greedy decode of a 7819 x 512,
    4-layer model fell from 147-160 to 47-69 tok/s when only the
    projection ran on one thread, and went from 116-118 to 111-114 tok/s
    when the whole step did.
    """
    threads = _set_blas_threads(1)
    try:
        yield
    finally:
        _set_blas_threads(threads)


# A forward pass over fewer new positions than this (every cached decode
# step, and a short prompt) makes many BLAS calls of well under a
# millisecond each, and runs them all on one thread; a longer prefill keeps
# BLAS's own thread count.
_THREADED_POSITIONS = 64


def project_rows(matrix: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Output projection: logit[t] = matrix[t] . vec.

    Every logit comes from a BLAS GEMV of the one shape (_BLOCK, H), and
    such a call gives a row the same value wherever the row sits in it
    (OpenBLAS 0.3.31; the tests check subsets and permutations across
    block edges). So a row's logit depends only on the row and ``vec``,
    and deleting or reordering rows, as trimming does, leaves every
    surviving logit bitwise unchanged. One GEMV over all rows would not
    do: BLAS splits it by the row count, and on random row subsets of a
    64000 x 512 matrix it changed kept logits in 16 to 19 of 20 trials.

    Whole blocks run as one stacked call over views of ``matrix``. The
    last ``n % _BLOCK`` rows come from the final ``_BLOCK`` rows, a block
    that overlaps the one before it and is also a view. Only a matrix of
    fewer than ``_BLOCK`` rows is copied, into a zero-padded block.

    The calls run on one BLAS thread (see ``_one_blas_thread``).
    """
    n, h = matrix.shape
    with _one_blas_thread():
        if n < _BLOCK:
            padded = np.zeros((_BLOCK, h), dtype=matrix.dtype)
            padded[:n] = matrix
            return (padded @ vec)[:n]
        whole = n - n % _BLOCK
        out = np.empty(n, dtype=np.result_type(matrix, vec))
        np.matmul(matrix[:whole].reshape(-1, _BLOCK, h), vec,
                  out=out[:whole].reshape(-1, _BLOCK))
        if whole < n:
            out[whole:] = (matrix[n - _BLOCK:] @ vec)[whole - n:]
        return out


def forward_logits(model: ModelWeights, context: list[int],
                   cache: _KVCache | None = None) -> np.ndarray:
    """Next-token logits for the last position, length = model vocab size.

    Only the positions past ``cache.length`` run through the blocks, and
    their keys and values are added to the cache; with no ``cache``, a
    fresh one of ``len(context)`` positions takes them all. A pass over
    fewer than ``_THREADED_POSITIONS`` new positions runs on one BLAS
    thread, so a decode step never waits on a second CPU.
    """
    cfg = model.config
    if len(context) == 0:
        raise VtError("context must be non-empty")
    if len(context) > cfg.max_context:
        raise VtError(f"context length {len(context)} exceeds max_context {cfg.max_context}")
    if cache is None:
        cache = _KVCache(cfg, len(context))
    start = cache.length
    if not start < len(context) <= cache.capacity:
        raise VtError(
            f"context length {len(context)} must extend the {start} cached "
            f"positions within the cache's {cache.capacity}"
        )
    ctx = np.asarray(context[start:], dtype=np.int64)
    if ctx.min() < 0 or ctx.max() >= cfg.vocab_size:
        raise VtError(f"context ids must lie in [0, {cfg.vocab_size})")
    few = len(ctx) < _THREADED_POSITIONS
    with _one_blas_thread() if few else contextlib.nullcontext():
        x = model.embedding[ctx] + _sinusoidal_positions(start, len(context), cfg.hidden)
        causal = np.triu(np.full((len(ctx), len(context)), -np.inf, dtype=np.float32),
                         k=start + 1)
        for i, blk in enumerate(model.blocks):
            # Only the last position reaches the projection: the last
            # block's query, attention output and MLP cover that row alone.
            rows = 1 if i == cfg.layers - 1 else len(x)
            out = _attention(_layer_norm(x, blk.ln1_w, blk.ln1_b), blk, cfg.heads,
                             cache.keys[i], cache.values[i], start, causal, rows)
            x = x[len(x) - rows:]
            x += out
            x += _mlp(_layer_norm(x, blk.ln2_w, blk.ln2_b), blk)
        cache.length = len(context)
        x = _layer_norm(x[-1:], model.lnf_w, model.lnf_b)
        return project_rows(model.output_matrix, x[-1])


def trim_model(model: ModelWeights, sub: SubVocabulary) -> ModelWeights:
    """Slice the vocabulary-dimension matrices down to the kept rows.

    Row j of the result is a bit-identical copy of row kept[j]. All other
    parameters are shared with the source model (treated as immutable).
    """
    cfg = model.config
    if sub.vocab_size != cfg.vocab_size:
        raise VtError(
            f"sub-vocabulary was built for |V|={sub.vocab_size!r:.40}, "
            f"model has |V|={cfg.vocab_size}"
        )
    if sub.size == 0:
        raise VtError("refusing to trim to an empty sub-vocabulary")
    index = np.asarray(sub.kept, dtype=np.int64)
    head, _, tail = _layout(cfg)
    cut = {n: getattr(model, n)[index] for n, _, _ in head + tail if n in _VOCAB_TENSORS}
    return replace(model, config=replace(cfg, vocab_size=sub.size), **cut)


@dataclass
class DecodeResult:
    """Greedy decode output. ``ids`` includes the prompt and is always in
    original-id space, even when the model was trimmed."""

    ids: list[int]


def greedy_decode(
    model: ModelWeights,
    prompt: list[int],
    max_new: int,
    eos: int,
    sub: SubVocabulary | None = None,
) -> DecodeResult:
    """Beam-1 decoding: append the argmax token until eos or max_new.

    Argmax ties break toward the lowest id. ``prompt`` and ``eos`` are
    always given in original-id space; pass ``sub`` when the model was
    trimmed with it, and the internal new-id sequence is remapped before
    return.
    """
    if max_new < 0:
        raise VtError(f"max_new must be >= 0, got {max_new!r:.40}")
    if sub is not None:
        if model.config.vocab_size != sub.size:
            raise VtError(
                f"model vocab size {model.config.vocab_size} does not match "
                f"{sub.space}'s size {sub.size}"
            )
        context = [sub.to_new(i) for i in prompt]
        try:
            eos_internal = sub.to_new(eos)
        except VtError:
            raise VtError(f"eos token {eos!r:.40} is not in {sub.space}") from None
    else:
        context = list(prompt)
        eos_internal = eos

    # The longest context fed is the prompt plus every token but the last.
    longest = len(prompt) + max_new - 1
    if max_new >= 1 and longest > model.config.max_context:
        raise VtError(
            f"prompt of {len(prompt)} tokens plus {max_new} new needs a context of "
            f"{longest}, over max_context {model.config.max_context}"
        )
    cache = _KVCache(model.config, longest) if max_new >= 1 else None
    for step in range(max_new):
        logits = forward_logits(model, context, cache=cache)
        nxt = int(np.argmax(logits))  # first occurrence wins: lowest id
        # argmax lands on the first NaN if there is one, else on +inf if
        # there is one, so checking the winner alone catches both.
        if not math.isfinite(logits[nxt]):
            raise VtError(f"non-finite logit {logits[nxt]} at decode step {step}")
        context.append(nxt)
        if nxt == eos_internal:
            break

    # Each id came from to_new or from an argmax over sub.size logits.
    return DecodeResult(ids=[sub.kept[i] for i in context] if sub is not None else context)
