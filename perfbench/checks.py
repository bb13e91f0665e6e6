"""Output checks against computations made apart from the toolkit.

Nothing here imports ``vtrim``: the model file is parsed from its
documented layout, the forward pass is a float64 re-implementation of the
documented architecture, the script rule and the BPE encoder are written
from their definitions. Each ``check_*`` function returns a list of
failure messages, empty when the output is correct.
"""
from __future__ import annotations

import math
import struct

import numpy as np

from workloads import BASE_K, CHAR_BYTES

# The toolkit's float32 logits stayed within 2e-6 of these float64 ones
# on every workload shape (3 random contexts each, logits up to about 3);
# a greedy token is checked only where the top-2 gap is wider than this.
LOGIT_MARGIN = 1e-3
CYRILLIC = (0x0400, 0x04FF)
_BYTE_CHAR = {b: c for c, b in CHAR_BYTES.items()}
_BLOCK = ("ln1_w", "ln1_b", "wq", "wk", "wv", "wo", "ln2_w", "ln2_b", "w1", "w2")


# --- model file -------------------------------------------------------

def read_vtlm(path: str) -> tuple[dict, dict[str, np.ndarray]]:
    """Header fields and read-only float32 views of every tensor."""
    with open(path, "rb") as f:
        head = f.read(29)
        if head[:4] != b"VTLM":
            raise ValueError(f"{path}: bad magic")
        version, v, h, layers, heads, ctx, tied = struct.unpack("<IIIIIIB", head[4:])
        names = ["embedding"]
        names += [f"block{i}.{n}" for i in range(layers) for n in _BLOCK]
        names += ["lnf_w", "lnf_b"] + ([] if tied else ["output"])
        offsets, pos = {}, 29
        for name in names:
            f.seek(pos)
            (rank,) = struct.unpack("<I", f.read(4))
            dims = struct.unpack(f"<{rank}I", f.read(4 * rank))
            pos += 4 + 4 * rank
            offsets[name] = (pos, dims)
            pos += 4 * math.prod(dims)
    cfg = dict(version=version, vocab_size=v, hidden=h, layers=layers,
               heads=heads, max_context=ctx, tied=bool(tied), size=pos)
    tensors = {
        name: np.memmap(path, dtype="<f4", mode="r", offset=off, shape=dims)
        for name, (off, dims) in offsets.items()
    }
    return cfg, tensors


def check_trimmed_file(full_path: str, trim_path: str, kept: list[int]) -> list[str]:
    """Trimmed rows are bitwise copies of the kept rows; all else equal."""
    fcfg, full = read_vtlm(full_path)
    tcfg, trim = read_vtlm(trim_path)
    errors = []
    expect = dict(fcfg, vocab_size=len(kept))
    expect["size"] = tcfg["size"]
    if tcfg != expect:
        return [f"trimmed header {tcfg} != {expect}"]
    index = np.asarray(kept, dtype=np.int64)
    for name, arr in full.items():
        want = arr[index] if name in ("embedding", "output") else arr
        got = trim[name]
        if got.shape != want.shape or not np.array_equal(
            np.asarray(got).view(np.uint32), np.asarray(want).view(np.uint32)
        ):
            errors.append(f"tensor {name} of the trimmed file differs from the kept rows")
    return errors


# --- float64 reference forward pass ------------------------------------

def _ln(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + 1e-5) * w + b


def _gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x**3)))


def final_hidden64(cfg: dict, t: dict[str, np.ndarray], ids: list[int]) -> np.ndarray:
    """Final-norm hidden state of every position, in float64."""
    h, heads, n = cfg["hidden"], cfg["heads"], len(ids)
    d = h // heads
    pos = np.arange(n, dtype=np.float64)[:, None]
    ang = pos * np.exp(np.arange((h + 1) // 2) * (-2.0 * math.log(10000.0) / h))[None, :]
    pe = np.zeros((n, h))
    pe[:, 0::2] = np.sin(ang)
    pe[:, 1::2] = np.cos(ang[:, : h // 2])
    x = t["embedding"][np.asarray(ids)].astype(np.float64) + pe
    mask = np.triu(np.full((n, n), -np.inf), k=1)
    for i in range(cfg["layers"]):
        w = {k: np.asarray(t[f"block{i}.{k}"], dtype=np.float64) for k in _BLOCK}
        a = _ln(x, w["ln1_w"], w["ln1_b"])
        q, k, v = (
            (a @ w[m]).reshape(n, heads, d).transpose(1, 0, 2) for m in ("wq", "wk", "wv")
        )
        s = q @ k.transpose(0, 2, 1) / math.sqrt(d) + mask
        p = np.exp(s - s.max(axis=-1, keepdims=True))
        p /= p.sum(axis=-1, keepdims=True)
        x = x + (p @ v).transpose(1, 0, 2).reshape(n, h) @ w["wo"]
        x = x + _gelu(_ln(x, w["ln2_w"], w["ln2_b"]) @ w["w1"]) @ w["w2"]
    return _ln(x, np.asarray(t["lnf_w"], np.float64), np.asarray(t["lnf_b"], np.float64))


def logits64(t: dict[str, np.ndarray], hidden: np.ndarray, rows=None, chunk: int = 16384) -> np.ndarray:
    """hidden @ W.T for the output matrix W (or its ``rows``), chunked so
    the float64 copy of W never exceeds ``chunk`` rows."""
    w = t.get("output", t["embedding"])
    index = np.arange(w.shape[0]) if rows is None else np.asarray(rows)
    out = np.empty((hidden.shape[0], len(index)))
    for lo in range(0, len(index), chunk):
        part = np.asarray(w[index[lo : lo + chunk]], dtype=np.float64)
        out[:, lo : lo + chunk] = hidden @ part.T
    return out


def check_greedy(cfg, t, runs, kept=None) -> tuple[list[str], int]:
    """Each generated token is the float64 argmax (over ``kept`` ids when
    given) of its context, wherever the top-2 gap exceeds LOGIT_MARGIN.

    ``runs`` holds (prompt_ids, generated_ids) pairs in original ids.
    Returns failures and the number of steps checked.
    """
    rows, tokens, where = [], [], []
    for r, (prompt, gen) in enumerate(runs):
        if not gen:
            continue
        hid = final_hidden64(cfg, t, prompt + gen[:-1])
        rows.append(hid[len(prompt) - 1 :])
        tokens += gen
        where += [(r, s) for s in range(len(gen))]
    if not rows:
        return [], 0
    logits = logits64(t, np.concatenate(rows), kept)
    ids = np.arange(logits.shape[1]) if kept is None else np.asarray(kept)
    errors, checked = [], 0
    for row, token, (r, s) in zip(logits, tokens, where):
        top2 = np.partition(row, -2)[-2:]
        if top2[1] - top2[0] <= LOGIT_MARGIN:
            continue
        checked += 1
        best = int(ids[int(np.argmax(row))])
        if best != token:
            errors.append(f"prompt {r} step {s}: token {token}, reference argmax {best}")
    return errors, checked


def check_trim_follows_full(full_runs, trim_runs, kept: list[int]) -> list[str]:
    """Trimming keeps kept logits bitwise, so the trimmed decode repeats
    the full decode until the full decode emits a dropped token, and
    there it must differ. Exact, with no float tolerance."""
    keep = set(kept)
    errors = []
    for r, ((_, full), (_, trim)) in enumerate(zip(full_runs, trim_runs)):
        for s, tok in enumerate(trim):
            if tok not in keep:
                errors.append(f"prompt {r} step {s}: trimmed token {tok} is not kept")
                break
            if s >= len(full):
                errors.append(f"prompt {r}: trimmed decode is longer than the full one")
                break
            if full[s] in keep and tok != full[s]:
                errors.append(f"prompt {r} step {s}: trimmed {tok} != full {full[s]} (kept)")
                break
            if full[s] not in keep:
                break  # the contexts diverge here
        else:
            if len(trim) != len(full):
                errors.append(f"prompt {r}: trimmed decode stopped early")
    return errors


# --- tokenizer and sub-vocabulary --------------------------------------

def to_bytes(ids: list[int], surfaces: list[str]) -> bytes:
    return bytes(CHAR_BYTES[c] for i in ids for c in surfaces[i])


def script_keeps(surface: str) -> bool:
    """The Unicode rule: valid UTF-8, at least one Cyrillic codepoint and
    nothing but Cyrillic and whitespace."""
    try:
        text = bytes(CHAR_BYTES[c] for c in surface).decode("utf-8")
    except (KeyError, UnicodeDecodeError):
        return False
    cyr = [CYRILLIC[0] <= ord(c) <= CYRILLIC[1] for c in text]
    return any(cyr) and all(ok or c.isspace() for ok, c in zip(cyr, text))


def ref_encode(text: str, ids: dict[str, int], ranks: dict[tuple[str, str], int]) -> list[int]:
    """Brute-force greedy BPE: find the lowest-ranked adjacent pair by a
    full scan, merge its every occurrence left to right, repeat."""
    toks = [_BYTE_CHAR[b] for b in text.encode("utf-8")]
    while True:
        best = None
        for i in range(len(toks) - 1):
            r = ranks.get((toks[i], toks[i + 1]))
            if r is not None and (best is None or r < best):
                best = r
        if best is None:
            return [ids[s] for s in toks]
        out, i = [], 0
        while i < len(toks):
            if i + 1 < len(toks) and ranks.get((toks[i], toks[i + 1])) == best:
                out.append(toks[i] + toks[i + 1])
                i += 2
            else:
                out.append(toks[i])
                i += 1
        toks = out


def check_subvocab(kept: list[int], surfaces: list[str], encoded: list[list[int]]) -> list[str]:
    """kept == first BASE_K ids + script-rule tokens + every id the corpus
    and the prompts encode to."""
    want = set(range(BASE_K)) | {i for i, s in enumerate(surfaces) if script_keeps(s)}
    for line in encoded:
        want.update(line)
    got = set(kept)
    if list(kept) != sorted(got):
        return ["kept ids are not strictly ascending"]
    if got != want:
        extra, missing = sorted(got - want)[:5], sorted(want - got)[:5]
        return [f"sub-vocabulary differs: extra {extra}, missing {missing}"]
    return []


def check_encoding(lines: list[str], encoded: list[list[int]], surfaces: list[str],
                   ref_sample: list[int], merges: list[tuple[str, str]]) -> list[str]:
    """Every line round-trips; the sampled lines match the brute-force
    encoder."""
    errors = [
        f"line {n}: decode(encode(line)) != line"
        for n, (line, ids) in enumerate(zip(lines, encoded))
        if to_bytes(ids, surfaces) != line.encode("utf-8")
    ]
    ids = {s: i for i, s in enumerate(surfaces)}
    ranks = {pair: r for r, pair in enumerate(merges)}
    for n in ref_sample:
        if ref_encode(lines[n], ids, ranks) != encoded[n]:
            errors.append(f"line {n}: encoding differs from the brute-force encoder")
    return errors
