"""One pipeline phase in a fresh process, so its peak RSS is its own.

    python3 phases.py SPEC.json RESULT.json

SPEC names the phase ("prepare" or "serve"), the toolkit's source
directory, the input and output files and whether to trace. RESULT gets
the phase's window boundaries, its peak RSS, its outputs and, when
traced, every span recorded around the toolkit's public functions.
"""
from __future__ import annotations

import json
import sys
import time

# Public functions whose calls become spans in a traced run: those the
# per-layer metrics read.
TRACED = {
    "bpe": ("load_vocab", "encode"),
    "subvocab": ("script_filter", "corpus_select"),
    "toylm": ("load_model", "save_model", "trim_model", "greedy_decode",
              "forward_logits", "project_rows"),
}


class Tracer:
    """Spans [name, start, end, parent index] kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else None])
            self._open.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[index][2] = time.perf_counter()
        return traced

    def install(self) -> None:
        """Replace each traced function wherever a vtrim module holds it,
        so calls between the toolkit's own modules are seen too."""
        modules = [m for n, m in sys.modules.items() if n == "vtrim" or n.startswith("vtrim.")]
        for short, names in TRACED.items():
            home = sys.modules[f"vtrim.{short}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self.wrap(f"{short}.{name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)


def peak_rss_mib() -> float:
    """High-water RSS of this process image. ``ru_maxrss`` would not do:
    exec carries the parent's peak over into it."""
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def _read_json(path: str):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def prepare(spec: dict) -> dict:
    """Build the sub-vocabulary and write the trimmed model file: the
    script filter's tokens plus every token of the corpus and prompts."""
    from vtrim import bpe, subvocab, toylm

    t0 = time.perf_counter()
    vocab, merges = bpe.load_vocab(spec["vocab"], spec["merges"])
    prompts = _read_json(spec["prompts"])
    with open(spec["corpus"], encoding="utf-8") as f:
        lines = f.read().splitlines()
    script = subvocab.script_filter(vocab, subvocab.PRESETS[spec["preset"]], base_k=spec["base_k"])
    seen = subvocab.corpus_select(vocab, merges, lines + prompts, base_k=spec["base_k"])
    sub = subvocab.build_mapping(
        set(script.kept) | set(seen.kept), vocab.size, base_k=spec["base_k"]
    )
    subvocab.save_subvocab(sub, spec["sub"])
    model = toylm.load_model(spec["model"])
    toylm.save_model(spec["trimmed"], toylm.trim_model(model, sub))
    t1 = time.perf_counter()
    return {"windows": {"prepare": [t0, t1]}, "kept": sub.size}


def serve(spec: dict) -> dict:
    """Load tokenizer and model, time the first token of prompt 0, then
    greedy-decode the whole prompt batch."""
    from vtrim import bpe, subvocab, toylm

    eos, max_new = spec["eos"], spec["max_new"]
    t0 = time.perf_counter()
    vocab, merges = bpe.load_vocab(spec["vocab"], spec["merges"])
    model = toylm.load_model(spec["model"])
    sub = subvocab.load_subvocab(spec["sub"]) if spec.get("sub") else None
    prompts = _read_json(spec["prompts"])
    toylm.greedy_decode(model, bpe.encode(prompts[0], vocab, merges), 1, eos, sub=sub)
    t1 = time.perf_counter()
    encoded = [bpe.encode(p, vocab, merges) for p in prompts]
    t2 = time.perf_counter()
    outputs = [toylm.greedy_decode(model, ids, max_new, eos, sub=sub).ids for ids in encoded]
    t3 = time.perf_counter()
    generated = [out[len(ids):] for ids, out in zip(encoded, outputs)]
    return {
        "windows": {"first_token": [t0, t1], "decode": [t2, t3]},
        "prompt_ids": encoded,
        "generated": generated,
        "texts": [
            bpe.decode_bytes(g, vocab).decode("utf-8", "surrogateescape") for g in generated
        ],
    }


def main(spec_path: str, result_path: str) -> None:
    spec = _read_json(spec_path)
    sys.path.insert(0, spec["src"])
    import vtrim  # noqa: F401  (loads every submodule before tracing)

    tracer = Tracer()
    if spec["trace"]:
        tracer.install()
    result = {"prepare": prepare, "serve": serve}[spec["phase"]](spec)
    result["peak_rss_mib"] = peak_rss_mib()
    result["spans"] = tracer.spans
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
