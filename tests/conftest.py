import json
from importlib import resources

import pytest

from vtrim import bpe, toylm


@pytest.fixture(scope="session")
def data_dir(tmp_path_factory):
    """Bundled demo fixtures, materialized to plain paths for the CLI."""
    src = resources.files("vtrim") / "data"
    out = tmp_path_factory.mktemp("data")
    for name in ("demo_vocab.json", "demo_merges.txt", "prompts_en.jsonl"):
        (out / name).write_bytes((src / name).read_bytes())
    return out


@pytest.fixture(scope="session")
def demo(data_dir):
    return bpe.load_vocab(
        str(data_dir / "demo_vocab.json"), str(data_dir / "demo_merges.txt")
    )


@pytest.fixture(scope="session")
def demo_prompts(data_dir):
    with open(data_dir / "prompts_en.jsonl", encoding="utf-8") as f:
        return [json.loads(line) for line in f]


@pytest.fixture(scope="session")
def small_model():
    cfg = toylm.ModelConfig(
        vocab_size=64, hidden=16, layers=2, heads=2, max_context=32
    )
    return toylm.init_random(cfg, seed=1)


def make_vocab(surfaces: list[str]) -> bpe.Vocabulary:
    return bpe.Vocabulary.from_mapping({s: i for i, s in enumerate(surfaces)})


def spell(surface: str) -> str | None:
    """The text one token's bytes spell, as ``bpe.token_texts`` gives it."""
    return next(bpe.token_texts(make_vocab([surface])))


def stand_ins(text: str) -> str:
    """The byte-level surface of ``text``: its UTF-8 bytes' stand-ins."""
    return "".join(bpe.BYTE_TO_CHAR[b] for b in text.encode("utf-8"))


def tiny_bpe() -> tuple[bpe.Vocabulary, bpe.Merges]:
    """Tokens a, b and ab, and the one merge (a, b)."""
    vocab = make_vocab(["a", "b", "ab"])
    return vocab, bpe.Merges.from_pairs([("a", "b")], vocab)
