"""Independent reference implementations used to check the real ones.

Everything here is written for clarity over speed: exact rational
arithmetic where rounding could hide a bug, linear scans instead of the
production data structures. Tests compare package output against these.
"""
import math
import re
from collections import Counter
from fractions import Fraction


def ref_byte_table() -> dict[int, str]:
    """Byte -> stand-in character map, built the classic explicit way."""
    keep = (
        list(range(ord("!"), ord("~") + 1))
        + list(range(0xA1, 0xAD))
        + list(range(0xAE, 0x100))
    )
    chars = [chr(b) for b in keep]
    shift = 0
    for b in range(256):
        if b not in keep:
            keep.append(b)
            chars.append(chr(256 + shift))
            shift += 1
    return dict(zip(keep, chars))


_REF_TABLE = ref_byte_table()
_REF_CHAR_TO_BYTE = {c: b for b, c in _REF_TABLE.items()}


def ref_decode_bytes(surfaces: list[str]) -> bytes | str:
    """The bytes the joined surfaces stand for, or the first character
    that is no stand-in."""
    joined = "".join(surfaces)
    for c in joined:
        if c not in _REF_CHAR_TO_BYTE:
            return c
    return bytes(_REF_CHAR_TO_BYTE[c] for c in joined)


def ref_token_text(surface: str) -> str | None:
    """The text one token's bytes spell: each character back to its byte
    through the reference table, then UTF-8. None when a character is no
    stand-in or the bytes are not valid UTF-8 alone."""
    raw = ref_decode_bytes([surface])
    try:
        return raw.decode("utf-8") if isinstance(raw, bytes) else None
    except UnicodeDecodeError:
        return None


def ref_encode(text: str, surface_ids: dict[str, int], merge_pairs) -> list[int]:
    """Whole-stream greedy BPE: lowest-ranked pair first, all sites."""
    ranks = {pair: i for i, pair in enumerate(merge_pairs)}
    toks = [_REF_TABLE[b] for b in text.encode("utf-8")]
    while len(toks) > 1:
        best = None
        for i in range(len(toks) - 1):
            r = ranks.get((toks[i], toks[i + 1]))
            if r is not None and (best is None or r < best[0]):
                best = (r, toks[i], toks[i + 1])
        if best is None:
            break
        _, left, right = best
        out = []
        i = 0
        while i < len(toks):
            if i + 1 < len(toks) and toks[i] == left and toks[i + 1] == right:
                out.append(left + right)
                i += 2
            else:
                out.append(toks[i])
                i += 1
        toks = out
    return [surface_ids[t] for t in toks]


def ref_merge_pairs(text: str, surfaces: set[str], path: str) -> list[tuple[str, str]] | str:
    """A merges file's (LEFT, RIGHT) pairs, or the message of its first
    error by line. Line breaks are "\\n", "\\r\\n" and "\\r", as in a
    text-mode read; a "#" first line and empty lines are skipped. Both
    parts and their concatenation must be in ``surfaces``, and no pair may
    repeat."""
    pairs: list[tuple[str, str]] = []
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, line in enumerate(lines, start=1):
        if line == "" or (lineno == 1 and line[:1] == "#"):
            continue
        where = f"{path}:{lineno}: "
        fields = line.split(" ")
        if len(fields) != 2:
            return f"{where}expected 'LEFT RIGHT', got {line!r}"
        left, right = fields
        for part in fields:
            if part not in surfaces:
                return f"{where}merge part {part!r} not in vocabulary"
        if (left, right) in pairs:
            return f"{where}duplicate merge pair {left!r} {right!r}"
        if left + right not in surfaces:
            return f"{where}merge result {left + right!r} not in vocabulary"
        pairs.append((left, right))
    return pairs


def ref_script_keeps(codepoints, ranges) -> bool:
    """The script rule as a loop: at least one codepoint inside the
    inclusive ``ranges`` and every other one Unicode whitespace."""
    if not codepoints:
        return False
    inside = [any(lo <= cp <= hi for lo, hi in ranges) for cp in codepoints]
    if not any(inside):
        return False
    for cp, ok in zip(codepoints, inside):
        if not ok and not chr(cp).isspace():
            return False
    return True


def _counts(items, n):
    return Counter(tuple(items[i : i + n]) for i in range(len(items) - n + 1))


def ref_bleu(hyps: list[str], refs: list[str], lang: str = "en") -> float:
    """Corpus BLEU, 4-gram, exponential smoothing, exact until the end."""
    assert len(hyps) == len(refs) and hyps

    def tok(s):
        if lang == "zh":
            return [c for c in s if not c.isspace()]
        return s.split()

    matches = [0] * 4
    totals = [0] * 4
    sys_len = ref_len = 0
    for h, r in zip(hyps, refs):
        ht, rt = tok(h), tok(r)
        sys_len += len(ht)
        ref_len += len(rt)
        for n in range(1, 5):
            hc, rc = _counts(ht, n), _counts(rt, n)
            matches[n - 1] += sum(min(c, rc[g]) for g, c in hc.items())
            totals[n - 1] += max(len(ht) - n + 1, 0)
    if sys_len == 0:
        return 100.0 if ref_len == 0 else 0.0
    if matches[0] == 0:
        return 0.0
    logs = []
    smooth = Fraction(1)
    for n in range(4):
        if totals[n] == 0:
            continue
        if matches[n] == 0:
            smooth *= 2
            p = Fraction(1, smooth * totals[n])
        else:
            p = Fraction(matches[n], totals[n])
        logs.append(math.log(p))
    geo = math.exp(sum(logs) / len(logs))
    bp = 1.0 if sys_len >= ref_len else math.exp(1 - ref_len / sys_len)
    return 100.0 * bp * geo


def ref_chrf(hyps: list[str], refs: list[str], order: int = 6, beta: int = 2) -> float:
    """Character n-gram F-beta averaged over orders with any mass."""
    assert len(hyps) == len(refs) and hyps
    strip = lambda s: re.sub(r"\s+", "", s)
    hyp_tot = [0] * order
    ref_tot = [0] * order
    match = [0] * order
    for h, r in zip(hyps, refs):
        hs, rs = strip(h), strip(r)
        for n in range(1, order + 1):
            hc, rc = _counts(hs, n), _counts(rs, n)
            hyp_tot[n - 1] += sum(hc.values())
            ref_tot[n - 1] += sum(rc.values())
            match[n - 1] += sum(min(c, rc[g]) for g, c in hc.items())
    b2 = Fraction(beta) ** 2
    scores = []
    for n in range(order):
        if hyp_tot[n] == 0 and ref_tot[n] == 0:
            continue
        p = Fraction(match[n], hyp_tot[n]) if hyp_tot[n] else Fraction(0)
        r = Fraction(match[n], ref_tot[n]) if ref_tot[n] else Fraction(0)
        f = (1 + b2) * p * r / (b2 * p + r) if p + r > 0 else Fraction(0)
        scores.append(f)
    if not scores:
        return 100.0
    return float(100 * sum(scores) / len(scores))


def ref_param_count(vocab_size: int, hidden: int, layers: int, tied: bool) -> int:
    """Total parameter count derived from explicit tensor shapes."""
    total = vocab_size * hidden
    for _ in range(layers):
        total += 2 * hidden  # ln1
        total += 4 * hidden * hidden  # q k v o
        total += 2 * hidden  # ln2
        total += hidden * 4 * hidden + 4 * hidden * hidden  # mlp
    total += 2 * hidden  # final norm
    if not tied:
        total += vocab_size * hidden
    return total
