"""All-or-nothing artifact writes.

Every file the toolkit writes (models, sub-vocabularies, decode outputs,
reports) goes through ``atomic_write``: it is written beside its target
and renamed over it only once complete, so a failed run leaves neither a
partial file nor the temporary one.
"""
from __future__ import annotations

import contextlib
import os


@contextlib.contextmanager
def atomic_write(path: str, binary: bool = False):
    """A file (UTF-8 text, or bytes when ``binary``) that appears at
    ``path`` only once the block completes: it is written to a temporary
    name beside ``path`` and renamed over it, and removed if the block
    raises."""
    tmp = f"{path}.{os.getpid()}.tmp"
    f = open(tmp, "xb") if binary else open(tmp, "x", encoding="utf-8")
    try:
        with f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise
