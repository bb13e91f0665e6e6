"""The toolkit's one exception type, the JSON file reader that turns
every way a file can fail to parse into it, and the type checks that
loaders apply to the values they read."""
from __future__ import annotations

import json

_JSON_NAMES = {int: "integer", str: "string", list: "list", dict: "object"}


class VtError(Exception):
    """Raised for invalid inputs, malformed files, and broken invariants.

    The CLI treats any VtError as a user-facing failure (nonzero exit,
    message on stderr), so messages should name the offending value.
    """


def read_json(path: str, what: str):
    """The JSON value in the UTF-8 file ``path``. A missing file, invalid
    UTF-8 or JSON (both ``ValueError``) and nesting too deep to parse raise
    a VtError naming the ``what`` file."""
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except FileNotFoundError:
        raise VtError(f"{what} file not found: {path}") from None
    except (ValueError, RecursionError) as e:
        raise VtError(f"{what} file {path} is not readable JSON: {e}") from e


def expect(value, kind: type, what: str):
    """``value`` when its type is exactly ``kind``, so a bool, a float or
    a string of digits is no integer; otherwise a TypeError naming
    ``what``, which the loader reports with its file."""
    if type(value) is not kind:
        raise TypeError(f"{what} must be a JSON {_JSON_NAMES[kind]}, got {value!r:.40}")
    return value


def expect_ints(value, what: str) -> list[int]:
    """``value`` when it is a list of JSON integers, as ``expect`` judges
    each item."""
    if not set(map(type, expect(value, list, what))) <= {int}:
        bad = next(item for item in value if type(item) is not int)
        raise TypeError(f"{what} must hold JSON integers, got {bad!r:.40}")
    return value
