"""The toolkit's one exception type, and the JSON file reader that turns
every way a file can fail to parse into it."""
from __future__ import annotations

import json


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
