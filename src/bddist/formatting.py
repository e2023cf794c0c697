"""Number formatting and file helpers shared by report writers and the CLI."""

from __future__ import annotations

import json
from contextlib import contextmanager

from .errors import InvalidInputError


@contextmanager
def open_text(path, newline=None):
    """A UTF-8 text file, after any byte-order mark, opened for reading; bytes
    that are not UTF-8, met inside the ``with`` block, raise InvalidInputError."""
    with open(path, newline=newline, encoding="utf-8-sig") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise InvalidInputError(
                f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x})") from None


def read_json(path) -> dict:
    """Parsed JSON object of a file, after any UTF-8 byte-order mark;
    bytes that are not UTF-8, malformed JSON, or a top-level value that is
    not an object, is an InvalidInputError."""
    with open_text(path) as fh:
        try:
            value = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidInputError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(value, dict):
        raise InvalidInputError(
            f"{path}: expected a JSON object, got {type(value).__name__}")
    return value


def format_number(x, precision: str = "human") -> str:
    """Format a float with 6 significant digits, or shortest-roundtrip repr.

    ``precision`` is "human" (6 significant digits) or "full" (repr, which
    round-trips exactly).
    """
    x = float(x)
    if precision == "human":
        return f"{x:.6g}"
    if precision == "full":
        return repr(x)
    raise InvalidInputError(f"precision must be 'human' or 'full', got {precision!r}")


def write_csv(path, header, rows):
    """Write rows of already-formatted strings with a header line."""
    lines = [",".join(header)]
    lines += [",".join(row) for row in rows]
    text = "\n".join(lines) + "\n"
    if hasattr(path, "write"):
        path.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)
