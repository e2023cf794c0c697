"""The report writer and the file helpers shared by the CLI and the harness."""

from __future__ import annotations

import json
from contextlib import contextmanager

import numpy as np

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


def write_csv(path, header, rows, precision: str = "human"):
    """Write a header line and rows of values, one cell per value.

    A float (numpy's included) is written with 6 significant digits under
    ``precision`` "human" or as its repr, which round-trips exactly, under
    "full"; ``None`` is an empty cell, and any other value is ``str(value)``.
    """
    if precision not in ("human", "full"):
        raise InvalidInputError(f"precision must be 'human' or 'full', got {precision!r}")

    def cell(v):
        if isinstance(v, (float, np.floating)):
            return repr(float(v)) if precision == "full" else f"{float(v):.6g}"
        return "" if v is None else str(v)

    lines = [",".join(header)]
    lines += [",".join(map(cell, row)) for row in rows]
    text = "\n".join(lines) + "\n"
    if hasattr(path, "write"):
        path.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)
