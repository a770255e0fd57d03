"""Deterministic text encoding of doubles, the one decoder of JSON text
(config, scaler and manifest files, .model and binary .csc headers), the
JSON and CSV artifact writers, and the atomic file write that every
artifact goes through.

Doubles in CSV and dataset text are written with 17 significant digits,
which round-trips every finite IEEE-754 binary64 value exactly.
"""

from __future__ import annotations

import contextlib
import json
import math
import numbers
import os
import sys
from pathlib import Path

from .errors import FormatError


def format_double(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise FormatError(f"cannot serialize non-finite value {x!r}")
    return format(x, ".17g")


def _refuse_constant(token: str):
    raise ValueError(f"bare {token} is not a JSON number")


def _in_double_range(token: str, parse=float):
    """A JSON number token read by ``parse``; refused beyond a double's range."""
    value = parse(token)
    if not abs(value) <= sys.float_info.max:
        raise ValueError(f"{token} is too large for a double")
    return value


def parse_json_object(raw: bytes, where, encoding: str) -> dict:
    """Decode ``raw`` as one JSON object.  Bytes that are not text in
    ``encoding``, text that is not JSON (a bare NaN, Infinity or -Infinity
    included, or a number that overflows a double), or JSON that is not
    an object is a FormatError whose message starts with ``where``."""
    try:
        data = json.loads(raw.decode(encoding), parse_constant=_refuse_constant,
                          parse_float=_in_double_range,
                          parse_int=lambda token: _in_double_range(token, int))
    # UnicodeDecodeError, JSONDecodeError, a refused constant or an overflow
    except ValueError as exc:
        raise FormatError(f"{where}: not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise FormatError(f"{where}: not a JSON object (got {type(data).__name__})")
    return data


def read_json_object(path) -> dict:
    """Parse a config, scaler or manifest file, UTF-8 JSON holding one
    object (see parse_json_object)."""
    with open(path, "rb") as fh:
        return parse_json_object(fh.read(), path, "utf-8")


def write_json(path, obj) -> None:
    """Write ``obj`` as indented, key-sorted JSON plus a newline, atomically.
    A NaN or infinite float is a ValueError: strict JSON has no such
    number, and ``read_json_object`` would refuse the file."""
    with atomic_write(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def write_csv(path, columns, rows) -> None:
    """Write a CSV file atomically: the ``columns`` header line, then one
    comma-joined line per row, each cell a str as it is, an integer in
    decimal, or any other number through format_double."""
    with atomic_write(path) as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(v if isinstance(v, str)
                              else str(int(v)) if isinstance(v, numbers.Integral)
                              else format_double(v) for v in row) + "\n")


@contextlib.contextmanager
def atomic_write(path, mode: str = "w"):
    """Open a temporary file beside ``path`` for writing and move it onto
    ``path`` with ``os.replace`` when the block ends, so ``path`` holds
    either its old contents or the complete new file, never a partial
    write from a killed or failing run.  If the block raises, the
    temporary file is removed and ``path`` is left as it was.  The file
    is not fsynced: this guards against a dying process, not a power cut.
    Text mode encodes ASCII, which is all any artifact here holds (.17g
    numbers, json's escaped strings).
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "ascii") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
