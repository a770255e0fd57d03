"""Deterministic text encoding of doubles, the one writer and the one
reader of JSON-object files, and the atomic file write that every
artifact goes through.

Doubles in CSV and dataset text are written with 17 significant digits,
which round-trips every finite IEEE-754 binary64 value exactly.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from pathlib import Path

from .errors import FormatError


def format_double(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise FormatError(f"cannot serialize non-finite value {x!r}")
    return format(x, ".17g")


def _refuse_constant(token: str):
    raise ValueError(f"bare {token} is not a JSON number")


def _finite_float(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"{token} is too large for a double")
    return value


def read_json_object(path) -> dict:
    """Parse a config, scaler or manifest file; text that is not UTF-8
    JSON (a bare NaN, Infinity or -Infinity included, or a number that
    overflows a double), or JSON that is not an object, is a FormatError."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh, parse_constant=_refuse_constant, parse_float=_finite_float)
        # JSONDecodeError, UnicodeDecodeError, a refused constant or an overflow
        except ValueError as exc:
            raise FormatError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise FormatError(f"{path}: expected a JSON object, got {type(data).__name__}")
    return data


def write_json(path, obj) -> None:
    """Write ``obj`` as indented, key-sorted JSON plus a newline, atomically."""
    with atomic_write(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
