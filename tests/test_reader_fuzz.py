"""Fuzzed dataset files: each reader returns a Dataset or raises FormatError.

Hypothesis is a test-only dependency; without it this module is skipped.
"""

import json

import numpy as np
import pytest

from circscatter import errors
from circscatter.dataio import (
    BINARY_HEADER_KEYS,
    BINARY_MAGIC,
    Dataset,
    generate_dataset,
    read_dataset,
    write_dataset_binary,
    write_dataset_text,
)
from circscatter.geometry import ScatterConfig

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=150)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A 4-row peanut dataset's binary blob and a 4-row classification
    dataset's text lines, plus a scratch path to write mutations to."""
    directory = tmp_path_factory.mktemp("fuzz")
    good = directory / "good.cscb"
    write_dataset_binary(good, generate_dataset([1], 4, ScatterConfig(), seed=1))
    text = directory / "good.csc"
    write_dataset_text(text, generate_dataset([1, 2, 3], 4, ScatterConfig(), seed=1))
    return good.read_bytes(), text.read_text().splitlines(), directory / "mutated"


def read_or_format_error(path):
    try:
        assert isinstance(read_dataset(path), Dataset)
    except errors.FormatError:
        pass


@FUZZ
@given(key=st.sampled_from(BINARY_HEADER_KEYS + ("fixed_lambda",)), value=JSON_VALUES,
       cut=st.integers(0, 40), extra=st.binary(max_size=24))
@example(key="shape_ids", value=[0, 1, 2, 3], cut=0, extra=b"")
@example(key="fixed_lambda", value="abc", cut=0, extra=b"")
@example(key="classes", value=[7], cut=0, extra=b"")
@example(key="shape_ids", value="abcd", cut=0, extra=b"")
@example(key="n", value=2 ** 40, cut=0, extra=b"")
def test_binary_reader_fuzz(files, key, value, cut, extra):
    blob, _, path = files
    hlen = int(np.frombuffer(blob[4:8], dtype="<u4")[0])
    header = {**json.loads(blob[8:8 + hlen]), key: value}
    raw = json.dumps(header).encode("ascii")
    payload = blob[8 + hlen:]
    path.write_bytes(BINARY_MAGIC + np.array(len(raw), dtype="<u4").tobytes() + raw
                     + payload[:len(payload) - cut] + extra)
    read_or_format_error(path)


CELLS = st.text(max_size=12) | st.integers().map(str) | st.floats().map(repr)


@FUZZ
@given(header=st.none() | st.tuples(st.integers(0, 6), CELLS),
       cell=st.none() | st.tuples(st.integers(1, 4), st.integers(0, 65), CELLS))
@example(header=(6, "abc"), cell=None)
@example(header=(5, "7"), cell=None)
@example(header=None, cell=(2, 64, str(2 ** 70)))
def test_text_reader_fuzz(files, header, cell):
    _, lines, path = files
    lines = list(lines)
    if header is not None:
        # token 0 is the magic, 1-5 hold T0, C0, P, task and classes, and
        # 6 is an added fixed_lambda
        tokens = lines[0].split(" ") + ["fixed_lambda=2"]
        index, value = header
        tokens[index] = value if index == 0 else tokens[index].split("=")[0] + "=" + value
        lines[0] = " ".join(tokens if index == 6 else tokens[:6])
    if cell is not None:
        row, column, value = cell
        cells = lines[row].split(",")
        cells[column] = value
        lines[row] = ",".join(cells)
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
    read_or_format_error(path)
