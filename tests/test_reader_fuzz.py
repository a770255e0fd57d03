"""Fuzzed dataset, .model, scaler and manifest files: each reader returns
what it reads or raises FormatError.

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
    Standardizer,
    generate_dataset,
    read_dataset,
    write_dataset_binary,
    write_dataset_text,
)
from circscatter.geometry import ScatterConfig
from circscatter.nncore import (
    Bottleneck,
    Conv,
    Dense,
    Flatten,
    NetworkSpec,
    Output,
    init_parameters,
    load_model,
)
from circscatter.pipeline import ModelRegistry, TrainedModel

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


# ------------------------------------------------------ model registry files


@pytest.fixture(scope="module")
def registry(tmp_path_factory):
    """A registry directory holding a small classifier and three small
    regressors, so that a manifest naming any registry model finds its
    files; returns it with its manifest and the peanut .model split
    into magic, header and payload."""
    directory = tmp_path_factory.mktemp("registry")
    for name, tag in (("classifier", None), ("peanut", 1), ("kite", 2), ("star", 3)):
        task, out = ("class", Output(3, "softmax")) if tag is None else ("reg", Output(5))
        spec = NetworkSpec(8, 2, (Conv(4, 3, 2), Bottleneck(3), Flatten(),
                                  Dense(6, dropout=0.1, l2=1e-4), out), task)
        targets = None if tag is None else Standardizer(np.zeros(5), np.ones(5))
        TrainedModel(spec, init_parameters(spec, 0), Standardizer(np.zeros(16), np.ones(16)),
                     targets, preset="ap2", seed=0, classes=(1, 2, 3) if tag is None else None,
                     class_tag=tag).save(directory, name)
    model = (directory / "peanut.model").read_bytes().split(b"\n", 2)
    return directory, (directory / "manifest.json").read_bytes(), model


def loads_or_format_error(load):
    try:
        load()
    except errors.FormatError:
        pass


def mutated(text: bytes, keys, value, whole) -> bytes:
    """The JSON ``text`` with the member that ``keys`` leads to set to
    ``value``; or, when ``whole`` is not None, ``whole`` in its place."""
    if whole is not None:
        return json.dumps(whole).encode("ascii")
    node = blob = json.loads(text)
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return json.dumps(blob).encode("ascii")


# the spec's layers are conv, bottleneck, flatten, dense and output
HEADER_KEYS = (st.sampled_from([("spec",), ("dtype",), ("spec", "input_t"), ("spec", "input_c"),
                                ("spec", "task"), ("spec", "layers")])
               | st.tuples(st.just("spec"), st.just("layers"), st.integers(0, 4),
                           st.sampled_from(["kind", "filters", "kernel_size", "stride",
                                            "channels", "units", "dropout", "l2",
                                            "layernorm", "activation", "extra"])))


@FUZZ
@given(keys=HEADER_KEYS, value=JSON_VALUES, whole=st.none() | JSON_VALUES)
@example(keys=("dtype",), value=None, whole=[1, 2])
@example(keys=("dtype",), value=5, whole=None)
@example(keys=("spec", "layers", 3, "l2"), value=float("nan"), whole=None)
@example(keys=("spec", "layers", 3, "layernorm"), value="no", whole=None)
def test_model_header_fuzz(registry, keys, value, whole):
    directory, _, (magic, header, payload) = registry
    path = directory / "mutated.model"
    path.write_bytes(b"\n".join([magic, mutated(header, keys, value, whole), payload]))
    loads_or_format_error(lambda: load_model(path))


SCALER_KEYS = (st.sampled_from([("features",), ("targets",), ("meta",)])
               | st.tuples(st.sampled_from(["features", "targets"]),
                           st.sampled_from(["mean", "std"]))
               | st.tuples(st.sampled_from(["features", "targets"]),
                           st.sampled_from(["mean", "std"]), st.integers(0, 4))
               | st.tuples(st.just("meta"),
                           st.sampled_from(["preset", "seed", "task", "t0", "c0", "phis",
                                            "classes", "class_tag", "fixed_impedance"])))


@FUZZ
@given(keys=SCALER_KEYS, value=JSON_VALUES, whole=st.none() | JSON_VALUES)
@example(keys=("features", "std", 0), value=0, whole=None)
@example(keys=("targets", "mean", 1), value=10 ** 400, whole=None)
def test_scaler_fuzz(registry, keys, value, whole):
    directory, _, model = registry
    (directory / "mutated.model").write_bytes(b"\n".join(model))
    (directory / "mutated.scaler.json").write_bytes(
        mutated((directory / "peanut.scaler.json").read_bytes(), keys, value, whole))
    loads_or_format_error(lambda: TrainedModel.load(directory, "mutated"))


@FUZZ
@given(keys=st.sampled_from([("format",), ("models",)])
       | st.tuples(st.just("models"),
                   st.sampled_from(["classifier", "peanut", "kite", "star", "blob"])
                   | st.text(max_size=6)),
       value=JSON_VALUES, whole=st.none() | JSON_VALUES)
@example(keys=("models", "blob"), value={}, whole=None)
def test_manifest_fuzz(registry, keys, value, whole):
    directory, manifest, _ = registry
    (directory / "manifest.json").write_bytes(mutated(manifest, keys, value, whole))
    loads_or_format_error(lambda: ModelRegistry.load(directory))
