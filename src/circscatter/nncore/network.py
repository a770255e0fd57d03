"""Network specification, initialization, composed passes, model files.

A NetworkSpec is an immutable layer list; Parameters hold the matching
arrays, as views into one vector.  Shape propagation runs at build time
so an inconsistent spec can never reach the forward pass.

Everything a layer kind means lives in its spec class (Conv, Attention,
Bottleneck, Flatten, Dense, Output; see LayerSpec): its JSON name, shape
rule, parameter shapes, forward and backward.  The composed passes,
stage_shapes, the parameter shapes and the model-file kind lookup are
generic loops over those methods.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import warnings
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ..errors import FormatError, ValidationError
from ..serial import atomic_write, parse_json_object
from . import layers

MODEL_MAGIC = b"cscmodel-v1"
# samples per block of a streamed eval pass (see network_forward)
EVAL_BLOCK = 128


# ---------------------------------------------------------------- layer specs


class LayerSpec:
    """Base of the six layer kinds; each kind's class holds all its rules.

    ``kind`` names the kind in a .model header and ``flat_input`` says
    whether it reads the (B, d) rows after Flatten or a (B, T, C) tensor;
    both are class variables, so they stay out of the serialized fields.
    A kind implements:

    - ``out_shape(i, shape_in, task)``: check the fields against the
      input shape ((T, C) or an int width) and return the output shape;
    - ``param_shapes(shape_in)``: name -> (shape, fans) in the order
      init_parameters draws them, fans being (fan_in, fan_out) for Glorot
      weights and None for biases and LayerNorm terms;
    - ``forward(group, h, rng, train, memo=None)`` -> (output, cache);
      ``memo`` is this layer's Parameters.memos entry in eval mode, a dict
      for values computed from its parameters alone when the set is
      frozen, and None in train mode or over writable parameters;
    - ``backward(group, d, cache, need_dx)`` -> (input gradient, parameter
      grads), the grads holding an array for every name of ``group``
      (network_backward does not zero its output); when ``need_dx`` is
      false the input gradient is not wanted, and a kind may skip its
      work and return None in its place.
    """

    kind: ClassVar[str]
    flat_input: ClassVar[bool] = False


@dataclass(frozen=True)
class Conv(LayerSpec):
    filters: int
    kernel_size: int
    stride: int = 1

    kind: ClassVar[str] = "conv"

    def out_shape(self, i, shape_in, task):
        if not _sizes_ok(self.filters, self.kernel_size, self.stride):
            raise ValidationError(f"layer {i}: conv sizes must be integers >= 1")
        return layers.conv_output_length(shape_in[0], self.stride), self.filters

    def param_shapes(self, shape_in):
        c, k, nf = shape_in[1], self.kernel_size, self.filters
        return {"w": ((nf, k, c), (k * c, k * nf)), "b": ((nf,), None)}

    def forward(self, group, h, rng, train, memo=None):
        z, conv_cache = layers.circular_conv_forward(h, group["w"], group["b"], self.stride,
                                                     memo)
        h, sw_cache = layers.swish_forward(z, train)
        return h, (conv_cache, sw_cache)

    def backward(self, group, d, cache, need_dx):
        conv_cache, sw_cache = cache
        dz = layers.swish_backward(d, sw_cache)
        d, dw, db = layers.circular_conv_backward(dz, conv_cache, need_dx)
        return d, {"w": dw, "b": db}


@dataclass(frozen=True)
class Attention(LayerSpec):
    mix_kernel: int = 3
    reduction: int = 8

    kind: ClassVar[str] = "attention"

    def out_shape(self, i, shape_in, task):
        if not _sizes_ok(self.mix_kernel, self.reduction):
            raise ValidationError(f"layer {i}: attention sizes must be integers >= 1")
        if shape_in[1] % self.reduction != 0:
            raise ValidationError(
                f"layer {i}: {shape_in[1]} channels not divisible by reduction {self.reduction}")
        return shape_in

    def param_shapes(self, shape_in):
        c, k = shape_in[1], self.mix_kernel
        hidden = c // self.reduction
        return {"w_mix": ((c, k, c), (k * c, k * c)), "b_mix": ((c,), None),
                "ln_gain": ((c,), None), "ln_shift": ((c,), None),
                "w1": ((hidden, c), (c, hidden)), "b1": ((hidden,), None),
                "w2": ((c, hidden), (hidden, c)), "b2": ((c,), None)}

    def forward(self, group, h, rng, train, memo=None):
        return layers.attention_forward(h, group, train)

    def backward(self, group, d, cache, need_dx):
        return layers.attention_backward(d, cache)


@dataclass(frozen=True)
class Bottleneck(LayerSpec):
    channels: int

    kind: ClassVar[str] = "bottleneck"

    def out_shape(self, i, shape_in, task):
        if not _sizes_ok(self.channels):
            raise ValidationError(f"layer {i}: bottleneck channels must be an integer >= 1")
        if self.channels >= shape_in[1]:
            warnings.warn(
                f"layer {i}: bottleneck {self.channels} does not reduce {shape_in[1]} channels")
        return shape_in[0], self.channels

    def param_shapes(self, shape_in):
        c, nb = shape_in[1], self.channels
        return {"w": ((c, nb), (c, nb)), "b": ((nb,), None)}

    def forward(self, group, h, rng, train, memo=None):
        return layers.bottleneck_forward(h, group["w"], group["b"], train)

    def backward(self, group, d, cache, need_dx):
        d, dw, db = layers.bottleneck_backward(d, cache)
        return d, {"w": dw, "b": db}


@dataclass(frozen=True)
class Flatten(LayerSpec):
    kind: ClassVar[str] = "flatten"

    def out_shape(self, i, shape_in, task):
        return shape_in[0] * shape_in[1]

    def param_shapes(self, shape_in):
        return {}

    def forward(self, group, h, rng, train, memo=None):
        return h.reshape(h.shape[0], -1), h.shape

    def backward(self, group, d, cache, need_dx):
        return d.reshape(cache), {}


@dataclass(frozen=True)
class Dense(LayerSpec):
    units: int
    dropout: float = 0.0
    layernorm: bool = True
    l2: float = 0.0

    kind: ClassVar[str] = "dense"
    flat_input: ClassVar[bool] = True

    def out_shape(self, i, shape_in, task):
        if not _sizes_ok(self.units):
            raise ValidationError(f"layer {i}: units must be an integer >= 1")
        if not (_is_number(self.dropout) and 0.0 <= self.dropout < 1.0):
            raise ValidationError(f"layer {i}: dropout must be a number in [0, 1)")
        if not (_is_number(self.l2) and 0.0 <= self.l2 < math.inf):
            raise ValidationError(f"layer {i}: l2 must be a finite number >= 0")
        if not isinstance(self.layernorm, bool):
            raise ValidationError(f"layer {i}: layernorm must be true or false")
        return self.units

    def param_shapes(self, shape_in):
        units = self.units
        group = {"w": ((units, shape_in), (shape_in, units)), "b": ((units,), None)}
        if self.layernorm:
            group["ln_gain"] = ((units,), None)
            group["ln_shift"] = ((units,), None)
        return group

    def forward(self, group, h, rng, train, memo=None):
        z, dense_cache = layers.dense_forward(h, group["w"], group["b"])
        h, sw_cache = layers.swish_forward(z, train)
        ln_cache = None
        if self.layernorm:
            h, ln_cache = layers.layer_norm_forward(h, group["ln_gain"], group["ln_shift"])
        h, drop_cache = layers.dropout_forward(h, self.dropout, rng, train)
        return h, (dense_cache, sw_cache, ln_cache, drop_cache)

    def backward(self, group, d, cache, need_dx):
        dense_cache, sw_cache, ln_cache, drop_cache = cache
        d = layers.dropout_backward(d, drop_cache)
        grads = {}
        if ln_cache is not None:
            d, grads["ln_gain"], grads["ln_shift"] = layers.layer_norm_backward(d, ln_cache)
        dz = layers.swish_backward(d, sw_cache)
        d, dw, db = layers.dense_backward(dz, dense_cache)
        if self.l2 > 0.0:
            dw += (2.0 * self.l2) * group["w"]
        grads["w"], grads["b"] = dw, db
        return d, grads


@dataclass(frozen=True)
class Output(LayerSpec):
    units: int
    activation: str = "linear"

    kind: ClassVar[str] = "output"
    flat_input: ClassVar[bool] = True

    def out_shape(self, i, shape_in, task):
        if not _sizes_ok(self.units):
            raise ValidationError(f"layer {i}: units must be an integer >= 1")
        if self.activation not in ("softmax", "linear"):
            raise ValidationError(f"unknown activation {self.activation!r}")
        want = "softmax" if task == "class" else "linear"
        if self.activation != want:
            raise ValidationError(f"task {task!r} needs {want} output, got {self.activation}")
        return self.units

    def param_shapes(self, shape_in):
        units = self.units
        return {"w": ((units, shape_in), (shape_in, units)), "b": ((units,), None)}

    def forward(self, group, h, rng, train, memo=None):
        z, dense_cache = layers.dense_forward(h, group["w"], group["b"])
        probs = layers.softmax(z) if self.activation == "softmax" else None
        return (z if probs is None else probs), (dense_cache, probs)

    def backward(self, group, d, cache, need_dx):
        dense_cache, probs = cache
        dz = layers.softmax_backward(d, probs) if probs is not None else d
        d, dw, db = layers.dense_backward(dz, dense_cache)
        return d, {"w": dw, "b": db}


def _sizes_ok(*sizes) -> bool:
    """Every size is an integer (not a bool) >= 1; a spec read from a file
    may carry anything JSON can hold."""
    return all(isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= 1
               for v in sizes)


def _is_number(v) -> bool:
    """A real number and not a bool (JSON's true and false are bools)."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


_KINDS = {cls.kind: cls for cls in (Conv, Attention, Bottleneck, Flatten, Dense, Output)}


@dataclass(frozen=True)
class NetworkSpec:
    """Input tensor shape plus an ordered layer list; validated on build."""

    input_t: int
    input_c: int
    layers: tuple
    task: str

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if self.task not in ("class", "reg"):
            raise ValidationError(f"unknown task {self.task!r}")
        if not _sizes_ok(self.input_t, self.input_c):
            raise ValidationError("input dimensions must be positive integers")
        self.stage_shapes()  # raises on any inconsistency

    def stage_shapes(self) -> list:
        """Per-layer output shapes: (T, C) tuples before Flatten, ints after."""
        if not self.layers or not isinstance(self.layers[-1], Output):
            raise ValidationError("last layer must be Output")
        shape = (self.input_t, self.input_c)
        shapes = []
        for i, spec in enumerate(self.layers):
            if not isinstance(spec, LayerSpec):
                raise ValidationError(f"unknown layer spec {spec!r}")
            if isinstance(spec, Output) and i != len(self.layers) - 1:
                raise ValidationError("Output must be the final layer")
            if spec.flat_input == isinstance(shape, tuple):
                where = "before" if spec.flat_input else "after"
                raise ValidationError(f"layer {i}: {spec.kind} layer {where} Flatten")
            shape = spec.out_shape(i, shape, self.task)
            shapes.append(shape)
        return shapes

    @property
    def output_dim(self) -> int:
        return self.layers[-1].units

    def to_json_dict(self) -> dict:
        return {"input_t": self.input_t, "input_c": self.input_c, "task": self.task,
                "layers": [{"kind": spec.kind, **spec.__dict__} for spec in self.layers]}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "NetworkSpec":
        try:
            specs = []
            for entry in obj["layers"]:
                entry = dict(entry)
                kind = entry.pop("kind")
                if kind not in _KINDS:
                    raise FormatError(f"unknown layer kind {kind!r}")
                specs.append(_KINDS[kind](**entry))
            return cls(obj["input_t"], obj["input_c"], tuple(specs), obj["task"])
        except (KeyError, TypeError) as exc:
            raise FormatError(f"bad network spec: {exc}") from exc


# ---------------------------------------------------------------- parameters


class Parameters:
    """All of a network's parameters in one contiguous 1-D array.

    ``layout`` gives, per layer of NetworkSpec.layers, name -> shape.
    ``vector`` holds the arrays back to back in ``arrays()`` order (layer
    order, then sorted names), which is also the .model payload order,
    and ``layers[i][name]`` is a reshaped view into it.  Whole-set
    operations (Adam, clipping, copies, model files) therefore act on
    ``vector`` alone.  Write through the views (``group[name][...] = x``)
    and never rebind a dict entry: a rebound entry no longer aliases
    ``vector``.

    ``version`` increments on every optimizer step so that stale
    forward caches can be rejected by the backward pass.

    A set is writable until ``freeze`` makes it read-only.
    ``memos[i]`` is layer i's memo: None while the set is writable, and
    once frozen a dict of values that eval-mode passes compute from that
    layer's parameters alone: the conjugated filter spectrum of each
    stride-1, K >= 15 conv (layers.filter_spectrum), keyed by input length
    and dtype.  Since a frozen set cannot change, its memo is never stale;
    ``copy``, ``zeros_like`` and load_model return writable sets.
    """

    def __init__(self, layout: list[dict], vector: np.ndarray):
        self.layout = layout
        self.vector = vector
        self.layers = []
        start = 0
        for shapes in layout:
            group = {}
            for name in sorted(shapes):
                size = math.prod(shapes[name])
                group[name] = vector[start:start + size].reshape(shapes[name])
                start += size
            self.layers.append(group)
        self.memos = [None] * len(layout)
        self.version = 0

    def freeze(self) -> "Parameters":
        """Make ``vector`` and every view read-only, in place, and give
        each layer an empty memo; a later write raises ValueError.
        ``vector`` becomes a read-only view of the read-only owner, so
        numpy refuses to make it (or a layer view) writable again.
        Idempotent; returns self."""
        self.vector.flags.writeable = False
        self.vector = self.vector.view()
        for _, _, view in self.arrays():
            view.flags.writeable = False
        self.memos = [{} if memo is None else memo for memo in self.memos]
        return self

    def arrays(self):
        """Deterministic iteration: layer order, then sorted key order."""
        for i, group in enumerate(self.layers):
            for name in sorted(group):
                yield i, name, group[name]

    def copy(self) -> "Parameters":
        return Parameters(self.layout, self.vector.copy())

    def zeros_like(self) -> "Parameters":
        return Parameters(self.layout, np.zeros_like(self.vector))

    @property
    def num_params(self) -> int:
        return self.vector.size

    @property
    def dtype(self):
        return self.vector.dtype


def _layout_size(layout: list[dict]) -> int:
    return sum(math.prod(shape) for shapes in layout for shape in shapes.values())


def _parameter_shapes(spec: NetworkSpec) -> list[dict]:
    """Per layer, name -> (shape, fans) as LayerSpec.param_shapes gives
    them: the one shape rule behind both init_parameters and load_model."""
    inputs = [(spec.input_t, spec.input_c)] + spec.stage_shapes()[:-1]
    return [layer.param_shapes(shape_in) for layer, shape_in in zip(spec.layers, inputs)]


def _layout(shapes: list[dict]) -> list[dict]:
    """The Parameters layout (name -> shape) of _parameter_shapes' output."""
    return [{name: shape for name, (shape, _) in group.items()} for group in shapes]


def init_parameters(spec: NetworkSpec, seed: int, dtype=np.float32) -> Parameters:
    """Glorot-uniform weights, zero biases, unit LayerNorm gains."""
    rng = np.random.default_rng(seed)
    shapes = _parameter_shapes(spec)
    layout = _layout(shapes)
    params = Parameters(layout, np.zeros(_layout_size(layout), dtype=dtype))
    for group, views in zip(shapes, params.layers):
        for name, (shape, fans) in group.items():
            if fans is not None:
                limit = np.sqrt(6.0 / (fans[0] + fans[1]))
                # assignment casting rounds exactly as astype would
                views[name][...] = rng.uniform(-limit, limit, size=shape)
            elif name == "ln_gain":
                views[name][...] = 1.0
    return params


# ---------------------------------------------------------------- passes


class NetworkCache:
    """A train-mode forward's per-layer caches, for exactly one backward.

    ``items[i]`` is layer i's cache and ``params_version`` the parameter
    version it was computed at.  network_backward spends the cache: it
    takes ``items`` (leaving None) and releases each layer's entry once
    that layer's backward has run, so a training step never holds two
    steps' activations at once.
    """

    __slots__ = ("items", "params_version")

    def __init__(self, items, params_version):
        self.items = items
        self.params_version = params_version


def network_forward(spec: NetworkSpec, params: Parameters, x: np.ndarray,
                    mode: str = "eval", rng: np.random.Generator | None = None):
    """Run the network on a (B, T, C) batch.

    Returns the output matrix in eval mode, or (output, cache) in train
    mode; the cache feeds exactly one network_backward, which spends it.
    An eval pass drops each layer's cache as soon as the layer has run,
    and over frozen params its long-kernel convs read their filter
    spectra from the params' memo.

    From 2 * EVAL_BLOCK rows on, an eval pass streams the layers before
    Flatten over blocks of EVAL_BLOCK samples (the last block takes the
    remainder, so every block holds EVAL_BLOCK to 2 * EVAL_BLOCK - 1),
    writes each block's flattened rows into one (B, d) matrix, and runs
    Flatten and the dense head once over the whole batch.  Only one
    block's im2col columns and activations are live at a time.  Every
    output byte is the whole-batch pass's, since each pre-Flatten layer
    computes every sample on its own and the head's GEMMs keep their
    shapes; tests/test_network.py checks the bytes, because a BLAS may
    pick its kernel by a GEMM's row count.
    """
    if mode not in ("train", "eval"):
        raise ValidationError(f"unknown mode {mode!r}")
    x = np.asarray(x)
    if x.ndim != 3 or x.shape[1:] != (spec.input_t, spec.input_c):
        raise ValidationError(
            f"input must be (B, {spec.input_t}, {spec.input_c}), got {x.shape}")
    h = x
    if mode == "eval":
        if len(h) >= 2 * EVAL_BLOCK:
            return _streamed_eval(spec, params, h)
        for layer, group, memo in zip(spec.layers, params.layers, params.memos):
            h = layer.forward(group, h, rng, False, memo)[0]
        return h
    caches = []
    for layer, group in zip(spec.layers, params.layers):
        h, cache = layer.forward(group, h, rng, True)
        caches.append(cache)
    return h, NetworkCache(caches, params.version)


def _eval_layers(spec: NetworkSpec, params: Parameters, h: np.ndarray,
                 start: int, stop: int) -> np.ndarray:
    """Eval-mode pass of ``h`` through layers start .. stop - 1, dropping
    each layer's cache as soon as the layer has run."""
    for i in range(start, stop):
        h = spec.layers[i].forward(params.layers[i], h, None, False, params.memos[i])[0]
    return h


def _flatten_index(spec: NetworkSpec) -> int:
    """The position of the Flatten layer, which every valid spec has once."""
    return next(i for i, layer in enumerate(spec.layers) if isinstance(layer, Flatten))


def _streamed_eval(spec: NetworkSpec, params: Parameters, x: np.ndarray) -> np.ndarray:
    """network_forward's eval pass over a batch of at least 2 * EVAL_BLOCK
    rows: the pre-Flatten stage block by block, then the head once.

    Blocks never go below EVAL_BLOCK samples: at 32 or 64 the attention
    gate's (B, C) @ (C, C / r) GEMM takes another BLAS path and changes
    ap10's output bytes."""
    flat = _flatten_index(spec)
    n = len(x)
    blocks = n // EVAL_BLOCK
    rows = None
    for k in range(blocks):
        lo = k * EVAL_BLOCK
        hi = n if k == blocks - 1 else lo + EVAL_BLOCK
        h = _eval_layers(spec, params, x[lo:hi], 0, flat)
        if rows is None:
            rows = np.empty((n, h[0].size), h.dtype)
        rows[lo:hi] = h.reshape(hi - lo, -1)
    return _eval_layers(spec, params, rows, flat, len(spec.layers))


def network_backward(spec: NetworkSpec, params: Parameters, cache: NetworkCache,
                     dout: np.ndarray, out: Parameters | None = None):
    """Gradients of the loss w.r.t. every parameter (L2 terms included),
    as a Parameters of the same layout.  The gradient w.r.t. the network
    input is not computed: layer 0 is told it is not wanted.

    The gradients are written into ``out`` when it is given (a writable
    Parameters of params' layout and dtype, such as the last step's
    gradients, whose values are overwritten) and returned; otherwise into
    a fresh, unfilled vector.  Every layer kind assigns every one of its
    gradient entries, so no entry keeps an old value and no zero fill is
    needed.

    The pass spends ``cache``: each layer's entry is released as soon as
    that layer's backward returns, so its activations are freed while the
    layers below still run, and a second backward on the same cache
    raises ValidationError."""
    if cache.params_version != params.version:
        raise ValidationError("stale cache: parameters changed since the forward pass")
    if cache.items is None:
        raise ValidationError("spent cache: it has already fed a backward pass")
    if out is not None and (out.layout != params.layout or out.dtype != params.dtype):
        raise ValidationError("gradient buffer does not match the parameters' layout and dtype")
    items, cache.items = cache.items, None
    grads = Parameters(params.layout, np.empty_like(params.vector)) if out is None else out
    d = dout
    for i in range(len(spec.layers) - 1, -1, -1):
        d, layer_grads = spec.layers[i].backward(params.layers[i], d, items.pop(), i > 0)
        for name, g in layer_grads.items():
            grads.layers[i][name][...] = g
    return grads


def forward_features(spec: NetworkSpec, params: Parameters, x: np.ndarray) -> np.ndarray:
    """Eval-mode pass stopping just before Flatten; returns the (B, T, C)
    feature tensor (used to probe shift equivariance)."""
    return _eval_layers(spec, params, np.asarray(x), 0, _flatten_index(spec))


def l2_penalty(spec: NetworkSpec, params: Parameters) -> float:
    """Sum of l2 * ||W||_F^2 over hidden dense layers."""
    total = 0.0
    for layer, group in zip(spec.layers, params.layers):
        if isinstance(layer, Dense) and layer.l2 > 0.0:
            # the ufunc casts to float64 chunk by chunk: one temporary, the squares
            total += layer.l2 * float(np.sum(np.square(group["w"], dtype=np.float64)))
    return total


# ---------------------------------------------------------------- model files


def save_model(path, spec: NetworkSpec, params: Parameters) -> None:
    """Header line, JSON spec line, then the parameter vector as raw
    little-endian floats."""
    dtype = np.dtype(params.dtype)
    header = {"spec": spec.to_json_dict(), "dtype": dtype.name}
    with atomic_write(path, "wb") as fh:
        fh.write(MODEL_MAGIC + b"\n")
        fh.write(json.dumps(header, separators=(",", ":")).encode("ascii") + b"\n")
        fh.write(np.ascontiguousarray(params.vector, dtype=dtype.newbyteorder("<")))


def load_model(path):
    """Returns (spec, params).  The payload size is re-derived from the
    spec, so a truncated or oversized payload is detected exactly; a
    non-finite parameter is refused."""
    with open(path, "rb") as fh:
        magic = fh.readline().rstrip(b"\n")
        if magic != MODEL_MAGIC:
            raise FormatError(f"bad magic {magic!r}, expected {MODEL_MAGIC!r}")
        header = parse_json_object(fh.readline(), "bad model header", "ascii")
        try:
            spec = NetworkSpec.from_json_dict(header["spec"])
            dtype = np.dtype(header["dtype"])
        # a spec that fails validation (a ValidationError is a ValueError),
        # or a dtype numpy cannot read (a TypeError), is a fault of the file
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"bad model header: {exc}") from exc
        if dtype not in (np.float32, np.float64):
            raise FormatError(f"bad model header: dtype {dtype.name} is not float32 or float64")
        layout = _layout(_parameter_shapes(spec))
        count = _layout_size(layout)
        n_bytes = count * dtype.itemsize
        # sized against the file before anything is allocated, so a header
        # declaring a huge network is refused, not read
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if left < n_bytes:
            raise FormatError("truncated parameter payload")
        if left > n_bytes:
            raise FormatError("trailing bytes after parameter payload")
        vector = np.empty(count, dtype=dtype.newbyteorder("<"))
        fh.readinto(vector)
    vector = vector.astype(dtype, copy=False)   # copies on big-endian hosts only
    if not np.isfinite(vector).all():
        raise FormatError("non-finite parameter in model payload")
    return spec, Parameters(layout, vector)


# ---------------------------------------------------------------- presets

# training defaults per preset: learning rate, batch, early-stop delta,
# patience, clip norm
PRESET_TRAINING = {
    "ap1": {"learning_rate": 1e-5, "batch_size": 64, "min_delta": 1e-3,
            "patience": 150, "clip_norm": None},
    "ap2": {"learning_rate": 1e-4, "batch_size": 128, "min_delta": 1e-4,
            "patience": 80, "clip_norm": None},
    "ap4": {"learning_rate": 1e-4, "batch_size": 128, "min_delta": 1e-4,
            "patience": 80, "clip_norm": None},
    "ap7": {"learning_rate": 1e-4, "batch_size": 128, "min_delta": 1e-4,
            "patience": 200, "clip_norm": None},
    "ap10": {"learning_rate": 5e-5, "batch_size": 128, "min_delta": 1e-4,
             "patience": 200, "clip_norm": 1.0},
}


def preset_spec(name: str) -> NetworkSpec:
    """The five stock architectures, keyed ap1/ap2/ap4/ap7/ap10."""
    if name == "ap1":
        return NetworkSpec(32, 2, (
            Conv(64, 5, 1), Conv(64, 5, 2), Conv(64, 7, 1), Bottleneck(16), Flatten(),
            Dense(128, dropout=0.2), Dense(64, dropout=0.1), Output(3, "softmax"),
        ), "class")
    if name == "ap2":
        return NetworkSpec(32, 2, (
            Conv(64, 5, 1), Conv(64, 5, 2), Bottleneck(16), Flatten(),
            Dense(64), Output(5, "linear"),
        ), "reg")
    if name == "ap4":
        return NetworkSpec(32, 2, (
            Conv(64, 5, 1), Conv(64, 5, 2), Bottleneck(16), Flatten(),
            Dense(64), Output(6, "linear"),
        ), "reg")
    if name == "ap7":
        return NetworkSpec(128, 4, (
            Conv(128, 5, 1), Conv(128, 5, 2), Conv(128, 15, 1), Conv(128, 31, 1),
            Bottleneck(64), Flatten(),
            Dense(256, dropout=0.1), Dense(128), Output(13, "linear"),
        ), "reg")
    if name == "ap10":
        return NetworkSpec(128, 8, (
            Conv(128, 5, 1), Conv(128, 5, 2), Conv(128, 15, 1), Conv(128, 31, 1),
            Attention(mix_kernel=3, reduction=8), Bottleneck(64), Flatten(),
            Dense(512, dropout=0.3, l2=1e-4), Dense(256, dropout=0.2, l2=1e-4),
            Dense(128, dropout=0.1, l2=1e-4), Output(14, "linear"),
        ), "reg")
    raise ValidationError(f"unknown preset {name!r} (have {sorted(PRESET_TRAINING)})")
