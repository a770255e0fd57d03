"""Network specification, initialization, composed passes, model files.

A NetworkSpec is an immutable layer list; Parameters hold the matching
arrays.  Shape propagation runs at build time so an inconsistent spec
can never reach the forward pass.
"""

from __future__ import annotations

import json
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from ..errors import FormatError, ValidationError
from ..serial import atomic_write
from . import layers

MODEL_MAGIC = b"cscmodel-v1"


# ---------------------------------------------------------------- layer specs


@dataclass(frozen=True)
class Conv:
    filters: int
    kernel_size: int
    stride: int = 1


@dataclass(frozen=True)
class Attention:
    mix_kernel: int = 3
    reduction: int = 8


@dataclass(frozen=True)
class Bottleneck:
    channels: int


@dataclass(frozen=True)
class Flatten:
    pass


@dataclass(frozen=True)
class Dense:
    units: int
    dropout: float = 0.0
    layernorm: bool = True
    l2: float = 0.0


@dataclass(frozen=True)
class Output:
    units: int
    activation: str = "linear"


def _sizes_ok(*sizes) -> bool:
    """Every size is an integer (not a bool) >= 1; a spec read from a file
    may carry anything JSON can hold."""
    return all(isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= 1
               for v in sizes)


_KINDS = {"conv": Conv, "attention": Attention, "bottleneck": Bottleneck,
          "flatten": Flatten, "dense": Dense, "output": Output}


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
        t, c = self.input_t, self.input_c
        flat = None
        shapes = []
        for i, spec in enumerate(self.layers):
            last = i == len(self.layers) - 1
            if isinstance(spec, Output) and not last:
                raise ValidationError("Output must be the final layer")
            if isinstance(spec, (Conv, Attention, Bottleneck)):
                if flat is not None:
                    raise ValidationError(f"layer {i}: tensor layer after Flatten")
                if isinstance(spec, Conv):
                    if not _sizes_ok(spec.filters, spec.kernel_size, spec.stride):
                        raise ValidationError(f"layer {i}: conv sizes must be integers >= 1")
                    t = layers.conv_output_length(t, spec.stride)
                    c = spec.filters
                elif isinstance(spec, Attention):
                    if not _sizes_ok(spec.mix_kernel, spec.reduction):
                        raise ValidationError(f"layer {i}: attention sizes must be integers >= 1")
                    if c % spec.reduction != 0:
                        raise ValidationError(
                            f"layer {i}: {c} channels not divisible by reduction {spec.reduction}")
                else:
                    if not _sizes_ok(spec.channels):
                        raise ValidationError(
                            f"layer {i}: bottleneck channels must be an integer >= 1")
                    if spec.channels >= c:
                        warnings.warn(
                            f"layer {i}: bottleneck {spec.channels} does not reduce {c} channels")
                    c = spec.channels
                shapes.append((t, c))
            elif isinstance(spec, Flatten):
                if flat is not None:
                    raise ValidationError("only one Flatten allowed")
                flat = t * c
                shapes.append(flat)
            elif isinstance(spec, (Dense, Output)):
                if flat is None:
                    raise ValidationError(f"layer {i}: dense layer before Flatten")
                if not _sizes_ok(spec.units):
                    raise ValidationError(f"layer {i}: units must be an integer >= 1")
                if isinstance(spec, Dense):
                    if not 0.0 <= spec.dropout < 1.0:
                        raise ValidationError(f"layer {i}: dropout must be in [0, 1)")
                    if spec.l2 < 0:
                        raise ValidationError(f"layer {i}: l2 must be >= 0")
                else:
                    if spec.activation not in ("softmax", "linear"):
                        raise ValidationError(f"unknown activation {spec.activation!r}")
                    want = "softmax" if self.task == "class" else "linear"
                    if spec.activation != want:
                        raise ValidationError(
                            f"task {self.task!r} needs {want} output, got {spec.activation}")
                flat = spec.units
                shapes.append(flat)
            else:
                raise ValidationError(f"unknown layer spec {spec!r}")
        return shapes

    @property
    def output_dim(self) -> int:
        return self.layers[-1].units

    def to_json_dict(self) -> dict:
        out = []
        for spec in self.layers:
            kind = next(k for k, cls in _KINDS.items() if isinstance(spec, cls))
            entry = {"kind": kind}
            entry.update(spec.__dict__)
            out.append(entry)
        return {"input_t": self.input_t, "input_c": self.input_c,
                "task": self.task, "layers": out}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "NetworkSpec":
        try:
            specs = []
            for entry in obj["layers"]:
                entry = dict(entry)
                kind = entry.pop("kind")
                specs.append(_KINDS[kind](**entry))
            return cls(obj["input_t"], obj["input_c"], tuple(specs), obj["task"])
        except (KeyError, TypeError) as exc:
            raise FormatError(f"bad network spec: {exc}") from exc


# ---------------------------------------------------------------- parameters


class Parameters:
    """Per-layer dict of named arrays, aligned with NetworkSpec.layers.

    ``version`` increments on every optimizer step so that stale
    forward caches can be rejected by the backward pass.
    """

    def __init__(self, per_layer: list[dict]):
        self.layers = per_layer
        self.version = 0

    def arrays(self):
        """Deterministic iteration: layer order, then sorted key order."""
        for i, group in enumerate(self.layers):
            for name in sorted(group):
                yield i, name, group[name]

    def copy(self) -> "Parameters":
        return Parameters([{k: v.copy() for k, v in group.items()} for group in self.layers])

    def zeros_like(self) -> "Parameters":
        return Parameters([{k: np.zeros_like(v) for k, v in group.items()}
                           for group in self.layers])

    def astype(self, dtype) -> "Parameters":
        return Parameters([{k: v.astype(dtype) for k, v in group.items()}
                           for group in self.layers])

    @property
    def num_params(self) -> int:
        return sum(arr.size for _, _, arr in self.arrays())

    @property
    def dtype(self):
        for _, _, arr in self.arrays():
            return arr.dtype
        raise ValidationError("empty parameter set")


def _parameter_shapes(spec: NetworkSpec) -> list[dict]:
    """Per layer, name -> (shape, fans) in the order init_parameters
    draws them; fans is (fan_in, fan_out) for Glorot weights and None for
    biases and LayerNorm terms.  The one shape rule behind both
    init_parameters and load_model."""
    inputs = [(spec.input_t, spec.input_c)] + spec.stage_shapes()[:-1]
    out = []
    for layer, shape_in in zip(spec.layers, inputs):
        c = shape_in[1] if isinstance(shape_in, tuple) else None
        if isinstance(layer, Conv):
            k, nf = layer.kernel_size, layer.filters
            group = {"w": ((nf, k, c), (k * c, k * nf)), "b": ((nf,), None)}
        elif isinstance(layer, Attention):
            k, hidden = layer.mix_kernel, c // layer.reduction
            group = {"w_mix": ((c, k, c), (k * c, k * c)), "b_mix": ((c,), None),
                     "ln_gain": ((c,), None), "ln_shift": ((c,), None),
                     "w1": ((hidden, c), (c, hidden)), "b1": ((hidden,), None),
                     "w2": ((c, hidden), (hidden, c)), "b2": ((c,), None)}
        elif isinstance(layer, Bottleneck):
            nb = layer.channels
            group = {"w": ((c, nb), (c, nb)), "b": ((nb,), None)}
        elif isinstance(layer, Flatten):
            group = {}
        else:  # Dense or Output, after Flatten: shape_in is the flat width
            units = layer.units
            group = {"w": ((units, shape_in), (shape_in, units)), "b": ((units,), None)}
            if isinstance(layer, Dense) and layer.layernorm:
                group["ln_gain"] = ((units,), None)
                group["ln_shift"] = ((units,), None)
        out.append(group)
    return out


def init_parameters(spec: NetworkSpec, seed: int, dtype=np.float32) -> Parameters:
    """Glorot-uniform weights, zero biases, unit LayerNorm gains."""
    rng = np.random.default_rng(seed)
    per_layer = []
    for shapes in _parameter_shapes(spec):
        group = {}
        for name, (shape, fans) in shapes.items():
            if fans is not None:
                limit = np.sqrt(6.0 / (fans[0] + fans[1]))
                group[name] = rng.uniform(-limit, limit, size=shape).astype(dtype)
            elif name == "ln_gain":
                group[name] = np.ones(shape, dtype=dtype)
            else:
                group[name] = np.zeros(shape, dtype=dtype)
        per_layer.append(group)
    return Parameters(per_layer)


# ---------------------------------------------------------------- passes


class NetworkCache:
    __slots__ = ("items", "params_version", "batch")

    def __init__(self, items, params_version, batch):
        self.items = items
        self.params_version = params_version
        self.batch = batch


def network_forward(spec: NetworkSpec, params: Parameters, x: np.ndarray,
                    mode: str = "eval", rng: np.random.Generator | None = None,
                    check_finite: bool = False):
    """Run the network on a (B, T, C) batch.

    Returns the output matrix in eval mode, or (output, cache) in train
    mode; the cache feeds network_backward.
    """
    if mode not in ("train", "eval"):
        raise ValidationError(f"unknown mode {mode!r}")
    x = np.asarray(x)
    if x.ndim != 3 or x.shape[1:] != (spec.input_t, spec.input_c):
        raise ValidationError(
            f"input must be (B, {spec.input_t}, {spec.input_c}), got {x.shape}")
    train = mode == "train"
    h = x
    caches = []
    for i, (layer, group) in enumerate(zip(spec.layers, params.layers)):
        if isinstance(layer, Conv):
            z, conv_cache = layers.circular_conv_forward(h, group["w"], group["b"], layer.stride)
            h, sw_cache = layers.swish_forward(z)
            caches.append((conv_cache, sw_cache))
        elif isinstance(layer, Attention):
            h, cache = layers.attention_forward(h, group)
            caches.append(cache)
        elif isinstance(layer, Bottleneck):
            h, cache = layers.bottleneck_forward(h, group["w"], group["b"])
            caches.append(cache)
        elif isinstance(layer, Flatten):
            caches.append(h.shape)
            h = h.reshape(h.shape[0], -1)
        elif isinstance(layer, Dense):
            z, dense_cache = layers.dense_forward(h, group["w"], group["b"])
            h, sw_cache = layers.swish_forward(z)
            ln_cache = None
            if layer.layernorm:
                h, ln_cache = layers.layer_norm_forward(h, group["ln_gain"], group["ln_shift"])
            h, drop_cache = layers.dropout_forward(h, layer.dropout, rng, train)
            caches.append((dense_cache, sw_cache, ln_cache, drop_cache))
        else:  # Output
            z, dense_cache = layers.dense_forward(h, group["w"], group["b"])
            if layer.activation == "softmax":
                h = layers.softmax(z)
                caches.append((dense_cache, h))
            else:
                h = z
                caches.append((dense_cache, None))
        if check_finite and not np.all(np.isfinite(h)):
            raise ValidationError(f"non-finite values after layer {i}")
    if train:
        return h, NetworkCache(caches, params.version, x.shape[0])
    return h


def network_backward(spec: NetworkSpec, params: Parameters, cache: NetworkCache,
                     dout: np.ndarray):
    """Gradients of the loss w.r.t. every parameter (L2 terms included)
    plus the input gradient.  Returns (grads: Parameters, dx)."""
    if cache.params_version != params.version:
        raise ValidationError("stale cache: parameters changed since the forward pass")
    grads = [dict() for _ in spec.layers]
    d = dout
    for i in range(len(spec.layers) - 1, -1, -1):
        layer = spec.layers[i]
        item = cache.items[i]
        group = params.layers[i]
        if isinstance(layer, Conv):
            conv_cache, sw_cache = item
            dz = layers.swish_backward(d, sw_cache)
            d, dw, db = layers.circular_conv_backward(dz, conv_cache)
            grads[i] = {"w": dw, "b": db}
        elif isinstance(layer, Attention):
            d, g = layers.attention_backward(d, item)
            grads[i] = g
        elif isinstance(layer, Bottleneck):
            d, dw, db = layers.bottleneck_backward(d, item)
            grads[i] = {"w": dw, "b": db}
        elif isinstance(layer, Flatten):
            d = d.reshape(item)
        elif isinstance(layer, Dense):
            dense_cache, sw_cache, ln_cache, drop_cache = item
            d = layers.dropout_backward(d, drop_cache)
            g = {}
            if ln_cache is not None:
                d, dgain, dshift = layers.layer_norm_backward(d, ln_cache)
                g["ln_gain"] = dgain
                g["ln_shift"] = dshift
            dz = layers.swish_backward(d, sw_cache)
            d, dw, db = layers.dense_backward(dz, dense_cache)
            if layer.l2 > 0.0:
                dw = dw + (2.0 * layer.l2) * group["w"]
            g["w"], g["b"] = dw, db
            grads[i] = g
        else:  # Output
            dense_cache, probs = item
            dz = layers.softmax_backward(d, probs) if probs is not None else d
            d, dw, db = layers.dense_backward(dz, dense_cache)
            grads[i] = {"w": dw, "b": db}
    return Parameters(grads), d


def forward_features(spec: NetworkSpec, params: Parameters, x: np.ndarray) -> np.ndarray:
    """Eval-mode pass stopping just before Flatten; returns the (B, T, C)
    feature tensor (used to probe shift equivariance)."""
    h = np.asarray(x)
    for layer, group in zip(spec.layers, params.layers):
        if isinstance(layer, Flatten):
            return h
        if isinstance(layer, Conv):
            z, _ = layers.circular_conv_forward(h, group["w"], group["b"], layer.stride)
            h, _ = layers.swish_forward(z)
        elif isinstance(layer, Attention):
            h, _ = layers.attention_forward(h, group)
        elif isinstance(layer, Bottleneck):
            h, _ = layers.bottleneck_forward(h, group["w"], group["b"])
        else:
            raise ValidationError("spec has no Flatten layer")
    raise ValidationError("spec has no Flatten layer")


def l2_penalty(spec: NetworkSpec, params: Parameters) -> float:
    """Sum of l2 * ||W||_F^2 over hidden dense layers."""
    total = 0.0
    for layer, group in zip(spec.layers, params.layers):
        if isinstance(layer, Dense) and layer.l2 > 0.0:
            w = group["w"].astype(np.float64, copy=False)
            total += layer.l2 * float(np.sum(w * w))
    return total


# ---------------------------------------------------------------- model files


def save_model(path, spec: NetworkSpec, params: Parameters) -> None:
    """Header line, JSON spec line, then raw little-endian arrays in
    deterministic order."""
    dtype = np.dtype(params.dtype)
    header = {"spec": spec.to_json_dict(), "dtype": dtype.name}
    with atomic_write(path, "wb") as fh:
        fh.write(MODEL_MAGIC + b"\n")
        fh.write(json.dumps(header, separators=(",", ":")).encode("ascii") + b"\n")
        for _, _, arr in params.arrays():
            fh.write(np.ascontiguousarray(arr, dtype=dtype.newbyteorder("<")).tobytes())


def load_model(path):
    """Returns (spec, params).  Array shapes are re-derived from the spec,
    so a truncated or oversized payload is detected exactly."""
    with open(path, "rb") as fh:
        magic = fh.readline().rstrip(b"\n")
        if magic != MODEL_MAGIC:
            raise FormatError(f"bad magic {magic!r}, expected {MODEL_MAGIC!r}")
        try:
            header = json.loads(fh.readline().decode("ascii"))
            spec = NetworkSpec.from_json_dict(header["spec"])
            dtype = np.dtype(header["dtype"])
        # a spec that fails validation (a ValidationError is a ValueError)
        # is a fault of the file
        except (KeyError, ValueError) as exc:
            raise FormatError(f"bad model header: {exc}") from exc
        if dtype not in (np.float32, np.float64):
            raise FormatError(f"bad model header: dtype {dtype.name} is not float32 or float64")
        filled = []
        for shapes in _parameter_shapes(spec):
            new = {}
            for name in sorted(shapes):
                shape = shapes[name][0]
                n_bytes = int(np.prod(shape)) * dtype.itemsize
                raw = fh.read(n_bytes)
                if len(raw) != n_bytes:
                    raise FormatError("truncated parameter payload")
                new[name] = np.frombuffer(raw, dtype=dtype.newbyteorder("<")) \
                    .astype(dtype).reshape(shape)
            filled.append(new)
        if fh.read(1):
            raise FormatError("trailing bytes after parameter payload")
    return spec, Parameters(filled)


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
