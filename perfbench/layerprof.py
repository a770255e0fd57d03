"""Per-layer forward/backward times of a preset through nncore.layers.

The composed passes in nncore.network expose no per-layer hook, so this
module walks the layer list itself, calling the same nncore.layers
primitives in the same order, and times each layer with a span.  The
whole network_forward + network_backward is then timed on the same batch;
the ratio of the two sums (layer_coverage) falls below 1 when later code
stops running through these primitives.
"""

from __future__ import annotations

import time

import numpy as np

from circscatter.nncore import (
    Attention, Bottleneck, Conv, Dense, Flatten, init_parameters, layers,
    network_backward, network_forward, preset_spec,
)

REPS = 3  # repetitions per preset; every figure is their median

KIND = {Conv: "conv", Attention: "attention", Bottleneck: "bottleneck",
        Flatten: "flatten", Dense: "dense"}


def layer_label(i: int, layer) -> str:
    return f"{i}_{KIND.get(type(layer), 'output')}"


def _forward(layer, group, h, rng, train):
    if isinstance(layer, Conv):
        z, conv_cache = layers.circular_conv_forward(h, group["w"], group["b"], layer.stride)
        h, sw_cache = layers.swish_forward(z)
        return h, (conv_cache, sw_cache)
    if isinstance(layer, Attention):
        return layers.attention_forward(h, group)
    if isinstance(layer, Bottleneck):
        return layers.bottleneck_forward(h, group["w"], group["b"])
    if isinstance(layer, Flatten):
        return h.reshape(h.shape[0], -1), h.shape
    if isinstance(layer, Dense):
        z, dense_cache = layers.dense_forward(h, group["w"], group["b"])
        h, sw_cache = layers.swish_forward(z)
        ln_cache = None
        if layer.layernorm:
            h, ln_cache = layers.layer_norm_forward(h, group["ln_gain"], group["ln_shift"])
        h, drop_cache = layers.dropout_forward(h, layer.dropout, rng, train)
        return h, (dense_cache, sw_cache, ln_cache, drop_cache)
    z, dense_cache = layers.dense_forward(h, group["w"], group["b"])
    probs = layers.softmax(z) if layer.activation == "softmax" else None
    return (z if probs is None else probs), (dense_cache, probs)


def _backward(layer, group, d, cache):
    if isinstance(layer, Conv):
        conv_cache, sw_cache = cache
        d, _, _ = layers.circular_conv_backward(layers.swish_backward(d, sw_cache), conv_cache)
        return d
    if isinstance(layer, Attention):
        return layers.attention_backward(d, cache)[0]
    if isinstance(layer, Bottleneck):
        return layers.bottleneck_backward(d, cache)[0]
    if isinstance(layer, Flatten):
        return d.reshape(cache)
    if isinstance(layer, Dense):
        dense_cache, sw_cache, ln_cache, drop_cache = cache
        d = layers.dropout_backward(d, drop_cache)
        if ln_cache is not None:
            d = layers.layer_norm_backward(d, ln_cache)[0]
        d, dw, _ = layers.dense_backward(layers.swish_backward(d, sw_cache), dense_cache)
        if layer.l2 > 0.0:
            dw = dw + (2.0 * layer.l2) * group["w"]
        return d
    dense_cache, probs = cache
    if probs is not None:
        d = layers.softmax_backward(d, probs)
    return layers.dense_backward(d, dense_cache)[0]


def conv_flops(spec, batch: int) -> dict:
    """Direct-convolution flop count 2*B*T_out*K*C_in*N_f per conv layer."""
    out = {}
    c = spec.input_c
    for i, (layer, shape) in enumerate(zip(spec.layers, spec.stage_shapes())):
        if isinstance(layer, Conv):
            out[i] = 2.0 * batch * shape[0] * layer.kernel_size * c * layer.filters
        if isinstance(shape, tuple):
            c = shape[1]
    return out


def profile(tracer, preset: str, batch: int, backward: bool, seed: int = 0):
    """Time every layer of ``preset`` at ``batch`` REPS times, and the
    whole composed pass on the same batch.  Returns (tag, {metric: (value,
    unit)}) with medians over the repetitions."""
    spec = preset_spec(preset)
    params = init_parameters(spec, seed)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((batch, spec.input_t, spec.input_c)).astype(np.float32)
    tag = f"nncore.{preset}.b{batch}"
    mode = "train" if backward else "eval"
    labels = [layer_label(i, layer) for i, layer in enumerate(spec.layers)]
    for _ in range(REPS):
        h, caches = x, []
        for label, layer, group in zip(labels, spec.layers, params.layers):
            with tracer.span(f"{tag}.{label}.fwd"):
                h, cache = _forward(layer, group, h, rng, backward)
            caches.append(cache)
        dout = np.ones_like(h) / h.size
        if backward:
            d = dout
            for i in range(len(spec.layers) - 1, -1, -1):
                with tracer.span(f"{tag}.{labels[i]}.bwd"):
                    d = _backward(spec.layers[i], params.layers[i], d, caches[i])
        with tracer.span(f"{tag}.whole"):
            res = network_forward(spec, params, x, mode=mode, rng=rng)
            if backward:
                out, cache = res
                network_backward(spec, params, cache, dout)

    metrics = {}
    layer_sum = 0.0
    flops = conv_flops(spec, batch)
    for i, (label, layer) in enumerate(zip(labels, spec.layers)):
        passes = ("fwd", "bwd") if backward else ("fwd",)
        for kind in passes:
            med = float(np.median(tracer.durations(f"{tag}.{label}.{kind}")))
            layer_sum += med
            if not isinstance(layer, Flatten):
                metrics[f"{tag}.{label}.{kind}_ms"] = (med * 1e3, "ms")
        if i in flops:
            fwd = float(np.median(tracer.durations(f"{tag}.{label}.fwd")))
            metrics[f"{tag}.{label}.fwd_gflops"] = (flops[i] / fwd / 1e9, "GFLOP/s")
    whole = float(np.median(tracer.durations(f"{tag}.whole")))
    metrics[f"{tag}.layer_coverage"] = (layer_sum / whole, "ratio")
    return tag, metrics


def sgemm_gflops() -> float:
    """Single-thread float32 GEMM at the im2col shape of ap10's K=31 layer
    (B=128, T_out=64, C=128 -> 128 filters), median over 5 products."""
    rng = np.random.default_rng(0)
    m, k, n = 128 * 64, 31 * 128, 128
    a = rng.standard_normal((m, k)).astype(np.float32)
    b = rng.standard_normal((k, n)).astype(np.float32)
    times = []
    for _ in range(5):
        t = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - t)
    return 2.0 * m * k * n / float(np.median(times)) / 1e9
