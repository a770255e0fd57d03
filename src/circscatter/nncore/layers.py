"""Layer primitives: forward/backward pairs operating on batched tensors.

Tensors are (batch, T, C) before the flatten stage and (batch, d) after.
Each forward returns (output, cache); the matching backward consumes the
cache and the upstream gradient and returns input and parameter
gradients.  Everything works in whatever float dtype the inputs carry;
training uses float32 and gradient verification float64.

A cache holds what its backward reads and nothing more:

- conv: the im2col rows, the input shape, w, stride and K (im2col path),
  or the input and conjugated filter spectra (FFT path, _FFTCache);
- swish: its derivative s * (1 + z * (1 - s)) alone, and nothing when
  ``train`` is false (eval passes compute no derivative);
- layer norm: xhat, 1/sigma and the gain;
- dropout: the scaled keep mask (None when inactive);
- bottleneck: its input, w and the swish derivative;
- dense: its input and w;
- attention: the sub-layers' caches, the channel weights and a view of
  the LayerNorm shift; its normalized tensor is recomputed from xhat.

No backward writes its cache, so a cache may feed more than one backward.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from ..errors import ValidationError

LN_EPS = 1e-5


# ---------------------------------------------------------------- padding


def pad_lengths(kernel_size: int) -> tuple[int, int]:
    """Left/right circular pad lengths: floor((K-1)/2) and the remainder."""
    if kernel_size < 1:
        raise ValidationError("kernel size must be >= 1")
    left = (kernel_size - 1) // 2
    return left, (kernel_size - 1) - left


def circular_pad(x: np.ndarray, kernel_size: int) -> np.ndarray:
    """Wrap a (B, T, C) tensor to length T + K - 1 along axis 1.

    Padded row j holds X[(j - P_left) mod T], which also covers K > T by
    wrapping more than once.
    """
    t = x.shape[1]
    left, right = pad_lengths(kernel_size)
    if kernel_size - 1 <= t:
        # each wrapped tail is a slice of x
        return np.concatenate((x[:, t - left:], x, x[:, :right]), axis=1)
    idx = (np.arange(-left, t + right)) % t
    return x[:, idx, :]


def circular_pad_backward(d_padded: np.ndarray, t: int) -> np.ndarray:
    """Accumulate padded-row gradients back onto the t source rows."""
    b, t_pad, c = d_padded.shape
    k = t_pad - t + 1
    left, right = pad_lengths(k)
    if k - 1 <= t:
        # each wrapped tail covers distinct rows, so slice adds suffice
        dx = d_padded[:, left:left + t, :].copy()
        if left:
            dx[:, t - left:, :] += d_padded[:, :left, :]
        if right:
            dx[:, :right, :] += d_padded[:, left + t:, :]
        return dx
    idx = (np.arange(-left, t + right)) % t
    dx = np.zeros((b, t, c), dtype=d_padded.dtype)
    np.add.at(dx, (slice(None), idx), d_padded)
    return dx


# ---------------------------------------------------------------- convolution


def conv_output_length(t: int, stride: int) -> int:
    """Circularly padded convolutions keep ceil(T/S) positions."""
    if t < 1 or stride < 1:
        raise ValidationError("t and stride must be >= 1")
    return -(-t // stride)


def _use_fft(nb: int, k: int, stride: int, spectrum_paid: bool = False) -> bool:
    """The one algorithm choice of circular_conv_forward: FFT for stride-1
    convs with a long kernel at a large enough batch, or at any batch once
    the filter spectrum is paid; im2col elsewhere.

    im2col costs about B*T*K*C*N_f multiply-adds; the FFT path's DFT GEMMs
    and per-frequency channel products do not grow with K.  Computed per
    call, its filter spectrum costs more than a whole batch-1 im2col conv,
    so the crossover is mostly a product B*K.  Forward/backward ms, im2col
    -> FFT, at T=64, C=N_f=128 (``perfbench/run.py --profile ap10 --batch
    B``, 2-vCPU VM, one BLAS thread, median of five runs):

        B     K=15                    K=31
        1     0.79/1.15 -> 2.95/4.84  1.47/2.53 -> 2.93/5.22
        4     1.87/3.08 -> 4.97/4.04  3.81/6.20 -> 4.89/4.89
        8     4.02/7.41 -> 5.08/4.93  7.71/14.2 -> 4.56/5.76
        12    5.62/9.82 -> 5.08/5.82  10.7/19.9 -> 5.00/6.99
        50    22.1/40.6 -> 10.0/11.2  40.4/89.1 -> 10.5/11.5
        160   83.6/166  -> 25.4/33.6  170/324   -> 25.6/36.5

    The forward crossover is near B=11 for K=15 and B=5 for K=31:
    B*K >= 160.  Every pass over writable parameters (train passes,
    validation passes, gradcheck) stays on that rule.  An eval-mode
    network_forward over frozen Parameters (every TrainedModel's) reads
    the spectrum from their memo (``spectrum_paid``), built once, since
    frozen weights never change, and then the FFT forward wins at every
    batch.  Forward ms, im2col -> FFT with the spectrum paid, same layer
    and VM (the im2col GEMM against circular_conv_forward with a dict as
    its memo, median of 20 calls):

        B     K=15           K=31
        1     0.41 -> 0.23   0.84 -> 0.23
        4     1.11 -> 0.66   2.23 -> 0.64
        12    3.63 -> 1.14   8.51 -> 1.56
        50    17.4 -> 4.51   45.3 -> 4.39

    Below K=15 (ap1/ap2/ap4, ap7/ap10's first two layers, the attention
    mix) im2col stays, keeping those presets' trained bits; a strided conv
    is not a circular correlation.
    """
    return stride == 1 and k >= 15 and (spectrum_paid or nb * k >= 160)


def circular_conv_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int = 1,
                          memo=None):
    """Y[i, j] = sum_{k, c} W[j, k, c] * Xpad[i*S + k, c] + b[j].

    x: (B, T, C); w: (N_f, K, C); b: (N_f,).  Returns ((B, T_out, N_f), cache).
    The algorithm (im2col or FFT, see _use_fft) is chosen here, and the
    cache tells circular_conv_backward which one ran.  ``memo``, when
    given, is a dict kept for a read-only w (this layer's entry in a
    frozen Parameters' memos); the FFT path then takes its filter spectrum
    from it, computing it on the first call.
    """
    nb, t, c = x.shape
    nf, k, cin = w.shape
    if cin != c:
        raise ValidationError(f"conv expects {cin} input channels, got {c}")
    if b.shape != (nf,):
        raise ValidationError("bias shape must be (filters,)")
    if _use_fft(nb, k, stride, memo is not None):
        dtype = np.result_type(x, w)
        g_conj = None if memo is None else memo.get((t, dtype))
        if g_conj is None:
            g_conj = filter_spectrum(w, t, dtype)
            if memo is not None:
                memo[(t, dtype)] = g_conj
        return _fft_conv_forward(x, g_conj, b, k)
    padded = np.ascontiguousarray(circular_pad(x, k))
    t_out = conv_output_length(t, stride)
    sb, st, sc = padded.strides
    # window i, tap kk is padded row i*S + kk: a (B, T_out, K, C) strided
    # view of padded's buffer (numpy checks that it fits), whose reshape is
    # the one copy that lays the im2col rows out
    win = np.ndarray((nb, t_out, k, c), padded.dtype, padded, 0, (sb, stride * st, st, sc))
    cols = win.reshape(nb * t_out, k * c)
    y = cols @ w.reshape(nf, k * c).T
    y += b
    cache = (cols, (nb, t, c), w, stride, k)
    return y.reshape(nb, t_out, nf), cache


def circular_conv_backward(dy: np.ndarray, cache, need_dx: bool = True):
    """Returns (dx, dw, db); dx is None when need_dx is false, and then
    none of its work is done."""
    if isinstance(cache, _FFTCache):
        return _fft_conv_backward(dy, cache, need_dx)
    cols, (nb, t, c), w, stride, k = cache
    nf = w.shape[0]
    t_out = dy.shape[1]
    dy2 = dy.reshape(nb * t_out, nf)
    db = dy2.sum(axis=0)
    dw = (dy2.T @ cols).reshape(nf, k, c)
    if not need_dx:
        return None, dw, db
    dcols = (dy2 @ w.reshape(nf, k * c)).reshape(nb, t_out, k, c)
    # padded row i*S + kk is row i + kk // S of residue plane kk % S, so
    # each tap is one slice add, whatever the stride
    t_pad = t + k - 1
    dpad = np.zeros((nb, -(-t_pad // stride), stride, c), dtype=dy.dtype)
    for kk in range(k):
        dpad[:, kk // stride:kk // stride + t_out, kk % stride] += dcols[:, :, kk]
    return circular_pad_backward(dpad.reshape(nb, -1, c)[:, :t_pad], t), dw, db


class _FFTCache(NamedTuple):
    x_hat: np.ndarray    # (B, F, C) input spectrum, F = T//2 + 1
    g_conj: np.ndarray   # (F, C, N_f) conjugated filter spectrum (filter_spectrum)
    t: int
    k: int


@functools.lru_cache(maxsize=None)
def _dft_tables(t: int, k: int, dtype: np.dtype):
    """Read-only DFT matrices (fwd, inv, fwd_taps, inv_taps) in dtype.  fwd
    (2F, t) stacks rfft's cos rows over its -sin rows; inv (t, 2F) maps the
    stacked parts back as irfft does (weight 1/t at DC and even t's Nyquist,
    2/t elsewhere, their imaginary parts ignored); fwd_taps and inv_taps are
    fwd's columns and inv's rows where the k taps land, (k - P_left) mod t."""
    f = t // 2 + 1
    angle = (2.0 * np.pi / t) * (np.outer(np.arange(f), np.arange(t)) % t)
    fwd = np.concatenate([np.cos(angle), -np.sin(angle)])
    fwd[np.abs(fwd) < 1e-12] = 0.0   # cos(pi/2), sin(pi), ... round to ~1e-16
    bins = np.arange(f)
    inv = fwd.T * (np.tile(np.where((bins == 0) | (2 * bins == t), 1.0, 2.0), 2) / t)
    rows = (np.arange(k) - pad_lengths(k)[0]) % t
    tables = tuple(m.astype(dtype) for m in (fwd, inv, fwd[:, rows], inv[rows]))
    for m in tables:
        m.setflags(write=False)
    return tables


def _rdft(table: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Complex (..., F, C) spectrum of x (..., R, C): one GEMM with fwd."""
    parts, f = table @ x, table.shape[0] // 2
    spec = np.empty(parts.shape[:-2] + (f, parts.shape[-1]), np.result_type(parts, np.complex64))
    spec.real, spec.imag = parts[..., :f, :], parts[..., f:, :]
    return spec


def _irdft(table: np.ndarray, spec: np.ndarray) -> np.ndarray:
    """Real (R, M, C) signal of a (F, M, C) spectrum: inv or inv_taps times its parts."""
    parts = np.stack((spec.real, spec.imag)).reshape(2 * len(spec), -1)
    return (table @ parts).reshape((len(table),) + spec.shape[1:])


def filter_spectrum(w: np.ndarray, t: int, dtype) -> np.ndarray:
    """conj(G^) of taps w (N_f, K, C) folded mod t, computed in float dtype,
    in the contiguous (F, C, N_f) layout the FFT forward's per-frequency
    product reads.  G^ is the DFT matrix's columns at the tap rows times
    the taps (one GEMM), so taps that wrap past t sum."""
    dtype = np.dtype(dtype)
    nf, k, c = w.shape
    f = t // 2 + 1
    parts = _dft_tables(t, k, dtype)[2] @ w.astype(dtype, copy=False)   # (N_f, 2F, C)
    g_conj = np.empty((f, c, nf), np.result_type(dtype, np.complex64))
    g_conj.real = parts[:, :f].transpose(1, 2, 0)
    np.negative(parts[:, f:].transpose(1, 2, 0), out=g_conj.imag)
    return g_conj


def _fft_conv_forward(x: np.ndarray, g_conj: np.ndarray, b: np.ndarray, k: int):
    """Stride-1 circular conv as a circular correlation with the K taps
    folded mod T: Y^[f] = X^[f] conj(G^[f]) per frequency, summed over
    channels, with conj(G^) from filter_spectrum.  Transforms are GEMMs
    with _dft_tables."""
    t = x.shape[1]
    fwd, inv, _, _ = _dft_tables(t, k, np.result_type(x, g_conj.real))
    x_hat = _rdft(fwd, x)
    # one (B, C) @ (C, N_f) product per frequency
    y = _irdft(inv, x_hat.transpose(1, 0, 2) @ g_conj).transpose(1, 0, 2)
    y += b
    return y, _FFTCache(x_hat, g_conj, t, k)


def _fft_conv_backward(dy: np.ndarray, cache: _FFTCache, need_dx: bool):
    """dX^ = dY^ G^ and dG^ = sum over the batch of conj(dY^) X^; dW is
    the inverse of dG^ at the taps' rows only."""
    x_hat, g_conj, t, k = cache
    fwd, inv, _, inv_taps = _dft_tables(t, k, dy.dtype)
    dy_hat = _rdft(fwd, dy).transpose(1, 0, 2)                       # (F, B, N_f)
    dx = None
    if need_dx:
        dx = _irdft(inv, dy_hat @ g_conj.conj().transpose(0, 2, 1)).transpose(1, 0, 2)
    dg_hat = dy_hat.transpose(0, 2, 1).conj() @ x_hat.transpose(1, 0, 2)   # (F, N_f, C)
    return dx, _irdft(inv_taps, dg_hat).transpose(1, 0, 2), dy.sum(axis=(0, 1))


# ---------------------------------------------------------------- activations


# The activations below evaluate their textbook expression (in the
# docstring) operation by operation, in the same operand order, into one
# fresh buffer: the same bits as the expression, without its temporaries.
# Their inputs and caches are never written.  The scalars are Python
# floats, which keep a float32 buffer float32 under numpy 1.x value-based
# casting too.


def sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z))."""
    s = np.negative(z)
    # exp overflow only happens where the limit is exactly 0; silence it
    with np.errstate(over="ignore"):
        np.exp(s, out=s)
    np.add(1.0, s, out=s)
    return np.divide(1.0, s, out=s)


def swish_forward(z: np.ndarray, train: bool = True):
    """z * s with s = sigmoid(z).  The cache is the derivative
    g = s * (1 + z * (1 - s)), the one array swish_backward reads, laid
    out like z; with ``train`` false it is None and g is not computed."""
    s = sigmoid(z)
    y = z * s
    if not train:
        return y, None
    g = np.subtract(1.0, s)
    np.multiply(z, g, out=g)
    np.add(1.0, g, out=g)
    return y, np.multiply(s, g, out=g)


def swish_backward(dy: np.ndarray, g: np.ndarray):
    """dy * g with the derivative g from the cache, in a fresh buffer laid
    out like g (a conv's bias gradient sums in that order), so g itself
    can feed another backward."""
    return np.multiply(dy, g, out=np.empty_like(g))


def softmax(v: np.ndarray) -> np.ndarray:
    shifted = v - v.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_backward(dy: np.ndarray, probs: np.ndarray) -> np.ndarray:
    inner = (dy * probs).sum(axis=-1, keepdims=True)
    return probs * (dy - inner)


# ---------------------------------------------------------------- layer norm


def layer_norm_forward(h: np.ndarray, gain: np.ndarray, shift: np.ndarray, eps: float = LN_EPS):
    """Normalize over the last axis, then apply the learnable affine map."""
    d = h.shape[-1]
    # np.add.reduce(...) / d has the bits of mean(), without its overhead
    mu = np.add.reduce(h, axis=-1, keepdims=True) / d
    xc = h - mu
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    return gain * xhat + shift, (xhat, inv, gain)


def layer_norm_backward(dy: np.ndarray, cache):
    xhat, inv, gain = cache
    d = xhat.shape[-1]
    dgain = (dy * xhat).reshape(-1, d).sum(axis=0)
    dshift = dy.reshape(-1, d).sum(axis=0)
    dxhat = dy * gain
    m1 = np.add.reduce(dxhat, axis=-1, keepdims=True) / d
    m2 = np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / d
    dh = inv * (dxhat - m1 - xhat * m2)
    return dh, dgain, dshift


# ---------------------------------------------------------------- dropout


def dropout_forward(h: np.ndarray, p: float, rng: np.random.Generator | None = None,
                    train: bool = False):
    """Inverted dropout: active only in train mode, identity otherwise."""
    if not 0.0 <= p < 1.0:
        raise ValidationError("dropout rate must be in [0, 1)")
    if not train or p == 0.0:
        return h, None
    if rng is None:
        raise ValidationError("train-mode dropout needs an rng")
    keep = (rng.random(h.shape) >= p).astype(h.dtype)
    keep /= np.asarray(1.0 - p, dtype=h.dtype)
    return h * keep, keep


def dropout_backward(dy: np.ndarray, cache):
    return dy if cache is None else dy * cache


# ---------------------------------------------------------------- bottleneck


def bottleneck_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray, train: bool = True):
    """Pointwise channel-mixing convolution with swish: (B,T,C) @ (C,Nb)."""
    if x.shape[-1] != w.shape[0]:
        raise ValidationError(f"bottleneck expects {w.shape[0]} channels, got {x.shape[-1]}")
    z = x @ w + b
    y, sw = swish_forward(z, train)
    return y, (x, w, sw)


def bottleneck_backward(dy: np.ndarray, cache):
    x, w, sw = cache
    dz = swish_backward(dy, sw)
    dw = np.tensordot(x, dz, axes=([0, 1], [0, 1]))
    db = dz.sum(axis=(0, 1))
    dx = dz @ w.T
    return dx, dw, db


# ---------------------------------------------------------------- dense


def dense_forward(h: np.ndarray, w: np.ndarray, b: np.ndarray):
    """Affine map: (B, d_in) @ (d_out, d_in).T + b."""
    if h.shape[-1] != w.shape[1]:
        raise ValidationError(f"dense expects {w.shape[1]} inputs, got {h.shape[-1]}")
    return h @ w.T + b, (h, w)


def dense_backward(dy: np.ndarray, cache):
    h, w = cache
    return dy @ w, dy.T @ h, dy.sum(axis=0)


# ---------------------------------------------------------------- attention


def attention_forward(x: np.ndarray, params: dict, train: bool = True):
    """Channel attention: mix-conv + swish, per-position layer norm, global
    average pool, two-layer gate, then rescale the normalized tensor.

    params keys: w_mix (C, K_mix, C), b_mix, ln_gain, ln_shift,
    w1 (C/r, C), b1, w2 (C, C/r), b2.  Returns (y, cache); cache["att"]
    holds the (B, C) channel weights, cache["shift"] the LayerNorm shift
    (a view of params), and the other entries the sub-layers' caches.
    The normalized tensor is not kept: attention_backward recomputes it
    from the LayerNorm cache.  ``train`` is passed to both swishes.
    """
    t = x.shape[1]
    mixed, conv_cache = circular_conv_forward(x, params["w_mix"], params["b_mix"], stride=1)
    act, sw_cache = swish_forward(mixed, train)
    norm, ln_cache = layer_norm_forward(act, params["ln_gain"], params["ln_shift"])
    pooled = norm.mean(axis=1)
    z1, d1_cache = dense_forward(pooled, params["w1"], params["b1"])
    a1, sw1_cache = swish_forward(z1, train)
    z2, d2_cache = dense_forward(a1, params["w2"], params["b2"])
    att = sigmoid(z2)
    y = norm * att[:, None, :]
    cache = {
        "t": t, "att": att, "shift": params["ln_shift"], "conv": conv_cache, "sw": sw_cache,
        "ln": ln_cache, "d1": d1_cache, "sw1": sw1_cache, "d2": d2_cache,
    }
    return y, cache


def attention_backward(dy: np.ndarray, cache):
    """Returns (dx, grads dict with the same keys as params).  The
    normalized tensor is gain * xhat + shift again, the expression
    layer_norm_forward evaluated, so it has the forward's bits."""
    att, t = cache["att"], cache["t"]
    xhat, _, gain = cache["ln"]
    datt = (dy * (gain * xhat + cache["shift"])).sum(axis=1)
    dnorm = dy * att[:, None, :]
    dz2 = datt * att * (1.0 - att)
    da1, dw2, db2 = dense_backward(dz2, cache["d2"])
    dz1 = swish_backward(da1, cache["sw1"])
    dpool, dw1, db1 = dense_backward(dz1, cache["d1"])
    dnorm = dnorm + dpool[:, None, :] / t
    dact, dgain, dshift = layer_norm_backward(dnorm, cache["ln"])
    dmixed = swish_backward(dact, cache["sw"])
    dx, dw_mix, db_mix = circular_conv_backward(dmixed, cache["conv"])
    grads = {"w_mix": dw_mix, "b_mix": db_mix, "ln_gain": dgain, "ln_shift": dshift,
             "w1": dw1, "b1": db1, "w2": dw2, "b2": db2}
    return dx, grads
