"""Layer primitives: forward/backward pairs operating on batched tensors.

Tensors are (batch, T, C) before the flatten stage and (batch, d) after.
Each forward returns (output, cache); the matching backward consumes the
cache and the upstream gradient and returns input and parameter
gradients.  Everything works in whatever float dtype the inputs carry;
training uses float32 and gradient verification float64.
"""

from __future__ import annotations

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


def _use_fft(nb: int, k: int, stride: int) -> bool:
    """The one algorithm choice of circular_conv_forward: the FFT path for
    stride-1 convolutions with a long kernel at a large enough batch,
    im2col everywhere else.

    im2col costs about B*T*K*C*N_f multiply-adds.  The FFT path costs
    three length-T transforms per sample and channel and B*C*N_f complex
    products per frequency, whatever K, plus a fixed transform of the
    N_f*C folded filter taps that the batch amortizes.  Both grow with T,
    and their main terms with C*N_f, so the crossover is mostly a product
    B*K; it was measured at T=64, C=N_f=128 only, with
    ``perfbench/run.py --profile ap10 --batch B`` on a 2-vCPU VM at one
    BLAS thread, median of two runs (ap7, same shapes, agrees within the
    VM's noise).  Forward/backward ms, im2col -> FFT:

        B     K=15                       K=31
        1     0.8/1.1   -> 12.5/9.5      1.6/2.1   -> 12.7/9.9
        16    8.4/13.7  -> 14.9/11.1     16.3/29.2 -> 15.2/12.7
        32    15.8/26.7 -> 19.0/15.1     29.0/52.9 -> 19.4/16.2
        50    27.5/49.6 -> 22.4/18.5     55.0/99.6 -> 21.3/18.9
        128   64.8/120  -> 42.2/42.5     136/245   -> 42.7/47.7
        160   78.2/155  -> 45.4/49.2     156/300   -> 45.2/47.6

    The forward crossover, which evaluation sees alone, is near B=45 for
    K=15 and B=16-20 for K=31, so B*K >= 640.  Below K=15 (every layer
    of ap1/ap2/ap4, the first two of ap7/ap10 and the attention mix) the
    FFT path's per-sample cost, which does not shrink with K, loses to the
    short im2col GEMM; a strided conv is not a circular correlation.
    """
    return stride == 1 and k >= 15 and nb * k >= 640


def circular_conv_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int = 1):
    """Y[i, j] = sum_{k, c} W[j, k, c] * Xpad[i*S + k, c] + b[j].

    x: (B, T, C); w: (N_f, K, C); b: (N_f,).  Returns ((B, T_out, N_f), cache).
    The algorithm (im2col or FFT, see _use_fft) is chosen here, and the
    cache tells circular_conv_backward which one ran.
    """
    nb, t, c = x.shape
    nf, k, cin = w.shape
    if cin != c:
        raise ValidationError(f"conv expects {cin} input channels, got {c}")
    if b.shape != (nf,):
        raise ValidationError("bias shape must be (filters,)")
    if _use_fft(nb, k, stride):
        return _fft_conv_forward(x, w, b)
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
    x_hat: np.ndarray   # (B, F, C) input spectrum, F = T//2 + 1
    g_hat: np.ndarray   # (N_f, F, C) folded-filter spectrum
    t: int
    k: int


def _tap_rows(k: int, t: int) -> np.ndarray:
    """Row of the length-t circular filter that tap k lands on: (k - P_left) mod t."""
    return (np.arange(k) - pad_lengths(k)[0]) % t


def _fft_conv_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """Stride-1 circular conv as a circular correlation with the taps folded
    mod T: Y^[f] = X^[f] conj(G^[f]) per frequency, summed over channels."""
    nf, k, c = w.shape
    t = x.shape[1]
    rows = _tap_rows(k, t)
    g = np.zeros((nf, t, c), dtype=w.dtype)
    for s in range(0, k, t):   # K > T wraps the taps more than once
        g[:, rows[s:s + t]] += w[:, s:s + t]
    g_hat = np.fft.rfft(g, axis=1)
    x_hat = np.fft.rfft(x, axis=1)
    # one (B, C) @ (C, N_f) product per frequency
    y_hat = x_hat.transpose(1, 0, 2) @ g_hat.transpose(1, 2, 0).conj()
    y = np.fft.irfft(y_hat, n=t, axis=0).transpose(1, 0, 2)
    # older numpy transforms float32 in float64
    y = y.astype(np.result_type(x, w), copy=False) + b
    return y, _FFTCache(x_hat, g_hat, t, k)


def _fft_conv_backward(dy: np.ndarray, cache: _FFTCache, need_dx: bool):
    """dX^ = dY^ G^ and dG^ = sum over the batch of conj(dY^) X^; dW takes
    each tap's row of dG back out of the fold."""
    x_hat, g_hat, t, k = cache
    dtype = dy.dtype
    db = dy.sum(axis=(0, 1))
    dy_hat = np.fft.rfft(dy, axis=1).transpose(1, 0, 2)              # (F, B, N_f)
    dx = None
    if need_dx:
        dx_hat = dy_hat @ g_hat.transpose(1, 0, 2)                    # (F, B, C)
        dx = np.fft.irfft(dx_hat, n=t, axis=0).transpose(1, 0, 2).astype(dtype, copy=False)
    dg_hat = dy_hat.transpose(0, 2, 1).conj() @ x_hat.transpose(1, 0, 2)   # (F, N_f, C)
    dg = np.fft.irfft(dg_hat, n=t, axis=0)                            # (T, N_f, C)
    dw = dg[_tap_rows(k, t)].transpose(1, 0, 2)
    return dx, dw.astype(dtype, copy=False), db


# ---------------------------------------------------------------- activations


# The activations below evaluate their textbook expression (in the
# docstring) operation by operation, in the same operand order, into one
# fresh buffer: the same bits as the expression, without its temporaries.
# Their inputs are never written.  The scalars are Python floats, which
# keep a float32 buffer float32 under numpy 1.x value-based casting too.


def sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z))."""
    s = np.negative(z)
    # exp overflow only happens where the limit is exactly 0; silence it
    with np.errstate(over="ignore"):
        np.exp(s, out=s)
    np.add(1.0, s, out=s)
    return np.divide(1.0, s, out=s)


def swish_forward(z: np.ndarray):
    """z * sigmoid(z); the cache is (z, sigmoid(z))."""
    s = sigmoid(z)
    return z * s, (z, s)


def swish_backward(dy: np.ndarray, cache):
    """dy * (s * (1 + z * (1 - s))) with (z, s) from the cache."""
    z, s = cache
    g = np.subtract(1.0, s)
    np.multiply(z, g, out=g)
    np.add(1.0, g, out=g)
    np.multiply(s, g, out=g)
    return np.multiply(dy, g, out=g)


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


def bottleneck_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """Pointwise channel-mixing convolution with swish: (B,T,C) @ (C,Nb)."""
    if x.shape[-1] != w.shape[0]:
        raise ValidationError(f"bottleneck expects {w.shape[0]} channels, got {x.shape[-1]}")
    z = x @ w + b
    y, sw = swish_forward(z)
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


def attention_forward(x: np.ndarray, params: dict):
    """Channel attention: mix-conv + swish, per-position layer norm, global
    average pool, two-layer gate, then rescale the normalized tensor.

    params keys: w_mix (C, K_mix, C), b_mix, ln_gain, ln_shift,
    w1 (C/r, C), b1, w2 (C, C/r), b2.  Returns (y, cache); cache["att"]
    holds the (B, C) channel weights.
    """
    t = x.shape[1]
    mixed, conv_cache = circular_conv_forward(x, params["w_mix"], params["b_mix"], stride=1)
    act, sw_cache = swish_forward(mixed)
    norm, ln_cache = layer_norm_forward(act, params["ln_gain"], params["ln_shift"])
    pooled = norm.mean(axis=1)
    z1, d1_cache = dense_forward(pooled, params["w1"], params["b1"])
    a1, sw1_cache = swish_forward(z1)
    z2, d2_cache = dense_forward(a1, params["w2"], params["b2"])
    att = sigmoid(z2)
    y = norm * att[:, None, :]
    cache = {
        "t": t, "att": att, "norm": norm, "conv": conv_cache, "sw": sw_cache,
        "ln": ln_cache, "d1": d1_cache, "sw1": sw1_cache, "d2": d2_cache,
    }
    return y, cache


def attention_backward(dy: np.ndarray, cache):
    """Returns (dx, grads dict with the same keys as params)."""
    att, norm, t = cache["att"], cache["norm"], cache["t"]
    datt = (dy * norm).sum(axis=1)
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
