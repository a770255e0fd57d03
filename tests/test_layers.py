import itertools
import math

import numpy as np
import numpy.testing as npt
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from circscatter import errors
from circscatter.nncore import Attention, Conv, init_parameters, layers, preset_spec
from oracles import circular_pad


def fd_grad(loss, x, h=1e-6):
    """Central-difference gradient of loss() w.r.t. array x (mutated in place)."""
    g = np.zeros_like(x)
    flat, gf = x.reshape(-1), g.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + h
        fp = loss()
        flat[i] = old - h
        fm = loss()
        flat[i] = old
        gf[i] = (fp - fm) / (2.0 * h)
    return g


# ---------------------------------------------------------------- padding


def test_circular_pad_known_rows():
    x = np.arange(4.0).reshape(1, 4, 1)
    padded = circular_pad(x, 3)
    npt.assert_array_equal(padded[0, :, 0], [3, 0, 1, 2, 3, 0])
    padded = circular_pad(x, 4)  # uneven split: left 1, right 2
    npt.assert_array_equal(padded[0, :, 0], [3, 0, 1, 2, 3, 0, 1])
    padded = circular_pad(x, 1)
    npt.assert_array_equal(padded, x)
    # K - 1 == T: the two tails together are one whole copy of x
    padded = circular_pad(x, 5)
    npt.assert_array_equal(padded[0, :, 0], [2, 3, 0, 1, 2, 3, 0, 1])
    # kernel longer than the signal wraps more than once
    padded = circular_pad(x, 9)
    npt.assert_array_equal(padded[0, :, 0], [0, 1, 2, 3] * 3)


def test_pad_lengths():
    assert layers.pad_lengths(5) == (2, 2)
    assert layers.pad_lengths(4) == (1, 2)
    assert layers.pad_lengths(1) == (0, 0)
    with pytest.raises(errors.ValidationError):
        layers.pad_lengths(0)


def test_pad_backward_is_adjoint():
    # <pad(x), y> == <x, pad_backward(y)> for every kernel size
    rng = np.random.default_rng(0)
    for t, k in [(4, 3), (4, 4), (5, 1), (6, 31), (3, 9)]:
        x = rng.standard_normal((2, t, 3))
        y = rng.standard_normal((2, t + k - 1, 3))
        lhs = float(np.sum(circular_pad(x, k) * y))
        rhs = float(np.sum(x * layers.circular_pad_backward(y, t)))
        assert abs(lhs - rhs) < 1e-10


# ---------------------------------------------------------------- convolution


def test_conv_hand_oracle():
    # worked single-channel example: T=4, K=3, S=1
    x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 4, 1)
    w = np.array([1.0, 0.0, -1.0]).reshape(1, 3, 1)
    b = np.zeros(1)
    y, _ = layers.circular_conv_forward(x, w, b, stride=1)
    npt.assert_array_equal(y[0, :, 0], [2.0, -2.0, -2.0, 2.0])
    # stride 2 keeps positions 0 and 2
    y2, _ = layers.circular_conv_forward(x, w, b, stride=2)
    npt.assert_array_equal(y2[0, :, 0], [2.0, -2.0])


def test_conv_output_length_law():
    for t in range(1, 64):
        for s in (1, 2, 4):
            x = np.zeros((1, t, 1))
            w = np.zeros((2, 3, 1))
            y, _ = layers.circular_conv_forward(x, w, np.zeros(2), stride=s)
            assert y.shape == (1, -(-t // s), 2)
            assert layers.conv_output_length(t, s) == -(-t // s)


def test_conv_matches_direct_sum():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 7, 3))
    w = rng.standard_normal((4, 5, 3))
    b = rng.standard_normal(4)
    for stride in (1, 2, 3):
        y, _ = layers.circular_conv_forward(x, w, b, stride)
        padded = circular_pad(x, 5)
        for bi in range(2):
            for i in range(y.shape[1]):
                for j in range(4):
                    ref = b[j] + np.sum(w[j] * padded[bi, i * stride:i * stride + 5])
                    assert abs(y[bi, i, j] - ref) < 1e-12


def test_conv_gradients_match_fd():
    rng = np.random.default_rng(2)
    # strides 1-3, with K < T and with K > T (the taps wrap more than once)
    for (t, k), stride in itertools.product(((6, 5), (5, 12)), (1, 2, 3)):
        x = rng.standard_normal((2, t, 3))
        w = rng.standard_normal((4, k, 3))
        b = rng.standard_normal(4)
        r = rng.standard_normal((2, layers.conv_output_length(t, stride), 4))

        def loss():
            y, _ = layers.circular_conv_forward(x, w, b, stride)
            return float(np.sum(y * r))

        y, cache = layers.circular_conv_forward(x, w, b, stride)
        dx, dw, db = layers.circular_conv_backward(r, cache)
        npt.assert_allclose(dx, fd_grad(loss, x), atol=1e-8)
        npt.assert_allclose(dw, fd_grad(loss, w), atol=1e-8)
        npt.assert_allclose(db, fd_grad(loss, b), atol=1e-8)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv_columns_match_sliding_window_construction(dtype):
    # the im2col columns are one gather of a cached row index, done in the
    # forward and again in the backward; y, dw, db and dx equal GEMMs over
    # the index-padded sliding_window_view + transpose + copy columns (and
    # the tap-by-tap scatter of dcols folded mod T) bit for bit, for
    # C-ordered and transposed inputs.  The cache holds x itself, not the
    # columns, and no argument or cache entry is written
    rng = np.random.default_rng(11)
    cases = itertools.product(((6, 5), (5, 12), (7, 1)), (1, 2, 3), (False, True))
    for (t, k), stride, transposed in cases:
        x = rng.standard_normal((2, t, 3)).astype(dtype)
        if transposed:
            x = np.ascontiguousarray(x.transpose(0, 2, 1)).transpose(0, 2, 1)
        w = rng.standard_normal((4, k, 3)).astype(dtype)
        b = rng.standard_normal(4).astype(dtype)
        t_out = layers.conv_output_length(t, stride)
        dy = rng.standard_normal((2, t_out, 4)).astype(dtype)
        before = [a.copy() for a in (x, w, b, dy)]
        y, cache = layers.circular_conv_forward(x, w, b, stride)
        assert cache[0] is x, (t, k, stride)
        padded = circular_pad(x, k)
        win = sliding_window_view(padded, k, axis=1)[:, ::stride]
        cols = np.ascontiguousarray(win.transpose(0, 1, 3, 2)).reshape(-1, k * 3)
        dy2 = dy.reshape(-1, 4)
        dcols = (dy2 @ w.reshape(4, k * 3)).reshape(2, t_out, k, 3)
        dpad = np.zeros(padded.shape, dtype)
        for kk in range(k):
            dpad[:, kk:kk + stride * t_out:stride] += dcols[:, :, kk]
        left, right = layers.pad_lengths(k)
        dx_want = np.zeros(x.shape, dtype)
        np.add.at(dx_want, (slice(None), np.arange(-left, t + right) % t), dpad)
        want = {"y": (cols @ w.reshape(4, k * 3).T + b).reshape(y.shape),
                "dx": dx_want, "dw": (dy2.T @ cols).reshape(w.shape), "db": dy2.sum(axis=0)}
        full = layers.circular_conv_backward(dy, cache)
        for name, got in zip(("y", "dx", "dw", "db"), (y,) + full):
            assert got.dtype == dtype, name
            assert got.tobytes() == want[name].tobytes(), (name, t, k, stride, transposed)
        # without the input gradient: the same dw and db, and dx is None
        skipped = layers.circular_conv_backward(dy, cache, need_dx=False)
        assert skipped[0] is None
        assert [g.tobytes() for g in skipped[1:]] == [g.tobytes() for g in full[1:]]
        for a, copy in zip((x, w, b, dy), before):
            assert a.tobytes() == copy.tobytes()
        assert cache[0] is x and cache[1] is w


def test_conv_row_memo_is_bounded():
    # a sweep over many (T, K, S) triples, as test_04 runs, leaves the row
    # memo at its cap, each entry read-only
    layers._conv_rows.cache_clear()
    b = np.zeros(1)
    for t, k, s in itertools.product(range(1, 41), (1, 4, 9), (1, 2)):
        layers.circular_conv_forward(np.ones((1, t, 1)), np.ones((1, k, 1)), b, s)
    info = layers._conv_rows.cache_info()
    assert info.currsize == info.maxsize == layers.ROWS_MEMO_SIZE
    assert info.misses == 40 * 3 * 2
    assert not layers._conv_rows(64, 7, 2).flags.writeable


def test_conv_channel_mismatch():
    with pytest.raises(errors.ValidationError):
        layers.circular_conv_forward(np.zeros((1, 4, 2)), np.zeros((1, 3, 3)), np.zeros(1))


def test_conv_shift_equivariance_stride1():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((1, 12, 2))
    w = rng.standard_normal((3, 5, 2))
    b = rng.standard_normal(3)
    y, _ = layers.circular_conv_forward(x, w, b, 1)
    for m in (1, 3, 7):
        ys, _ = layers.circular_conv_forward(np.roll(x, m, axis=1), w, b, 1)
        npt.assert_allclose(ys, np.roll(y, m, axis=1), atol=1e-12)


def test_conv_strided_shift_by_stride():
    # shifting the input by S rows shifts the stride-S output by one row
    rng = np.random.default_rng(4)
    x = rng.standard_normal((1, 12, 2))
    w = rng.standard_normal((3, 5, 2))
    b = rng.standard_normal(3)
    y, _ = layers.circular_conv_forward(x, w, b, 2)
    ys, _ = layers.circular_conv_forward(np.roll(x, 2, axis=1), w, b, 2)
    npt.assert_allclose(ys, np.roll(y, 1, axis=1), atol=1e-12)


# FFT path, called directly: odd and even T, and K > T (the taps wrap
# around the circle more than once)
def fft_forward(x, w, b):
    """The FFT forward at any batch and kernel size, its filter spectrum
    computed from the taps."""
    g_conj = layers.filter_spectrum(w, x.shape[1], np.result_type(x, w))
    return layers._fft_conv_forward(x, g_conj, b, w.shape[1])


FFT_SHAPES = [(7, 5), (8, 5), (8, 31), (7, 31), (1, 3), (2, 4)]


@pytest.mark.parametrize("t,k", FFT_SHAPES)
def test_fft_conv_matches_direct_sum(t, k):
    rng = np.random.default_rng(10 + t + k)
    x = rng.standard_normal((2, t, 3))
    w = rng.standard_normal((4, k, 3))
    b = rng.standard_normal(4)
    y, cache = fft_forward(x, w, b)
    assert isinstance(cache, layers._FFTCache)
    padded = circular_pad(x, k)
    ref = np.empty_like(y)
    for bi in range(2):
        for i in range(t):
            for j in range(4):
                ref[bi, i, j] = b[j] + np.sum(w[j] * padded[bi, i:i + k])
    npt.assert_allclose(y, ref, rtol=0, atol=1e-12)


@pytest.mark.parametrize("t,k", FFT_SHAPES)
def test_fft_conv_gradients_match_fd(t, k):
    rng = np.random.default_rng(20 + t + k)
    x = rng.standard_normal((2, t, 3))
    w = rng.standard_normal((4, k, 3))
    b = rng.standard_normal(4)
    r = rng.standard_normal((2, t, 4))

    def loss():
        return float(np.sum(fft_forward(x, w, b)[0] * r))

    # the loss is linear in each of x, w and b, so a central difference
    # has no truncation error at any step; a large step keeps the
    # cancellation error of (fp - fm) / 2h far below atol
    _, cache = fft_forward(x, w, b)
    dx, dw, db = layers.circular_conv_backward(r, cache)
    npt.assert_allclose(dx, fd_grad(loss, x, h=1e-3), atol=1e-8)
    npt.assert_allclose(dw, fd_grad(loss, w, h=1e-3), atol=1e-8)
    npt.assert_allclose(db, fd_grad(loss, b, h=1e-3), atol=1e-8)


@pytest.mark.parametrize("t,k", [(12, 5), (13, 15), (8, 31)])
def test_fft_conv_shift_equivariance(t, k):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2, t, 3))
    w = rng.standard_normal((4, k, 3))
    b = rng.standard_normal(4)
    y, _ = fft_forward(x, w, b)
    for m in range(1, t):
        ys, _ = fft_forward(np.roll(x, m, axis=1), w, b)
        assert np.abs(ys - np.roll(y, m, axis=1)).max() <= 1e-10


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("t", [1, 2, 7, 8, 64])
def test_dft_gemms_match_numpy_fft(t, dtype):
    # the FFT path's transforms are GEMMs against cached tables; they
    # match numpy's rfft/irfft (taken in float64) and stay in dtype
    rng = np.random.default_rng(30 + t)
    fwd, inv, _, _ = layers._dft_tables(t, 1, np.dtype(dtype))
    assert not fwd.flags.writeable and not inv.flags.writeable
    tol = 1e-6 if dtype == np.float32 else 1e-13
    x = rng.standard_normal((3, t, 5)).astype(dtype)
    spec = layers._rdft(fwd, x)
    want = np.fft.rfft(x.astype(np.float64), axis=1)
    assert spec.dtype == np.result_type(dtype, np.complex64)
    npt.assert_allclose(spec, want, rtol=0, atol=tol * t * np.abs(x).max())
    # any (F, M, C) spectrum: the imaginary parts of the DC bin and, for
    # even t, the Nyquist bin are ignored, as irfft ignores them
    f = t // 2 + 1
    s = (rng.standard_normal((f, 4, 5)) + 1j * rng.standard_normal((f, 4, 5))).astype(spec.dtype)
    y = layers._irdft(inv, s)
    want = np.fft.irfft(s.astype(np.complex128), n=t, axis=0)
    assert y.dtype == dtype
    npt.assert_allclose(y, want, rtol=0, atol=tol * 2 * np.abs(s).max())


def test_fft_conv_keeps_float32():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((3, 9, 4)).astype(np.float32)
    w = rng.standard_normal((5, 15, 4)).astype(np.float32)
    b = rng.standard_normal(5).astype(np.float32)
    y, cache = fft_forward(x, w, b)
    dx, dw, db = layers.circular_conv_backward(np.ones_like(y), cache)
    assert y.dtype == dx.dtype == dw.dtype == db.dtype == np.float32
    assert cache.x_hat.dtype == np.complex64


@pytest.mark.parametrize("k", [31, 15], ids=["k31", "k15"])
def test_fft_conv_agrees_with_im2col_at_ap10_layer3(k):
    # ap10 layers 3 and 2: T=64, 128 -> 128 channels, K=31 or K=15;
    # float32 rounding only (sums of K*128 products in different orders)
    rng = np.random.default_rng(7)
    x = rng.standard_normal((4, 64, 128)).astype(np.float32)
    lim = np.sqrt(6.0 / (2 * k * 128))
    w = rng.uniform(-lim, lim, (128, k, 128)).astype(np.float32)
    b = rng.standard_normal(128).astype(np.float32)
    dy = rng.standard_normal((4, 64, 128)).astype(np.float32)
    assert not layers._use_fft(4, k, 1)
    y0, c0 = layers.circular_conv_forward(x, w, b, 1)
    y1, c1 = fft_forward(x, w, b)
    for got, want in zip((y1,) + layers.circular_conv_backward(dy, c1),
                         (y0,) + layers.circular_conv_backward(dy, c0)):
        assert got.dtype == want.dtype == np.float32
        assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()


def test_conv_dispatch_rule():
    # stride 2 stays on im2col; per call, K=31 takes FFT from batch 6 and
    # K=15 from batch 11; with the filter spectrum paid, K >= 15 takes FFT
    # at every batch
    assert not layers._use_fft(1, 31, 1)
    assert not layers._use_fft(128, 31, 2)
    assert not layers._use_fft(5, 31, 1) and layers._use_fft(6, 31, 1)
    assert not layers._use_fft(10, 15, 1) and layers._use_fft(11, 15, 1)
    assert layers._use_fft(1, 15, 1, spectrum_paid=True)
    assert not layers._use_fft(1, 14, 1, spectrum_paid=True)
    assert not layers._use_fft(128, 31, 2, spectrum_paid=True)
    # every conv (and attention mix) of the five presets at one-row,
    # small, training and evaluation batches: only ap7/ap10's K=15 and
    # K=31 layers take FFT; per call never at batch 1, and with the
    # spectrum paid (eval mode) at every batch
    for paid, first_fft_batch in ((False, {15: 11, 31: 6}), (True, {15: 1, 31: 1})):
        for name in ("ap1", "ap2", "ap4", "ap7", "ap10"):
            spec = preset_spec(name)
            for i, layer in enumerate(spec.layers):
                for batch in (1, 8, 16, 128, 160):
                    if isinstance(layer, Conv):
                        want = batch >= first_fft_batch.get(layer.kernel_size, math.inf)
                        assert layers._use_fft(batch, layer.kernel_size, layer.stride,
                                               paid) == want, (name, i, batch, paid)
                    elif isinstance(layer, Attention):
                        assert not layers._use_fft(batch, layer.mix_kernel, 1, paid)


@pytest.mark.parametrize("t,k", [(8, 5), (7, 31), (64, 15)])
def test_filter_spectrum_is_the_conjugated_folded_tap_spectrum(t, k):
    # conj(G^) of the taps folded mod t, laid out (F, C, N_f) contiguous
    rng = np.random.default_rng(40 + k)
    w = rng.standard_normal((4, k, 3))
    g = layers.filter_spectrum(w, t, np.float64)
    assert g.shape == (t // 2 + 1, 3, 4) and g.flags.c_contiguous
    folded = np.zeros((4, t, 3))
    left = layers.pad_lengths(k)[0]
    for kk in range(k):
        folded[:, (kk - left) % t] += w[:, kk]
    want = np.conj(np.fft.rfft(folded, axis=1)).transpose(1, 2, 0)
    npt.assert_allclose(g, want, rtol=0, atol=1e-12 * k * np.abs(w).max())
    assert layers.filter_spectrum(w.astype(np.float32), t, np.float32).dtype == np.complex64


@pytest.mark.parametrize("k", [31, 15], ids=["k31", "k15"])
def test_conv_memo_is_bitwise_the_per_call_fft_path(k):
    # at batches that take FFT per call anyway, a memoized spectrum gives
    # the bits of the per-call one, forward and backward; at batch 1 the
    # memo moves the layer from im2col to FFT, within float32 rounding
    rng = np.random.default_rng(9)
    lim = np.sqrt(6.0 / (2 * k * 128))
    w = rng.uniform(-lim, lim, (128, k, 128)).astype(np.float32)
    b = rng.standard_normal(128).astype(np.float32)
    memo = {}
    for nb in (11, 16, 128):
        x = rng.standard_normal((nb, 64, 128)).astype(np.float32)
        dy = rng.standard_normal((nb, 64, 128)).astype(np.float32)
        y0, c0 = layers.circular_conv_forward(x, w, b, 1)
        assert isinstance(c0, layers._FFTCache)
        for _ in range(2):
            y1, c1 = layers.circular_conv_forward(x, w, b, 1, memo)
            # the spectrum is computed on the first call, then read
            key = (64, np.dtype(np.float32))
            assert list(memo) == [key] and c1.g_conj is memo[key]
            assert y1.tobytes() == y0.tobytes()
            for got, want in zip(layers.circular_conv_backward(dy, c1),
                                 layers.circular_conv_backward(dy, c0)):
                assert got.tobytes() == want.tobytes()
    x = rng.standard_normal((1, 64, 128)).astype(np.float32)
    y0, c0 = layers.circular_conv_forward(x, w, b, 1)
    y1, c1 = layers.circular_conv_forward(x, w, b, 1, memo)
    assert not isinstance(c0, layers._FFTCache) and isinstance(c1, layers._FFTCache)
    assert np.abs(y1 - y0).max() <= 1e-5 * np.abs(y0).max()
    # a K < 15 or strided conv leaves the memo alone
    _, c5 = layers.circular_conv_forward(x, w[:, :5], b, 1, {})
    _, c2 = layers.circular_conv_forward(x, w, b, 2, memo)
    assert not isinstance(c5, layers._FFTCache) and not isinstance(c2, layers._FFTCache)
    assert len(memo) == 1


def test_conv_forward_dispatches_on_ap10_layer2_at_batch_128():
    spec = preset_spec("ap10")
    params = init_parameters(spec, seed=0)
    x = np.random.default_rng(8).standard_normal((128, 64, 128)).astype(np.float32)
    group = params.layers[2]
    y, cache = layers.circular_conv_forward(x, group["w"], group["b"], 1)
    assert isinstance(cache, layers._FFTCache)
    _, cache1 = layers.circular_conv_forward(x[:1], group["w"], group["b"], 1)
    assert not isinstance(cache1, layers._FFTCache)
    dx, dw, db = layers.circular_conv_backward(np.ones_like(y), cache)
    assert dx.shape == x.shape and dw.shape == group["w"].shape


# ---------------------------------------------------------------- activations


def test_swish_values_and_gradient():
    z = np.array([0.0, 1.0, -1.0, 50.0, -50.0])
    y, cache = layers.swish_forward(z)
    sig = 1 / (1 + np.exp(-z[:3]))
    npt.assert_allclose(y[:3], z[:3] * sig, atol=1e-15)
    assert y[3] == pytest.approx(50.0)   # large positive is near identity
    assert y[4] == pytest.approx(0.0, abs=1e-12)

    rng = np.random.default_rng(5)
    z = rng.standard_normal((3, 4))
    r = rng.standard_normal((3, 4))

    def loss():
        return float(np.sum(layers.swish_forward(z)[0] * r))

    _, cache = layers.swish_forward(z)
    npt.assert_allclose(layers.swish_backward(r, cache), fd_grad(loss, z), atol=1e-9)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_activations_match_textbook_expressions_bitwise(dtype):
    # sigmoid, swish and its backward evaluate in place into one fresh
    # buffer: the same bits and dtype as the textbook expressions.  The
    # swish cache is the textbook derivative alone, neither the inputs nor
    # the cache are written, and an eval forward keeps no cache
    rng = np.random.default_rng(12)
    z = (4.0 * rng.standard_normal((3, 7, 5))).astype(dtype)
    z.flat[:5] = [0.0, -1e4, 1e4, -100.0, 100.0]   # exp(-z) overflows at -1e4
    dy = rng.standard_normal(z.shape).astype(dtype)
    z_before, dy_before = z.copy(), dy.copy()
    with np.errstate(over="ignore"):
        s = 1.0 / (1.0 + np.exp(-z))
    g_want = s * (1.0 + z * (1.0 - s))
    y, g = layers.swish_forward(z)
    g_before = g.copy()
    dz = layers.swish_backward(dy, g)
    for got, want in ((layers.sigmoid(z), s), (y, z * s), (g, g_want), (dz, dy * g_want)):
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()
    assert not np.shares_memory(dz, g)
    assert z.tobytes() == z_before.tobytes() and dy.tobytes() == dy_before.tobytes()
    assert g.tobytes() == g_before.tobytes()
    y_eval, none = layers.swish_forward(z, train=False)
    assert none is None and y_eval.tobytes() == y.tobytes()


def test_swish_derivative_keeps_the_input_layout():
    # a transposed z (the FFT conv's output) gives a derivative and an
    # input gradient laid out like z, which a conv's bias sum reads in
    # memory order
    rng = np.random.default_rng(13)
    z = rng.standard_normal((5, 3, 4)).astype(np.float32).transpose(1, 0, 2)
    dy = np.ascontiguousarray(rng.standard_normal(z.shape).astype(np.float32))
    _, g = layers.swish_forward(z)
    dz = layers.swish_backward(dy, g)
    assert g.strides == dz.strides == np.empty_like(z).strides != dy.strides


def test_swish_float32_extremes_are_finite():
    z = np.array([-1e4, -100.0, 100.0, 1e4], dtype=np.float32)
    y, _ = layers.swish_forward(z)
    assert np.all(np.isfinite(y))


def test_softmax_properties_and_gradient():
    rng = np.random.default_rng(6)
    v = rng.standard_normal((5, 4)) * 3
    p = layers.softmax(v)
    npt.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(p > 0)
    # max subtraction keeps huge logits finite
    big = layers.softmax(np.array([[1e4, 1e4 - 1.0]]))
    assert np.all(np.isfinite(big))

    r = rng.standard_normal((5, 4))

    def loss():
        return float(np.sum(layers.softmax(v) * r))

    probs = layers.softmax(v)
    npt.assert_allclose(layers.softmax_backward(r, probs), fd_grad(loss, v), atol=1e-8)


# ---------------------------------------------------------------- layer norm


def test_layer_norm_normalizes():
    rng = np.random.default_rng(7)
    h = rng.standard_normal((4, 9, 6)) * 5 + 2
    gain, shift = np.ones(6), np.zeros(6)
    y, _ = layers.layer_norm_forward(h, gain, shift)
    npt.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-12)
    # variance is 1 up to the epsilon regularizer
    npt.assert_allclose(y.var(axis=-1), 1.0, atol=1e-4)


def test_layer_norm_gradients_match_fd():
    rng = np.random.default_rng(8)
    h = rng.standard_normal((3, 5))
    gain = rng.standard_normal(5)
    shift = rng.standard_normal(5)
    r = rng.standard_normal((3, 5))

    def loss():
        return float(np.sum(layers.layer_norm_forward(h, gain, shift)[0] * r))

    _, cache = layers.layer_norm_forward(h, gain, shift)
    dh, dgain, dshift = layers.layer_norm_backward(r, cache)
    npt.assert_allclose(dh, fd_grad(loss, h), atol=1e-8)
    npt.assert_allclose(dgain, fd_grad(loss, gain), atol=1e-8)
    npt.assert_allclose(dshift, fd_grad(loss, shift), atol=1e-8)


# ---------------------------------------------------------------- dropout


def test_dropout_modes():
    rng = np.random.default_rng(9)
    h = np.ones((1000, 10))
    y, cache = layers.dropout_forward(h, 0.3, rng, train=True)
    kept = y != 0
    assert 0.6 < kept.mean() < 0.8
    npt.assert_allclose(y[kept], 1.0 / 0.7, atol=1e-12)
    # eval mode and p=0 are exact identities
    same, c = layers.dropout_forward(h, 0.3, None, train=False)
    assert c is None and same is h
    same, c = layers.dropout_forward(h, 0.0, rng, train=True)
    assert c is None
    with pytest.raises(errors.ValidationError):
        layers.dropout_forward(h, 1.0, rng, train=True)
    with pytest.raises(errors.ValidationError):
        layers.dropout_forward(h, 0.5, None, train=True)


def test_dropout_deterministic_and_backward():
    h = np.random.default_rng(1).standard_normal((20, 5))
    a, ca = layers.dropout_forward(h, 0.4, np.random.default_rng(33), train=True)
    b, cb = layers.dropout_forward(h, 0.4, np.random.default_rng(33), train=True)
    npt.assert_array_equal(a, b)
    dy = np.ones_like(h)
    npt.assert_array_equal(layers.dropout_backward(dy, ca), layers.dropout_backward(dy, cb))


# ---------------------------------------------------------------- bottleneck


def test_bottleneck_gradients_match_fd():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((2, 5, 4))
    w = rng.standard_normal((4, 3))
    b = rng.standard_normal(3)
    r = rng.standard_normal((2, 5, 3))

    def loss():
        return float(np.sum(layers.bottleneck_forward(x, w, b)[0] * r))

    _, cache = layers.bottleneck_forward(x, w, b)
    dx, dw, db = layers.bottleneck_backward(r, cache)
    npt.assert_allclose(dx, fd_grad(loss, x), atol=1e-8)
    npt.assert_allclose(dw, fd_grad(loss, w), atol=1e-8)
    npt.assert_allclose(db, fd_grad(loss, b), atol=1e-8)
    with pytest.raises(errors.ValidationError):
        layers.bottleneck_forward(x, np.zeros((5, 3)), b)


def test_bottleneck_is_positionwise():
    # output at position i depends only on input at position i
    rng = np.random.default_rng(11)
    x = rng.standard_normal((1, 6, 4))
    w = rng.standard_normal((4, 2))
    b = rng.standard_normal(2)
    y, _ = layers.bottleneck_forward(x, w, b)
    x2 = x.copy()
    x2[0, 3] += 1.0
    y2, _ = layers.bottleneck_forward(x2, w, b)
    diff = np.abs(y2 - y).sum(axis=2)[0]
    assert diff[3] > 0 and np.all(diff[np.arange(6) != 3] == 0)


# ---------------------------------------------------------------- dense


def test_dense_gradients_match_fd():
    rng = np.random.default_rng(12)
    h = rng.standard_normal((3, 6))
    w = rng.standard_normal((4, 6))
    b = rng.standard_normal(4)
    r = rng.standard_normal((3, 4))

    def loss():
        return float(np.sum(layers.dense_forward(h, w, b)[0] * r))

    _, cache = layers.dense_forward(h, w, b)
    dh, dw, db = layers.dense_backward(r, cache)
    npt.assert_allclose(dh, fd_grad(loss, h), atol=1e-9)
    npt.assert_allclose(dw, fd_grad(loss, w), atol=1e-9)
    npt.assert_allclose(db, fd_grad(loss, b), atol=1e-9)


# ---------------------------------------------------------------- attention


def attention_params(rng, c, k_mix=3, r=2):
    return {
        "w_mix": rng.standard_normal((c, k_mix, c)) * 0.3,
        "b_mix": rng.standard_normal(c) * 0.1,
        "ln_gain": 1.0 + 0.1 * rng.standard_normal(c),
        "ln_shift": 0.1 * rng.standard_normal(c),
        "w1": rng.standard_normal((c // r, c)) * 0.3,
        "b1": rng.standard_normal(c // r) * 0.1,
        "w2": rng.standard_normal((c, c // r)) * 0.3,
        "b2": rng.standard_normal(c) * 0.1,
    }


def test_attention_gradients_match_fd():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((2, 5, 4))
    params = attention_params(rng, 4)
    r = rng.standard_normal((2, 5, 4))

    def loss():
        return float(np.sum(layers.attention_forward(x, params)[0] * r))

    _, cache = layers.attention_forward(x, params)
    dx, grads = layers.attention_backward(r, cache)
    npt.assert_allclose(dx, fd_grad(loss, x), atol=1e-7)
    for name in sorted(params):
        npt.assert_allclose(grads[name], fd_grad(loss, params[name]), atol=1e-7,
                            err_msg=name)


def test_attention_weights_shift_invariant():
    rng = np.random.default_rng(14)
    x = rng.standard_normal((3, 16, 4))
    params = attention_params(rng, 4)
    _, cache = layers.attention_forward(x, params)
    for m in (1, 5, 11):
        _, cache_s = layers.attention_forward(np.roll(x, m, axis=1), params)
        npt.assert_allclose(cache_s["att"], cache["att"], atol=1e-12)


def test_attention_output_shift_equivariant():
    rng = np.random.default_rng(15)
    x = rng.standard_normal((1, 12, 4))
    params = attention_params(rng, 4)
    y, _ = layers.attention_forward(x, params)
    ys, _ = layers.attention_forward(np.roll(x, 4, axis=1), params)
    npt.assert_allclose(ys, np.roll(y, 4, axis=1), atol=1e-12)
