import json
import tracemalloc
import weakref

import numpy as np
import numpy.testing as npt
import pytest

from circscatter import errors, training
from circscatter.dataio import Standardizer
from circscatter.nncore import (
    Attention,
    Bottleneck,
    Conv,
    Dense,
    Flatten,
    NetworkSpec,
    Output,
    PRESET_TRAINING,
    forward_features,
    init_parameters,
    l2_penalty,
    layers,
    load_model,
    network_backward,
    network_forward,
    preset_spec,
    save_model,
)
from circscatter.nncore.network import EVAL_BLOCK
from circscatter.pipeline import TrainedModel
from oracles import reference_eval_forward


def tiny_spec(task="reg", out=3):
    act = "softmax" if task == "class" else "linear"
    return NetworkSpec(8, 2, (
        Conv(4, 3, 1), Conv(4, 3, 2), Attention(mix_kernel=3, reduction=2),
        Bottleneck(3), Flatten(), Dense(6, dropout=0.5), Output(out, act),
    ), task)


# ---------------------------------------------------------------- spec


def test_spec_shape_propagation():
    spec = tiny_spec()
    assert spec.stage_shapes() == [(8, 4), (4, 4), (4, 4), (4, 3), 12, 6, 3]
    assert spec.output_dim == 3


def test_spec_validation_errors():
    with pytest.raises(errors.ValidationError):  # dense before flatten
        NetworkSpec(8, 2, (Dense(4), Flatten(), Output(2, "linear")), "reg")
    with pytest.raises(errors.ValidationError):  # conv after flatten
        NetworkSpec(8, 2, (Flatten(), Conv(4, 3), Output(2, "linear")), "reg")
    with pytest.raises(errors.ValidationError):  # two flattens
        NetworkSpec(8, 2, (Flatten(), Flatten(), Output(2, "linear")), "reg")
    with pytest.raises(errors.ValidationError):  # no output
        NetworkSpec(8, 2, (Flatten(),), "reg")
    with pytest.raises(errors.ValidationError):  # output not last
        NetworkSpec(8, 2, (Flatten(), Output(2, "linear"), Dense(3)), "reg")
    with pytest.raises(errors.ValidationError):  # reduction does not divide
        NetworkSpec(8, 2, (Conv(6, 3), Attention(reduction=4), Flatten(),
                           Output(2, "linear")), "reg")
    with pytest.raises(errors.ValidationError):  # task/activation mismatch
        NetworkSpec(8, 2, (Flatten(), Output(2, "softmax")), "reg")
    with pytest.raises(errors.ValidationError):  # bad dropout
        NetworkSpec(8, 2, (Flatten(), Dense(3, dropout=1.5), Output(2, "linear")), "reg")
    # a dense field must be a number (not a bool) in range, layernorm a bool
    for bad in (Dense(3, dropout=True), Dense(3, dropout=float("nan")), Dense(3, l2=False),
                Dense(3, l2=float("nan")), Dense(3, l2=float("inf")), Dense(3, l2=-1e-4),
                Dense(3, l2="0"), Dense(3, layernorm="no"), Dense(3, layernorm=1)):
        with pytest.raises(errors.ValidationError, match="dropout|l2|layernorm"):
            NetworkSpec(8, 2, (Flatten(), bad, Output(2, "linear")), "reg")
    with pytest.raises(errors.ValidationError, match="unknown layer spec"):
        NetworkSpec(8, 2, (Flatten(), {"kind": "dense", "units": 3}, Output(2, "linear")),
                    "reg")
    with pytest.warns(UserWarning, match="does not reduce"):
        NetworkSpec(8, 2, (Bottleneck(2), Flatten(), Output(2, "linear")), "reg")


def test_spec_json_roundtrip():
    spec = tiny_spec("class")
    back = NetworkSpec.from_json_dict(spec.to_json_dict())
    assert back == spec


# ---------------------------------------------------------------- presets


def test_preset_stock_shapes():
    # every inter-layer shape each preset must produce, asserted exactly
    assert preset_spec("ap1").stage_shapes() == [
        (32, 64), (16, 64), (16, 64), (16, 16), 256, 128, 64, 3]
    assert preset_spec("ap2").stage_shapes() == [
        (32, 64), (16, 64), (16, 16), 256, 64, 5]
    assert preset_spec("ap4").stage_shapes() == [
        (32, 64), (16, 64), (16, 16), 256, 64, 6]
    assert preset_spec("ap7").stage_shapes() == [
        (128, 128), (64, 128), (64, 128), (64, 128), (64, 64), 4096, 256, 128, 13]
    assert preset_spec("ap10").stage_shapes() == [
        (128, 128), (64, 128), (64, 128), (64, 128), (64, 128), (64, 64),
        4096, 512, 256, 128, 14]
    assert preset_spec("ap1").task == "class"
    for name in ("ap2", "ap4", "ap7", "ap10"):
        assert preset_spec(name).task == "reg"
    with pytest.raises(errors.ValidationError):
        preset_spec("ap99")


def test_preset_training_defaults():
    assert PRESET_TRAINING["ap1"] == {"learning_rate": 1e-5, "batch_size": 64,
                                      "min_delta": 1e-3, "patience": 150, "clip_norm": None}
    assert PRESET_TRAINING["ap2"]["patience"] == 80
    assert PRESET_TRAINING["ap10"]["clip_norm"] == 1.0
    assert PRESET_TRAINING["ap10"]["learning_rate"] == 5e-5


def count_params(spec):
    # independent arithmetic for the deterministic parameter count
    t, c = spec.input_t, spec.input_c
    flat, total = None, 0
    for layer in spec.layers:
        if isinstance(layer, Conv):
            total += layer.filters * layer.kernel_size * c + layer.filters
            t = -(-t // layer.stride)
            c = layer.filters
        elif isinstance(layer, Attention):
            h = c // layer.reduction
            total += c * layer.mix_kernel * c + c           # mix conv
            total += 2 * c                                  # layer norm
            total += h * c + h + c * h + c                  # gate
        elif isinstance(layer, Bottleneck):
            total += c * layer.channels + layer.channels
            c = layer.channels
        elif isinstance(layer, Flatten):
            flat = t * c
        elif isinstance(layer, Dense):
            total += layer.units * flat + layer.units
            total += 2 * layer.units if layer.layernorm else 0
            flat = layer.units
        else:
            total += layer.units * flat + layer.units
            flat = layer.units
    return total


def test_preset_parameter_counts():
    for name in ("ap1", "ap2", "ap4", "ap7", "ap10"):
        spec = preset_spec(name)
        params = init_parameters(spec, seed=0)
        assert params.num_params == count_params(spec), name


# ---------------------------------------------------------------- init


def test_init_deterministic_and_bounded():
    spec = tiny_spec()
    a = init_parameters(spec, seed=3)
    b = init_parameters(spec, seed=3)
    for (_, _, x), (_, _, y) in zip(a.arrays(), b.arrays()):
        npt.assert_array_equal(x, y)
    c = init_parameters(spec, seed=4)
    assert any(not np.array_equal(x, y)
               for (_, _, x), (_, _, y) in zip(a.arrays(), c.arrays()))
    # conv glorot bound: sqrt(6 / (K*C_in + K*N_f))
    w = a.layers[0]["w"]
    lim = np.sqrt(6.0 / (3 * 2 + 3 * 4))
    assert np.all(np.abs(w) <= lim)
    assert w.dtype == np.float32
    npt.assert_array_equal(a.layers[0]["b"], 0.0)
    npt.assert_array_equal(a.layers[2]["ln_gain"], 1.0)
    npt.assert_array_equal(a.layers[2]["ln_shift"], 0.0)


# ---------------------------------------------------------------- forward


def test_forward_shapes_and_uniform_probs():
    spec = tiny_spec("class")
    params = init_parameters(spec, seed=0)
    x = np.random.default_rng(0).standard_normal((5, 8, 2)).astype(np.float32)
    out = network_forward(spec, params, x)
    assert out.shape == (5, 3)
    npt.assert_allclose(out.sum(axis=1), 1.0, atol=1e-6)
    # zero weights give exactly uniform class probabilities
    zeros = params.zeros_like()
    for group in zeros.layers:
        for name in group:
            if name == "ln_gain":
                group[name] = np.ones_like(group[name])
    out = network_forward(spec, zeros, x)
    npt.assert_allclose(out, 1.0 / 3.0, atol=1e-7)


def test_forward_input_validation():
    spec = tiny_spec()
    params = init_parameters(spec, seed=0)
    with pytest.raises(errors.ValidationError):
        network_forward(spec, params, np.zeros((2, 8, 3)))
    with pytest.raises(errors.ValidationError):
        network_forward(spec, params, np.zeros((8, 2)))
    with pytest.raises(errors.ValidationError):
        network_forward(spec, params, np.zeros((2, 8, 2)), mode="predict")


def test_train_mode_dropout_needs_rng_and_returns_cache():
    spec = tiny_spec()
    params = init_parameters(spec, seed=0)
    x = np.random.default_rng(1).standard_normal((4, 8, 2)).astype(np.float32)
    with pytest.raises(errors.ValidationError):
        network_forward(spec, params, x, mode="train")
    out, cache = network_forward(spec, params, x, mode="train",
                                 rng=np.random.default_rng(5))
    assert out.shape == (4, 3)
    # eval differs from train because of dropout
    ev = network_forward(spec, params, x)
    assert not np.allclose(ev, out)


def test_composed_network_gradients_match_fd():
    # end-to-end check through every layer kind at double precision
    spec = tiny_spec("reg")
    params = init_parameters(spec, seed=7, dtype=np.float64)
    rng = np.random.default_rng(8)
    x = rng.standard_normal((3, 8, 2))
    r = rng.standard_normal((3, 3))
    mask_seed = 99

    def loss():
        out, _ = network_forward(spec, params, x, mode="train",
                                 rng=np.random.default_rng(mask_seed))
        return float(np.sum(out * r))

    out, cache = network_forward(spec, params, x, mode="train",
                                 rng=np.random.default_rng(mask_seed))
    grads = network_backward(spec, params, cache, r)

    h = 1e-6
    for li, name, arr in params.arrays():
        flat = arr.reshape(-1)
        g = grads.layers[li][name].reshape(-1)
        idx = np.linspace(0, flat.size - 1, min(flat.size, 5)).astype(int)
        for i in idx:
            old = flat[i]
            flat[i] = old + h
            fp = loss()
            flat[i] = old - h
            fm = loss()
            flat[i] = old
            num = (fp - fm) / (2 * h)
            assert abs(g[i] - num) <= 1e-6 * max(1.0, abs(num)), (li, name, i)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_backward_leaves_out_only_the_input_gradient(dtype, monkeypatch):
    # network_backward tells layer 0 its input gradient is not wanted, and
    # its parameter gradients equal a full backward that computes every dx
    spec = tiny_spec("reg")
    params = init_parameters(spec, seed=3, dtype=dtype)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((5, 8, 2)).astype(dtype)
    r = rng.standard_normal((5, 3)).astype(dtype)
    out, cache = network_forward(spec, params, x, mode="train",
                                 rng=np.random.default_rng(6))
    want = params.zeros_like()
    d = r
    for i in range(len(spec.layers) - 1, -1, -1):
        d, layer_grads = spec.layers[i].backward(params.layers[i], d, cache.items[i], True)
        for name, g in layer_grads.items():
            want.layers[i][name][...] = g
    assert d.shape == x.shape and d.dtype == dtype
    wanted = []
    real = layers.circular_conv_backward
    monkeypatch.setattr(layers, "circular_conv_backward",
                        lambda dy, c, need_dx=True: wanted.append(need_dx) or real(dy, c, need_dx))
    grads = network_backward(spec, params, cache, r)
    # the attention mix conv, conv 1, then conv 0 without its dx
    assert wanted == [True, True, False]
    assert grads.dtype == dtype
    assert grads.vector.tobytes() == want.vector.tobytes()


def test_backward_rejects_stale_cache():
    spec = tiny_spec()
    params = init_parameters(spec, seed=0)
    x = np.zeros((2, 8, 2), dtype=np.float32)
    out, cache = network_forward(spec, params, x, mode="train",
                                 rng=np.random.default_rng(0))
    params.version += 1  # simulates an optimizer step
    with pytest.raises(errors.ValidationError, match="stale"):
        network_backward(spec, params, cache, np.zeros_like(out))


def test_backward_spends_its_cache():
    # a cache feeds one backward; a second raises, and staleness is
    # still checked first
    spec = tiny_spec()
    params = init_parameters(spec, seed=0)
    x = np.random.default_rng(1).standard_normal((2, 8, 2)).astype(np.float32)
    out, cache = network_forward(spec, params, x, mode="train",
                                 rng=np.random.default_rng(0))
    network_backward(spec, params, cache, np.ones_like(out))
    assert cache.items is None
    with pytest.raises(errors.ValidationError, match="spent"):
        network_backward(spec, params, cache, np.ones_like(out))
    params.version += 1
    with pytest.raises(errors.ValidationError, match="stale"):
        network_backward(spec, params, cache, np.ones_like(out))


def test_backward_frees_each_layer_cache_once_used(monkeypatch):
    # the Output layer's input activations are gone before layer 0's
    # backward runs
    spec = tiny_spec()
    params = init_parameters(spec, seed=2)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 8, 2)).astype(np.float32)
    out, cache = network_forward(spec, params, x, mode="train", rng=np.random.default_rng(5))
    top = cache.items[-1][0][0]    # the Output layer's cached (B, d) input
    assert top.base is None
    top_ref = weakref.ref(top)
    del top
    seen = []
    conv_backward = Conv.backward

    def spying_backward(self, group, d, layer_cache, need_dx):
        if not need_dx:           # layer 0
            seen.append(top_ref() is None)
        return conv_backward(self, group, d, layer_cache, need_dx)

    monkeypatch.setattr(Conv, "backward", spying_backward)
    network_backward(spec, params, cache, np.ones_like(out))
    assert seen == [True]


@pytest.mark.parametrize("case", ["reg", "class", "ap10"])
def test_backward_into_a_reused_buffer_writes_every_entry(case):
    # network_backward does not zero its output: a buffer full of NaN,
    # reused for two steps' backwards, holds each time the bytes of a
    # fresh call, so every entry of every layer kind is assigned
    spec, batch = (preset_spec("ap10"), 2) if case == "ap10" else (tiny_spec(case), 5)
    params = init_parameters(spec, seed=4)
    rng = np.random.default_rng(5)
    buffer = params.zeros_like()
    buffer.vector[:] = np.nan
    for step in range(2):
        x = rng.standard_normal((batch, spec.input_t, spec.input_c)).astype(np.float32)
        dout = rng.standard_normal((batch, spec.output_dim)).astype(np.float32)

        def backward(out=None):
            _, cache = network_forward(spec, params, x, mode="train",
                                       rng=np.random.default_rng(step))
            return network_backward(spec, params, cache, dout, out)

        want = backward()
        got = backward(buffer)
        assert got is buffer and np.isfinite(got.vector).all()
        assert got.vector.tobytes() == want.vector.tobytes()
    # a buffer of another layout or dtype is refused, the cache unspent
    _, cache = network_forward(spec, params, x, mode="train", rng=np.random.default_rng(0))
    other = init_parameters(tiny_spec("reg", out=2), seed=0)
    for bad in (other, init_parameters(spec, seed=0, dtype=np.float64)):
        with pytest.raises(errors.ValidationError, match="gradient buffer"):
            network_backward(spec, params, cache, dout, bad)
    assert cache.items is not None


def test_forward_features_pre_flatten():
    spec = tiny_spec()
    params = init_parameters(spec, seed=0)
    x = np.random.default_rng(2).standard_normal((2, 8, 2)).astype(np.float32)
    feats = forward_features(spec, params, x)
    assert feats.shape == (2, 4, 3)
    # with a leading Flatten the pre-flatten features are the input itself
    lead = NetworkSpec(8, 2, (Flatten(), Output(2, "linear")), "reg")
    npt.assert_array_equal(forward_features(lead, init_parameters(lead, 0), x), x)


# ---------------------------------------------------------------- eval passes


def forward_keeping_caches(spec, params, x, use_memos=False):
    """An eval pass through each layer's forward that keeps every layer's
    input and cache, all that a pass which never drops anything holds;
    without the params' memos each filter spectrum is computed per call,
    so a long-kernel conv below the B*K rule runs im2col."""
    h, kept = x, []
    memos = params.memos if use_memos else [None] * len(spec.layers)
    for layer, group, memo in zip(spec.layers, params.layers, memos):
        h_in = h
        h, cache = layer.forward(group, h, None, False, memo)
        kept.append((h_in, cache))
    return h


def memoized_layers(params):
    return [i for i, memo in enumerate(params.memos) if memo]


def preset_input(spec, batch, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((batch, spec.input_t, spec.input_c)).astype(np.float32)


@pytest.mark.parametrize("preset", ["ap7", "ap10"])
def test_eval_memo_is_bitwise_the_per_call_fft_path(preset):
    # at batch 16 both long-kernel convs take FFT per call too (B*K >= 160);
    # the memoized spectra give the same bits, built once and then read
    spec = preset_spec(preset)
    params = init_parameters(spec, seed=1).freeze()
    x = preset_input(spec, 16)
    want = forward_keeping_caches(spec, params, x)
    for _ in range(2):
        assert network_forward(spec, params, x).tobytes() == want.tobytes()
    assert memoized_layers(params) == [2, 3]   # the K=15 and K=31 convs


@pytest.mark.parametrize("preset", ["ap7", "ap10"])
def test_one_row_eval_takes_fft_and_agrees(preset, monkeypatch):
    # one row runs its K=15 and K=31 convs on FFT with the memoized
    # spectra; within float32 rounding of im2col and of the batched answer
    spec = preset_spec(preset)
    params = init_parameters(spec, seed=2).freeze()
    x = preset_input(spec, 8, seed=3)
    batched = network_forward(spec, params, x)
    ffts = []
    real = layers._fft_conv_forward
    monkeypatch.setattr(layers, "_fft_conv_forward",
                        lambda *args: ffts.append(len(args[0])) or real(*args))
    for i in range(3):
        one = network_forward(spec, params, x[i:i + 1])
        im2col = forward_keeping_caches(spec, params, x[i:i + 1])
        scale = np.abs(im2col).max()
        assert np.abs(one - im2col).max() <= 1e-5 * scale
        assert np.abs(one - batched[i:i + 1]).max() <= 1e-5 * scale
    assert ffts == [1, 1] * 3


def test_trained_model_parameters_are_read_only(tmp_path):
    # a writable set keeps no spectrum, whatever pass runs over it
    spec = preset_spec("ap7")
    params = init_parameters(spec, seed=7)
    x = preset_input(spec, 1)
    network_forward(spec, params, x)
    network_forward(spec, params, x, mode="train", rng=np.random.default_rng(0))
    assert params.memos == [None] * len(spec.layers)
    path = tmp_path / "net.model"
    save_model(path, spec, params)
    saved = path.read_bytes()
    # a TrainedModel freezes its set in place; an eval pass then fills the
    # memo, and every write raises, so no memo can go stale
    scaler = Standardizer(np.zeros(spec.input_t * spec.input_c),
                          np.ones(spec.input_t * spec.input_c))
    model = TrainedModel(spec, params, scaler, None, preset="ap7", seed=0, class_tag=3,
                         fixed_impedance=2.0)
    assert model.params is params
    before = network_forward(spec, params, x)
    assert memoized_layers(params) == [2, 3]   # the K=15 and K=31 convs
    grads = params.zeros_like()
    grads.vector[:] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        params.layers[2]["w"][...] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        params.vector *= 2
    with pytest.raises(ValueError, match="read-only"):
        training.adam_step(params, grads, training.init_adam(params), 1e-3)
    assert params.freeze() is params and memoized_layers(params) == [2, 3]
    assert network_forward(spec, params, x).tobytes() == before.tobytes()
    # copies and loaded sets start writable, without memos; the frozen
    # set saves to the same bytes
    for fresh in (params.copy(), params.zeros_like(), load_model(path)[1]):
        assert all(a.flags.writeable for a in [fresh.vector] + [v for *_, v in fresh.arrays()])
        assert fresh.memos == [None] * len(spec.layers)
    save_model(path, spec, params)
    assert path.read_bytes() == saved
    # and a model read back is frozen too, with the built model's answers
    model.save(tmp_path, "star")
    loaded = TrainedModel.load(tmp_path, "star")
    assert not loaded.params.vector.flags.writeable
    assert loaded.answers(x).tobytes() == model.answers(x).tobytes()


def test_frozen_parameters_cannot_be_made_writable_again(tmp_path):
    spec = preset_spec("ap2")
    params = init_parameters(spec, seed=0)
    save_model(tmp_path / "before.model", spec, params)
    params.freeze()
    for array in [params.vector] + [v for *_, v in params.arrays()]:
        with pytest.raises(ValueError):
            array.flags.writeable = True
    with pytest.raises(ValueError, match="read-only"):
        params.vector *= 2
    assert params.freeze() is params and not params.vector.flags.writeable
    save_model(tmp_path / "after.model", spec, params)
    assert (tmp_path / "after.model").read_bytes() == (tmp_path / "before.model").read_bytes()
    for fresh in (params.copy(), params.zeros_like()):
        assert all(a.flags.writeable for a in [fresh.vector] + [v for *_, v in fresh.arrays()])


def test_eval_pass_keeps_no_caches():
    # each layer's input and cache go once the layer has run: the same
    # output bytes as a pass that keeps them all, at a lower traced peak
    spec = preset_spec("ap7")
    params = init_parameters(spec, seed=8).freeze()
    x = preset_input(spec, 256, seed=9)
    network_forward(spec, params, x[:1])   # the memo is paid outside the peaks
    peaks, outs = [], []
    for run in (lambda: network_forward(spec, params, x),
                lambda: forward_keeping_caches(spec, params, x, use_memos=True)):
        tracemalloc.start()
        try:
            outs.append(run())
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert outs[0].tobytes() == outs[1].tobytes()
    assert peaks[0] < 0.75 * peaks[1], peaks


STREAM_SIZES = (1, 127, 128, 255, 256, 257, 383, 384, 640)


@pytest.mark.parametrize("frozen", [True, False], ids=["frozen", "writable"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("preset", ["ap1", "ap2", "ap4", "ap7", "ap10"])
def test_streamed_eval_is_bitwise_the_whole_batch_pass(preset, dtype, frozen):
    # from 2 * EVAL_BLOCK rows the layers before Flatten run block by
    # block and the head once: every byte is the whole-batch pass's, on
    # either side of the threshold and with a remainder block or none;
    # the long-kernel presets skip 383 and 640 rows to bound the test's time
    spec = preset_spec(preset)
    params = init_parameters(spec, seed=4, dtype=dtype)
    if frozen:
        params.freeze()
    x = preset_input(spec, STREAM_SIZES[-1], seed=5).astype(dtype)
    sizes = STREAM_SIZES if spec.input_t == 32 else STREAM_SIZES[:6] + (384,)
    for n in sizes:
        want = reference_eval_forward(spec, params, x[:n])
        got = network_forward(spec, params, x[:n])
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), f"{preset} n={n} differs from the whole batch"


def test_streamed_eval_peaks_below_half_the_whole_batch():
    # only one block's im2col columns and activations are live at a time
    spec = preset_spec("ap10")
    params = init_parameters(spec, seed=6).freeze()
    x = preset_input(spec, 4 * EVAL_BLOCK, seed=7)
    network_forward(spec, params, x[:1])   # the memo is paid outside the peaks
    peaks, outs = [], []
    for run in (network_forward, reference_eval_forward):
        tracemalloc.start()
        try:
            outs.append(run(spec, params, x))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert outs[0].tobytes() == outs[1].tobytes()
    assert peaks[0] < 0.5 * peaks[1], peaks


def test_l2_penalty_value():
    spec = NetworkSpec(8, 2, (Flatten(), Dense(3, l2=0.1), Dense(2), Output(1, "linear")), "reg")
    params = init_parameters(spec, seed=1, dtype=np.float64)
    w = params.layers[1]["w"]
    assert l2_penalty(spec, params) == pytest.approx(0.1 * float(np.sum(w * w)), rel=1e-12)
    # only layers with l2 > 0 contribute
    spec0 = NetworkSpec(8, 2, (Flatten(), Dense(3), Dense(2), Output(1, "linear")), "reg")
    assert l2_penalty(spec0, init_parameters(spec0, 1)) == 0.0


# ---------------------------------------------------------------- model files


def test_model_roundtrip_bitexact(tmp_path):
    for dtype in (np.float32, np.float64):
        spec = tiny_spec("class")
        params = init_parameters(spec, seed=11, dtype=dtype)
        path = tmp_path / "net.model"
        save_model(path, spec, params)
        back_spec, back_params = load_model(path)
        assert back_spec == spec
        for (_, _, a), (_, _, b) in zip(params.arrays(), back_params.arrays()):
            npt.assert_array_equal(a, b)
            assert a.dtype == b.dtype
        # reload and re-save produces identical bytes
        path2 = tmp_path / "net2.model"
        save_model(path2, back_spec, back_params)
        assert path.read_bytes() == path2.read_bytes()


def test_parameters_live_in_one_vector(tmp_path):
    spec = tiny_spec()
    params = init_parameters(spec, seed=3)
    # every array is a view of the vector, laid out in arrays() order
    start = 0
    for _, _, arr in params.arrays():
        assert np.shares_memory(arr, params.vector)
        npt.assert_array_equal(arr.reshape(-1), params.vector[start:start + arr.size])
        start += arr.size
    assert start == params.vector.size == params.num_params
    params.layers[0]["b"][...] = 7.0
    assert np.count_nonzero(params.vector == 7.0) == params.layers[0]["b"].size
    # a copy owns its own vector and starts at version 0
    params.version = 4
    clone = params.copy()
    assert clone.version == 0 and not np.shares_memory(clone.vector, params.vector)
    clone.vector[:] = 0.0
    npt.assert_array_equal(params.layers[0]["b"], 7.0)
    # the .model payload is exactly the vector's little-endian bytes
    path = tmp_path / "net.model"
    save_model(path, spec, params)
    assert path.read_bytes().split(b"\n", 2)[2] == params.vector.astype("<f4").tobytes()


def test_model_file_errors(tmp_path):
    path = tmp_path / "bad.model"
    path.write_bytes(b"who-knows\n{}\n")
    with pytest.raises(errors.FormatError, match="magic"):
        load_model(path)
    spec = tiny_spec()
    params = init_parameters(spec, seed=0)
    good = tmp_path / "good.model"
    save_model(good, spec, params)
    blob = good.read_bytes()
    (tmp_path / "trunc.model").write_bytes(blob[:-8])
    with pytest.raises(errors.FormatError, match="truncated"):
        load_model(tmp_path / "trunc.model")
    (tmp_path / "extra.model").write_bytes(blob + b"\x00")
    with pytest.raises(errors.FormatError, match="trailing"):
        load_model(tmp_path / "extra.model")
    # a header declaring a huge layer is refused before any payload is read
    magic, header, payload = blob.split(b"\n", 2)
    big = json.loads(header)
    big["spec"]["layers"][0]["filters"] = 10**12
    (tmp_path / "big.model").write_bytes(
        b"\n".join([magic, json.dumps(big).encode("ascii"), payload]))
    with pytest.raises(errors.FormatError, match="truncated"):
        load_model(tmp_path / "big.model")
    (tmp_path / "inf.model").write_bytes(blob[:-4] + np.array(np.inf, "<f4").tobytes())
    with pytest.raises(errors.FormatError, match="non-finite"):
        load_model(tmp_path / "inf.model")


def test_init_weights_bytes_pinned(tmp_path):
    # init_parameters and load_model share one shape rule; the Glorot
    # draws, and so the .model bytes of a fresh init, must not move
    import hashlib
    h = hashlib.sha256()
    for name in ("ap1", "ap2", "ap4", "ap7", "ap10"):
        path = tmp_path / f"{name}.model"
        save_model(path, preset_spec(name), init_parameters(preset_spec(name), seed=5))
        h.update(path.read_bytes())
    assert h.hexdigest() == "b14951037910511059b2e26fbd0799c0559439a71d5a72b04b4f8d499ebd3353"


def test_load_model_draws_no_random_weights(tmp_path, monkeypatch):
    spec = preset_spec("ap10")
    params = init_parameters(spec, seed=2)
    path = tmp_path / "ap10.model"
    save_model(path, spec, params)

    def no_rng(*args, **kwargs):
        raise AssertionError("load_model drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    back_spec, back = load_model(path)
    assert back_spec == spec
    for (_, name, a), (_, _, b) in zip(params.arrays(), back.arrays()):
        npt.assert_array_equal(a, b)


def test_output_units_must_be_positive():
    with pytest.raises(errors.ValidationError, match="units"):
        NetworkSpec(8, 2, (Flatten(), Output(-1, "linear")), "reg")
    with pytest.raises(errors.ValidationError, match="units"):
        NetworkSpec(8, 2, (Flatten(), Output(0, "softmax")), "class")


def test_model_spec_errors_are_format_errors(tmp_path):
    # a spec that fails validation inside a .model file is a file-format
    # problem, not a bad argument, whatever JSON value the size holds
    spec = tiny_spec()
    good = tmp_path / "good.model"
    save_model(good, spec, init_parameters(spec, seed=0))
    magic, header, payload = good.read_bytes().split(b"\n", 2)
    bad = tmp_path / "bad.model"
    for kind, key, value in (("output", "units", -1), ("output", "units", 0),
                             ("dense", "units", 1.5), ("conv", "filters", True),
                             ("conv", "kernel_size", "3"), ("bottleneck", "channels", None)):
        blob = json.loads(header)
        next(layer for layer in blob["spec"]["layers"] if layer["kind"] == kind)[key] = value
        bad.write_bytes(b"\n".join([magic, json.dumps(blob).encode("ascii"), payload]))
        with pytest.raises(errors.FormatError, match="integer"):
            load_model(bad)
    blob = json.loads(header)
    blob["spec"]["layers"][0]["kind"] = "pooling"
    bad.write_bytes(b"\n".join([magic, json.dumps(blob).encode("ascii"), payload]))
    with pytest.raises(errors.FormatError, match="unknown layer kind 'pooling'"):
        load_model(bad)
    for key, value in (("l2", True), ("dropout", False), ("layernorm", "no")):
        blob = json.loads(header)
        next(layer for layer in blob["spec"]["layers"] if layer["kind"] == "dense")[key] = value
        bad.write_bytes(b"\n".join([magic, json.dumps(blob).encode("ascii"), payload]))
        with pytest.raises(errors.FormatError, match=f"bad model header: .*{key} must be"):
            load_model(bad)
    blob = json.loads(header)
    for dtype in ("object", "V4", "int8", 5):
        bad.write_bytes(b"\n".join([magic, json.dumps({**blob, "dtype": dtype}).encode("ascii"),
                                    payload]))
        with pytest.raises(errors.FormatError, match="bad model header: .*(dtype|data type)"):
            load_model(bad)
    # the header is read by the strict JSON decoder: an object, with no
    # bare NaN or Infinity and no number that overflows a double
    dense = next(layer for layer in blob["spec"]["layers"] if layer["kind"] == "dense")
    dense["l2"] = "L2"
    text = json.dumps(blob).encode("ascii")
    for line, message in ((b"[1, 2]", "not a JSON object"),
                          (text.replace(b'"L2"', b"NaN"), "bare NaN"),
                          (text.replace(b'"L2"', b"Infinity"), "bare Infinity"),
                          (text.replace(b'"L2"', b"1e999"), "too large for a double")):
        bad.write_bytes(b"\n".join([magic, line, payload]))
        with pytest.raises(errors.FormatError, match=f"bad model header: .*{message}"):
            load_model(bad)
