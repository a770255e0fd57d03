import math
import os
import platform
import subprocess
import sys
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from circscatter import errors, training
from circscatter.dataio import DatasetSplit
from circscatter.nncore import (
    Conv,
    Dense,
    Flatten,
    NetworkSpec,
    Output,
    Parameters,
    init_parameters,
    layers,
    network_backward,
    network_forward,
    preset_spec,
)
from circscatter.training import (
    AdamState,
    TrainConfig,
    TrainHistory,
    adam_step,
    classification_metrics,
    clip_gradients,
    cross_entropy,
    cross_entropy_grad,
    forward_eval,
    grad_check,
    init_adam,
    mse,
    mse_grad,
    one_hot,
    preset_train_config,
    regression_metrics,
    train,
)


def lin_spec(d_out=1, t=4, c=2):
    return NetworkSpec(t, c, (Flatten(), Output(d_out, "linear")), "reg")


def simple_split(n_train, n_valid, n_test=0):
    n = n_train + n_valid + n_test
    idx = np.arange(n)
    return DatasetSplit(idx[:n_train], idx[n_train:n_train + n_valid],
                        idx[n_train + n_valid:], seed=0)


# ---------------------------------------------------------------- losses


def test_one_hot():
    y = one_hot([1, 3, 2, 1], (1, 2, 3))
    npt.assert_array_equal(y, [[1, 0, 0], [0, 0, 1], [0, 1, 0], [1, 0, 0]])
    with pytest.raises(errors.ValidationError):
        one_hot([4], (1, 2, 3))


def test_cross_entropy_known_value_and_grad():
    probs = np.array([[1.0, 0.0], [0.5, 0.5]])
    y = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert cross_entropy(probs, y) == pytest.approx(-math.log(0.5) / 2, abs=1e-12)
    # floor keeps a confident wrong prediction finite
    assert np.isfinite(cross_entropy(np.array([[0.0, 1.0]]), np.array([[1.0, 0.0]])))

    rng = np.random.default_rng(0)
    p = rng.uniform(0.05, 0.95, size=(4, 3))
    yy = one_hot(rng.integers(1, 4, size=4), (1, 2, 3))
    g = cross_entropy_grad(p, yy)
    h = 1e-7
    for i in range(4):
        for j in range(3):
            old = p[i, j]
            p[i, j] = old + h
            fp = cross_entropy(p, yy)
            p[i, j] = old - h
            fm = cross_entropy(p, yy)
            p[i, j] = old
            assert abs(g[i, j] - (fp - fm) / (2 * h)) < 1e-6


def test_mse_known_value_and_grad():
    preds = np.array([[1.0, 2.0], [3.0, 4.0]])
    targets = np.zeros((2, 2))
    # mean over samples of the squared norm, not the per-entry mean
    assert mse(preds, targets) == pytest.approx((1 + 4 + 9 + 16) / 2, abs=1e-14)
    g = mse_grad(preds, targets)
    npt.assert_allclose(g, 2 * preds / 2, atol=1e-14)


# ---------------------------------------------------------------- optimizer


def test_clip_gradients_global_norm():
    spec = lin_spec()
    grads = init_parameters(spec, 0, dtype=np.float64).zeros_like()
    grads.layers[1]["w"][:] = 3.0
    grads.layers[1]["b"][:] = 4.0 * np.sqrt(grads.layers[1]["w"].size)
    # global norm is sqrt(sum of squares) across all arrays
    w, b = grads.layers[1]["w"], grads.layers[1]["b"]
    expected = math.sqrt(float(np.sum(w**2) + np.sum(b**2)))
    norm = clip_gradients(grads, None)
    assert norm == pytest.approx(expected, rel=1e-12)
    npt.assert_array_equal(grads.layers[1]["w"], 3.0)  # no clipping applied

    norm = clip_gradients(grads, expected * 2)  # above the norm: unchanged
    npt.assert_array_equal(grads.layers[1]["w"], 3.0)

    norm = clip_gradients(grads, 1.0)
    assert norm == pytest.approx(expected, rel=1e-12)  # returns pre-clip norm
    total = sum(float(np.sum(g**2)) for _, _, g in grads.arrays())
    assert math.sqrt(total) == pytest.approx(1.0, rel=1e-9)
    with pytest.raises(errors.ValidationError):
        clip_gradients(grads, 0.0)


def test_clip_norm_matches_per_array_reference():
    # each array squared in float64 and summed, in arrays() order, gives
    # the bits of each array's own float64 copy's sum of squares
    rng = np.random.default_rng(9)
    for name in ("ap1", "ap2", "ap7", "ap10"):
        grads = init_parameters(preset_spec(name), 0).zeros_like()
        grads.vector[:] = rng.standard_normal(grads.num_params).astype(np.float32)
        before = grads.vector.copy()
        want = math.sqrt(sum(float(np.sum(g.astype(np.float64) ** 2))
                             for _, _, g in grads.arrays()))
        assert clip_gradients(grads, None) == want
        assert grads.vector.tobytes() == before.tobytes()


def test_adam_single_step_closed_form():
    spec = lin_spec()
    params = init_parameters(spec, 0, dtype=np.float64)
    params.layers[1]["w"][:] = 1.0
    grads = params.zeros_like()
    grads.layers[1]["w"][:] = 0.5
    state = init_adam(params)
    adam_step(params, grads, state, lr=0.01)
    # after one step: m_hat = g, v_hat = g^2, update = lr * g / (|g| + eps)
    expected = 1.0 - 0.01 * 0.5 / (0.5 + training.ADAM_EPS)
    npt.assert_allclose(params.layers[1]["w"], expected, rtol=1e-12)
    assert state.t == 1 and params.version == 1


def test_adam_multi_step_matches_reference_loop():
    spec = training._gradcheck_spec()   # every layer kind, so every array name
    params = init_parameters(spec, 3, dtype=np.float64)
    state = init_adam(params)
    refs = [arr.copy() for _, _, arr in params.arrays()]
    ms = [np.zeros_like(p) for p in refs]
    vs = [np.zeros_like(p) for p in refs]
    rng = np.random.default_rng(5)
    for t in range(1, 6):
        grads = params.zeros_like()
        for _, _, g in grads.arrays():
            g[...] = rng.standard_normal(g.shape)
        adam_step(params, grads, state, lr=0.02)
        for p, m, v, (_, _, g) in zip(refs, ms, vs, grads.arrays()):
            m[...] = 0.9 * m + 0.1 * g
            v[...] = 0.999 * v + 0.001 * g * g
            mh = m / (1 - 0.9**t)
            vh = v / (1 - 0.999**t)
            p -= 0.02 * mh / (np.sqrt(vh) + training.ADAM_EPS)
    for (_, _, got), want in zip(params.arrays(), refs):
        npt.assert_allclose(got, want, rtol=1e-12)


def whole_vector_adam(params, grads, state, lr):
    """adam_step as one pass over whole vectors through two full-size
    scratch vectors, in the same operand order."""
    state.t += 1
    b1t = 1.0 - training.ADAM_BETA1 ** state.t
    b2t = 1.0 - training.ADAM_BETA2 ** state.t
    g, m, v = grads.vector, state.m, state.v
    a = np.multiply(1.0 - training.ADAM_BETA1, g)
    m *= training.ADAM_BETA1
    m += a
    np.multiply(1.0 - training.ADAM_BETA2, g, out=a)
    a *= g
    v *= training.ADAM_BETA2
    v += a
    np.divide(v, b2t, out=a)
    np.sqrt(a, out=a)
    a += training.ADAM_EPS
    step = np.multiply(lr / b1t, m)
    step /= a
    params.vector -= step


BLOCK = training.ADAM_BLOCK


@pytest.mark.parametrize("size", [1, BLOCK - 1, BLOCK, BLOCK + 1, "ap10"])
def test_blocked_adam_is_bitwise_the_whole_vector_update(size):
    if size == "ap10":
        params = init_parameters(preset_spec("ap10"), 0)
    else:
        rng = np.random.default_rng(size)
        params = Parameters([{"w": (size,)}], rng.standard_normal(size).astype(np.float32))
    ref, state, ref_state = params.copy(), init_adam(params), init_adam(params)
    rng = np.random.default_rng(1)
    for _ in range(3):
        grads = params.zeros_like()
        grads.vector[:] = rng.standard_normal(params.num_params).astype(np.float32)
        adam_step(params, grads, state, lr=1e-3)
        whole_vector_adam(ref, grads, ref_state, lr=1e-3)
    for got, want in ((params.vector, ref.vector), (state.m, ref_state.m),
                      (state.v, ref_state.v)):
        assert got.dtype == np.float32
        assert got.tobytes() == want.tobytes()
    assert state.t == 3 and params.version == 3


def test_clipped_float32_steps_match_per_array_reference():
    # 20 float32 steps with a clip norm that fires on every step give the
    # same bits as Adam and clipping applied array by array
    spec = training._gradcheck_spec()
    params = init_parameters(spec, 0)
    state = init_adam(params)
    refs = [arr.copy() for _, _, arr in params.arrays()]
    ms = [np.zeros_like(p) for p in refs]
    vs = [np.zeros_like(p) for p in refs]
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, spec.input_t, spec.input_c)).astype(np.float32)
    y = rng.standard_normal((4, spec.output_dim)).astype(np.float32)
    clip, lr = 1e-3, 1e-3
    b1, b2 = training.ADAM_BETA1, training.ADAM_BETA2
    for t in range(1, 21):
        out, cache = network_forward(spec, params, x, mode="train",
                                     rng=np.random.default_rng(t))
        grads = network_backward(spec, params, cache, mse_grad(out, y))
        gs = [g.copy() for _, _, g in grads.arrays()]
        norm = clip_gradients(grads, clip)
        adam_step(params, grads, state, lr)
        total = 0.0
        for g in gs:
            total += float(np.sum(g.astype(np.float64) ** 2))
        assert norm == math.sqrt(total) > clip
        scale = clip / norm
        b1t, b2t = 1.0 - b1 ** t, 1.0 - b2 ** t
        for p, m, v, g in zip(refs, ms, vs, gs):
            g *= np.asarray(scale, dtype=g.dtype)
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p -= (lr / b1t) * m / (np.sqrt(v / b2t) + training.ADAM_EPS)
        for (_, _, got), want in zip(params.arrays(), refs):
            assert got.dtype == np.float32
            npt.assert_array_equal(got, want)


# ---------------------------------------------------------------- config


def test_train_config_validation():
    with pytest.raises(errors.ValidationError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(errors.ValidationError):
        TrainConfig(patience=0)
    with pytest.raises(errors.ValidationError):
        TrainConfig(min_delta=-1e-3)
    with pytest.raises(errors.ValidationError):
        TrainConfig(clip_norm=-1.0)


def test_preset_train_config_overrides():
    cfg = preset_train_config("ap2", seed=9, learning_rate=3e-3)
    assert cfg.learning_rate == 3e-3
    assert cfg.batch_size == 128 and cfg.patience == 80 and cfg.seed == 9
    cfg = preset_train_config("ap10")
    assert cfg.clip_norm == 1.0


# ---------------------------------------------------------------- training


def test_train_learns_linear_regression():
    # targets are a fixed linear map of the features: easily learnable
    rng = np.random.default_rng(0)
    n, t, c = 60, 4, 2
    feats = rng.standard_normal((n, t * c))
    w_true = rng.standard_normal((t * c, 1))
    targets = feats @ w_true
    spec = lin_spec()
    cfg = TrainConfig(learning_rate=0.05, batch_size=16, max_epochs=60,
                      min_delta=0.0, patience=60, seed=1)
    params, hist = train(spec, feats, targets, simple_split(48, 6, 6), cfg)
    assert hist.valid_loss[-1] < 0.05 * hist.valid_loss[0]
    assert hist.best_epoch >= 1
    # returned weights realize the history minimum exactly
    x_valid = feats[np.arange(48, 54)]
    y_valid = targets[np.arange(48, 54)]
    out = forward_eval(spec, params, x_valid)
    assert mse(out, y_valid.astype(np.float32)) == min(hist.valid_loss)


def test_train_is_bitwise_deterministic():
    rng = np.random.default_rng(1)
    feats = rng.standard_normal((40, 8))
    targets = rng.standard_normal((40, 1))
    cfg = TrainConfig(learning_rate=0.01, batch_size=8, max_epochs=5,
                      patience=5, seed=7)
    a_params, a_hist = train(lin_spec(), feats, targets, simple_split(32, 4, 4), cfg)
    b_params, b_hist = train(lin_spec(), feats, targets, simple_split(32, 4, 4), cfg)
    for (_, _, x), (_, _, y) in zip(a_params.arrays(), b_params.arrays()):
        npt.assert_array_equal(x, y)
    assert a_hist.train_loss == b_hist.train_loss
    assert a_hist.valid_loss == b_hist.valid_loss


def test_train_holds_one_generation_of_activations():
    # two ap7 steps at batch 64: the traced peak stays under seven
    # parameter vectors (at most six are alive at once: params, Adam's m
    # and v, grads, and the old and new best snapshot while one replaces
    # the other) plus 1.3 train-mode forward caches; a step that kept its
    # cache until the next forward had been built would hold two
    spec = preset_spec("ap7")
    batch, n_valid = 64, 8
    rng = np.random.default_rng(11)
    x = rng.standard_normal((2 * batch + n_valid, spec.input_t, spec.input_c))
    x = x.astype(np.float32)
    y = rng.standard_normal((len(x), spec.output_dim))
    cfg = TrainConfig(batch_size=batch, max_epochs=1, seed=0)
    params = init_parameters(spec, 0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out, cache = network_forward(spec, params, x[:batch], mode="train",
                                     rng=np.random.default_rng(0))
        cache_bytes = tracemalloc.get_traced_memory()[0] - before
        del out, cache
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        train(spec, x, y, simple_split(2 * batch, n_valid), cfg)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 7 * params.vector.nbytes + 1.3 * cache_bytes, (peak, cache_bytes)


def cached_nbytes(obj, params, seen=None):
    """Bytes of the distinct arrays in a forward cache, read off their
    shapes and dtypes; views of the parameters are not counted."""
    seen = set() if seen is None else seen
    if isinstance(obj, np.ndarray):
        if id(obj) in seen or np.shares_memory(obj, params.vector):
            return 0
        seen.add(id(obj))
        return obj.nbytes
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (tuple, list)):
        return sum(cached_nbytes(item, params, seen) for item in obj)
    return 0


def test_ap10_step_holds_its_cache_and_no_full_size_scratch():
    # one clipped ap10 step at batch 4, as train runs it: the traced peak
    # stays under 1.25 forward caches plus two of the largest parameter
    # array (a dense layer's dw and its L2 term, or the clip norm's
    # float64 squares of that array) plus 1 MiB.  A fresh gradient vector
    # or Adam's full-size scratch vectors would each add 12.7 MB
    spec, batch = preset_spec("ap10"), 4
    params = init_parameters(spec, 0)
    state = init_adam(params)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((batch, spec.input_t, spec.input_c)).astype(np.float32)
    y = rng.standard_normal((batch, spec.output_dim)).astype(np.float32)
    out, cache = network_forward(spec, params, x, mode="train", rng=np.random.default_rng(0))
    cache_bytes = cached_nbytes(cache.items, params)
    grads = network_backward(spec, params, cache, mse_grad(out, y))
    adam_step(params, grads, state, 5e-5)
    del out, cache
    largest = max(a.nbytes for *_, a in params.arrays())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out, cache = network_forward(spec, params, x, mode="train", rng=np.random.default_rng(1))
        grads = network_backward(spec, params, cache, mse_grad(out, y), grads)
        clip_gradients(grads, 1.0)
        adam_step(params, grads, state, 5e-5)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    bound = 1.25 * cache_bytes + 2 * largest + 2 ** 20
    assert peak < bound, (peak, cache_bytes, largest)


HEAP_SCRIPT = """
import resource
from circscatter import dataio, training
from circscatter.nncore import preset_spec
import numpy as np

spec = preset_spec("ap1")
rng = np.random.default_rng(0)
x = rng.standard_normal((640, spec.input_t * spec.input_c)).astype(np.float32)
y = rng.integers(1, 4, 640)
split = dataio.split_dataset(640, 0)
cfg = training.preset_train_config("ap1", seed=0, max_epochs=6)
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    training.train(spec, x, y, split, cfg, classes=(1, 2, 3))
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc thresholds")
def test_train_reuses_its_heap_across_steps():
    # desk-shaped ap1 training (512 train rows, batch 64, 6 epochs) in a
    # fresh interpreter: once settle_heap has raised the allocator's
    # thresholds, a step's freed activations are reused by the next step,
    # so the second train() takes almost no minor faults (about 70K when
    # glibc trims its heap after every step and faults it in again)
    env = dict(os.environ, CIRCSCATTER_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", HEAP_SCRIPT], capture_output=True,
                          text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    faults = int(proc.stdout)
    assert faults < 5000, faults


def test_early_stopping_contract():
    # all-ones features; train targets +1, valid targets -1: every step
    # moves predictions toward +1, so validation loss strictly worsens
    n_train, n_valid = 8, 2
    feats = np.ones((n_train + n_valid, 8))
    targets = np.concatenate([np.ones((n_train, 1)), -np.ones((n_valid, 1))])
    cfg = TrainConfig(learning_rate=0.05, batch_size=4, max_epochs=10,
                      min_delta=0.0, patience=1, seed=0)
    params, hist = train(lin_spec(), feats, targets, simple_split(n_train, n_valid), cfg)
    assert hist.stopped_epoch == 2          # patience 1 trips at epoch 2
    assert hist.best_epoch == 1             # epoch-1 weights returned
    assert hist.valid_loss[1] > hist.valid_loss[0]
    out = forward_eval(lin_spec(), params, feats[8:])
    recomputed = mse(out, targets[8:].astype(np.float32))
    assert recomputed == hist.valid_loss[0] == min(hist.valid_loss)


def test_train_raises_on_divergence():
    rng = np.random.default_rng(2)
    feats = rng.standard_normal((20, 8)) * 100
    targets = rng.standard_normal((20, 1))
    cfg = TrainConfig(learning_rate=1e18, batch_size=4, max_epochs=5,
                      patience=5, seed=0)
    with np.errstate(all="ignore"):
        with pytest.raises(errors.NumericError) as exc:
            train(lin_spec(), feats, targets, simple_split(16, 2, 2), cfg)
    assert exc.value.epoch is not None


def test_train_argument_validation():
    feats = np.zeros((20, 8))
    spec = NetworkSpec(4, 2, (Flatten(), Output(2, "softmax")), "class")
    with pytest.raises(errors.ValidationError, match="classes"):
        train(spec, feats, np.ones(20), simple_split(16, 4), TrainConfig())
    with pytest.raises(errors.ValidationError, match="targets"):
        train(lin_spec(), feats, np.zeros((20, 3)), simple_split(16, 4), TrainConfig())


def test_history_csv(tmp_path):
    hist = TrainHistory(train_loss=[1.0, 0.5], valid_loss=[1.1, 0.6],
                        train_acc=[0.5, 0.8], valid_acc=[0.4, 0.9],
                        best_epoch=2, stopped_epoch=2)
    path = tmp_path / "history.csv"
    hist.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,train_loss,valid_loss,train_acc,valid_acc"
    assert lines[1].startswith("1,1,1.1") and len(lines) == 3
    assert hist.best_valid_loss == 0.6
    reg = TrainHistory(train_loss=[1.0], valid_loss=[2.0], best_epoch=1)
    reg.to_csv(path)
    assert path.read_text().splitlines()[0] == "epoch,train_loss,valid_loss"


# ---------------------------------------------------------------- metrics


def test_classification_metric_oracles():
    # perfect predictions: accuracy 1, identity confusion
    rep = classification_metrics([1, 2, 3, 1], [1, 2, 3, 1], (1, 2, 3))
    assert rep.accuracy == 1.0
    npt.assert_array_equal(rep.confusion, np.eye(3))
    assert rep.recalls == {1: 1.0, 2: 1.0, 3: 1.0}

    # rows sum to one; accuracy equals the label-weighted mean recall
    true = [1, 1, 1, 2, 2, 3, 3, 3, 3, 3]
    pred = [1, 2, 1, 2, 3, 3, 3, 1, 3, 3]
    rep = classification_metrics(pred, true, (1, 2, 3))
    npt.assert_allclose(rep.confusion.sum(axis=1), 1.0, atol=1e-15)
    weighted = sum(rep.recalls[c] * true.count(c) for c in (1, 2, 3)) / len(true)
    assert rep.accuracy == pytest.approx(weighted, abs=1e-15)
    assert np.all(np.diag(rep.confusion) == [rep.recalls[c] for c in (1, 2, 3)])


def test_classification_absent_class():
    rep = classification_metrics([1, 1], [1, 1], (1, 2, 3))
    assert 2 not in rep.recalls and 3 not in rep.recalls
    npt.assert_array_equal(rep.confusion[1], 0.0)
    d = rep.to_json_dict()
    assert set(d["recalls"]) == {"1"}


def test_regression_metric_oracles():
    rng = np.random.default_rng(4)
    targets = rng.standard_normal((50, 3)) * [1.0, 2.0, 3.0]
    # perfect prediction
    rep = regression_metrics(targets.copy(), targets)
    assert rep.r2 == pytest.approx(1.0, abs=1e-15) and rep.rmse == 0.0
    assert all(abs(v - 1.0) < 1e-15 for v in rep.per_param_r2)
    # mean predictor scores exactly zero
    mean_pred = np.tile(targets.mean(axis=0), (50, 1))
    rep = regression_metrics(mean_pred, targets)
    assert rep.r2 == pytest.approx(0.0, abs=1e-12)
    assert all(abs(v) < 1e-12 for v in rep.per_param_r2)
    # rmse against the hand formula
    preds = targets + 0.1
    rep = regression_metrics(preds, targets)
    assert rep.rmse == pytest.approx(math.sqrt(3 * 0.01), abs=1e-12)


def test_regression_constant_column_r2_undefined():
    targets = np.ones((10, 2))
    targets[:, 1] = np.arange(10)
    rep = regression_metrics(targets + 0.5, targets)
    assert rep.per_param_r2[0] is None
    assert rep.per_param_r2[1] is not None


def test_forward_eval_chunking_consistent():
    spec = lin_spec(d_out=2)
    params = init_parameters(spec, 1)
    feats = np.random.default_rng(7).standard_normal((10, 8))
    a = forward_eval(spec, params, feats, chunk=3)
    b = forward_eval(spec, params, feats, chunk=100)
    # chunk boundaries reorder the BLAS reductions, so only f32-close
    npt.assert_allclose(a, b, atol=1e-6)
    npt.assert_array_equal(a, forward_eval(spec, params, feats, chunk=3))


# ---------------------------------------------------------------- gradcheck


def test_gradcheck_passes_all_layer_kinds():
    rep = grad_check(seed=0)
    kinds = {e.name for e in rep.entries}
    assert {"w", "b", "w_mix", "ln_gain", "w1", "w2"} <= kinds
    assert rep.passed and rep.max_rel_error < 1e-4


def test_gradcheck_passes_classification_loss():
    rep = grad_check(spec=training._gradcheck_class_spec(), seed=1)
    assert rep.passed


def test_gradcheck_fails_on_nan_gradient(monkeypatch):
    real = layers.dense_backward

    def nan_bias_grad(dz, cache):
        dx, dw, db = real(dz, cache)
        db = db.copy()
        db[0] = np.nan
        return dx, dw, db

    monkeypatch.setattr(layers, "dense_backward", nan_bias_grad)
    rep = grad_check(seed=0)
    assert not rep.passed
    assert np.isnan(rep.max_rel_error)


def test_gradcheck_detects_corrupted_backward(monkeypatch):
    real = layers.swish_backward
    monkeypatch.setattr(layers, "swish_backward", lambda dy, c: real(dy, c) * 1.01)
    rep = grad_check(seed=0)
    assert not rep.passed
