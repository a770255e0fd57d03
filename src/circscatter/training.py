"""Losses, Adam with clipping, the training loop, metrics, gradcheck.

Training runs in float32.  Every random decision (init, shuffling,
dropout masks) flows from TrainConfig.seed through a fixed consumption
order, so two runs with the same inputs are bitwise identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import dataio
from .errors import NumericError, ValidationError
from .nncore import (
    NetworkSpec,
    Parameters,
    init_parameters,
    l2_penalty,
    network_backward,
    network_forward,
)
from .nncore import network as _network
from .serial import write_csv

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-7
PROB_FLOOR = 1e-12
EVAL_CHUNK = 1024
ADAM_BLOCK = 1 << 15   # entries per block of adam_step: 128 KB of float32
# bytes of the block settle_heap releases: under glibc's 32 MiB
# DEFAULT_MMAP_THRESHOLD_MAX, so freeing it moves the dynamic thresholds
HEAP_SETTLE_BYTES = 16 << 20


# ---------------------------------------------------------------- losses


def one_hot(labels: np.ndarray, classes) -> np.ndarray:
    """Map labels (values from ``classes``) to one-hot rows, in the
    order classes are listed."""
    classes = tuple(classes)
    index = {c: i for i, c in enumerate(classes)}
    try:
        rows = np.array([index[int(v)] for v in labels])
    except KeyError as exc:
        raise ValidationError(f"label {exc} not in classes {classes}") from exc
    out = np.zeros((len(labels), len(classes)))
    out[np.arange(len(labels)), rows] = 1.0
    return out


def cross_entropy(probs: np.ndarray, onehot: np.ndarray) -> float:
    """Mean categorical cross-entropy with probabilities floored at 1e-12."""
    p = np.maximum(probs, PROB_FLOOR)
    return float(-np.sum(onehot * np.log(p)) / len(probs))


def cross_entropy_grad(probs: np.ndarray, onehot: np.ndarray) -> np.ndarray:
    p = np.maximum(probs, PROB_FLOOR)
    return (-onehot / p / len(probs)).astype(probs.dtype)


def mse(preds: np.ndarray, targets: np.ndarray) -> float:
    """Mean over samples of the squared euclidean error of each sample."""
    d = preds - targets
    return float(np.sum(d * d) / len(preds))


def mse_grad(preds: np.ndarray, targets: np.ndarray) -> np.ndarray:
    return (2.0 * (preds - targets) / len(preds)).astype(preds.dtype)


# ---------------------------------------------------------------- optimizer


@dataclass
class AdamState:
    """First and second moments, one entry per entry of Parameters.vector."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0


def init_adam(params: Parameters) -> AdamState:
    return AdamState(np.zeros_like(params.vector), np.zeros_like(params.vector))


def clip_gradients(grads: Parameters, clip_norm: float | None) -> float:
    """Global-norm clipping across every array, in place.  Returns the
    pre-clip global norm.

    The norm sums each array's float64 sum of squares in ``arrays()``
    order, squaring one array at a time (the ufunc casts to float64, so
    the one temporary is that array's squares); one sum over the whole
    vector would round differently and change every clipped run's bytes."""
    total = 0.0
    for _, _, g in grads.arrays():
        total += float(np.sum(np.square(g.reshape(-1), dtype=np.float64)))
    norm = math.sqrt(total)
    if clip_norm is not None:
        if clip_norm <= 0:
            raise ValidationError("clip norm must be positive")
        if norm > clip_norm:
            grads.vector *= np.asarray(clip_norm / norm, dtype=grads.dtype)
    return norm


def adam_step(params: Parameters, grads: Parameters, state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update, in place:

        m = b1 m + (1 - b1) g
        v = b2 v + (1 - b2) g g
        p -= (lr / (1 - b1^t)) m / (sqrt(v / (1 - b2^t)) + eps)

    each evaluated in that operand order.  Every operation is elementwise,
    so the vectors are walked in blocks of ADAM_BLOCK entries through two
    block-sized scratch arrays that stay in cache: the same bits as one
    pass over whole vectors, without two full-size temporaries."""
    state.t += 1
    b1t = 1.0 - ADAM_BETA1 ** state.t
    b2t = 1.0 - ADAM_BETA2 ** state.t
    p_all, g_all = params.vector, grads.vector
    size = p_all.size
    a_buf = np.empty(min(size, ADAM_BLOCK), g_all.dtype)
    step_buf = np.empty(len(a_buf), state.m.dtype)
    for lo in range(0, size, ADAM_BLOCK):
        hi = min(lo + ADAM_BLOCK, size)
        g, m, v, p = g_all[lo:hi], state.m[lo:hi], state.v[lo:hi], p_all[lo:hi]
        a, step = a_buf[:hi - lo], step_buf[:hi - lo]
        np.multiply(1.0 - ADAM_BETA1, g, out=a)
        m *= ADAM_BETA1
        m += a
        np.multiply(1.0 - ADAM_BETA2, g, out=a)
        a *= g
        v *= ADAM_BETA2
        v += a
        np.divide(v, b2t, out=a)
        np.sqrt(a, out=a)
        a += ADAM_EPS
        np.multiply(lr / b1t, m, out=step)
        step /= a
        p -= step
    params.version += 1


# ---------------------------------------------------------------- config


@dataclass
class TrainConfig:
    learning_rate: float = 1e-4
    batch_size: int = 128
    max_epochs: int = 1000
    min_delta: float = 1e-4
    patience: int = 80
    clip_norm: float | None = None
    seed: int = 0

    def __post_init__(self):
        # chained comparisons against inf refuse NaN and inf alike
        if not 0 < self.learning_rate < math.inf:
            raise ValidationError("learning rate must be finite and positive")
        if self.batch_size < 1 or self.max_epochs < 1 or self.patience < 1:
            raise ValidationError("batch size, epochs, patience must be >= 1")
        if not 0 <= self.min_delta < math.inf:
            raise ValidationError("min_delta must be finite and >= 0")
        if self.clip_norm is not None and not 0 < self.clip_norm < math.inf:
            raise ValidationError("clip norm must be finite and positive")


def preset_train_config(name: str, seed: int = 0, **overrides) -> TrainConfig:
    base = dict(_network.PRESET_TRAINING[name])
    base.update(overrides)
    return TrainConfig(seed=seed, **base)


@dataclass
class TrainHistory:
    train_loss: list = field(default_factory=list)
    valid_loss: list = field(default_factory=list)
    train_acc: list | None = None
    valid_acc: list | None = None
    best_epoch: int = 0
    stopped_epoch: int = 0

    @property
    def best_valid_loss(self) -> float:
        return self.valid_loss[self.best_epoch - 1]

    def to_csv(self, path) -> None:
        cols = ["epoch", "train_loss", "valid_loss"]
        series = [self.train_loss, self.valid_loss]
        if self.train_acc is not None:
            cols += ["train_acc", "valid_acc"]
            series += [self.train_acc, self.valid_acc]
        write_csv(path, cols, zip(range(1, len(self.train_loss) + 1), *series))


# ---------------------------------------------------------------- train loop


def _as_tensor(spec: NetworkSpec, features: np.ndarray, dtype) -> np.ndarray:
    x = np.asarray(features)
    if x.ndim == 2:
        x = dataio.reshape_to_tensor(x, spec.input_t, spec.input_c)
    return np.ascontiguousarray(x, dtype=dtype)


def forward_eval(spec: NetworkSpec, params: Parameters, features: np.ndarray,
                 chunk: int = EVAL_CHUNK) -> np.ndarray:
    """Chunked eval-mode forward over flat (n, d) or tensor features.

    Each chunk of up to ``chunk`` rows is one network_forward, which
    streams a chunk of 2 * EVAL_BLOCK rows or more through the layers
    before Flatten in blocks and runs the dense head over the whole chunk;
    the output bytes do not depend on the blocking."""
    x = _as_tensor(spec, features, params.dtype)
    outs = [network_forward(spec, params, x[i:i + chunk]) for i in range(0, len(x), chunk)]
    return np.concatenate(outs, axis=0)


def settle_heap() -> None:
    """Allocate and free one never-written HEAP_SETTLE_BYTES block.

    glibc serves the block by mmap and, on freeing it, raises its dynamic
    mmap threshold to the block's size and its trim threshold to twice
    that (mallopt(3), M_MMAP_THRESHOLD); a threshold already higher is
    left alone.  A training step's freed activations are then kept in the
    heap and reused by the next step, rather than trimmed and faulted in
    again: a fresh process's ap1 train() of 48 steps otherwise takes about
    94K minor page faults.  The block's pages are never touched, so the
    call costs no faults itself; under another allocator it does nothing
    more than allocate and free."""
    np.empty(HEAP_SETTLE_BYTES, np.uint8)


def train(spec: NetworkSpec, features: np.ndarray, targets: np.ndarray,
          split: dataio.DatasetSplit, config: TrainConfig, classes=None,
          verbose: bool = False):
    """Trains on the split's train rows, early-stops on validation loss,
    and returns (best parameters, history).

    ``features`` are standardized rows, (n, T*C) or (n, T, C).  For
    classification pass integer labels plus ``classes``; for regression
    pass standardized target rows.  Reported losses include the L2
    penalty (the same quantity the optimizer descends).  The returned
    parameters realize min(history.valid_loss) exactly.

    Each batch is gathered from the full feature tensor by row index
    (``split.train`` at the shuffled positions), so the train rows are
    never copied out as a whole.  A step's forward cache is spent by its
    backward, so a step holds one batch's activations at a time, and
    every step writes its gradients into the one vector the first step's
    backward allocated.  The gradient norm is only computed when
    ``config.clip_norm`` is set.  Before the first step, settle_heap sets
    the allocator's thresholds so that the memory each step frees is
    reused by the next, not returned to the system and faulted in again.
    """
    if spec.task == "class":
        if classes is None:
            raise ValidationError("classification training needs the classes tuple")
        y = one_hot(targets, classes)
    else:
        y = np.asarray(targets, dtype=np.float64)
        if y.ndim != 2 or y.shape[1] != spec.output_dim:
            raise ValidationError(
                f"targets must be (n, {spec.output_dim}) for this spec, got {y.shape}")
    settle_heap()
    init_ss, loop_ss = np.random.SeedSequence(config.seed).spawn(2)
    params = init_parameters(spec, init_ss)
    dtype = params.dtype
    x = _as_tensor(spec, features, dtype)
    y = y.astype(dtype)
    x_valid, y_valid = x[split.valid], y[split.valid]
    n_train = len(split.train)
    if n_train < 1 or len(x_valid) < 1:
        raise ValidationError("empty train or valid split")

    rng = np.random.default_rng(loop_ss)
    state = init_adam(params)
    loss_fn, grad_fn = ((cross_entropy, cross_entropy_grad) if spec.task == "class"
                        else (mse, mse_grad))
    history = TrainHistory()
    if spec.task == "class":
        history.train_acc, history.valid_acc = [], []

    best_loss = math.inf
    best_params = params.copy()
    grads = None   # each step's backward writes into the last step's vector
    pat_best = math.inf
    wait = 0

    for epoch in range(1, config.max_epochs + 1):
        perm = rng.permutation(n_train)
        run_loss = 0.0
        correct = 0
        for bi, start in enumerate(range(0, n_train, config.batch_size)):
            rows = split.train[perm[start:start + config.batch_size]]
            xb, yb = x[rows], y[rows]
            out, cache = network_forward(spec, params, xb, mode="train", rng=rng)
            penalty = l2_penalty(spec, params)
            batch_loss = loss_fn(out, yb) + penalty
            if not math.isfinite(batch_loss):
                raise NumericError("non-finite training loss", epoch=epoch, batch=bi)
            grads = network_backward(spec, params, cache, grad_fn(out, yb), grads)
            if config.clip_norm is not None:
                clip_gradients(grads, config.clip_norm)
            adam_step(params, grads, state, config.learning_rate)
            run_loss += batch_loss * len(rows)
            if spec.task == "class":
                correct += int(np.sum(out.argmax(axis=1) == yb.argmax(axis=1)))
        train_loss = run_loss / n_train
        valid_out = forward_eval(spec, params, x_valid)
        valid_loss = loss_fn(valid_out, y_valid) + l2_penalty(spec, params)
        if not math.isfinite(valid_loss):
            raise NumericError("non-finite validation loss", epoch=epoch)
        history.train_loss.append(train_loss)
        history.valid_loss.append(valid_loss)
        if spec.task == "class":
            history.train_acc.append(correct / n_train)
            history.valid_acc.append(
                float(np.mean(valid_out.argmax(axis=1) == y_valid.argmax(axis=1))))
        if verbose:
            extra = (f" acc {history.valid_acc[-1]:.4f}" if spec.task == "class" else "")
            print(f"epoch {epoch}: train {train_loss:.6g} valid {valid_loss:.6g}{extra}")

        # snapshot tracker: strict minimum, independent of patience gating
        if valid_loss < best_loss:
            best_loss = valid_loss
            best_params = params.copy()
            history.best_epoch = epoch
        # patience tracker: improvement must beat min_delta
        if valid_loss < pat_best - config.min_delta:
            pat_best = valid_loss
            wait = 0
        else:
            wait += 1
            if wait >= config.patience:
                break
    history.stopped_epoch = len(history.train_loss)
    return best_params, history


# ---------------------------------------------------------------- metrics


@dataclass
class ClassificationReport:
    accuracy: float
    recalls: dict
    confusion: np.ndarray        # row-normalized, rows = true classes
    counts: np.ndarray           # raw confusion counts
    classes: tuple

    def to_json_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "recalls": {str(k): v for k, v in self.recalls.items()},
            "confusion": [[float(v) for v in row] for row in self.confusion],
            "counts": [[int(v) for v in row] for row in self.counts],
            "classes": list(self.classes),
        }


def classification_metrics(pred_labels, true_labels, classes) -> ClassificationReport:
    """Accuracy, per-class recall, and the row-normalized confusion matrix.

    Classes absent from ``true_labels`` get no recall entry (absent, not
    zero) and a zero confusion row.
    """
    classes = tuple(classes)
    pred = np.asarray(pred_labels)
    true = np.asarray(true_labels)
    if pred.shape != true.shape:
        raise ValidationError("prediction/label shape mismatch")
    k = len(classes)
    index = {c: i for i, c in enumerate(classes)}
    counts = np.zeros((k, k), dtype=np.int64)
    for t, p in zip(true, pred):
        counts[index[int(t)], index[int(p)]] += 1
    row_sums = counts.sum(axis=1)
    confusion = np.zeros((k, k), dtype=np.float64)
    recalls = {}
    for i, c in enumerate(classes):
        if row_sums[i] > 0:
            confusion[i] = counts[i] / row_sums[i]
            recalls[c] = float(counts[i, i] / row_sums[i])
    accuracy = float(np.trace(counts) / max(1, counts.sum()))
    return ClassificationReport(accuracy, recalls, confusion, counts, classes)


@dataclass
class RegressionReport:
    r2: float
    rmse: float
    per_param_r2: list
    per_param_rmse: list

    def to_json_dict(self) -> dict:
        return {"r2": self.r2, "rmse": self.rmse,
                "per_param_r2": self.per_param_r2,
                "per_param_rmse": self.per_param_rmse}


def regression_metrics(preds: np.ndarray, targets: np.ndarray) -> RegressionReport:
    """Vector-norm R^2 and RMSE, aggregate and per parameter.

    RMSE = sqrt(mean_n ||pred_n - target_n||^2);
    R^2 = 1 - sum ||pred - target||^2 / sum ||target - mean||^2.
    A constant target column has no defined per-parameter R^2 (None).
    """
    preds = np.asarray(preds, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if preds.shape != targets.shape or preds.ndim != 2:
        raise ValidationError("preds and targets must be matching (n, p) matrices")
    err = preds - targets
    sq = np.sum(err * err, axis=0)
    center = targets - targets.mean(axis=0)
    tot = np.sum(center * center, axis=0)
    rmse = float(np.sqrt(np.sum(sq) / len(preds)))
    r2 = 1.0 - float(np.sum(sq)) / float(np.sum(tot)) if np.sum(tot) > 0 else None
    per_r2 = [1.0 - float(s) / float(t) if t > 0 else None for s, t in zip(sq, tot)]
    per_rmse = [float(np.sqrt(s / len(preds))) for s in sq]
    return RegressionReport(r2, rmse, per_r2, per_rmse)


# ---------------------------------------------------------------- gradcheck


@dataclass
class GradCheckEntry:
    layer: int
    name: str
    max_rel_error: float


@dataclass
class GradCheckReport:
    max_rel_error: float
    entries: list
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance

    def to_json_dict(self) -> dict:
        """The verdict as JSON; a NaN error (from a NaN gradient) is null."""
        error = None if math.isnan(self.max_rel_error) else self.max_rel_error
        return {"max_rel_error": error, "passed": self.passed,
                "tolerance": self.tolerance}


def _gradcheck_spec() -> NetworkSpec:
    # tiny composition touching every layer kind
    from .nncore import Attention, Bottleneck, Conv, Dense, Flatten, Output
    return NetworkSpec(8, 2, (
        Conv(4, 3, 1), Conv(4, 4, 2), Attention(mix_kernel=3, reduction=2),
        Bottleneck(3), Flatten(),
        Dense(6, dropout=0.4, l2=1e-3), Dense(5, layernorm=False), Output(3, "linear"),
    ), "reg")


def _gradcheck_class_spec() -> NetworkSpec:
    from .nncore import Conv, Dense, Flatten, Output
    return NetworkSpec(8, 2, (
        Conv(4, 5, 2), Flatten(), Dense(6, dropout=0.2), Output(3, "softmax"),
    ), "class")


def grad_check(spec: NetworkSpec | None = None, seed: int = 0, h: float = 1e-6,
               tolerance: float = 1e-4, batch: int = 3) -> GradCheckReport:
    """Compare backprop gradients against central differences at double
    precision, exhaustively over every parameter entry.

    Dropout masks are frozen by reseeding the mask rng identically for
    every loss evaluation, so the perturbed losses stay differentiable.
    """
    if not 0.0 < tolerance < math.inf:
        raise ValidationError(f"gradient check tolerance must be finite and > 0, "
                              f"got {tolerance!r}")
    if spec is None:
        spec = _gradcheck_spec()
    rng = np.random.default_rng(seed)
    params = init_parameters(spec, seed, dtype=np.float64)
    x = rng.standard_normal((batch, spec.input_t, spec.input_c))
    if spec.task == "class":
        labels = rng.integers(0, spec.output_dim, size=batch)
        y = np.zeros((batch, spec.output_dim))
        y[np.arange(batch), labels] = 1.0
        loss_fn, grad_fn = cross_entropy, cross_entropy_grad
    else:
        y = rng.standard_normal((batch, spec.output_dim))
        loss_fn, grad_fn = mse, mse_grad
    mask_seed = seed + 1

    def loss_value() -> float:
        out, _ = network_forward(spec, params, x, mode="train",
                                 rng=np.random.default_rng(mask_seed))
        return loss_fn(out, y) + l2_penalty(spec, params)

    out, cache = network_forward(spec, params, x, mode="train",
                                 rng=np.random.default_rng(mask_seed))
    grads = network_backward(spec, params, cache, grad_fn(out, y))

    # a NaN gradient gives a NaN error here, and the array max keeps it
    errors = grads.zeros_like()
    flat, gflat = params.vector, grads.vector
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + h
        fp = loss_value()
        flat[i] = old - h
        fm = loss_value()
        flat[i] = old
        num = (fp - fm) / (2.0 * h)
        errors.vector[i] = abs(gflat[i] - num) / max(abs(gflat[i]), abs(num), 1e-8)
    entries = [GradCheckEntry(li, name, float(arr.max())) for li, name, arr in errors.arrays()]
    return GradCheckReport(float(errors.vector.max()), entries, tolerance)


def grad_check_all(seed: int = 0, h: float = 1e-6,
                   tolerance: float = 1e-4) -> dict:
    """Both stock checks: the regression composition touching every layer
    kind, and a softmax classification head."""
    return {
        "regression": grad_check(seed=seed, h=h, tolerance=tolerance),
        "classification": grad_check(_gradcheck_class_spec(), seed=seed, h=h,
                                     tolerance=tolerance),
    }
