"""The three benchmark workloads, their timed rounds and their checks.

A run repeats rounds for ``seconds``.  Round r of seed s generates its
rows from (s, r), so a seed always gives the same inputs and no round
repeats another's rows; invert-superset's registry and query set are
made once, in round 0.  Each round drives the package through its
public functions in the order the CLI uses them, and its outputs are
checked.  After every round the run times a fixed yardstick task that
does not call the package; each figure of a round is taken relative to
it (see end_to_end).  With a tracer, a round records a span around each
of its own calls into the package (the spans inside those calls come
from probes.py).
"""

from __future__ import annotations

import math
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from circscatter import dataio, geometry, pipeline, training
from circscatter.nncore import init_parameters, l2_penalty, network_forward, preset_spec

import reference

# One-row answers agree with the batched pass when the class matches and
# every regressed value is within this share of its size plus its
# target-scaler std.  Batch 1 and batch n add the float32 products of a
# dot product of up to 3968 terms in different orders; rounding bounds the
# difference by 3968 * 2**-23 = 5e-4 and makes it about sqrt(3968) * 2**-23
# = 8e-6 on average.  The largest seen is 4e-6.
VALUE_RTOL = 1e-4
# Top-two class probabilities closer than this are a tie, and either class
# is then an acceptable answer.
PROB_TIE = 1e-5
# Best validation loss recomputed from the returned parameters, float32.
LOSS_RTOL = 1e-6
IMPORT_REPS = 11
# Yardstick runs between rounds; a round's machine speed is the median of
# those just before and just after it.
YARDSTICK_REPS = 12
# The yardstick's median time on the machine the benchmark was written on
# (see README); figures are reported at that speed.
YARDSTICK_REF_S = 5.0e-3
# When the yardstick takes k times as long, the package's phases take
# about k ** YARDSTICK_EXPONENT times as long: the slope of log phase time
# on log yardstick time within runs was 0.15 to 0.67 (see README), since
# the interpreter-heavy yardstick suffers more from a busy neighbour than
# BLAS-heavy phases do.
YARDSTICK_EXPONENT = 0.5
# warm-ups (desk-t32, wide-t128) or registry builds (invert-superset)
# timed for setup_s
WARMUP_REPS = 3


@dataclass(frozen=True)
class TrainWorkload:
    """generate -> train -> evaluate on one suite, then one one-row query
    per row."""

    name: str
    suite: str
    rows: int        # rows generated per round
    epochs: int      # fixed epoch budget per round
    checked: int = 6  # rows checked against the reference


@dataclass(frozen=True)
class InvertWorkload:
    """generate_superset -> one-row infer loop -> batched two-stage pass,
    both over a query set the classifier routes evenly."""

    name: str
    rows: int        # rows generated per round
    pool: int        # rows the query set is drawn from, in round 0
    per_class: int   # query rows routed to each regressor
    checked_per_family: int = 4


WORKLOADS = {
    "desk-t32": TrainWorkload("desk-t32", "classification", rows=640, epochs=6),
    "wide-t128": TrainWorkload("wide-t128", "star_variable", rows=160, epochs=3),
    "invert-superset": InvertWorkload("invert-superset", rows=240, pool=900, per_class=50),
}

# (registry name, preset, class tag, init seed) of the invert-superset registry
REGISTRY_MODELS = (("classifier", "ap1", None, 0), ("peanut", "ap2", 1, 10),
                   ("kite", "ap4", 2, 20), ("star", "ap7", 3, 30))


class Tally:
    """Operations and checks attempted, and how many failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def add(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


def _span(tracer, name, request=None):
    return nullcontext() if tracer is None else tracer.span(name, request)


def round_seed(seed: int, r: int) -> int:
    return int(np.random.SeedSequence([seed, r]).generate_state(1)[0])


def _check_sample(n: int, k: int, seed: int) -> np.ndarray:
    return np.sort(np.random.default_rng(seed).choice(n, size=min(k, n), replace=False))


def _values_agree(a, b, scale) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(
        np.all(np.abs(a - b) <= VALUE_RTOL * (np.abs(b) + np.asarray(scale))))


def _class_agrees(tag, probs_row, classes) -> bool:
    if int(tag) == int(classes[int(np.argmax(probs_row))]):
        return True
    top2 = np.sort(probs_row)[-2:]
    return bool(top2[1] - top2[0] < PROB_TIE)


# ---------------------------------------------------------------- desk / wide


def train_round(wl: TrainWorkload, seed: int, r: int, workdir: Path, tally: Tally,
                state: dict, tracer=None) -> dict:
    s = pipeline.suite_spec(wl.suite)
    cfg = s.config()
    spec = preset_spec(s.preset)
    gseed = round_seed(seed, r)
    imp = "variable" if s.fixed_impedance is None else s.fixed_impedance
    path = workdir / f"{wl.suite}.csc"
    times = {}

    # generate: dataio.generate_dataset + binary write_dataset
    t = time.perf_counter()
    with _span(tracer, "bench.generate"):
        with _span(tracer, "dataio.generate_dataset"):
            ds = dataio.generate_dataset(s.class_tags, wl.rows, cfg, gseed, impedance=imp)
        with _span(tracer, "dataio.write_dataset"):
            dataio.write_dataset(path, ds, binary=True)
    times["generate"] = time.perf_counter() - t
    tally.add(*reference.check_rows(ds, cfg, _check_sample(wl.rows, wl.checked, gseed))[:2])

    # train: read_dataset + Standardizer + training.train + TrainedModel.save
    t = time.perf_counter()
    with _span(tracer, "bench.train"):
        with _span(tracer, "dataio.read_dataset"):
            ds = dataio.read_dataset(path)
        split = dataio.split_dataset(len(ds), gseed)
        feature_scaler = dataio.Standardizer.fit(ds.features[split.train])
        x = feature_scaler.apply(ds.features)
        if ds.task == "class":
            target_scaler, y, classes = None, ds.targets, ds.classes
        else:
            target_scaler = dataio.Standardizer.fit(ds.targets[split.train])
            y, classes = target_scaler.apply(ds.targets), None
        config = training.preset_train_config(s.preset, seed=gseed, max_epochs=wl.epochs)
        with _span(tracer, "training.train"):
            params, history = training.train(spec, x, y, split, config, classes=classes)
        model = pipeline.TrainedModel(
            spec, params, feature_scaler, target_scaler, preset=s.preset, seed=gseed,
            classes=ds.classes if ds.task == "class" else None,
            class_tag=None if ds.task == "class" else int(ds.classes[0]),
            fixed_impedance=ds.fixed_impedance)
        with _span(tracer, "pipeline.TrainedModel.save"):
            model.save(workdir, s.registry_name)
    times["train"] = time.perf_counter() - t
    tally.check(all(map(math.isfinite, history.train_loss + history.valid_loss)))
    tally.check(_best_loss_reproduced(spec, params, x, y, split, classes, history))

    # evaluate: TrainedModel.load + read_dataset + pipeline.evaluate_model
    t = time.perf_counter()
    with _span(tracer, "bench.evaluate"):
        with _span(tracer, "pipeline.TrainedModel.load"):
            loaded = pipeline.TrainedModel.load(workdir, s.registry_name)
        with _span(tracer, "dataio.read_dataset"):
            ds = dataio.read_dataset(path)
        with _span(tracer, "pipeline.evaluate_model"):
            report = pipeline.evaluate_model(loaded, ds)
    times["evaluate"] = time.perf_counter() - t
    # the in-memory model's batched answers serve both the evaluation and
    # the query checks
    if ds.task == "class":
        probs = model.predict_probs(ds.features)
        mine = training.classification_metrics(
            np.asarray(model.classes)[np.argmax(probs, axis=1)], ds.targets, model.classes)
    else:
        batched = model.predict_params(ds.features)
        mine = training.regression_metrics(batched, ds.targets)
    tally.check(report.to_json_dict() == mine.to_json_dict())

    # queries: the loaded model answers one row at a time, each row once
    answers, latencies = [], []
    predict = loaded.predict_labels if ds.task == "class" else loaded.predict_params
    t = time.perf_counter()
    with _span(tracer, "bench.query"):
        for q in range(len(ds)):
            row = ds.features[q]
            t_q = time.perf_counter()
            with _span(tracer, "pipeline.query", q):
                answers.append(predict(row)[0])
            latencies.append(time.perf_counter() - t_q)
    times["query"] = time.perf_counter() - t

    if ds.task == "class":
        for q, label in enumerate(answers):
            tally.check(_class_agrees(label, probs[q], loaded.classes))
    else:
        for q, values in enumerate(answers):
            tally.check(_values_agree(values, batched[q], loaded.target_scaler.std))
    return {"times": times, "latencies": latencies, "rows": len(ds),
            "main_rows": len(split.train) * history.stopped_epoch,
            "file_bytes": path.stat().st_size}


def _best_loss_reproduced(spec, params, x, y, split, classes, history) -> bool:
    if spec.task == "class":
        y = training.one_hot(y, classes)
        loss_fn = training.cross_entropy
    else:
        loss_fn = training.mse
    x_valid = x[split.valid]
    out = training.forward_eval(spec, params, x_valid)
    loss = loss_fn(out, y[split.valid].astype(out.dtype)) + l2_penalty(spec, params)
    want = history.best_valid_loss
    return math.isfinite(loss) and abs(loss - want) <= LOSS_RTOL * max(1.0, abs(want))


def train_warmup(wl: TrainWorkload) -> None:
    """Build the preset and run one batch-1 forward, as a first query would."""
    spec = preset_spec(pipeline.suite_spec(wl.suite).preset)
    params = init_parameters(spec, 0)
    network_forward(spec, params, np.zeros((1, spec.input_t, spec.input_c), np.float32))


# ---------------------------------------------------------------- invert


def build_registry(rows, shapes, directory: Path, tracer=None):
    """Classifier plus the three regressors from seeded init_parameters,
    scalers fitted on the rows (targets on the regenerated obstacles),
    written with ModelRegistry.save and read back with ModelRegistry.load."""
    fixed = {s.preset: s.fixed_impedance for s in pipeline.SUITES.values()}
    registry = pipeline.ModelRegistry()
    for name, preset, tag, init_seed in REGISTRY_MODELS:
        spec = preset_spec(preset)
        params = init_parameters(spec, init_seed)
        scaler = dataio.Standardizer.fit(
            pipeline.derive_features(rows.features, spec.input_t, spec.input_c))
        if tag is None:
            model = pipeline.TrainedModel(spec, params, scaler, None, preset, init_seed,
                                          classes=rows.classes)
        else:
            lam = fixed[preset]
            targets = [geometry.shape_to_targets(sh, include_impedance=lam is None)
                       for sh in shapes if int(sh.class_tag) == tag]
            model = pipeline.TrainedModel(spec, params, scaler,
                                          dataio.Standardizer.fit(np.array(targets)),
                                          preset, init_seed, class_tag=tag, fixed_impedance=lam)
        registry.add(name, model)
    registry.save(directory)
    with _span(tracer, "pipeline.ModelRegistry.load"):
        loaded = pipeline.ModelRegistry.load(directory)
    pipeline.infer(loaded, rows.features[0])
    return loaded


def balanced_queries(registry, features, per_class: int) -> np.ndarray:
    """Indices of the query set: the first ``per_class`` rows that the
    classifier routes to each regressor and whose predicted obstacle is
    admissible, taken class by class in turn.  The weights are untrained,
    so the share routed to each regressor, and the share of inadmissible
    predictions (which validate_shape rejects in about half the time),
    would otherwise change with the seed, and with them the cost of a
    row."""
    # in chunks the size of the query set, so that peak memory stays that
    # of the timed batched pass
    chunk = 3 * per_class
    parts = [batched_inversion(registry, features[i:i + chunk])
             for i in range(0, len(features), chunk)]
    tags = np.concatenate([part[0] for part in parts])
    ok = np.concatenate([part[3] for part in parts])
    groups = [np.nonzero((tags == tag) & ok)[0] for tag in sorted(registry.regressors)]
    if min(len(g) for g in groups) < per_class:
        raise RuntimeError(f"fewer than {per_class} admissible rows routed to a "
                           f"regressor: {[len(g) for g in groups]}")
    return np.stack([g[:per_class] for g in groups], axis=1).ravel()


def batched_inversion(registry, features):
    """predict_probs once, predict_params once per predicted class, then
    validate_shape on every row.  Returns (tags, values, probs, whether
    each predicted obstacle is admissible)."""
    clf = registry.classifier
    probs = clf.predict_probs(pipeline.derive_features(features, clf.t0, clf.c0))
    tags = np.asarray(clf.classes)[np.argmax(probs, axis=1)]
    values = [None] * len(features)
    for tag in np.unique(tags):
        idx = np.nonzero(tags == tag)[0]
        reg = registry.regressors[int(tag)]
        out = reg.predict_params(pipeline.derive_features(features[idx], reg.t0, reg.c0))
        for j, i in enumerate(idx):
            values[i] = out[j]
    config = geometry.ScatterConfig()
    ok = np.zeros(len(features), dtype=bool)
    for i, (tag, v) in enumerate(zip(tags, values)):
        reg = registry.regressors[int(tag)]
        shape = geometry.targets_to_shape(int(tag), v, fixed_impedance=reg.fixed_impedance,
                                          check_ranges=False)
        ok[i] = geometry.validate_shape(shape, config).ok
    return tags, values, probs, ok


def invert_round(wl: InvertWorkload, seed: int, r: int, workdir: Path, tally: Tally,
                 state: dict, tracer=None) -> dict:
    """The first round also generates the pool, whose first rows are the
    round's, checks a sample of the pool in place of the round's rows,
    builds the registry WARMUP_REPS times (each build timed for setup_s)
    and picks the query set from the pool; later rounds reuse the last
    registry and the query set."""
    gseed = round_seed(seed, r)
    cfg = pipeline.superset_config()
    times = {}
    t = time.perf_counter()
    with _span(tracer, "bench.generate"):
        with _span(tracer, "pipeline.generate_superset"):
            rows = pipeline.generate_superset((1, 2, 3), wl.rows, gseed)
    times["generate"] = time.perf_counter() - t
    checked = rows
    if "registry" not in state:
        # a row depends on (seed, index) only, so this round's rows are the
        # pool's first rows
        checked = pipeline.generate_superset((1, 2, 3), wl.pool, gseed)
        tally.check(np.array_equal(rows.features, checked.features[:wl.rows]))
    rng = np.random.default_rng(gseed)
    sample = np.concatenate([
        rng.choice(np.arange(k, len(checked), 3), size=wl.checked_per_family, replace=False)
        for k in range(3)])
    attempted, failed, shapes = reference.check_rows(checked, cfg, sample)
    tally.add(attempted, failed)
    if "registry" not in state:
        pool = checked
        state["builds"] = []
        for b in range(WARMUP_REPS):
            t = time.perf_counter()
            with _span(tracer, "bench.setup"):
                registry = build_registry(pool, shapes, workdir / f"registry{b}", tracer)
            state["builds"].append(time.perf_counter() - t)
        state["registry"] = registry
        state["features"] = pool.features[balanced_queries(registry, pool.features,
                                                           wl.per_class)]
    registry, features = state["registry"], state["features"]

    answers, latencies = [], []
    t = time.perf_counter()
    with _span(tracer, "bench.infer"):
        for q, row in enumerate(features):
            t_q = time.perf_counter()
            with _span(tracer, "pipeline.infer", q):
                answers.append(pipeline.infer(registry, row))
            latencies.append(time.perf_counter() - t_q)
    times["infer"] = time.perf_counter() - t
    answers = [(sol.predicted_class, geometry.shape_to_targets(
        sol.shape, include_impedance=registry.regressors[sol.predicted_class]
        .fixed_impedance is None)) for sol in answers]

    t = time.perf_counter()
    with _span(tracer, "bench.batched"):
        tags, values, probs, _ = batched_inversion(registry, features)
    times["batched"] = time.perf_counter() - t

    for q, (tag, v) in enumerate(answers):
        ok = _class_agrees(tag, probs[q], registry.classifier.classes)
        if ok and int(tag) == int(tags[q]):
            ok = _values_agree(v, values[q], registry.regressors[int(tag)].target_scaler.std)
        tally.check(ok)
    return {"times": times, "latencies": latencies, "rows": len(features),
            "generated": wl.rows, "main_rows": len(features)}


# ---------------------------------------------------------------- runs


def import_seconds(root: Path) -> float:
    """Time to import the package CLI in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import circscatter.cli; "
            "print(time.perf_counter() - t)")
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "CIRCSCATTER_THREADS": "1"}
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return float(res.stdout.strip())


_YARD_A = np.random.default_rng(0).standard_normal((96, 96)).astype(np.float32)
_YARD_X = np.linspace(0.0, 2.0 * np.pi, 128)


def _yardstick() -> float:
    """A fixed mix of interpreter work and small numpy calls, like the
    package's own mix, that never calls the package."""
    s, d = 0.0, {}
    for i in range(3000):
        s += math.sin(i * 0.001) * (i % 7)
        d[i % 97] = s
    for _ in range(150):
        y = np.cos(_YARD_X * 1.5) * np.sin(_YARD_X) + _YARD_X
        _YARD_A @ _YARD_A
        s += float(np.abs(y).sum())
    return s


def yardstick_times() -> list:
    times = []
    for _ in range(YARDSTICK_REPS):
        t = time.perf_counter()
        _yardstick()
        times.append(time.perf_counter() - t)
    return times


def round_fn(wl):
    return train_round if isinstance(wl, TrainWorkload) else invert_round


def phase_names(wl) -> tuple[str, str, str]:
    """(generate, main, batched) phase of a workload's round."""
    if isinstance(wl, TrainWorkload):
        return "generate", "train", "evaluate"
    return "generate", "infer", "batched"


def run_rounds(wl, seed: int, seconds: float, workdir: Path, tally: Tally,
               tracer=None, warmup: int = 0) -> tuple[list, dict]:
    """Rounds of one seed: the first ``warmup`` fill caches and are
    checked but not returned; then rounds for ``seconds`` of wall time (at
    least one; exactly one with a tracer).  Each round's "yardstick" is
    the median yardstick time around it.  An exception counts as one
    failed operation and ends the run.  Returns (rounds, state), state
    holding what the first round set up."""
    rounds, state, r = [], {}, 0
    start, before = math.inf, []
    while r < warmup or not rounds or (tracer is None
                                       and time.perf_counter() - start < seconds):
        if r == warmup:
            start = time.perf_counter()
        rdir = workdir / f"round{r}"
        rdir.mkdir(parents=True, exist_ok=True)
        try:
            res = round_fn(wl)(wl, seed, r, rdir, tally, state, tracer)
        except Exception:
            traceback.print_exc()
            tally.check(False)
            break
        finally:
            shutil.rmtree(rdir, ignore_errors=True)
        r += 1
        after = yardstick_times()
        if r > warmup:
            res["yardstick"] = float(np.median(before + after))
            rounds.append(res)
        before = after
    return rounds, state


def end_to_end(wl, rounds: list, setup_s: float) -> dict:
    """Every round does the same amount of work (rows, epochs, queries),
    so its figures differ mostly by how fast the machine ran it.  Other
    tenants of this kind of shared machine slow it by 1.5x and more, in
    bursts of milliseconds and in phases lasting minutes, and a whole
    30-second run can fall in one phase.  The yardstick timed around a
    round slows with it, so each round's figure is scaled by
    (YARDSTICK_REF_S / yardstick) ** YARDSTICK_EXPONENT, to what it would
    read at the reference speed, and the run reports the median over its
    rounds.  A change to the package moves the figures; a change of the
    machine's speed mostly does not."""
    gen, main, batched = phase_names(wl)
    first = rounds[0]
    speed = np.array([YARDSTICK_REF_S / r["yardstick"] for r in rounds]) ** YARDSTICK_EXPONENT

    def rate(rows, phase):
        seconds = np.array([r["times"][phase] for r in rounds]) * speed
        return float(rows / np.median(seconds)), "1/s"

    def latency_ms(q):
        seconds = np.array([np.percentile(r["latencies"], q) for r in rounds]) * speed
        return float(np.median(seconds)) * 1e3, "ms"

    return {
        "setup_s": (setup_s, "s"),
        "generate_rows_per_s": rate(first.get("generated", first["rows"]), gen),
        "main_rows_per_s": rate(first["main_rows"], main),
        "batched_rows_per_s": rate(first["rows"], batched),
        "query_ms_p50": latency_ms(50),
        "query_ms_p90": latency_ms(90),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def run_untraced(wl, seed: int, seconds: float, root: Path, workdir: Path, tally: Tally):
    """One measured run: set-up repetitions, then timed rounds.
    Returns (metrics, rounds)."""
    imports = [import_seconds(root) for _ in range(IMPORT_REPS)]
    warm = []
    if isinstance(wl, TrainWorkload):
        for _ in range(WARMUP_REPS):
            t = time.perf_counter()
            train_warmup(wl)
            warm.append(time.perf_counter() - t)
    rounds, state = run_rounds(wl, seed, seconds, workdir, tally, warmup=1)
    if not rounds:
        return {}, rounds
    setup_s = float(np.median(imports) + np.median(state.get("builds", warm)))
    return end_to_end(wl, rounds, setup_s), rounds
