"""The traced run: per-layer figures from spans around calls into each module.

For every workload, in a fixed order, it runs one round three times:
to fill caches, untraced, and traced with the probes of probes.py
installed, so the spans come from the package's own generate_dataset,
train and infer.  Tracing overhead is the traced phase time over the
untraced one, summed over the workloads.  It then profiles the nncore
layers of the presets the workloads run.  The figures do not depend on
the workload named on the command line.
"""

from __future__ import annotations

import numpy as np

import layerprof
import probes
import workloads as W
from tracing import LAYERS, Tracer

# (preset, batch, with backward): ap1 and ap10 at their training batch
# (desk-t32, wide-t128), ap1 and ap7 forward at batch 1 (invert-superset)
PROFILES = (("ap1", 64, True), ("ap10", 128, True), ("ap1", 1, False), ("ap7", 1, False))

# training.<preset>.<metric> -> span name among a training step's parts
STEP_PARTS = {
    "batch_gather_ms": "batch_gather",
    "forward_ms": "nncore.network_forward",
    "backward_ms": "nncore.network_backward",
    "loss_ms": "training.loss",
    "clip_ms": "training.clip_gradients",
    "adam_ms": "training.adam_step",
}
TRAINED = (("ap1", "desk-t32"), ("ap10", "wide-t128"))


def _ms(tracer, name, under):
    d = tracer.durations(name, under)
    if not d:
        raise ValueError(f"no {name!r} spans under {under!r}")
    return float(np.median(d)) * 1e3, "ms"


def training_steps(tracer: Tracer, under: str) -> list[dict]:
    """Seconds by span name of every step of every training.train under
    ``under``.  A step runs from its network_forward through its
    adam_step.  Its batch_gather is the time between the end of the
    previous probed call of train (or the start of train) and the step's
    forward: the batch gather plus the loop's own bookkeeping, which the
    probes cannot separate."""
    steps = []
    for i in tracer.indices("training.train", under):
        prev_end, step = tracer.spans[i][1], None
        for k in tracer.children(i):
            name, start, end = tracer.spans[k][:3]
            if name == "nncore.network_forward":
                step = {"batch_gather": start - prev_end}
                steps.append(step)
            if step is not None:
                step[name] = step.get(name, 0.0) + (end - start)
            if name == "training.adam_step":
                step = None
            prev_end = end
    return steps


def layer_metrics(tracer: Tracer, rounds: dict) -> dict:
    m = {}
    desk, wide, inv = "bench.desk-t32", "bench.wide-t128", "bench.invert-superset"
    drawn = (desk, "geometry.sample_shape")
    m["geometry.validate_shape_ms"] = _ms(tracer, "geometry.validate_shape", drawn)
    m["geometry.eval_curve_ms"] = _ms(tracer, "geometry.eval_curve", (desk, "bench.generate"))
    for key, under in (("geometry.candidates_per_shape", desk),
                       ("geometry.star_candidates_per_shape", wide)):
        shapes = len(tracer.indices("geometry.sample_shape", under))
        candidates = len(tracer.indices("geometry.draw_shape_candidate",
                                        (under, "geometry.sample_shape")))
        m[key] = (candidates / shapes, "ratio")
    m["geometry.validate_predicted_ms"] = _ms(tracer, "geometry.validate_shape",
                                              (inv, "pipeline.infer"))
    m["dataio.surrogate_farfield_ms"] = _ms(tracer, "dataio.surrogate_farfield",
                                            (wide, "bench.generate"))
    m["dataio.assemble_channels_ms"] = _ms(tracer, "dataio.assemble_channels",
                                           (wide, "bench.generate"))
    m["dataio.write_ms"] = _ms(tracer, "dataio.write_dataset", wide)
    m["dataio.read_ms"] = _ms(tracer, "dataio.read_dataset", wide)
    m["dataio.file_mb"] = (rounds["wide-t128"]["file_bytes"] / 2 ** 20, "MB")
    for preset, wl in TRAINED:
        under = (f"bench.{wl}", "training.train")
        steps = training_steps(tracer, f"bench.{wl}")
        for key, part in STEP_PARTS.items():
            m[f"training.{preset}.{key}"] = (
                float(np.median([s.get(part, 0.0) for s in steps])) * 1e3, "ms")
        m[f"training.{preset}.valid_forward_ms"] = _ms(tracer, "training.forward_eval", under)
        m[f"training.{preset}.snapshot_ms"] = _ms(tracer, "nncore.Parameters.copy", under)
    infer = (inv, "pipeline.infer")
    m["pipeline.derive_features_ms"] = _ms(tracer, "pipeline.derive_features", infer)
    m["pipeline.classify_ms"] = _ms(tracer, "pipeline.classify", infer)
    for route in probes.ROUTE.values():
        m[f"pipeline.regress_ms.{route}"] = _ms(tracer, f"pipeline.regress.{route}", infer)
        m[f"pipeline.routed.{route}"] = (
            len(tracer.indices(f"pipeline.regress.{route}", infer)), "count")
    m["pipeline.registry_load_ms"] = _ms(tracer, "pipeline.ModelRegistry.load", inv)
    for preset, batch, backward in PROFILES:
        m.update(layerprof.profile(tracer, preset, batch, backward)[1])
    m["machine.sgemm_gflops"] = (layerprof.sgemm_gflops(), "GFLOP/s")
    return m


def _one_round(wl, seed, workdir, tally, tracer=None) -> dict:
    got, _ = W.run_rounds(wl, seed, 0.0, workdir, tally, tracer)
    if not got:
        raise RuntimeError(f"round of {wl.name} failed")
    return got[0]


def traced_run(seed: int, workdir, tally: W.Tally, workloads=None):
    """Returns (per-layer metrics, tracer, self-time summary by workload)."""
    workloads = workloads or W.WORKLOADS
    tracer = Tracer(f"traced:{seed}")
    rounds, untraced, self_times = {}, {}, {}
    for name, wl in workloads.items():
        # the same round three times: to fill caches, untraced, traced
        for _ in range(2):
            untraced[name] = _one_round(wl, seed, workdir / f"untraced-{name}", tally)
        with probes.installed(tracer), tracer.span(f"bench.{name}"):
            rounds[name] = _one_round(wl, seed, workdir / name, tally, tracer)
        self_times[name] = tracer.self_seconds(f"bench.{name}")

    m = layer_metrics(tracer, rounds)
    for i, label in enumerate(("generate", "main", "batched")):
        with_spans = without = 0.0
        for name, wl in workloads.items():
            phase = W.phase_names(wl)[i]
            with_spans += rounds[name]["times"][phase]
            without += untraced[name]["times"][phase]
        m[f"trace.{label}_overhead_frac"] = (with_spans / without - 1.0, "ratio")
    return m, tracer, self_times


def format_self_times(self_times: dict) -> list[str]:
    lines = ["self time per layer (s): " + " ".join(f"{k:>9}" for k in LAYERS + ("bench",))]
    for wl, per in self_times.items():
        lines.append(f"  {wl:<22}" + " ".join(f"{per.get(k, 0.0):9.3f}"
                                              for k in LAYERS + ("bench",)))
    return lines
