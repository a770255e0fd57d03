"""Span-recording wrappers around the functions the package calls inside itself.

A traced round runs the package's own code: dataio.generate_dataset,
training.train and pipeline.infer, called exactly as in an untraced
round.  While ``installed(tracer)`` is active, the module and class
attributes those functions look up at call time are replaced by wrappers
that record a span around the original call; on exit the originals are
put back.  The package's files are not modified, and a change to the
package's loops shows in the spans because the loops themselves run.

A span's name is <layer>.<function>, the layer being the module the
called code lives in.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager

from circscatter import dataio, geometry, pipeline, training
from circscatter.nncore import Parameters

ROUTE = {1: "peanut", 2: "kite", 3: "star"}


def _regress_name(model, *args, **kwargs):
    return f"pipeline.regress.{ROUTE[int(model.class_tag)]}"


# (owner, attribute, span name, or a function of the call's arguments
# that returns it).  Owners are the namespaces the callers look the name
# up in: dataio imports sample_shape and eval_curve from geometry,
# pipeline imports validate_shape, training imports the nncore passes.
PROBES = (
    (dataio, "sample_shape", "geometry.sample_shape"),
    (geometry, "draw_shape_candidate", "geometry.draw_shape_candidate"),
    (geometry, "validate_shape", "geometry.validate_shape"),
    (pipeline, "validate_shape", "geometry.validate_shape"),
    (geometry, "eval_curve", "geometry.eval_curve"),
    (dataio, "eval_curve", "geometry.eval_curve"),
    (dataio, "surrogate_farfield", "dataio.surrogate_farfield"),
    (dataio, "assemble_channels", "dataio.assemble_channels"),
    (training, "init_parameters", "nncore.init_parameters"),
    (training, "network_forward", "nncore.network_forward"),
    (training, "network_backward", "nncore.network_backward"),
    (Parameters, "copy", "nncore.Parameters.copy"),
    (training, "l2_penalty", "training.loss"),
    (training, "cross_entropy", "training.loss"),
    (training, "cross_entropy_grad", "training.loss"),
    (training, "mse", "training.loss"),
    (training, "mse_grad", "training.loss"),
    (training, "clip_gradients", "training.clip_gradients"),
    (training, "init_adam", "training.init_adam"),
    (training, "adam_step", "training.adam_step"),
    (training, "forward_eval", "training.forward_eval"),
    (pipeline, "derive_features", "pipeline.derive_features"),
    (pipeline.TrainedModel, "predict_probs", "pipeline.classify"),
    (pipeline.TrainedModel, "predict_params", _regress_name),
)


def _wrap(tracer, fn, name):
    @functools.wraps(fn)
    def probe(*args, **kwargs):
        label = name(*args, **kwargs) if callable(name) else name
        with tracer.span(label):
            return fn(*args, **kwargs)
    return probe


@contextmanager
def installed(tracer):
    """Every probe records into ``tracer`` until the block ends."""
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in PROBES]
    try:
        for owner, attr, name in PROBES:
            setattr(owner, attr, _wrap(tracer, vars(owner)[attr], name))
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
