"""Slow, plain reference implementations the geometry, generation,
layer and network tests check the library against."""

import math

import numpy as np

from circscatter import geometry
from circscatter.geometry import ShapeClass, boundary_grid, eval_curve
from circscatter.nncore.layers import pad_lengths


def reference_polygon_is_simple(points):
    """Whether the closed polyline through ``points`` has no proper
    self-crossing, from the (T, T, 2) planes of every edge pair's
    orientation signs.  Pairs of edges sharing a vertex are masked out;
    the signs are strict, so exact collinear touching is not flagged."""
    points = np.asarray(points, dtype=np.float64)
    t = len(points)
    e = np.roll(points, -1, axis=0) - points
    diff = points[None, :, :] - points[:, None, :]
    d1 = e[:, None, 0] * diff[..., 1] - e[:, None, 1] * diff[..., 0]
    b_diff = diff + e[None, :, :]
    d2 = e[:, None, 0] * b_diff[..., 1] - e[:, None, 1] * b_diff[..., 0]
    crossing = (d1 * d2 < 0.0) & (d1.T * d2.T < 0.0)
    idx = np.arange(t)
    gap = (idx[None, :] - idx[:, None]) % t
    crossing &= (gap != 0) & (gap != 1) & (gap != t - 1)
    return not bool(np.any(crossing))


def circular_pad(x, kernel_size):
    """Wrap a (B, T, C) tensor to length T + K - 1 along axis 1: padded
    row j holds X[(j - P_left) mod T], which also covers K > T by wrapping
    more than once.  The input whose K-row windows a circular conv reads,
    and whose rows circular_pad_backward folds back."""
    t = x.shape[1]
    left, right = pad_lengths(kernel_size)
    return x[:, np.arange(-left, t + right) % t]


def reference_validate_shape(shape, config):
    """validate_shape with the crossing test run for every family in
    place of the closed-form rules."""
    tau = boundary_grid(config.t_boundary)
    min_radial = None
    if shape.class_tag in (ShapeClass.PEANUT, ShapeClass.STAR):
        rho, _ = geometry._radial_profile(shape.class_tag, shape.coeffs, tau)
        min_radial = float(np.min(rho))
        if min_radial <= geometry.MIN_RADIAL:
            return geometry.ShapeDiagnostics(
                False, "radial profile too small", min_radial, math.nan, False)
    points, _ = eval_curve(shape, tau, allow_degenerate=True)
    max_norm = float(np.max(np.hypot(points[:, 0], points[:, 1])))
    if max_norm >= geometry.MAX_POINT_NORM:
        return geometry.ShapeDiagnostics(
            False, "boundary too close to outer circle", min_radial, max_norm, True)
    if not reference_polygon_is_simple(points):
        return geometry.ShapeDiagnostics(
            False, "boundary self-intersects", min_radial, max_norm, False)
    return geometry.ShapeDiagnostics(True, None, min_radial, max_norm, True)


def reference_eval_forward(spec, params, x):
    """An eval-mode network pass over the whole batch at once, layer by
    layer, each layer's cache dropped once it has run: the pass that
    network_forward streams in blocks from 2 * EVAL_BLOCK rows on."""
    h = x
    for layer, group, memo in zip(spec.layers, params.layers, params.memos):
        h = layer.forward(group, h, None, False, memo)[0]
    return h
