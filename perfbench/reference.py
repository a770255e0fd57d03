"""Independent float64 reference for generated rows.

The curve formulas follow the BoundaryShape docstring and the quadrature
follows the dataio module docstring; neither calls the package's own
curve or surrogate code, so a fast but wrong surrogate is caught here
rather than reported as a speed-up.
"""

from __future__ import annotations

import math

import numpy as np

from circscatter.geometry import shape_to_targets
from circscatter.pipeline import regenerate_shape

STAR_Q = 5
FARFIELD_RTOL = 1e-9


def _curve(shape, tau):
    """x(tau) and x'(tau) for the three families, from their definitions."""
    tag = int(shape.class_tag)
    c = np.asarray(shape.coeffs, dtype=np.float64)
    x0, y0 = (float(v) for v in shape.center)
    cos, sin = np.cos(tau), np.sin(tau)
    if tag == 2:  # kite
        a, b, g = c
        x = a * cos + b * np.cos(2 * tau) + x0
        y = g * sin + y0
        return x, y, -a * sin - 2 * b * np.sin(2 * tau), g * cos
    if tag == 1:  # peanut
        a, b = c
        rho = np.sqrt(a * cos ** 2 + b * sin ** 2)
        drho = (b - a) * sin * cos / rho
    else:  # star
        q = np.arange(1, STAR_Q + 1)[:, None]
        aq, bq = c[1:STAR_Q + 1, None], c[STAR_Q + 1:, None]
        rho = c[0] * (1 + (aq * np.cos(q * tau) + bq * np.sin(q * tau)).sum(0) / (2 * STAR_Q))
        drho = c[0] * (q * (bq * np.cos(q * tau) - aq * np.sin(q * tau))).sum(0) / (2 * STAR_Q)
    return (rho * cos + x0, rho * sin + y0,
            drho * cos - rho * sin, drho * sin + rho * cos)


def farfield_row(shape, config) -> np.ndarray:
    """The channel-major feature row of one obstacle under ``config``."""
    nb, t0 = config.t_boundary, config.t0
    tau = 2 * math.pi * np.arange(nb) / nb
    x, y, dx, dy = _curve(shape, tau)
    speed = np.sqrt(dx * dx + dy * dy)
    w = speed * (2 * math.pi / nb)
    nx, ny = dy / speed, -dx / speed
    t = 2 * math.pi * np.arange(t0) / t0
    ox, oy = np.cos(t)[:, None], np.sin(t)[:, None]
    lam = float(shape.impedance)
    channels = []
    for phi in config.phis:
        arg = config.kappa0 * ((math.cos(phi) - ox) * x + (math.sin(phi) - oy) * y)
        re, im = np.cos(arg) * w, np.sin(arg) * w
        e_scale = math.sin(config.theta) / math.sqrt(config.eps0) / (1 + lam)
        h_scale = lam / (1 + lam)
        ndot = ox * nx + oy * ny
        e = e_scale * (re.sum(1) + 1j * im.sum(1))
        h = h_scale * ((re * ndot).sum(1) + 1j * (im * ndot).sum(1))
        channels += [e.real, e.imag]
        if config.c0 > 2:
            channels += [h.real, h.imag]
    return np.concatenate(channels)


def farfield_rel_error(shape, config, row) -> float:
    ref = farfield_row(shape, config)
    return float(np.linalg.norm(np.asarray(row) - ref) / np.linalg.norm(ref))


def check_rows(ds, config, indices) -> tuple[int, int, list]:
    """Regenerate each sampled row's obstacle and compare the stored row
    with the reference far field, and its target with the obstacle.
    Returns (attempted, failed, regenerated shapes)."""
    attempted = failed = 0
    shapes = []
    for i in indices:
        shape = regenerate_shape(ds, int(i))
        shapes.append(shape)
        attempted += 2
        if not farfield_rel_error(shape, config, ds.features[i]) <= FARFIELD_RTOL:
            failed += 1
        if ds.task == "class":
            ok = int(ds.targets[i]) == int(shape.class_tag)
        else:
            want = shape_to_targets(shape, include_impedance=ds.fixed_impedance is None)
            ok = np.array_equal(ds.targets[i], want)
        failed += not ok
    return attempted, failed, shapes
