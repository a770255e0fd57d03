"""Boundary geometry for doubly-connected scatterer cross sections.

Three parametric families of closed curves are supported, tagged by
integer class labels: peanut (1), kite (2), and star (3).  Admissible
curves lie strictly inside the disk of radius ``MAX_POINT_NORM``
centered at the origin and are sampled on the uniform grid
tau_k = 2*pi*k/T.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .errors import DegenerateShapeError, SamplingStuckError, ValidationError

STAR_Q = 5  # number of cosine/sine harmonics in the star family

# sampling ranges for the random families
PEANUT_AXIS_RANGE = (0.02, 0.20)
KITE_ALPHA_RANGE = (0.15, 0.35)
KITE_BETA_RANGE = (0.05, 0.15)
KITE_GAMMA_RANGE = (0.15, 0.35)
STAR_BASE_RANGE = (0.10, 0.40)
STAR_HARMONIC_RANGE = (-1.0, 1.0)
CENTER_RANGE = (-0.2, 0.2)
IMPEDANCE_RANGE = (0.1, 10.0)

MIN_RADIAL = 0.02     # validation floor on rho(tau) for radial families
MAX_POINT_NORM = 0.75  # boundary must stay strictly inside this radius
MAX_REJECTIONS = 1000  # consecutive rejected candidates before giving up
# validate_shape admits a kite on a T-node grid only with |alpha| and |gamma|
# above T * KITE_FLOOR_PER_NODE, where it is simple in closed form
KITE_FLOOR_PER_NODE = 2.0 ** -20


class ShapeClass(IntEnum):
    PEANUT = 1
    KITE = 2
    STAR = 3


# each class's sampling range per coefficient, in coefficient order
COEFF_RANGES = {
    ShapeClass.PEANUT: (PEANUT_AXIS_RANGE,) * 2,
    ShapeClass.KITE: (KITE_ALPHA_RANGE, KITE_BETA_RANGE, KITE_GAMMA_RANGE),
    ShapeClass.STAR: (STAR_BASE_RANGE,) + (STAR_HARMONIC_RANGE,) * (2 * STAR_Q),
}
N_COEFFS = {tag: len(ranges) for tag, ranges in COEFF_RANGES.items()}


def _sampling_box(tag: ShapeClass):
    """(low, high, high - low) over a shape's full target vector
    (coeffs..., x0, y0, impedance)."""
    ranges = COEFF_RANGES[tag] + (CENTER_RANGE, CENTER_RANGE, IMPEDANCE_RANGE)
    low, high = np.array(ranges).T
    return low, high, high - low


_SAMPLING_BOXES = {tag: _sampling_box(tag) for tag in ShapeClass}


def incidences(c0: int) -> tuple[float, ...]:
    """The incidence angles a layout of ``c0`` channels carries: both
    (0, pi) at c0 = 8, phi = 0 alone otherwise."""
    return (0.0, math.pi) if c0 == 8 else (0.0,)


@dataclass(frozen=True)
class ScatterConfig:
    """Physical constants and grid sizes for the oblique-incidence setup.

    Two fields are derived on construction: the wavenumber
    kappa0 = omega * sqrt(mu0 * eps0) * sin(theta), and the incidence
    angles ``phis = incidences(c0)``.  ``t_boundary`` is even:
    ``validate_shape`` decides a kite by pairing its mirror nodes.
    """

    omega: float = 5.0
    theta: float = math.pi / 6
    phis: tuple[float, ...] = field(init=False)
    eps0: float = 1.0
    mu0: float = 1.0
    t_boundary: int = 128
    t0: int = 32
    c0: int = 2
    kappa0: float = field(init=False)

    def __post_init__(self):
        # chained comparisons against inf refuse NaN and inf alike
        for name in ("omega", "eps0", "mu0"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValidationError(f"{name} must be finite and positive")
        if not 0.0 < self.theta < math.pi:
            raise ValidationError("theta must lie strictly between 0 and pi")
        for name in ("t_boundary", "t0", "c0"):
            if type(getattr(self, name)) is not int:
                raise ValidationError(f"{name} must be an int, got {getattr(self, name)!r}")
        if self.t_boundary < 4 or self.t_boundary % 2:
            raise ValidationError("boundary grid needs an even number of nodes, at least 4")
        if self.t0 not in (32, 128):
            raise ValidationError("t0 must be 32 or 128")
        if self.c0 not in (2, 4, 8):
            raise ValidationError("c0 must be 2, 4, or 8")
        object.__setattr__(self, "phis", incidences(self.c0))
        kappa0 = self.omega * math.sqrt(self.mu0 * self.eps0) * math.sin(self.theta)
        object.__setattr__(self, "kappa0", kappa0)


def boundary_grid(t: int) -> np.ndarray:
    """Uniform parameter grid tau_k = 2*pi*k/T, k = 0..T-1.

    Parameters
    ----------
    t : int
        Number of nodes, at least 4.

    Returns
    -------
    ndarray of shape (t,)
    """
    if t < 4:
        raise ValidationError("grid size must be at least 4")
    return 2.0 * np.pi * np.arange(t, dtype=np.float64) / t


@dataclass
class BoundaryShape:
    """One obstacle boundary: class tag, coefficients, center, impedance.

    Coefficient layout per class:

    * peanut: (alpha, beta), rho(tau) = sqrt(alpha*cos(tau)**2 + beta*sin(tau)**2)
    * kite:   (alpha, beta, gamma), x(tau) = (alpha*cos(tau) + beta*cos(2*tau),
      gamma*sin(tau)) + center
    * star:   (alpha0, alpha1..alpha5, beta1..beta5),
      rho(tau) = alpha0 * (1 + (1/(2*Q)) * sum_q alpha_q*cos(q*tau) + beta_q*sin(q*tau))

    ``check_ranges=False`` skips the sampling-range checks on center and
    impedance; raw network predictions use it so that out-of-range values
    survive untouched and can be flagged downstream.
    """

    class_tag: ShapeClass
    coeffs: np.ndarray
    center: np.ndarray
    impedance: float
    check_ranges: bool = True

    def __post_init__(self):
        self.class_tag = ShapeClass(self.class_tag)
        self.coeffs = np.asarray(self.coeffs, dtype=np.float64)
        self.center = np.asarray(self.center, dtype=np.float64)
        n = N_COEFFS[self.class_tag]
        if self.coeffs.shape != (n,):
            raise ValidationError(
                f"{self.class_tag.name.lower()} expects {n} coefficients, "
                f"got shape {self.coeffs.shape}"
            )
        if self.center.shape != (2,):
            raise ValidationError("center must be a 2-vector")
        if not np.all(np.isfinite(self.coeffs)) or not np.all(np.isfinite(self.center)):
            raise ValidationError("coefficients and center must be finite")
        if not math.isfinite(self.impedance):
            raise ValidationError("impedance must be finite")
        if self.check_ranges:
            lo, hi = CENTER_RANGE
            if np.any(self.center < lo) or np.any(self.center > hi):
                raise ValidationError("center outside sampling range")
            lo, hi = IMPEDANCE_RANGE
            if not lo <= self.impedance <= hi:
                raise ValidationError("impedance outside sampling range")


@functools.lru_cache(maxsize=8)
def _harmonic_table(tau_bytes: bytes) -> np.ndarray:
    tau = np.frombuffer(tau_bytes, dtype=np.float64)
    table = np.empty((2, STAR_Q, len(tau)))
    for q in range(1, STAR_Q + 1):
        # row by row, exactly as the inline np.cos(q * tau), so cached and
        # uncached profiles agree bit for bit
        table[0, q - 1] = np.cos(q * tau)
        table[1, q - 1] = np.sin(q * tau)
    table.setflags(write=False)
    return table


def _harmonics(tau: np.ndarray) -> np.ndarray:
    """Read-only (2, STAR_Q, m) table: cos(q*tau) and sin(q*tau) for
    q = 1..STAR_Q, cached by the exact bytes of ``tau`` (a float64 vector)."""
    return _harmonic_table(np.asarray(tau, dtype=np.float64).tobytes())


def _radial_profile(tag: ShapeClass, coeffs: np.ndarray, tau: np.ndarray):
    """rho(tau) and rho'(tau) for the radial families.  A peanut's rho is
    sqrt(max(rho**2, 0)), so it is 0 exactly where rho**2 <= 0 (and NaN
    where rho**2 is): ``rho <= 0`` flags a degenerate profile of either
    family."""
    if tag == ShapeClass.PEANUT:
        alpha, beta = coeffs
        c, s = _harmonics(tau)[:, 0]
        rho_sq = alpha * c * c + beta * s * s
        rho = np.sqrt(np.maximum(rho_sq, 0.0))
        positive = rho > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            drho = np.where(positive, (beta - alpha) * s * c / np.where(positive, rho, 1.0), 0.0)
        return rho, drho
    if tag == ShapeClass.STAR:
        cos_q, sin_q = _harmonics(tau)
        a, b = coeffs[1:STAR_Q + 1, None], coeffs[STAR_Q + 1:, None]
        q = np.arange(1.0, STAR_Q + 1)[:, None]
        # every harmonic's term at once, then each sum accumulated in q
        # order: elementwise the operations of one harmonic at a time
        terms = (a * cos_q + b * sin_q) / (2.0 * STAR_Q)
        dterms = q * (-a * sin_q + b * cos_q) / (2.0 * STAR_Q)
        acc, dacc = 1.0 + terms[0], 0.0 + dterms[0]
        for term, dterm in zip(terms[1:], dterms[1:]):
            acc += term
            dacc += dterm
        return coeffs[0] * acc, coeffs[0] * dacc
    raise ValidationError(f"{ShapeClass(tag).name.lower()} has no radial profile")


@functools.lru_cache(maxsize=1)
def _node_table(tag: int, coeffs_bytes: bytes, center_bytes: bytes, tau_bytes: bytes):
    """Read-only (rho, points, deriv) of a boundary, rho None for kites.

    Keyed by the exact bytes of the float64 coefficients, center and tau,
    so a hit holds the bits a fresh evaluation gives.  The one entry is
    the boundary last evaluated: the candidate ``sample_shape`` accepted
    is the one both incidences of its row evaluate next.
    """
    coeffs, center = np.frombuffer(coeffs_bytes), np.frombuffer(center_bytes)
    if tag == ShapeClass.KITE:
        alpha, beta, gamma = coeffs
        (c, c2), (s, s2) = _harmonic_table(tau_bytes)[:, :2]
        x = alpha * c + beta * c2 + center[0]
        y = gamma * s + center[1]
        dx = -alpha * s - 2.0 * beta * s2
        dy = gamma * c
        rho, points, deriv = None, np.stack([x, y], axis=1), np.stack([dx, dy], axis=1)
    else:
        rho, drho = _radial_profile(tag, coeffs, np.frombuffer(tau_bytes))
        rho.setflags(write=False)
        # x = rho*(cos, sin) + center and x' = drho*(cos, sin) + rho*(-sin, cos),
        # written through (2, m) views of the (m, 2) results (long inner loops)
        cs = _harmonic_table(tau_bytes)[:, 0]
        rho_cs = rho * cs
        points, deriv = np.empty((len(rho), 2)), np.empty((len(rho), 2))
        np.add(rho_cs, center[:, None], out=points.T)
        np.multiply(drho, cs, out=deriv.T)
        deriv[:, 0] -= rho_cs[1]
        deriv[:, 1] += rho_cs[0]
    points.setflags(write=False)
    deriv.setflags(write=False)
    return rho, points, deriv


def _nodes(shape: BoundaryShape, tau: np.ndarray):
    """``_node_table`` of ``shape`` on the float64 grid ``tau``."""
    return _node_table(int(shape.class_tag),
                       np.asarray(shape.coeffs, dtype=np.float64).tobytes(),
                       np.asarray(shape.center, dtype=np.float64).tobytes(), tau.tobytes())


def eval_curve(shape: BoundaryShape, tau, allow_degenerate: bool = False):
    """Evaluate boundary points and tangent derivatives.

    The nodes come from ``_nodes``, a one-entry memo keyed by the exact
    bytes of the class tag, coefficients, center and ``tau``, which
    ``validate_shape`` reads directly and so fills too: a generated row
    evaluates its boundary once, however many incidences it has.  A hit
    returns the very arrays of the first call, so they are read-only;
    copy them to write.

    Parameters
    ----------
    shape : BoundaryShape
    tau : array_like of shape (m,)
        Parameter values.
    allow_degenerate : bool
        When False (default) a non-positive radial profile raises
        DegenerateShapeError.  When True the peanut profile is clamped at
        zero and the star profile is used as computed, so a curve is
        always produced (used when drawing raw predictions).

    Returns
    -------
    points, deriv : read-only ndarray of shape (m, 2)
        x(tau) and x'(tau).
    """
    tau = np.asarray(tau, dtype=np.float64)
    if tau.ndim != 1:
        raise ValidationError("tau must be one-dimensional")
    rho, points, deriv = _nodes(shape, tau)
    if not allow_degenerate and rho is not None and np.any(rho <= 0.0):
        raise DegenerateShapeError(
            f"{shape.class_tag.name.lower()} radial profile non-positive at some tau"
        )
    return points, deriv


@dataclass(frozen=True)
class ShapeDiagnostics:
    ok: bool
    reason: str | None
    min_radial: float | None
    max_norm: float
    simple: bool


def validate_shape(shape: BoundaryShape, config: ScatterConfig) -> ShapeDiagnostics:
    """Check a shape against the admissibility rules on the boundary grid.

    Rules: radial families need min rho > MIN_RADIAL on the grid; every
    node must satisfy |x(tau)| < MAX_POINT_NORM; a kite needs |alpha| and
    |gamma| above T * KITE_FLOOR_PER_NODE.  A NaN min rho or node norm
    breaks its rule.  The polyline through the nodes of a shape that keeps
    these rules is simple, as shown below, so no crossing test runs.

    Radial families.  One that passed the first rule has nodes
    center + rho_k*(cos tau_k, sin tau_k) with every rho_k > 0 and angles
    tau_k = 2*pi*k/T strictly increasing in gaps of 2*pi/T < pi.  Edge k
    then lies in the closed sector tau_k <= arg(x - center) <= tau_{k+1}
    and, the sector being narrower than pi, misses ``center``.  Sectors of
    non-adjacent edges meet only at ``center``, so no two non-adjacent
    edges meet: the polygon is star-shaped about ``center``, hence simple.

    Kites.  T is even (``ScatterConfig`` refuses odd grids).  The height
    y = gamma*sin(tau) + y0 is the same at tau and pi - tau, so node k
    pairs with node T/2 - k at one height, and
    x_k - x_{T/2-k} = 2*alpha*cos(tau_k): beta cancels.  The nodes with
    cos tau > 0 and those with cos tau < 0 form two chains, each strictly
    monotone in y, joined at the top and the bottom (by a node at
    tau = pi/2, 3*pi/2 when 4 divides T, by a horizontal edge between a
    pair otherwise).  At every shared height the chains lie
    2*|alpha*cos(tau_k)| > 0 apart, always in the same order; between two
    consecutive heights each chain is one straight edge, so the gap is
    linear in y and stays positive.  In exact arithmetic the polygon is
    simple whenever alpha and gamma are nonzero.

    The floor covers rounding.  The norm rule has run, so every node
    coordinate is below 0.75 in magnitude, and reading the coefficients off
    node pairs gives |alpha|, |beta|, |gamma| < 1 and a center below 2.
    Each computed coordinate then lies within delta = 2**-46 (about
    1.4e-14) of the exact kite at the exact tau_k: tau_k is within 3 ulps
    of 2*pi*k/T, cos and sin within a few ulps of 1, and the products and
    sums are of terms below 2 (a float128 comparison over 20,000 kites
    found at most 1.05e-15).  With h = 2*pi/T, the closest non-adjacent
    edges of the exact polygon, next to the top and the bottom, stay at
    least |alpha*gamma|*h**2/8 apart (the smallest ratio measured was 0.57
    of |alpha*gamma|*h**2, at T = 4).  With |alpha| and |gamma| above
    T * KITE_FLOOR_PER_NODE = T * 2**-20 that clearance is at least
    pi**2 * 2**-41, about 4.5e-12: over 300 times delta, so the computed
    nodes, each within delta of the exact ones, bound a simple polygon
    too.  At or below the floor the clearance may shrink to the rounding,
    and the kite is refused as too thin for the grid.  The floor is
    1.2e-4 at T = 128, far under the sampled 0.15.

    Every family reads its nodes from ``_nodes``, the memo ``eval_curve``
    reads too: the candidate ``sample_shape`` accepts leaves its nodes
    there, and the surrogate calls of its row read them instead of
    evaluating the boundary again: one evaluation per generated row.
    """
    rho, points, _ = _nodes(shape, boundary_grid(config.t_boundary))
    min_radial = None if rho is None else float(rho.min())
    # this test and the norm test below are written negated, so a NaN
    # fails them
    if rho is not None and not min_radial > MIN_RADIAL:
        return ShapeDiagnostics(False, "radial profile too small", min_radial, math.nan, False)
    max_norm = float(np.hypot(points[:, 0], points[:, 1]).max())
    if not max_norm < MAX_POINT_NORM:
        return ShapeDiagnostics(False, "boundary too close to outer circle", min_radial, max_norm, True)
    floor = config.t_boundary * KITE_FLOOR_PER_NODE
    if rho is None and not (abs(shape.coeffs[0]) > floor and abs(shape.coeffs[2]) > floor):
        return ShapeDiagnostics(False, "kite too thin for the grid", min_radial, max_norm, False)
    return ShapeDiagnostics(True, None, min_radial, max_norm, True)


def draw_shape_candidate(class_tag, rng: np.random.Generator,
                         fixed_impedance: float | None = None) -> BoundaryShape:
    """Draw one unvalidated candidate from the class sampling ranges.

    The impedance draw is always consumed, even when ``fixed_impedance``
    overrides it, so candidate sequences match across the two modes.
    """
    tag = ShapeClass(class_tag)
    low, _, span = _SAMPLING_BOXES[tag]
    # the same arithmetic and stream as one rng.uniform(low_i, high_i)
    # call per value in target order, bit for bit, at a fraction of the cost
    values = low + span * rng.random(len(low))
    n = N_COEFFS[tag]
    impedance = float(values[n + 2] if fixed_impedance is None else fixed_impedance)
    return BoundaryShape(tag, values[:n], values[n:n + 2], impedance, check_ranges=False)


def in_sampling_ranges(shape: BoundaryShape) -> bool:
    """Whether every coefficient, the center and the impedance fall inside
    the class's sampling box."""
    low, high, _ = _SAMPLING_BOXES[shape.class_tag]
    values = shape_to_targets(shape, include_impedance=True)
    return bool(np.all((values >= low) & (values <= high)))


def sample_shape(class_tag, rng: np.random.Generator, config: ScatterConfig,
                 fixed_impedance: float | None = None) -> BoundaryShape:
    """Rejection-sample an admissible shape of the given class."""
    rejected = 0
    while True:
        cand = draw_shape_candidate(class_tag, rng, fixed_impedance)
        if validate_shape(cand, config).ok:
            return cand
        rejected += 1
        if rejected > MAX_REJECTIONS:
            raise SamplingStuckError(
                f"{ShapeClass(class_tag).name.lower()}: {rejected} consecutive rejections"
            )


def boundary_discrepancy(shape_a: BoundaryShape, shape_b: BoundaryShape, t: int) -> float:
    """Root-mean-square distance between two boundaries at matched tau nodes.

    For identical shapes translated by a vector v this equals |v|; for
    concentric circles of radii r1, r2 it equals |r1 - r2|.
    """
    tau = boundary_grid(t)
    pa, _ = eval_curve(shape_a, tau, allow_degenerate=True)
    pb, _ = eval_curve(shape_b, tau, allow_degenerate=True)
    d = pa - pb
    return float(np.sqrt(np.mean(np.sum(d * d, axis=1))))


def shape_to_targets(shape: BoundaryShape, include_impedance: bool) -> np.ndarray:
    """Flatten a shape into the regression target vector
    (coeffs..., x0, y0[, impedance])."""
    parts = [shape.coeffs, shape.center]
    if include_impedance:
        parts.append(np.array([shape.impedance]))
    return np.concatenate(parts)


def targets_to_shape(class_tag, values, fixed_impedance: float | None = None,
                     check_ranges: bool = True) -> BoundaryShape:
    """Inverse of shape_to_targets.  The vector length decides whether the
    impedance is included; when absent, ``fixed_impedance`` must be given."""
    tag = ShapeClass(class_tag)
    values = np.asarray(values, dtype=np.float64)
    n = N_COEFFS[tag]
    if values.shape == (n + 3,):
        impedance = float(values[n + 2])
    elif values.shape == (n + 2,):
        if fixed_impedance is None:
            raise ValidationError("target vector omits impedance and no fixed value given")
        impedance = float(fixed_impedance)
    else:
        raise ValidationError(
            f"expected {n + 2} or {n + 3} target values for {tag.name.lower()}, got {values.shape}"
        )
    return BoundaryShape(tag, values[:n], values[n:n + 2], impedance, check_ranges=check_ranges)
