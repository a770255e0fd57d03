"""What the far-field surrogate actually measures.

Three short experiments on the quadrature surrogate:

1. impedance scaling: the electric channel shrinks like 1/(1+lambda),
   the magnetic one grows like lambda/(1+lambda), so their ratio pins
   the impedance;
2. harmonic response: how strongly a boundary harmonic of order q shows
   up in the far field, and why the answer is not a simple low-pass;
3. channel assembly: how the complex pairs become the real-valued
   training row.

Run: python3 demos/farfield_surrogate.py
"""

from circscatter.dataio import assemble_channels, surrogate_farfield
from circscatter.geometry import BoundaryShape, ScatterConfig, ShapeClass
import numpy as np  # after circscatter, which applies CIRCSCATTER_THREADS

config = ScatterConfig()
print(f"kappa0 = {config.kappa0:.4f}, T0 = {config.t0} measurement angles")
print()

# --- 1. impedance controls the channel amplitudes ----------------------

print("impedance scaling on a fixed peanut:")
print(f"  {'lambda':>7} {'max|e|':>10} {'max|h|':>10} {'|h|/|e|':>10} {'ratio/lambda':>13}")
for lam in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
    shape = BoundaryShape(ShapeClass.PEANUT, [0.10, 0.06], [0.0, 0.0], lam)
    e, h = surrogate_farfield(shape, config, 0.0)
    ratio = np.abs(h).max() / np.abs(e).max()
    print(f"  {lam:7.2f} {np.abs(e).max():10.5f} {np.abs(h).max():10.5f} "
          f"{ratio:10.4f} {ratio / lam:13.4f}")
print("  -> the common 1/(1+lambda) cancels in the ratio, which is exactly")
print("     linear in lambda for a fixed geometry; that is the regression")
print("     signal the networks lean on.")
print()

# --- 2. boundary harmonics are low-passed ------------------------------

print("far-field response to a single star harmonic (amplitude 0.5):")
base = np.zeros(11)
base[0] = 0.25  # alpha0
flat = BoundaryShape(ShapeClass.STAR, base, [0.0, 0.0], 1.0)
e0, h0 = surrogate_farfield(flat, config, 0.0)
print(f"  {'q':>3} {'||delta e||':>12} {'ratio to q-1':>14}")
prev = None
for q in range(1, 6):
    coeffs = base.copy()
    coeffs[q] = 0.5  # cos(q tau) bump
    bumped = BoundaryShape(ShapeClass.STAR, coeffs, [0.0, 0.0], 1.0)
    e, _ = surrogate_farfield(bumped, config, 0.0)
    delta = np.linalg.norm(e - e0)
    line = f"  {q:3d} {delta:12.3e}"
    if prev is not None:
        line += f" {delta / prev:14.3f}"
    print(line)
    prev = delta
print("  -> two effects compete: the oscillatory phase suppresses the")
print("     radial profile of order q (Bessel-like decay), while the")
print("     quadrature weights and normals carry its derivative, which")
print("     grows like q.  The response dips around q=3 and climbs back,")
print("     so even order-5 star wiggles leave a usable trace.")
print()

# --- 3. from complex fields to a training row --------------------------

shape = BoundaryShape(ShapeClass.PEANUT, [0.10, 0.06], [0.05, -0.02], 2.0)
fields = {0.0: surrogate_farfield(shape, config, 0.0)}
row = assemble_channels(fields, config)
print("c0=2 layout: Re E, Im E at phi=0")
print(f"feature row length {row.shape[0]} = T0 * C0 = {config.t0} * 2")
print(f"first five entries: {np.array2string(row[:5], precision=5)}")
