"""Tour of the three boundary families.

Samples a few admissible obstacles per family, prints their parameter
vectors and derived geometry, and writes the curves to CSV so they can
be plotted with any tool.  Run from the repository root:

    python3 demos/boundary_families.py
"""

from circscatter.geometry import (
    MAX_POINT_NORM,
    BoundaryShape,
    ScatterConfig,
    ShapeClass,
    boundary_discrepancy,
    boundary_grid,
    eval_curve,
    sample_shape,
    validate_shape,
)
import numpy as np  # after circscatter, which applies CIRCSCATTER_THREADS

config = ScatterConfig()
rng = np.random.default_rng(42)
tau = boundary_grid(256)

print(f"setup: omega={config.omega}, theta={config.theta:.4f} "
      f"-> kappa0={config.kappa0:.4f}, boundaries inside radius {MAX_POINT_NORM}")
print()

# --- one section per family -------------------------------------------

for tag in (ShapeClass.PEANUT, ShapeClass.KITE, ShapeClass.STAR):
    print(f"== {tag.name.lower()} (class {int(tag)}) ==")
    for k in range(3):
        shape = sample_shape(tag, rng, config)
        pts, deriv = eval_curve(shape, tau)
        radii = np.hypot(pts[:, 0] - shape.center[0], pts[:, 1] - shape.center[1])
        diag = validate_shape(shape, config)
        coeffs = ", ".join(f"{c:+.3f}" for c in shape.coeffs)
        print(f"  #{k}: coeffs [{coeffs}]")
        print(f"      center ({shape.center[0]:+.3f}, {shape.center[1]:+.3f}), "
              f"impedance {shape.impedance:.3f}")
        print(f"      radial extent [{radii.min():.3f}, {radii.max():.3f}], "
              f"admissible={diag.ok}")
        out = f"demo_{tag.name.lower()}_{k}.csv"
        np.savetxt(out, np.column_stack([tau, pts]), delimiter=",",
                   header="tau,x,y", comments="")
    print()

# --- the discrepancy metric is a real distance on curves --------------

base = BoundaryShape(ShapeClass.PEANUT, [0.10, 0.05], [0.0, 0.0], 1.0)
moved = BoundaryShape(ShapeClass.PEANUT, [0.10, 0.05], [0.03, -0.04], 1.0)
d = boundary_discrepancy(base, moved, 256)
print("discrepancy sanity: translating a peanut by (0.03, -0.04) gives")
print(f"  RMS distance {d:.6f} (exactly the shift length {np.hypot(0.03, 0.04):.6f})")
print()
print("curve files written: demo_<family>_<k>.csv (tau,x,y)")
