"""Micro end-to-end inverse solve: classify, route, regress, reconstruct.

Trains a desk-scale model registry (classifier + peanut and kite
regressors), then inverts far-field rows of obstacles the models never
saw.  The star family is left without a regressor on purpose to show
how routing reports that gap.  Runs in about a minute on one CPU core;
artifacts land in ./demo_registry/.

Run: python3 demos/end_to_end_inverse.py
"""

from circscatter import pipeline
from circscatter.errors import LayoutError
from circscatter.geometry import ScatterConfig, ShapeClass, sample_shape
import numpy as np  # after circscatter, which applies CIRCSCATTER_THREADS

OUT = "demo_registry"
SEED = 0

# --- train a small registry --------------------------------------------

print("training a desk-scale registry (this is the slow part) ...")
for suite, scale, epochs in (("classification", 0.03, 80),
                             ("peanut", 0.05, 40), ("kite", 0.05, 40)):
    res = pipeline.run_experiment(
        suite, out_dir=OUT, scale=scale, seed=SEED, noise_trials=1,
        train_overrides={"max_epochs": epochs, "learning_rate": 1e-3})
    if res.model.spec.task == "class":
        print(f"  {suite}: n={res.n}, test accuracy {res.clean.accuracy:.3f}")
    else:
        print(f"  {suite}: n={res.n}, test R2 {res.clean.r2:.3f}")

registry = pipeline.ModelRegistry.load(OUT)
print(f"loaded registry: classifier + regressors for "
      f"{sorted(ShapeClass(t).name.lower() for t in registry.regressors)}")

# --- invert unseen obstacles -------------------------------------------

rng = np.random.default_rng(12345)
print("\ninverting fresh far-field rows:")
for tag in (ShapeClass.PEANUT, ShapeClass.KITE, ShapeClass.STAR):
    truth = sample_shape(tag, rng, ScatterConfig())
    row = pipeline.superset_features(truth)
    try:
        sol = pipeline.infer(registry, row)
    except LayoutError as exc:
        print(f"  {tag.name.lower():>7}: {exc}")
        continue
    probs = ", ".join(f"{p:.3f}" for p in sol.class_probs)
    routed = ShapeClass(sol.predicted_class).name.lower()
    rec = pipeline.reconstruct_curve(sol, t=256, true_shape=truth)
    print(f"  {tag.name.lower():>7}: probs [{probs}] -> routed to {routed}")
    print(f"           impedance {sol.shape.impedance:.3f} (truth {truth.impedance:.3f}), "
          f"curve RMS error {rec.discrepancy:.4f}, "
          f"in sampling ranges: {sol.in_sampling_ranges}")
    out = f"demo_inverse_{tag.name.lower()}.csv"
    pipeline.write_curve_csv(out, rec)
    print(f"           wrote {out} (tau,x_true,y_true,x_pred,y_pred)")

print("\nthe star row shows the registry contract: routing refuses to in-")
print("vent a regressor it does not have.  Train one with, e.g.:")
print("  circscatter train --suite star_fixed --scale 0.02 --epochs 40 "
      "--lr 1e-3 --out demo_registry")
