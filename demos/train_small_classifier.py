"""Train the shape classifier at desk scale.

Generates a small classification dataset (about 2700 far-field rows,
three balanced families), trains the classification preset for a few
dozen epochs with a raised learning rate, and prints the confusion
matrix.  Takes well under a minute on one CPU core.

Run: python3 demos/train_small_classifier.py
"""

from circscatter import dataio, pipeline, training
from circscatter.nncore.network import preset_spec

SCALE = 0.03  # 2700 samples
SEED = 0

print("generating far-field samples for the three families ...")
ds = pipeline.suite_dataset("classification", scale=SCALE, seed=SEED)
print(f"  {len(ds.features)} rows, layout T0={ds.t0} x C0={ds.c0}, "
      f"classes {ds.classes}")

split = dataio.split_dataset(len(ds.features), SEED)
scaler = dataio.Standardizer.fit(ds.features[split.train])
x = scaler.apply(ds.features)

cfg = training.preset_train_config("ap1", seed=SEED, max_epochs=80,
                                   learning_rate=1e-3)
print(f"training preset ap1 for up to {cfg.max_epochs} epochs "
      f"(lr {cfg.learning_rate}, batch {cfg.batch_size}) ...")
spec = preset_spec("ap1")
params, hist = training.train(spec, x, ds.targets, split, cfg, classes=ds.classes)
print(f"  stopped after epoch {hist.stopped_epoch}, "
      f"best validation loss at epoch {hist.best_epoch}")

model = pipeline.TrainedModel(spec, params, scaler, None, preset="ap1", seed=SEED,
                              classes=ds.classes)
rep = pipeline.evaluate_model(model, ds.subset(split.test))
names = ["peanut", "kite", "star"]
print(f"\ntest accuracy {rep.accuracy:.4f}")
print("row-normalized confusion (rows = truth):")
print(f"  {'':>8}" + "".join(f"{n:>9}" for n in names))
for i, n in enumerate(names):
    row = "".join(f"{v:9.3f}" for v in rep.confusion[i])
    print(f"  {n:>8}{row}")
print("\nat this size the kite family separates almost immediately; the")
print("peanut/star boundary is the hard one (a star whose sin(2 tau)")
print("content is small looks like a peanut from the far field) and keeps")
print("improving with more samples and epochs.")
