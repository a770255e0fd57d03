import dataclasses
import json
import math
import shutil

import numpy as np
import numpy.testing as npt
import pytest

from circscatter import dataio, pipeline, training
from circscatter.dataio import Dataset, Standardizer
from circscatter.errors import FormatError, LayoutError, ValidationError
from circscatter.geometry import (
    BoundaryShape,
    ScatterConfig,
    boundary_grid,
    eval_curve,
    sample_shape,
    shape_to_targets,
)
from circscatter.nncore import (
    Dense,
    Flatten,
    NetworkSpec,
    Output,
    init_parameters,
    save_model,
)
from circscatter.pipeline import (
    SUITES,
    InverseSolution,
    ModelRegistry,
    TrainedModel,
    aligned_discrepancy,
    derive_features,
    evaluate_model,
    generate_superset,
    infer,
    misclassification_report,
    read_curve_csv,
    reconstruct_curve,
    reconstruct_samples,
    regenerate_shape,
    run_experiment,
    suite_dataset,
    suite_spec,
    superset_features,
    sweep_model,
    write_curve_csv,
)


# ---------------------------------------------------------------- suites


def test_suite_table():
    rows = {
        # name: (n, t0, c0, n_phis, preset, task, fixed, registry_name)
        "classification": (90000, 32, 2, 1, "ap1", "class", None, "classifier"),
        "peanut": (30000, 32, 2, 1, "ap2", "reg", None, "peanut"),
        "kite": (30000, 32, 2, 1, "ap4", "reg", None, "kite"),
        "star_fixed": (80000, 128, 4, 1, "ap7", "reg", 2.0, "star"),
        "star_variable": (120000, 128, 8, 2, "ap10", "reg", None, "star"),
    }
    assert set(SUITES) == set(rows)
    for name, (n, t0, c0, n_phis, preset, task, fixed, reg_name) in rows.items():
        s = suite_spec(name)
        cfg = s.config()
        assert (s.n_full, cfg.t0, cfg.c0, len(cfg.phis), s.preset) == (
            n, t0, c0, n_phis, preset)
        assert s.task == task and s.fixed_impedance == fixed
        assert s.registry_name == reg_name
    with pytest.raises(ValidationError, match="unknown suite"):
        suite_spec("banana")


def test_scale_rounding():
    assert suite_spec("classification").n_at_scale(0.1) == 9000
    assert suite_spec("peanut").n_at_scale(1 / 3) == 10000
    assert suite_spec("kite").n_at_scale(1.0) == 30000
    with pytest.raises(ValidationError):
        suite_spec("peanut").n_at_scale(0.0)
    with pytest.raises(ValidationError):
        suite_spec("peanut").n_at_scale(1.5)


def test_suite_dataset_shapes():
    ds = suite_dataset("classification", scale=18 / 90000, seed=1)
    assert len(ds) == 18 and ds.task == "class" and ds.classes == (1, 2, 3)
    assert (ds.t0, ds.c0) == (32, 2)

    ds = suite_dataset("star_fixed", scale=4 / 80000, seed=1)
    assert ds.fixed_impedance == 2.0 and ds.target_dim == 13
    assert (ds.t0, ds.c0) == (128, 4)

    ds = suite_dataset("star_variable", scale=4 / 120000, seed=1)
    assert ds.fixed_impedance is None and ds.target_dim == 14
    assert (ds.t0, ds.c0) == (128, 8)


# ------------------------------------------------------- superset layouts


def test_derive_features_matches_direct_generation():
    sup = generate_superset((1, 2, 3), 6, seed=5)
    assert (sup.t0, sup.c0) == (128, 8)
    d32 = dataio.generate_dataset((1, 2, 3), 6, ScatterConfig(t0=32, c0=2), 5)
    d128 = dataio.generate_dataset(
        (1, 2, 3), 6, ScatterConfig(t0=128, c0=4), 5)
    # channel prefix + angle stride land on identical tau values, so the
    # derived rows are the direct rows bit for bit
    npt.assert_array_equal(derive_features(sup.features, 32, 2), d32.features)
    npt.assert_array_equal(derive_features(sup.features, 128, 4), d128.features)
    npt.assert_array_equal(derive_features(sup.features, 128, 8), sup.features)


def test_derive_dataset_and_errors():
    sup = generate_superset((2,), 4, seed=3)
    with pytest.raises(LayoutError):
        derive_features(sup.features, 32, 3)
    with pytest.raises(LayoutError):
        derive_features(sup.features, 64, 2)


def test_regenerate_shape_roundtrip():
    sup = generate_superset((1, 2, 3), 6, seed=5)
    for i in (0, 1, 5):
        shape = regenerate_shape(sup, i)
        assert int(shape.class_tag) == int(sup.targets[i])
        npt.assert_array_equal(superset_features(shape), sup.features[i])

    reg = suite_dataset("kite", scale=3 / 30000, seed=9)
    for i in range(3):
        shape = regenerate_shape(reg, i)
        npt.assert_array_equal(shape_to_targets(shape, include_impedance=True),
                               reg.targets[i])

    fixed = suite_dataset("star_fixed", scale=2 / 80000, seed=4)
    shape = regenerate_shape(fixed, 0)
    assert shape.impedance == 2.0


# --------------------------------------------------------- trained models


def class_spec(t0=32, c0=2, k=3):
    return NetworkSpec(t0, c0, (Flatten(), Output(k, "softmax")), "class")


def reg_spec(p, t0=32, c0=2):
    return NetworkSpec(t0, c0, (Flatten(), Output(p, "linear")), "reg")


def make_classifier(bias=(0.0, 0.0, 0.0), seed=0):
    spec = class_spec()
    params = init_parameters(spec, seed)
    params.layers[-1]["w"][:] = 0.0
    params.layers[-1]["b"][:] = np.asarray(bias, dtype=np.float32)
    scaler = Standardizer(mean=np.zeros(64), std=np.ones(64))
    return TrainedModel(spec, params, scaler, None, preset="ap1", seed=seed,
                        classes=(1, 2, 3))


def make_regressor(tag, mean_targets, seed=0, fixed_impedance=None):
    """Zero-weight regressor: always predicts the target-scaler mean."""
    p = len(mean_targets)
    spec = reg_spec(p)
    params = init_parameters(spec, seed)
    params.layers[-1]["w"][:] = 0.0
    params.layers[-1]["b"][:] = 0.0
    scaler = Standardizer(mean=np.zeros(64), std=np.ones(64))
    tscaler = Standardizer(mean=np.asarray(mean_targets, dtype=np.float64),
                           std=np.ones(p))
    return TrainedModel(spec, params, scaler, tscaler, preset="ap2", seed=seed,
                        class_tag=tag, fixed_impedance=fixed_impedance)


def peanut_mean():
    return np.array([0.11, 0.11, 0.0, 0.0, 1.0])


def kite_mean():
    return np.array([0.25, 0.1, 0.25, 0.0, 0.0, 1.0])


def star_mean():
    return np.concatenate([[0.25], np.zeros(10), [0.0, 0.0], [1.0]])


def make_registry(bias=(0.0, 0.0, 0.0)):
    reg = ModelRegistry()
    reg.classifier = make_classifier(bias)
    reg.regressors[1] = make_regressor(1, peanut_mean())
    reg.regressors[2] = make_regressor(2, kite_mean())
    reg.regressors[3] = make_regressor(3, star_mean())
    return reg


def test_predict_helpers():
    clf = make_classifier()
    x = np.random.default_rng(0).standard_normal((4, 64))
    probs = clf.predict_probs(x)
    assert probs.shape == (4, 3)
    npt.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)
    assert set(clf.predict_labels(x)) <= {1, 2, 3}
    with pytest.raises(ValidationError):
        clf.predict_params(x)

    reg = make_regressor(1, peanut_mean())
    out = reg.predict_params(x)
    npt.assert_allclose(out, np.tile(peanut_mean(), (4, 1)), atol=1e-12)
    with pytest.raises(ValidationError):
        reg.predict_probs(x)


def test_trained_model_save_load_roundtrip(tmp_path):
    reg = make_regressor(1, peanut_mean(), seed=7)
    params = reg.params.copy()   # a model's own parameters are read-only
    params.layers[-1]["w"][:] = np.random.default_rng(1).standard_normal(
        params.layers[-1]["w"].shape).astype(np.float32)
    reg = dataclasses.replace(reg, params=params)
    reg.save(tmp_path, "peanut")
    assert (tmp_path / "peanut.model").exists()
    assert (tmp_path / "peanut.scaler.json").exists()
    back = TrainedModel.load(tmp_path, "peanut")
    assert back.preset == "ap2" and back.seed == 7 and back.class_tag == 1
    assert back.fixed_impedance is None and back.classes is None
    x = np.random.default_rng(2).standard_normal((3, 64))
    npt.assert_array_equal(back.predict_params(x), reg.predict_params(x))
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["models"] == {"peanut": reg.meta_dict()}
    # the manifest names registry models only, so no other name is saved
    with pytest.raises(ValidationError, match="unknown registry model name 'blob'"):
        reg.save(tmp_path / "other", "blob")
    assert not (tmp_path / "other").exists()


def test_registry_save_load_preserves_infer(tmp_path):
    registry = make_registry(bias=(0.0, 0.3, 0.0))
    registry.save(tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["format"] == "circscatter-registry-v1"
    assert set(manifest["models"]) == {"classifier", "peanut", "kite", "star"}
    for name in ("classifier", "peanut", "kite", "star"):
        assert (tmp_path / f"{name}.model").exists()
        assert (tmp_path / f"{name}.scaler.json").exists()

    shape = sample_shape(2, np.random.default_rng(0), ScatterConfig())
    row = superset_features(shape)
    before = infer(registry, row)
    after = infer(ModelRegistry.load(tmp_path), row)
    npt.assert_array_equal(before.class_probs, after.class_probs)
    assert before.predicted_class == after.predicted_class
    npt.assert_array_equal(before.shape.coeffs, after.shape.coeffs)
    npt.assert_array_equal(before.shape.center, after.shape.center)
    assert before.shape.impedance == after.shape.impedance


@pytest.mark.parametrize("text", ["{not json", "[]"])
def test_malformed_scaler_and_manifest_are_format_errors(tmp_path, text):
    make_registry().save(tmp_path)
    (tmp_path / "peanut.scaler.json").write_text(text)
    with pytest.raises(FormatError, match="peanut.scaler.json"):
        TrainedModel.load(tmp_path, "peanut")
    with pytest.raises(FormatError, match="peanut.scaler.json"):
        ModelRegistry.load(tmp_path)
    (tmp_path / "manifest.json").write_text(text)
    with pytest.raises(FormatError, match="manifest.json"):
        ModelRegistry.load(tmp_path)
    # saving into the directory reads the manifest to update it
    with pytest.raises(FormatError, match="manifest.json"):
        make_registry().save(tmp_path)


def _set(key, value, member=None):
    def edit(blob):
        (blob if member is None else blob[member])[key] = value
    return edit


@pytest.mark.parametrize("edit, message", [
    (_set("meta", []), "malformed"),
    (_set("features", []), "malformed"),
    (_set("classes", 3, member="meta"), "malformed"),
    (_set("mean", ["x"] * 64, member="features"), "malformed"),
    (_set("std", [1.0] * 4, member="targets"), "mean and std"),
    (_set("mean", None, member="features"), "mean and std"),
    (_set("mean", [[0.0] * 64], member="features"), "mean and std"),
], ids=["meta-list", "features-list", "classes-int", "mean-text", "std-length",
        "mean-null", "mean-nested"])
def test_wrongly_typed_scaler_members_are_format_errors(tmp_path, edit, message):
    make_registry().save(tmp_path)
    path = tmp_path / "peanut.scaler.json"
    blob = json.loads(path.read_text())
    edit(blob)
    path.write_text(json.dumps(blob))
    with pytest.raises(FormatError, match=f"peanut.scaler.json.*{message}"):
        TrainedModel.load(tmp_path, "peanut")
    with pytest.raises(FormatError, match="peanut.scaler.json"):
        ModelRegistry.load(tmp_path)


@pytest.mark.parametrize("member, size, message", [
    ("features", 32, "feature scaler has 32 entries, the model needs 64"),
    ("targets", 4, "target scaler has 4 entries, the model needs 5"),
])
def test_scaler_length_must_match_the_model(tmp_path, member, size, message):
    make_registry().save(tmp_path)
    path = tmp_path / "peanut.scaler.json"
    blob = json.loads(path.read_text())
    blob[member] = {"mean": [0.0] * size, "std": [1.0] * size}
    path.write_text(json.dumps(blob))
    with pytest.raises(FormatError, match=message):
        TrainedModel.load(tmp_path, "peanut")


@pytest.mark.parametrize("models", [5, [], "peanut"])
def test_manifest_models_must_be_an_object(tmp_path, models):
    make_registry().save(tmp_path)
    (tmp_path / "manifest.json").write_text(
        json.dumps({"format": pipeline.REGISTRY_FORMAT, "models": models}))
    with pytest.raises(FormatError, match="manifest.json.*models"):
        ModelRegistry.load(tmp_path)
    with pytest.raises(FormatError, match="manifest.json.*models"):
        make_registry().save(tmp_path)


def test_manifest_names_are_checked_before_any_model_is_read(tmp_path):
    make_registry().save(tmp_path)
    (tmp_path / "manifest.json").write_text(
        json.dumps({"format": pipeline.REGISTRY_FORMAT, "models": {"blob": {}}}))
    with pytest.raises(FormatError, match="manifest.json: unknown model name 'blob'"):
        ModelRegistry.load(tmp_path)  # no blob.model
    for suffix in (".model", ".scaler.json"):
        shutil.copy(tmp_path / f"peanut{suffix}", tmp_path / f"blob{suffix}")
    with pytest.raises(FormatError, match="manifest.json: unknown model name 'blob'"):
        ModelRegistry.load(tmp_path)


@pytest.mark.parametrize("class_tag", [2, None])
def test_registry_model_must_have_its_names_class(tmp_path, class_tag):
    # infer builds a routed regressor's shape in the regressor's own
    # class, so a kite model filed as the peanut one is refused on load
    make_registry().save(tmp_path)
    path = tmp_path / "peanut.scaler.json"
    blob = json.loads(path.read_text())
    blob["meta"]["class_tag"] = class_tag
    path.write_text(json.dumps(blob))
    with pytest.raises(FormatError, match="peanut.scaler.json: class tag"):
        ModelRegistry.load(tmp_path)


class _DiskFullArray:
    """Stands in for an array (a parameter vector, a dataset's labels);
    reading it fails as a full disk would, after the writer has written
    the file's header."""

    dtype = np.dtype(np.float32)

    def __array__(self, *args, **kwargs):
        raise OSError("disk full")

    __getitem__ = __array__


def test_failed_artifact_writes_leave_previous_files(tmp_path, monkeypatch):
    registry = make_registry()
    registry.save(tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def disk_full(*args, **kwargs):
        raise OSError("disk full")

    params = registry.regressors[1].params.copy()
    params.vector = _DiskFullArray()
    with pytest.raises(OSError):  # .model write fails after its header
        save_model(tmp_path / "peanut.model", registry.regressors[1].spec, params)
    monkeypatch.setattr(json, "dump", disk_full)
    with pytest.raises(OSError):
        registry.regressors[1].save(tmp_path, "peanut")  # scaler write fails
    with pytest.raises(OSError):
        pipeline._update_manifest(tmp_path, "peanut", {})
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_failed_dataset_write_leaves_previous_file(tmp_path):
    ds = Dataset(np.arange(256.0).reshape(4, 64), np.array([1, 2, 1, 2]), "class",
                 32, 2, (1, 2), ["0:0", "0:1", "0:2", "0:3"])
    broken = dataclasses.replace(ds)
    broken.targets = _DiskFullArray()  # after the first features
    for binary in (False, True):
        path = tmp_path / f"binary_{binary}.csc"
        dataio.write_dataset(path, ds, binary=binary)
        before = path.read_bytes()
        with pytest.raises(OSError, match="disk full"):
            dataio.write_dataset(path, broken, binary=binary)
        assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["binary_False.csc",
                                                          "binary_True.csc"]


# -------------------------------------------------------------- inference


def test_infer_routes_by_argmax():
    shape = sample_shape(3, np.random.default_rng(1), ScatterConfig())
    row = superset_features(shape)
    sol = infer(make_registry(bias=(0.1, 0.7, 0.2)), row)
    assert isinstance(sol, InverseSolution)
    assert sol.predicted_class == 2  # routed to kite regardless of truth
    assert int(sol.shape.class_tag) == 2
    npt.assert_allclose(sol.shape.coeffs, kite_mean()[:3], atol=1e-12)
    assert sol.provenance["regressor"]["name"] == "kite"
    assert math.isclose(float(sol.class_probs.sum()), 1.0, rel_tol=1e-6)
    # positive scaling of the logits cannot change the routing
    sol2 = infer(make_registry(bias=(0.3, 2.1, 0.6)), row)
    assert sol2.predicted_class == sol.predicted_class


def test_infer_feature_map_and_missing_layouts():
    shape = sample_shape(1, np.random.default_rng(2), ScatterConfig())
    row = superset_features(shape)
    registry = make_registry(bias=(5.0, 0.0, 0.0))  # always peanut
    sol = infer(registry, row)
    assert sol.predicted_class == 1
    assert sol.in_sampling_ranges  # scaler means sit inside sampling ranges
    assert sol.diagnostics.ok

    registry.regressors[1] = make_regressor(1, np.array([5.0, 5.0, 0, 0, 1.0]))
    sol = infer(registry, row)
    assert not sol.in_sampling_ranges  # raw out-of-range output, not clamped
    npt.assert_allclose(sol.shape.coeffs, [5.0, 5.0], atol=1e-12)

    del registry.regressors[1]
    with pytest.raises(LayoutError, match="regressor"):
        infer(registry, row)
    # one superset row only: a sub-layout row, a short row or a batch is refused
    for bad in (derive_features(row, 32, 2), np.zeros(7), row[None, :]):
        with pytest.raises(LayoutError, match="superset row"):
            infer(registry, bad)
    with pytest.raises(ValidationError):
        infer(ModelRegistry(), row)


def test_infer_star_uses_wide_layout():
    # classifier reads (32, 2), star regressor (128, 8): one superset row
    # feeds both
    registry = ModelRegistry()
    registry.classifier = make_classifier(bias=(0.0, 0.0, 9.0))
    spec = reg_spec(14, t0=128, c0=8)
    params = init_parameters(spec, 0)
    params.layers[-1]["w"][:] = 0.0
    params.layers[-1]["b"][:] = 0.0
    star = TrainedModel(spec, params, Standardizer(np.zeros(1024), np.ones(1024)),
                        Standardizer(star_mean(), np.ones(14)), preset="ap10",
                        seed=0, class_tag=3)
    registry.regressors[3] = star
    shape = sample_shape(3, np.random.default_rng(3), ScatterConfig())
    sol = infer(registry, superset_features(shape))
    assert sol.predicted_class == 3 and int(sol.shape.class_tag) == 3
    assert sol.shape.coeffs.shape == (11,)


def test_infer_fixed_impedance_regressor_reports_lambda():
    registry = ModelRegistry()
    registry.classifier = make_classifier(bias=(9.0, 0.0, 0.0))
    registry.regressors[1] = make_regressor(1, peanut_mean()[:4],
                                            fixed_impedance=2.0)
    shape = sample_shape(1, np.random.default_rng(4), ScatterConfig())
    sol = infer(registry, superset_features(shape))
    assert sol.shape.impedance == 2.0  # copied from the training-time value


# ----------------------------------------------------------------- curves


def test_reconstruct_curve_truth_equals_pred():
    shape = sample_shape(2, np.random.default_rng(5), ScatterConfig())
    rec = reconstruct_curve(shape, t=64, true_shape=shape)
    assert rec.discrepancy == 0.0 and not rec.degenerate
    assert rec.pred_points.shape == (64, 2)


def test_reconstruct_curve_translation_discrepancy():
    shape = sample_shape(1, np.random.default_rng(6), ScatterConfig())
    moved = BoundaryShape(shape.class_tag, shape.coeffs.copy(),
                          shape.center + [0.01, 0.0], shape.impedance)
    rec = reconstruct_curve(moved, t=128, true_shape=shape)
    assert rec.discrepancy == pytest.approx(0.01, abs=1e-12)


def test_reconstruct_curve_degenerate_flagged():
    # alpha1 = 15 drives 1 + alpha1/(2Q) cos(tau) below zero near tau = pi
    coeffs = np.concatenate([[0.1], [15.0], np.zeros(9)])
    bad = BoundaryShape(3, coeffs, np.zeros(2), 1.0, check_ranges=False)
    rec = reconstruct_curve(bad, t=64, true_shape=None)
    assert rec.degenerate
    assert np.all(np.isfinite(rec.pred_points))


def test_curve_csv_roundtrip(tmp_path):
    shape = sample_shape(3, np.random.default_rng(7), ScatterConfig())
    other = sample_shape(3, np.random.default_rng(8), ScatterConfig())
    rec = reconstruct_curve(shape, t=32, true_shape=other)
    path = tmp_path / "curve.csv"
    write_curve_csv(path, rec)
    tau, true_pts, pred_pts = read_curve_csv(path)
    npt.assert_array_equal(tau, rec.tau)
    npt.assert_array_equal(true_pts, rec.true_points)
    npt.assert_array_equal(pred_pts, rec.pred_points)
    with pytest.raises(ValidationError):
        write_curve_csv(path, reconstruct_curve(shape, t=8))


def test_aligned_discrepancy_oracle():
    # brute-force re-derivation over every cyclic origin pairing
    from circscatter.geometry import boundary_discrepancy
    rng = np.random.default_rng(13)
    a = sample_shape(3, rng, ScatterConfig())
    b = sample_shape(2, rng, ScatterConfig())
    t = 32
    tau = boundary_grid(t)
    pa = eval_curve(a, tau)[0]
    pb = eval_curve(b, tau)[0]
    best = min(
        math.sqrt(sum(float(np.sum((pa[k] - pb[(k - s) % t]) ** 2))
                      for k in range(t)) / t)
        for s in range(t))
    assert aligned_discrepancy(a, b, t) == pytest.approx(best, abs=1e-12)
    assert aligned_discrepancy(a, b, t) <= boundary_discrepancy(a, b, t) + 1e-15
    assert aligned_discrepancy(a, a, t) == 0.0


# ------------------------------------------------ misclassification view


def test_misclassification_report_routes_and_measures():
    ds = suite_dataset("classification", scale=9 / 90000, seed=11)
    registry = make_registry(bias=(0.0, 9.0, 0.0))  # everything goes to kite
    rep = misclassification_report(registry, ds)
    assert rep.total == 9
    assert rep.n_misclassified == 6  # the 3 peanuts and 3 stars
    assert rep.counts[:, 1].sum() == 9  # all predictions land in column kite
    for e in rep.entries:
        assert e.predicted_class == 2 and e.true_class in (1, 3)
        assert e.discrepancy is not None and e.discrepancy >= 0.0
        assert math.isfinite(e.discrepancy)
    d = rep.to_json_dict()
    assert d["n_misclassified"] == 6 and len(d["entries"]) == 6


def test_misclassification_report_empty_when_perfect():
    kites = suite_dataset("kite", scale=4 / 30000, seed=12)
    ds = Dataset(kites.features, np.full(4, 2, dtype=np.int64), "class",
                 32, 2, (1, 2, 3), list(kites.shape_ids))
    registry = make_registry(bias=(0.0, 9.0, 0.0))
    rep = misclassification_report(registry, ds)
    assert rep.n_misclassified == 0 and rep.entries == []
    assert rep.counts[1, 1] == 4


def test_misclassification_report_validation():
    registry = make_registry()
    reg_ds = suite_dataset("peanut", scale=3 / 30000, seed=1)
    with pytest.raises(ValidationError):
        misclassification_report(registry, reg_ds)
    sup = generate_superset((1, 2, 3), 3, seed=1)
    with pytest.raises(LayoutError):
        misclassification_report(registry, sup)  # classifier is (32, 2)


# ------------------------------------------------------------ experiments


def test_run_experiment_regression_bundle(tmp_path):
    res = run_experiment("peanut", out_dir=tmp_path, scale=12 / 30000, seed=3,
                         train_overrides={"max_epochs": 3, "patience": 3,
                                          "learning_rate": 1e-3},
                         noise_levels=(0.01,), noise_trials=2, curve_points=48)
    assert res.n == 12 and res.preset == "ap2"
    assert len(res.history.train_loss) <= 3
    assert res.clean.rmse >= 0.0
    assert [r["level"] for r in res.noise] == [0.0, 0.01]

    for key in ("config", "history", "report", "model", "scaler", "errors_hist",
                "reconstruction_max", "reconstruction_min", "reconstruction_random"):
        assert res.files[key].exists(), key
    assert (tmp_path / "peanut.model").exists()
    assert (tmp_path / "manifest.json").exists()

    report = json.loads((tmp_path / "peanut_report.json").read_text())
    assert report["suite"] == "peanut" and "r2" in report["clean"]
    cfgj = json.loads((tmp_path / "peanut_config.json").read_text())
    assert cfgj["train"]["learning_rate"] == 1e-3 and cfgj["n"] == 12

    tau, true_pts, pred_pts = read_curve_csv(res.files["reconstruction_max"])
    assert tau.shape == (48,) and true_pts.shape == (48, 2)

    hist_lines = res.files["errors_hist"].read_text().splitlines()
    assert hist_lines[0] == "bin_left,bin_right,count"
    counts = sum(int(ln.split(",")[2]) for ln in hist_lines[1:])
    assert counts == 1  # test split of 12 rows is floor(12/10 + 0.5) = 1 row

    model = TrainedModel.load(tmp_path, "peanut")
    assert model.class_tag == 1


def test_run_experiment_classification_bundle(tmp_path):
    res = run_experiment("classification", out_dir=tmp_path, scale=18 / 90000,
                         seed=2, train_overrides={"max_epochs": 2, "patience": 2},
                         noise_levels=(0.005,), noise_trials=1)
    assert res.clean.accuracy >= 0.0 and res.preset == "ap1"
    assert (tmp_path / "classifier.model").exists()
    assert not (tmp_path / "classification_errors_hist.csv").exists()
    report = json.loads((tmp_path / "classification_report.json").read_text())
    assert "accuracy" in report["clean"]
    assert "accuracy" in report["noise"][0]


def test_run_experiment_deterministic():
    a = run_experiment("peanut", scale=10 / 30000, seed=5,
                       train_overrides={"max_epochs": 2, "patience": 2},
                       noise_levels=(), noise_trials=1)
    b = run_experiment("peanut", scale=10 / 30000, seed=5,
                       train_overrides={"max_epochs": 2, "patience": 2},
                       noise_levels=(), noise_trials=1)
    assert a.history.train_loss == b.history.train_loss
    assert a.history.valid_loss == b.history.valid_loss
    for (_, _, x), (_, _, y) in zip(a.model.params.arrays(), b.model.params.arrays()):
        npt.assert_array_equal(x, y)


def test_run_experiment_rejects_mismatched_data():
    kites = suite_dataset("kite", scale=10 / 30000, seed=1)
    with pytest.raises(ValidationError):
        run_experiment("peanut", data=kites,
                       train_overrides={"max_epochs": 1})
    star_fixed = suite_dataset("star_fixed", scale=10 / 80000, seed=1)
    with pytest.raises(ValidationError):
        run_experiment("star_variable", data=star_fixed,
                       train_overrides={"max_epochs": 1})


# ------------------------------------------------ standalone model tools


@pytest.fixture(scope="module")
def tiny_peanut_model():
    res = run_experiment("peanut", scale=10 / 30000, seed=8,
                         train_overrides={"max_epochs": 2, "patience": 2},
                         noise_levels=(), noise_trials=1)
    return res.model


def test_evaluate_and_sweep_model(tiny_peanut_model):
    ds = suite_dataset("peanut", scale=10 / 30000, seed=21)
    rep = evaluate_model(tiny_peanut_model, ds)
    assert math.isfinite(rep.rmse)
    # scored in original units, through the same answers as predict_params
    ref = training.regression_metrics(tiny_peanut_model.predict_params(ds.features),
                                      ds.targets)
    assert rep.to_json_dict() == ref.to_json_dict()
    table = sweep_model(tiny_peanut_model, ds, levels=(0.0, 0.02), trials=2, seed=1)
    assert [r["level"] for r in table] == [0.0, 0.02]
    assert (table[0]["r2"], table[0]["rmse"]) == (rep.r2, rep.rmse)
    assert table[1]["rmse"] != rep.rmse
    assert sweep_model(tiny_peanut_model, ds, levels=(0.0, 0.02), trials=2, seed=1) == table
    with pytest.raises(ValidationError, match="trials"):
        sweep_model(tiny_peanut_model, ds, trials=0)

    # a classifier whose answers depend on its input
    cls_ds = suite_dataset("classification", scale=30 / 90000, seed=3)
    spec = class_spec()
    clf = TrainedModel(spec, init_parameters(spec, 1), Standardizer.fit(cls_ds.features),
                       None, preset="ap1", seed=1, classes=(1, 2, 3))
    labels = clf.predict_labels(cls_ds.features)
    assert len(set(labels.tolist())) > 1
    cls_rep = evaluate_model(clf, cls_ds)
    assert cls_rep.accuracy == float(np.mean(labels == cls_ds.targets))
    cls_table = sweep_model(clf, cls_ds, levels=(0.0, 0.5), trials=2, seed=0)
    assert cls_table[0] == {"level": 0.0, "accuracy": cls_rep.accuracy}

    kites = suite_dataset("kite", scale=10 / 30000, seed=2)
    with pytest.raises(ValidationError):
        evaluate_model(tiny_peanut_model, kites)
    # 3 coefficients + 2 center: as many targets as a peanut regressor outputs
    fixed_kites = dataio.generate_dataset((2,), 10, ScatterConfig(), seed=2, impedance=2.0)
    assert fixed_kites.target_dim == tiny_peanut_model.spec.output_dim
    for tool in (evaluate_model, sweep_model):
        with pytest.raises(ValidationError, match="classes"):
            tool(tiny_peanut_model, fixed_kites)


def test_reconstruct_samples(tiny_peanut_model, tmp_path):
    ds = suite_dataset("peanut", scale=6 / 30000, seed=22)
    files = reconstruct_samples(tiny_peanut_model, ds, tmp_path, seed=0,
                                curve_points=32)
    assert set(files) == {"reconstruction_max", "reconstruction_min",
                          "reconstruction_random"}
    for p in files.values():
        tau, _, _ = read_curve_csv(p)
        assert tau.shape == (32,)
    cls_ds = suite_dataset("classification", scale=9 / 90000, seed=1)
    with pytest.raises(ValidationError):
        reconstruct_samples(tiny_peanut_model, cls_ds, tmp_path)
    fixed_kites = dataio.generate_dataset((2,), 6, ScatterConfig(), seed=2, impedance=2.0)
    with pytest.raises(ValidationError, match="classes"):
        reconstruct_samples(tiny_peanut_model, fixed_kites, tmp_path / "kites")
    assert not (tmp_path / "kites").exists()
