"""Two-stage inverse solver and experiment driver.

The divide-and-conquer pipeline: a classifier picks the obstacle's shape
class from far-field features, the class-specific regressor recovers the
boundary coefficients (and impedance), and the curve is rebuilt from the
parametrization.  This module owns the experiment suites, the on-disk
model registry, and the misclassification analysis.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dataio, geometry, training
from .dataio import Dataset, Standardizer
from .errors import (
    DegenerateShapeError,
    FormatError,
    LayoutError,
    NumericError,
    ValidationError,
)
from .geometry import (
    N_COEFFS,
    BoundaryShape,
    ScatterConfig,
    ShapeClass,
    boundary_grid,
    eval_curve,
    sample_shape,
    targets_to_shape,
    validate_shape,
)
from .nncore import NetworkSpec, Parameters, load_model, preset_spec, save_model
from .serial import read_json_object, write_csv, write_json
from .training import TrainHistory, forward_eval, preset_train_config, train

SUPERSET_T0 = 128
SUPERSET_C0 = 8
DEFAULT_NOISE_LEVELS = (0.005, 0.01, 0.02, 0.05)
REGISTRY_FORMAT = "circscatter-registry-v1"
MANIFEST_NAME = "manifest.json"


# ---------------------------------------------------------------- suites


def registry_name(class_tag: int | None) -> str:
    """The name a registry files a model under: "classifier", or the
    regressor's shape class in lower case."""
    return "classifier" if class_tag is None else ShapeClass(class_tag).name.lower()


# registry name -> class tag (None for the classifier)
_REGISTRY_TAGS = {registry_name(tag): tag for tag in (None, *map(int, ShapeClass))}


def _is_shape_class(tag) -> bool:
    """An int (not a bool, not None) naming a ShapeClass."""
    return type(tag) is int and tag in _REGISTRY_TAGS.values()


def _registry_tag(name: str) -> int | None:
    if name not in _REGISTRY_TAGS:
        raise ValidationError(f"unknown registry model name {name!r}")
    return _REGISTRY_TAGS[name]


@dataclass(frozen=True)
class SuiteSpec:
    """One experiment suite: dataset recipe plus the matching preset,
    whose input layout is the dataset's."""

    name: str
    class_tags: tuple
    n_full: int
    preset: str
    fixed_impedance: float | None = None

    @property
    def task(self) -> str:
        return "class" if len(self.class_tags) > 1 else "reg"

    @property
    def registry_name(self) -> str:
        return registry_name(None if self.task == "class" else self.class_tags[0])

    def config(self) -> ScatterConfig:
        spec = preset_spec(self.preset)
        return ScatterConfig(t0=spec.input_t, c0=spec.input_c)

    def n_at_scale(self, scale: float) -> int:
        if not 0.0 < scale <= 1.0:
            raise ValidationError(f"scale must be in (0, 1], got {scale}")
        return int(math.floor(scale * self.n_full + 0.5))


SUITES = {
    "classification": SuiteSpec("classification", (1, 2, 3), 90000, "ap1"),
    "peanut": SuiteSpec("peanut", (1,), 30000, "ap2"),
    "kite": SuiteSpec("kite", (2,), 30000, "ap4"),
    "star_fixed": SuiteSpec("star_fixed", (3,), 80000, "ap7", fixed_impedance=2.0),
    "star_variable": SuiteSpec("star_variable", (3,), 120000, "ap10"),
}


def suite_spec(name: str) -> SuiteSpec:
    try:
        return SUITES[name]
    except KeyError:
        raise ValidationError(
            f"unknown suite {name!r}; choose from {sorted(SUITES)}") from None


def suite_dataset(name: str, scale: float = 1.0, seed: int = 0) -> Dataset:
    """Generate the suite's dataset at the given scale (round half up)."""
    s = suite_spec(name)
    imp = "variable" if s.fixed_impedance is None else s.fixed_impedance
    return dataio.generate_dataset(s.class_tags, s.n_at_scale(scale), s.config(), seed,
                                   impedance=imp)


# ------------------------------------------------------- superset layouts


def superset_config() -> ScatterConfig:
    """The (T0=128, C0=8, two incidences) layout every model can be fed
    from; sub-layouts are channel prefixes plus angle subsampling."""
    return ScatterConfig(t0=SUPERSET_T0, c0=SUPERSET_C0)


def derive_features(features: np.ndarray, t0: int, c0: int) -> np.ndarray:
    """Slice superset feature rows down to a sub-layout.

    Channels of the standard 8-channel order start with (E, H) at phi=0,
    so C0 in {2, 4} is a prefix; angles of the coarse grid sit at stride
    128/t0 of the fine grid (identical tau values), so subsampling is
    exact, not interpolated.
    """
    if c0 not in (2, 4, 8) or c0 > SUPERSET_C0:
        raise LayoutError(f"cannot derive c0={c0} from the superset")
    if t0 not in (32, 128):
        raise LayoutError(f"cannot derive t0={t0} from the superset")
    x = dataio.reshape_to_tensor(np.asarray(features, dtype=np.float64),
                                 SUPERSET_T0, SUPERSET_C0)
    stride = SUPERSET_T0 // t0
    return dataio.flatten_tensor(x[..., ::stride, :c0])


def generate_superset(class_tags, n: int, seed: int) -> Dataset:
    """Generate directly in the superset layout (one stored sample serves
    every model layout via derive_features)."""
    return dataio.generate_dataset(class_tags, n, superset_config(), seed)


def superset_features(shape: BoundaryShape) -> np.ndarray:
    """One obstacle's feature row in the superset layout."""
    return dataio.feature_row(shape, superset_config())


def regenerate_shape(ds: Dataset, i: int) -> BoundaryShape:
    """Rebuild the exact obstacle behind dataset row i.

    Rows are pure functions of (seed, index) via spawned child seeds, so
    the dataset stores "{seed}:{index}" ids instead of shape parameters.
    Sampling reads only the config's ``t_boundary``, which every suite
    and superset layout leaves at its default, so the dataset's own
    layout need not be restored.
    """
    sid = ds.shape_ids[i]
    try:
        seed_text, idx_text = sid.split(":")
        seed, idx = int(seed_text), int(idx_text)
    except ValueError:
        raise FormatError(f"shape id {sid!r} is not '<seed>:<index>'") from None
    if ds.task == "class":
        tag = int(ds.targets[i])
    else:
        tag = int(ds.classes[0])
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(idx,)))
    return sample_shape(tag, rng, ScatterConfig(), fixed_impedance=ds.fixed_impedance)


# --------------------------------------------------------------- registry


@dataclass
class TrainedModel:
    """A trained network plus the scalers needed to feed it raw features
    and read its outputs in original units."""

    spec: NetworkSpec
    params: Parameters
    feature_scaler: Standardizer
    target_scaler: Standardizer | None
    preset: str
    seed: int
    classes: tuple | None = None          # classifier only
    class_tag: int | None = None          # regressors only
    fixed_impedance: float | None = None  # regressor trained at fixed lambda

    def __post_init__(self):
        # a model's answers read its long-kernel filter spectra from the
        # parameter memo, which only a set that cannot change keeps
        self.params.freeze()

    @property
    def t0(self) -> int:
        return self.spec.input_t

    @property
    def c0(self) -> int:
        return self.spec.input_c

    def _standardize(self, raw_features: np.ndarray, task: str) -> np.ndarray:
        if self.spec.task != task:
            raise ValidationError("not a classifier" if task == "class" else "not a regressor")
        return self.feature_scaler.apply(np.atleast_2d(np.asarray(raw_features)))

    def answers(self, x: np.ndarray) -> np.ndarray:
        """The network's answers for standardized feature rows ``x``:
        labels from ``classes`` for a classifier, parameters in original
        units (through the target scaler) for a regressor.  Every label
        or parameter prediction, and every score, goes through here; a
        non-finite answer from finite inputs is a NumericError."""
        out = self._outputs(x)
        if self.spec.task == "class":
            return self.labels(out)
        out = out.astype(np.float64)
        return out if self.target_scaler is None else self.target_scaler.invert(out)

    def _outputs(self, x: np.ndarray) -> np.ndarray:
        """The network's raw outputs for standardized rows ``x``; a
        non-finite output from finite inputs is a NumericError.  That check
        reports an overflow, so numpy's own warnings are silenced."""
        with np.errstate(over="ignore", invalid="ignore"):
            out = forward_eval(self.spec, self.params, x)
        if not np.isfinite(out).all() and np.isfinite(x).all():
            raise NumericError(f"{self.preset} network gave a non-finite output "
                               "from finite inputs")
        return out

    def labels(self, probs: np.ndarray) -> np.ndarray:
        """The class label of each row of class probabilities."""
        return np.asarray(self.classes)[np.argmax(probs, axis=1)]

    def predict_probs(self, raw_features: np.ndarray) -> np.ndarray:
        return self._outputs(self._standardize(raw_features, "class"))

    def predict_labels(self, raw_features: np.ndarray) -> np.ndarray:
        return self.answers(self._standardize(raw_features, "class"))

    def predict_params(self, raw_features: np.ndarray) -> np.ndarray:
        """Regression outputs in original (unstandardized) units."""
        return self.answers(self._standardize(raw_features, "reg"))

    def regressed_shape(self, values) -> BoundaryShape:
        """The obstacle a regressed parameter row describes, in this
        regressor's class and at its fixed impedance, if any; raw, not
        clamped into the sampling ranges."""
        return targets_to_shape(self.class_tag, values, fixed_impedance=self.fixed_impedance,
                                check_ranges=False)

    def check_fits(self, ds: Dataset) -> None:
        """Refuse a dataset this saved model cannot be scored against."""
        _check_fits(ds, self.spec, self.classes or (self.class_tag,), "the model")

    def meta_dict(self) -> dict:
        return {
            "preset": self.preset,
            "seed": self.seed,
            "task": self.spec.task,
            "t0": self.t0,
            "c0": self.c0,
            "phis": list(geometry.incidences(self.c0)),
            "classes": list(self.classes) if self.classes is not None else None,
            "class_tag": self.class_tag,
            "fixed_impedance": self.fixed_impedance,
        }

    def save(self, directory, name: str) -> dict:
        """Write <name>.model and <name>.scaler.json, then enter the model
        in the directory's registry manifest; ``name`` is a registry name
        (see registry_name).  Returns {"model": path, "scaler": path}."""
        _registry_tag(name)
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        files = {"model": directory / f"{name}.model",
                 "scaler": directory / f"{name}.scaler.json"}
        save_model(files["model"], self.spec, self.params)
        blob = {
            "features": self.feature_scaler.to_json_dict(),
            "targets": (self.target_scaler.to_json_dict()
                        if self.target_scaler is not None else None),
            "meta": self.meta_dict(),
        }
        write_json(files["scaler"], blob)
        _update_manifest(directory, name, self.meta_dict())
        return files

    @classmethod
    def load(cls, directory, name: str) -> "TrainedModel":
        directory = Path(directory)
        spec, params = load_model(directory / f"{name}.model")
        blob = read_json_object(directory / f"{name}.scaler.json")
        try:
            meta = blob["meta"]
            feature_scaler = Standardizer.from_json_dict(blob["features"])
            target_scaler = (Standardizer.from_json_dict(blob["targets"])
                             if blob["targets"] is not None else None)
            classes = tuple(meta["classes"]) if meta["classes"] is not None else None
            dataio.check_fixed_impedance(meta["fixed_impedance"])
            model = cls(spec, params, feature_scaler, target_scaler,
                        preset=meta["preset"], seed=meta["seed"], classes=classes,
                        class_tag=meta["class_tag"],
                        fixed_impedance=meta["fixed_impedance"])
        except KeyError as exc:
            raise FormatError(f"{name}.scaler.json missing key {exc}") from None
        except (TypeError, ValueError) as exc:  # FormatError is a ValueError
            raise FormatError(f"{name}.scaler.json malformed: {exc}") from None
        sizes = (("feature", feature_scaler, spec.input_t * spec.input_c),
                 ("target", target_scaler, spec.output_dim))
        for kind, scaler, want in sizes:
            if scaler is not None and len(scaler.mean) != want:
                raise FormatError(f"{name}.scaler.json: {kind} scaler has "
                                  f"{len(scaler.mean)} entries, the model needs {want}")
        # the meta must say what the spec's task needs: a classifier's
        # label for each output, a regressor's shape class, and a fixed
        # impedance exactly when its outputs omit the impedance
        if spec.task == "class":
            if not (classes is not None and all(map(_is_shape_class, classes))
                    and len(set(classes)) == len(classes) == spec.output_dim):
                raise FormatError(f"{name}.scaler.json: classes {meta['classes']!r} are not "
                                  f"{spec.output_dim} distinct shape class tags, one per output")
        elif not _is_shape_class(model.class_tag):
            raise FormatError(f"{name}.scaler.json: class tag {model.class_tag!r} of a "
                              "regressor is not a shape class tag")
        elif ((model.fixed_impedance is None)
              == (spec.output_dim == N_COEFFS[model.class_tag] + 2)):
            raise FormatError(f"{name}.scaler.json: class tag {model.class_tag!r} with fixed "
                              f"impedance {model.fixed_impedance!r} does not fit a regressor "
                              f"with {spec.output_dim} outputs")
        return model


def _read_manifest(path: Path) -> dict:
    data = read_json_object(path)
    if data.get("format") != REGISTRY_FORMAT:
        raise FormatError(f"{path}: unknown manifest format {data.get('format')!r}")
    models = data.get("models", {})
    if not isinstance(models, dict):
        raise FormatError(f"{path}: \"models\" must be a JSON object")
    unknown = sorted(set(models) - set(_REGISTRY_TAGS))
    if unknown:
        raise FormatError(f"{path}: unknown model name {unknown[0]!r}; a registry holds "
                          f"{sorted(_REGISTRY_TAGS)}")
    return data


def _update_manifest(directory, name: str, meta: dict) -> None:
    path = Path(directory) / MANIFEST_NAME
    data = _read_manifest(path) if path.exists() else {"format": REGISTRY_FORMAT}
    data.setdefault("models", {})[name] = meta
    write_json(path, data)


@dataclass
class ModelRegistry:
    """The assembled two-stage solver: one classifier plus per-class
    regressors keyed by shape class tag."""

    classifier: TrainedModel | None = None
    regressors: dict = field(default_factory=dict)

    def add(self, name: str, model: TrainedModel) -> None:
        tag = _registry_tag(name)
        if tag is None:
            self.classifier = model
        else:
            self.regressors[tag] = model

    def save(self, directory) -> None:
        for tag, model in [(None, self.classifier), *sorted(self.regressors.items())]:
            if model is not None:
                model.save(directory, registry_name(tag))

    @classmethod
    def load(cls, directory) -> "ModelRegistry":
        directory = Path(directory)
        data = _read_manifest(directory / MANIFEST_NAME)
        reg = cls()
        for name in sorted(data.get("models", {})):
            model = TrainedModel.load(directory, name)
            # infer builds a regressor's shapes in the model's own class
            if model.class_tag != _REGISTRY_TAGS[name]:
                raise FormatError(f"{name}.scaler.json: class tag {model.class_tag!r} does "
                                  f"not match the registry name {name!r}")
            reg.add(name, model)
        return reg


# -------------------------------------------------------------- inference


@dataclass(frozen=True)
class InverseSolution:
    """Output of the two-stage inversion for one obstacle."""

    class_probs: np.ndarray
    classes: tuple
    predicted_class: int
    shape: BoundaryShape
    in_sampling_ranges: bool
    diagnostics: geometry.ShapeDiagnostics
    provenance: dict


def infer(registry: ModelRegistry, features) -> InverseSolution:
    """Classify, route to that class's regressor, assemble the shape.

    ``features`` is one superset-layout row (see ``superset_config``);
    the classifier and the routed regressor each read their own layout
    from it through ``derive_features``.  The regressed parameters are
    reported raw (no clamping into the sampling ranges); range and
    admissibility diagnostics ride along instead.
    """
    if registry.classifier is None:
        raise ValidationError("registry has no classifier")
    row = np.asarray(features)
    if row.shape != (SUPERSET_T0 * SUPERSET_C0,):
        raise LayoutError("infer takes one superset row of length "
                          f"{SUPERSET_T0 * SUPERSET_C0}, got shape {row.shape}")
    clf = registry.classifier
    probs = clf.predict_probs(derive_features(row, clf.t0, clf.c0))
    tag = int(clf.labels(probs)[0])

    reg = registry.regressors.get(tag)
    if reg is None:
        raise LayoutError(f"no regressor for predicted class {ShapeClass(tag).name}")
    shape = reg.regressed_shape(reg.predict_params(derive_features(row, reg.t0, reg.c0))[0])
    diag = validate_shape(shape, ScatterConfig())
    return InverseSolution(
        class_probs=probs[0],
        classes=clf.classes,
        predicted_class=tag,
        shape=shape,
        in_sampling_ranges=geometry.in_sampling_ranges(shape),
        diagnostics=diag,
        provenance={
            "classifier": {"preset": clf.preset, "seed": clf.seed},
            "regressor": {"name": registry_name(tag), "preset": reg.preset,
                          "seed": reg.seed},
        },
    )


# ----------------------------------------------------------------- curves


@dataclass
class CurveReconstruction:
    tau: np.ndarray
    pred_points: np.ndarray
    true_points: np.ndarray | None
    degenerate: bool
    discrepancy: float | None


def reconstruct_curve(solution, t: int = 256,
                      true_shape: BoundaryShape | None = None) -> CurveReconstruction:
    """Evaluate the predicted boundary on a tau grid (optionally next to
    the truth).  A degenerate radial profile is flagged but still emitted
    so failures stay inspectable."""
    shape = solution.shape if isinstance(solution, InverseSolution) else solution
    tau = boundary_grid(t)
    degenerate = False
    try:
        pred, _ = eval_curve(shape, tau)
    except DegenerateShapeError:
        degenerate = True
        pred, _ = eval_curve(shape, tau, allow_degenerate=True)
    true_points = None
    disc = None
    if true_shape is not None:
        true_points, _ = eval_curve(true_shape, tau)
        diff = pred - true_points
        disc = float(np.sqrt(np.mean(np.sum(diff * diff, axis=1))))
    return CurveReconstruction(tau, pred, true_points, degenerate, disc)


CURVE_COLUMNS = ("tau", "x_true", "y_true", "x_pred", "y_pred")


def write_curve_csv(path, rec: CurveReconstruction) -> None:
    if rec.true_points is None:
        raise ValidationError("curve file needs a truth curve alongside the prediction")
    write_csv(path, CURVE_COLUMNS, np.column_stack((rec.tau, rec.true_points,
                                                    rec.pred_points)))


def read_curve_csv(path):
    """Returns (tau, true_points, pred_points)."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != ",".join(CURVE_COLUMNS):
        raise FormatError(f"{path}: not a curve file")
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    if rows.ndim != 2 or rows.shape[1] != 5:
        raise FormatError(f"{path}: malformed curve rows")
    return rows[:, 0], rows[:, 1:3], rows[:, 3:5]


def aligned_discrepancy(pred_shape: BoundaryShape, true_shape: BoundaryShape,
                        t: int = 128) -> float:
    """Matched-tau RMS minimized over cyclic shifts of the parameter
    origin.  Cross-class comparisons have no canonical origin pairing, so
    the shift giving the best overlay is reported."""
    tau = boundary_grid(t)
    pred, _ = eval_curve(pred_shape, tau, allow_degenerate=True)
    true, _ = eval_curve(true_shape, tau)
    best = math.inf
    for s in range(t):
        diff = pred - np.roll(true, s, axis=0)
        best = min(best, float(np.mean(np.sum(diff * diff, axis=1))))
    return math.sqrt(best)


# ------------------------------------------------- misclassification view


@dataclass
class MisclassifiedSample:
    index: int
    true_class: int
    predicted_class: int
    probs: tuple
    discrepancy: float | None
    degenerate: bool

    def to_json_dict(self) -> dict:
        return {
            "index": self.index,
            "true_class": self.true_class,
            "predicted_class": self.predicted_class,
            "probs": list(self.probs),
            "discrepancy": self.discrepancy,
            "degenerate": self.degenerate,
        }


@dataclass
class MisclassificationReport:
    total: int
    entries: list
    counts: np.ndarray
    classes: tuple

    @property
    def n_misclassified(self) -> int:
        return len(self.entries)

    def to_json_dict(self) -> dict:
        return {
            "total": self.total,
            "n_misclassified": self.n_misclassified,
            "counts": self.counts.tolist(),
            "classes": list(self.classes),
            "entries": [e.to_json_dict() for e in self.entries],
        }


def misclassification_report(registry: ModelRegistry, ds: Dataset,
                             curve_points: int = 128) -> MisclassificationReport:
    """Route every misclassified test obstacle through the (wrong-class)
    regressor it lands on and measure the resulting boundary error.

    The truth obstacle is regenerated from the dataset's shape ids; the
    routed regressor's features come from the row itself when the layout
    matches, otherwise from the surrogate in the regressor's layout.
    """
    if ds.task != "class":
        raise ValidationError("misclassification analysis needs a classification dataset")
    if registry.classifier is None:
        raise ValidationError("registry has no classifier")
    clf = registry.classifier
    _check_fits(ds, clf.spec, clf.classes, "the classifier")
    probs = clf.predict_probs(ds.features)
    pred = clf.labels(probs)
    true = np.asarray(ds.targets)
    rep = training.classification_metrics(pred, true, ds.classes)

    entries = []
    for i in np.nonzero(pred != true)[0]:
        pred_tag = int(pred[i])
        true_shape = regenerate_shape(ds, int(i))
        reg = registry.regressors.get(pred_tag)
        disc = None
        degenerate = False
        if reg is not None:
            if (reg.t0, reg.c0) == (ds.t0, ds.c0):
                row = ds.features[i]
            else:
                row = derive_features(superset_features(true_shape), reg.t0, reg.c0)
            pred_shape = reg.regressed_shape(reg.predict_params(row)[0])
            degenerate = reconstruct_curve(pred_shape, curve_points).degenerate
            disc = aligned_discrepancy(pred_shape, true_shape, curve_points)
        entries.append(MisclassifiedSample(
            index=int(i), true_class=int(true[i]), predicted_class=pred_tag,
            probs=tuple(float(p) for p in probs[i]),
            discrepancy=disc, degenerate=degenerate))
    return MisclassificationReport(total=len(ds), entries=entries,
                                   counts=rep.counts, classes=ds.classes)


# ------------------------------------------------------------ experiments


@dataclass
class ExperimentResult:
    suite: str
    n: int
    preset: str
    seed: int
    scale: float
    model: TrainedModel
    history: TrainHistory
    clean: object
    noise: list
    out_dir: Path | None
    files: dict


def _check_fits(ds: Dataset, spec: NetworkSpec, classes, who: str) -> None:
    """Refuse a dataset the network ``spec`` over ``classes`` cannot train
    on or be scored against; ``who`` names that network in the message."""
    if (ds.t0, ds.c0) != (spec.input_t, spec.input_c):
        raise LayoutError(
            f"dataset layout (t0={ds.t0}, c0={ds.c0}) does not match {who} "
            f"(t0={spec.input_t}, c0={spec.input_c})")
    if ds.task != spec.task:
        raise ValidationError(f"dataset task {ds.task!r} does not match {who} "
                              f"task {spec.task!r}")
    if ds.classes != tuple(classes):
        raise ValidationError(f"dataset classes {ds.classes} do not match {who} "
                              f"classes {tuple(classes)}")
    if ds.task == "reg" and ds.target_dim != spec.output_dim:
        raise ValidationError(
            f"dataset has {ds.target_dim} targets but {who} outputs "
            f"{spec.output_dim} (fixed vs variable impedance?)")


def _row_errors(preds: np.ndarray, ds: Dataset) -> np.ndarray:
    """Euclidean error of each predicted target row against the truth."""
    return np.sqrt(np.sum((preds - ds.targets) ** 2, axis=1))


def _regression_curves(model: TrainedModel, ds: Dataset, preds: np.ndarray, out_dir: Path,
                       prefix: str, seed: int, curve_points: int) -> dict:
    """Write max/min/random truth-vs-prediction curve files over the rows
    of ``ds`` that the regressor ``model`` predicts as ``preds``; returns
    {kind: path}."""
    err = _row_errors(preds, ds)
    picks = {
        "max": int(np.argmax(err)),
        "min": int(np.argmin(err)),
        "random": int(np.random.default_rng(seed).integers(len(ds))),
    }
    files = {}
    for kind, j in picks.items():
        rec = reconstruct_curve(model.regressed_shape(preds[j]), curve_points,
                                true_shape=regenerate_shape(ds, j))
        path = out_dir / f"{prefix}reconstruction_{kind}.csv"
        write_curve_csv(path, rec)
        files[f"reconstruction_{kind}"] = path
    return files


def run_experiment(suite: str, out_dir=None, scale: float = 1.0, seed: int = 0,
                   data=None, train_overrides: dict | None = None,
                   noise_levels=DEFAULT_NOISE_LEVELS, noise_trials: int = 5,
                   curve_points: int = 256, verbose: bool = False) -> ExperimentResult:
    """Run one suite end to end: data, preset training, then the model
    tools on the test rows: clean evaluation, noise sweep, and (for
    regression) error histogram plus max/min/random reconstruction
    curves.  ``data`` may be a Dataset or a dataset path; omitted, the
    suite's dataset is generated at ``scale``.
    ``train_overrides`` update the preset TrainConfig fields."""
    s = suite_spec(suite)
    spec = preset_spec(s.preset)
    cfg = preset_train_config(s.preset, seed=seed, **(train_overrides or {}))
    levels = [0.0] + [float(v) for v in noise_levels]
    _check_sweep(levels, noise_trials)
    if data is None:
        ds = suite_dataset(suite, scale, seed)
    elif isinstance(data, Dataset):
        ds = data
    else:
        ds = dataio.read_dataset(data)
    _check_fits(ds, spec, s.class_tags, f"suite {s.name!r}")

    n = len(ds)
    split = dataio.split_dataset(n, seed)
    feature_scaler = Standardizer.fit(ds.features[split.train])
    target_scaler, y = None, ds.targets
    if s.task == "reg":
        target_scaler = Standardizer.fit(ds.targets[split.train])
        y = target_scaler.apply(ds.targets)

    params, history = train(spec, feature_scaler.apply(ds.features), y, split, cfg,
                            classes=ds.classes, verbose=verbose)
    model = TrainedModel(
        spec, params, feature_scaler, target_scaler, preset=s.preset, seed=seed,
        classes=ds.classes if s.task == "class" else None,
        class_tag=None if s.task == "class" else int(ds.classes[0]),
        fixed_impedance=ds.fixed_impedance)

    test = ds.subset(split.test)
    clean = evaluate_model(model, test)
    noise = sweep_model(model, test, levels, noise_trials, seed)

    files = {}
    out_path = None
    if out_dir is not None:
        out_path = Path(out_dir)
        out_path.mkdir(parents=True, exist_ok=True)
        prefix = f"{suite}_"

        run_config = {
            "suite": suite, "scale": scale, "seed": seed, "preset": s.preset,
            "n": n, "train": dataclasses.asdict(cfg),
            "noise_levels": levels, "noise_trials": noise_trials,
            "data": None if data is None or isinstance(data, Dataset) else str(data),
        }
        files["config"] = out_path / f"{prefix}config.json"
        write_json(files["config"], run_config)

        files["history"] = out_path / f"{prefix}history.csv"
        history.to_csv(files["history"])

        report = {
            "suite": suite, "n": n, "preset": s.preset, "seed": seed,
            "best_epoch": history.best_epoch, "stopped_epoch": history.stopped_epoch,
            "clean": clean.to_json_dict(), "noise": noise,
        }
        files["report"] = out_path / f"{prefix}report.json"
        write_json(files["report"], report)

        files.update(model.save(out_path, s.registry_name))

        if s.task == "reg":
            preds = model.predict_params(test.features)
            files["errors_hist"] = out_path / f"{prefix}errors_hist.csv"
            counts, edges = np.histogram(_row_errors(preds, test), bins=40)
            write_csv(files["errors_hist"], ("bin_left", "bin_right", "count"),
                      zip(edges[:-1], edges[1:], counts))
            files.update(_regression_curves(model, test, preds, out_path, prefix, seed,
                                            curve_points))

    return ExperimentResult(suite=suite, n=n, preset=s.preset, seed=seed,
                            scale=scale, model=model, history=history, clean=clean,
                            noise=noise, out_dir=out_path, files=files)


# ------------------------------------------------ standalone model tools


def _score(model: TrainedModel, x: np.ndarray, targets: np.ndarray):
    """Metrics of the model's answers for standardized rows ``x``."""
    if model.spec.task == "class":
        return training.classification_metrics(model.answers(x), targets, model.classes)
    return training.regression_metrics(model.answers(x), targets)


def evaluate_model(model: TrainedModel, ds: Dataset):
    """Clean metrics of a trained model over a whole dataset."""
    model.check_fits(ds)
    return _score(model, model.feature_scaler.apply(ds.features), ds.targets)


def _check_sweep(levels, trials: int) -> None:
    """A noise sweep's arguments: every level finite and >= 0 (add_noise's
    rule), and at least one trial."""
    for level in levels:
        dataio.check_noise_level(level)
    if trials < 1:
        raise ValidationError("trials must be >= 1")


def sweep_model(model: TrainedModel, ds: Dataset, levels=DEFAULT_NOISE_LEVELS,
                trials: int = 5, seed: int = 0) -> list:
    """Noise sweep of a trained model over a whole dataset: metrics under
    additive noise on the standardized features at each level, averaged
    over ``trials`` draws.  Level 0 reproduces ``evaluate_model``.
    Returns one dict per level."""
    levels = [float(v) for v in levels]
    _check_sweep(levels, trials)
    model.check_fits(ds)
    x = model.feature_scaler.apply(ds.features)
    rng = np.random.default_rng(seed)
    results = []
    for level in levels:
        reps = [_score(model, dataio.add_noise(x, level, rng), ds.targets)
                for _ in range(trials)]
        if ds.task == "class":
            results.append({"level": level,
                            "accuracy": float(np.mean([r.accuracy for r in reps]))})
        else:
            defined = [r.r2 for r in reps if r.r2 is not None]  # tiny sets may have no R^2
            results.append({"level": level,
                            "r2": float(np.mean(defined)) if defined else None,
                            "rmse": float(np.mean([r.rmse for r in reps]))})
    return results


def reconstruct_samples(model: TrainedModel, ds: Dataset, out_dir, seed: int = 0,
                        curve_points: int = 256) -> dict:
    """Emit max/min/random truth-vs-prediction curve files for a
    regression dataset under a trained model."""
    model.check_fits(ds)
    if ds.task != "reg":
        raise ValidationError("curve reconstruction needs a regression dataset")
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    return _regression_curves(model, ds, model.predict_params(ds.features), out_path, "",
                              seed, curve_points)
