"""Far-field data generation and dataset I/O.

The forward map from boundary to far-field pattern is a deterministic
single-layer-potential surrogate: for incidence direction
d = (cos phi, sin phi) and observation directions x_hat(t_j) on the
uniform angle grid, the two patterns are quadratures over the boundary
nodes x_k with weights w_k = |x'(tau_k)| * 2*pi/T,

    e(t_j) = (sin(theta)/sqrt(eps0)) * (1/(1+lambda))
             * sum_k exp(i*kappa0*(d - x_hat_j).x_k) * w_k
    h(t_j) = (lambda/(1+lambda))
             * sum_k exp(i*kappa0*(d - x_hat_j).x_k) * (n_k.x_hat_j) * w_k

with n the outward unit normal.  The sums are evaluated in separable
form.  The incidence factor exp(i*kappa0*d.x_k) is a length-T vector
folded into the weights, and n_k.x_hat_j = cos(t_j)*n_x,k + sin(t_j)*n_y,k
splits the normal term into two weighted columns.  T0 is even, so
x_hat_{j+T0/2} = -x_hat_j: the cosine and sine of kappa0*x_hat_j.x_k on
the first half of the grid give exp(-i*...) there and exp(+i*...) on the
second half.  That (T0 x T) table depends on the boundary nodes (and T0
and kappa0) only, not on the incidence, so it is built once per boundary
and shared by every incidence; each call is one real (T0 x T) @ (T x 6)
product of it with the real and imaginary parts of the three columns.

Generation evaluates each boundary once per row.  ``geometry._nodes``
keeps the last boundary's nodes in a one-entry memo keyed by the exact
bytes of its class tag, coefficients, center and tau grid.
``validate_shape`` fills it for the candidate ``sample_shape`` accepts,
and every ``surrogate_farfield(shape, config, phi)`` call of the row
reads those nodes back through ``eval_curve``.  The three columns
without the incidence factor (``_normal_columns``, keyed by the
derivatives' bytes) and the phase table (``_phase_table``, keyed by the
nodes' bytes) are one-entry memos too: the second incidence of a row
rebuilds neither.  Every memo hands out read-only arrays and holds the
bits a fresh build gives, so no feature depends on what was evaluated
before it.  Rows are not batched: each is still one call per incidence.

Features are the real/imaginary parts of these patterns stacked
channel-major: features[c*T0 + i] = X[i, c].
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, LayoutError, ValidationError
from .geometry import (
    IMPEDANCE_RANGE,
    N_COEFFS,
    BoundaryShape,
    ScatterConfig,
    ShapeClass,
    boundary_grid,
    eval_curve,
    sample_shape,
    shape_to_targets,
)
from .serial import atomic_write, format_double, parse_json_object

TEXT_MAGIC = "circscatter-v1"
BINARY_MAGIC = b"CSC1"
BINARY_HEADER_KEYS = ("n", "t0", "c0", "p", "task", "classes", "shape_ids")
STD_FLOOR = 1e-12


@functools.lru_cache(maxsize=None)
def _observation_directions(t0: int) -> np.ndarray:
    """(2, t0) read-only table of x_hat(t_j) = (cos t_j, sin t_j): the
    first half of the grid evaluated, the second half its negation."""
    t = boundary_grid(t0)[: t0 // 2]
    half = np.stack([np.cos(t), np.sin(t)])
    table = np.concatenate([half, -half], axis=1)
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=1)
def _phase_table(pts_bytes: bytes, t0: int, kappa0: float) -> np.ndarray:
    """Read-only (t0, T) table: cos, then sin, of kappa0*x_hat_j.x_k on the
    first half of the observation grid.  Keyed by the exact bytes of the
    (T, 2) float64 boundary nodes, so a hit holds the bits a fresh build
    would; one entry serves every incidence of the boundary in hand."""
    pts = np.frombuffer(pts_bytes).reshape(-1, 2)
    half = t0 // 2
    phase = kappa0 * (_observation_directions(t0)[:, :half].T @ pts.T)   # (T0/2, T)
    trig = np.empty((t0, len(pts)))
    np.cos(phase, out=trig[:half])
    np.sin(phase, out=trig[half:])
    trig.setflags(write=False)
    return trig


@functools.lru_cache(maxsize=1)
def _normal_columns(deriv_bytes: bytes) -> np.ndarray:
    """Read-only (T, 3) columns |x'|, x'_y, -x'_x: the weight and the
    |x'|-weighted outward normal of a counter-clockwise parametrization,
    before the quadrature step and the incidence factor.  Keyed by the
    exact bytes of the (T, 2) float64 derivatives, so a hit holds the bits
    a fresh build would; one entry serves every incidence of the boundary
    in hand."""
    deriv = np.frombuffer(deriv_bytes).reshape(-1, 2)
    speed = np.hypot(deriv[:, 0], deriv[:, 1])
    if np.any(speed <= 0.0):
        raise ValidationError("boundary parametrization has a stationary point")
    cols = np.stack([speed, deriv[:, 1], -deriv[:, 0]], axis=1)
    cols.setflags(write=False)
    return cols


def surrogate_farfield(shape: BoundaryShape, config: ScatterConfig, phi: float):
    """Quadrature surrogate far-field pair (e, h) on the T0 angle grid.

    Only the incidence factor and the sums depend on ``phi``.  The
    boundary nodes come from ``eval_curve``'s memo, the weighted normal
    columns from ``_normal_columns`` and the phase table from
    ``_phase_table``: each is built once per boundary, so the second
    incidence of a row pays for neither.
    Returns two complex ndarrays of shape (config.t0,).
    """
    if float(phi) not in config.phis:
        raise ValidationError(f"phi={phi} not in config.phis={config.phis}")
    tau = boundary_grid(config.t_boundary)
    pts, deriv = eval_curve(shape, tau)
    normal = _normal_columns(deriv.tobytes())
    # the columns times the incidence factor exp(i*kappa0*d.x)
    d = np.array([math.cos(phi), math.sin(phi)])
    incident = np.exp(1j * config.kappa0 * (pts @ d)) * (2.0 * np.pi / config.t_boundary)
    cols = incident[:, None] * normal

    xhat = _observation_directions(config.t0)                 # (2, T0)
    half = config.t0 // 2
    trig = _phase_table(pts.tobytes(), config.t0, config.kappa0)
    # one real GEMM over the interleaved (re, im) parts of the columns
    sums = (trig @ cols.view(np.float64)).view(np.complex128)  # (T0, 3)
    c_sum, s_sum = sums[:half], sums[half:]
    # sum_k exp(-i*phase) * cols on the first half of the grid, and
    # exp(+i*phase) on the second, where x_hat is negated
    g = np.concatenate([c_sum - 1j * s_sum, c_sum + 1j * s_sum])
    lam = shape.impedance
    e = (math.sin(config.theta) / math.sqrt(config.eps0)) / (1.0 + lam) * g[:, 0]
    h = (lam / (1.0 + lam)) * (xhat[0] * g[:, 1] + xhat[1] * g[:, 2])
    return e, h


def assemble_channels(fields: dict, config: ScatterConfig) -> np.ndarray:
    """Flatten far-field pairs into the channel-major feature vector: for
    each phi of ``config.phis`` in order, Re E and Im E, then Re H and
    Im H when c0 > 2.

    ``fields`` maps phi -> (e, h) complex arrays of length t0.
    """
    parts = []
    for phi in config.phis:
        if phi not in fields:
            raise LayoutError(f"config needs phi={phi} but fields only has {sorted(fields)}")
        e, h = fields[phi]
        for arr in (e, h) if config.c0 > 2 else (e,):
            if arr.shape != (config.t0,):
                raise LayoutError(f"field array for phi={phi} has shape {arr.shape}, "
                                  f"want ({config.t0},)")
            parts += [arr.real, arr.imag]
    return np.concatenate(parts).astype(np.float64, copy=False)


def feature_row(shape: BoundaryShape, config: ScatterConfig) -> np.ndarray:
    """One obstacle's feature vector: the surrogate at every incidence of
    ``config``, flattened channel-major."""
    fields = {phi: surrogate_farfield(shape, config, phi) for phi in config.phis}
    return assemble_channels(fields, config)


def reshape_to_tensor(features: np.ndarray, t0: int, c0: int) -> np.ndarray:
    """Feature vector(s) -> (t0, c0) tensor(s): X[i, c] = features[c*t0 + i].
    Accepts a single vector or a batch (n, t0*c0)."""
    features = np.asarray(features)
    if features.shape[-1] != t0 * c0:
        raise LayoutError(f"feature length {features.shape[-1]} != t0*c0 = {t0 * c0}")
    if features.ndim == 1:
        return features.reshape(c0, t0).T
    if features.ndim == 2:
        return features.reshape(-1, c0, t0).transpose(0, 2, 1)
    raise LayoutError("features must be a vector or a batch of vectors")


def flatten_tensor(x: np.ndarray) -> np.ndarray:
    """Inverse of reshape_to_tensor."""
    x = np.asarray(x)
    if x.ndim == 2:
        return x.T.reshape(-1)
    if x.ndim == 3:
        return x.transpose(0, 2, 1).reshape(x.shape[0], -1)
    raise LayoutError("tensor must be (t0, c0) or (n, t0, c0)")


# ---------------------------------------------------------------- datasets


def _check_fields(task, t0, c0, classes, shape_ids, fixed_impedance) -> None:
    """The rules a dataset's header fields obey wherever they come from:
    a file of either container, a generator's arguments, or a Dataset."""
    tags = [int(tag) for tag in ShapeClass]
    if task not in ("class", "reg"):
        raise ValidationError(f"unknown task {task!r}")
    if not (type(t0) is int and type(c0) is int and t0 >= 1 and c0 >= 1):
        raise ValidationError(f"t0 and c0 must be >= 1 and integers, got t0={t0!r}, c0={c0!r}")
    if not (type(classes) is tuple and classes
            and all(type(c) is int and c in tags for c in classes)):
        raise ValidationError(f"classes must be a nonempty tuple of tags from {tags}, "
                              f"got {classes!r}")
    if not (isinstance(shape_ids, list) and all(isinstance(s, str) for s in shape_ids)):
        raise ValidationError("shape ids must be a list of strings")
    check_fixed_impedance(fixed_impedance)


def check_fixed_impedance(fixed_impedance) -> None:
    """A fixed impedance is None or a number in IMPEDANCE_RANGE: the rule
    for a dataset's header and a regressor's scaler meta alike."""
    lo, hi = IMPEDANCE_RANGE
    number = isinstance(fixed_impedance, (int, float)) and not isinstance(fixed_impedance, bool)
    if not (fixed_impedance is None or number and lo <= fixed_impedance <= hi):
        raise ValidationError(f"fixed impedance {fixed_impedance!r} is not a number "
                              f"in [{lo}, {hi}]")


@dataclass
class Dataset:
    """In-memory dataset: features (n, t0*c0) float64, targets either
    (n,) integer labels (task "class") or (n, p) doubles (task "reg")."""

    features: np.ndarray
    targets: np.ndarray
    task: str
    t0: int
    c0: int
    classes: tuple[int, ...]
    shape_ids: list[str]
    fixed_impedance: float | None = None

    def __post_init__(self):
        _check_fields(self.task, self.t0, self.c0, self.classes, self.shape_ids,
                      self.fixed_impedance)
        if self.features.ndim != 2 or self.features.shape[1] != self.t0 * self.c0:
            raise ValidationError("features must be (n, t0*c0)")
        if len(self.features) == 0:
            raise ValidationError("a dataset needs at least one row")
        if len(self.shape_ids) != len(self.features):
            raise ValidationError("one shape_id per row required")
        if self.task == "class":
            labels = np.asarray(self.targets)
            # a NaN, fractional or out-of-range label casts to some other value
            with np.errstate(invalid="ignore"):
                self.targets = labels.astype(np.int64)
            if not np.array_equal(self.targets, labels):
                raise ValidationError("class labels must be integer values")
            if self.targets.shape != (len(self.features),):
                raise ValidationError("class targets must be a label vector")
            bad = set(np.unique(self.targets)) - set(self.classes)
            if bad:
                raise ValidationError(f"labels {sorted(bad)} not in classes {self.classes}")
        else:
            self.targets = np.asarray(self.targets, dtype=np.float64)
            if self.targets.ndim != 2 or self.targets.shape[0] != len(self.features):
                raise ValidationError("regression targets must be (n, p)")
        # one pass over each array; integer labels are finite by type
        finite = np.isfinite(self.features).all() and (
            self.task == "class" or np.isfinite(self.targets).all())
        if not finite:
            raise ValidationError("features and targets must be finite")

    def __len__(self):
        return len(self.features)

    @property
    def target_dim(self) -> int:
        return 1 if self.task == "class" else self.targets.shape[1]

    def subset(self, rows) -> "Dataset":
        """The given rows, in that order, as a new dataset."""
        return dataclasses.replace(self, features=self.features[rows],
                                   targets=self.targets[rows],
                                   shape_ids=[self.shape_ids[i] for i in rows])


@contextlib.contextmanager
def _file_fields(context: str, line: int | None = None):
    """Where a reader checks its header or builds its Dataset: a field
    refused there is a FormatError, its message prefixed with ``context``."""
    try:
        yield
    except (TypeError, OverflowError, ValidationError) as exc:
        raise FormatError(f"{context}: {exc}", line=line) from exc


def generate_dataset(class_tags, n: int, config: ScatterConfig, seed: int,
                     impedance="variable") -> Dataset:
    """Generate n samples cycling through ``class_tags`` round-robin.

    One class tag gives a regression dataset (targets are the shape
    parameter vectors); several tags give a classification dataset
    (targets are the class labels).  ``impedance`` is "variable" or a
    fixed float; the impedance enters the regression targets only when
    variable.  Each row is a pure function of (seed, row index, config),
    so generation order or chunking cannot change the result.
    """
    tags = [ShapeClass(t) for t in class_tags]
    if not tags:
        raise ValidationError("need at least one class tag")
    if n < 1:
        raise ValidationError("n must be positive")
    fixed = None if impedance == "variable" else float(impedance)
    task = "class" if len(tags) > 1 else "reg"
    classes = tuple(sorted(int(t) for t in set(tags)))
    shape_ids = [f"{seed}:{i}" for i in range(n)]
    _check_fields(task, config.t0, config.c0, classes, shape_ids, fixed)
    include_imp = fixed is None

    children = np.random.SeedSequence(seed).spawn(n)
    features = np.empty((n, config.t0 * config.c0), dtype=np.float64)
    if task == "class":
        targets = np.empty(n, dtype=np.int64)
    else:
        p = N_COEFFS[tags[0]] + 2 + (1 if include_imp else 0)
        targets = np.empty((n, p), dtype=np.float64)

    for i in range(n):
        tag = tags[i % len(tags)]
        rng = np.random.default_rng(children[i])
        shape = sample_shape(tag, rng, config, fixed_impedance=fixed)
        features[i] = feature_row(shape, config)
        if task == "class":
            targets[i] = int(tag)
        else:
            targets[i] = shape_to_targets(shape, include_impedance=include_imp)

    return Dataset(features, targets, task, config.t0, config.c0, classes,
                   shape_ids, fixed_impedance=fixed)


# ---------------------------------------------------------------- splits


@dataclass(frozen=True)
class DatasetSplit:
    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray
    seed: int


def split_dataset(n: int, seed: int) -> DatasetSplit:
    """Disjoint 80/10/10 split of range(n) by a seeded permutation.

    Valid and test sizes are round(n/10) each (ties round half up);
    train takes the rest.
    """
    if n < 10:
        raise ValidationError("need at least 10 samples to split")
    n_valid = int(math.floor(n / 10 + 0.5))
    n_test = n_valid
    perm = np.random.default_rng(seed).permutation(n)
    train = perm[: n - n_valid - n_test]
    valid = perm[n - n_valid - n_test: n - n_test]
    test = perm[n - n_test:]
    return DatasetSplit(np.sort(train), np.sort(valid), np.sort(test), seed)


# ---------------------------------------------------------------- scaling


@dataclass
class Standardizer:
    """Per-feature affine map fitted on training rows only."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, rows: np.ndarray) -> "Standardizer":
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2 or len(rows) < 2:
            raise ValidationError("need a (n>=2, d) matrix to fit a standardizer")
        mean = rows.mean(axis=0)
        std = np.maximum(rows.std(axis=0), STD_FLOOR)
        return cls(mean, std)

    def apply(self, rows: np.ndarray) -> np.ndarray:
        return (np.asarray(rows, dtype=np.float64) - self.mean) / self.std

    def invert(self, rows: np.ndarray) -> np.ndarray:
        return np.asarray(rows, dtype=np.float64) * self.std + self.mean

    def to_json_dict(self) -> dict:
        return {"mean": [float(v) for v in self.mean], "std": [float(v) for v in self.std]}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Standardizer":
        try:
            mean = np.asarray(obj["mean"], dtype=np.float64)
            std = np.asarray(obj["std"], dtype=np.float64)
        except KeyError as exc:
            raise FormatError(f"standardizer JSON missing key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise FormatError(f"standardizer JSON malformed: {exc}") from exc
        if mean.ndim != 1 or mean.shape != std.shape:
            raise FormatError(
                f"standardizer mean and std must be lists of one length, "
                f"got shapes {mean.shape} and {std.shape}")
        # fit floors std at STD_FLOOR, so no file written here is refused
        if not (np.isfinite(mean).all() and np.isfinite(std).all() and (std > 0).all()):
            raise FormatError("standardizer mean must be finite and std finite and > 0")
        return cls(mean, std)


def check_noise_level(level: float) -> None:
    """A noise level is finite and >= 0 (a chained comparison refuses NaN)."""
    if not 0.0 <= level < math.inf:
        raise ValidationError(f"noise level must be finite and >= 0, got {level!r}")


def add_noise(rows: np.ndarray, level: float, rng: np.random.Generator) -> np.ndarray:
    """rows + level * standard normal draws, applied to standardized features."""
    check_noise_level(level)
    return rows + level * rng.standard_normal(rows.shape)


# ---------------------------------------------------------------- text files


def _header_line(ds: Dataset) -> str:
    head = (f"{TEXT_MAGIC} T0={ds.t0} C0={ds.c0} P={ds.target_dim} "
            f"task={ds.task} classes={','.join(str(c) for c in ds.classes)}")
    if ds.fixed_impedance is not None:
        head += f" fixed_lambda={format_double(ds.fixed_impedance)}"
    return head


def _parse_header(line: str) -> dict:
    tokens = line.split()
    if not tokens or tokens[0] != TEXT_MAGIC:
        raise FormatError(f"bad magic, expected {TEXT_MAGIC!r}", line=1)
    out = {}
    for tok in tokens[1:]:
        if "=" not in tok:
            raise FormatError(f"malformed header token {tok!r}", line=1)
        key, value = tok.split("=", 1)
        out[key] = value
    try:
        parsed = {
            "t0": int(out["T0"]),
            "c0": int(out["C0"]),
            "p": int(out["P"]),
            "task": out["task"],
            "classes": tuple(int(c) for c in out["classes"].split(",")),
            "fixed_lambda": float(out["fixed_lambda"]) if "fixed_lambda" in out else None,
        }
    except (KeyError, ValueError) as exc:
        raise FormatError(f"invalid header: {exc}", line=1) from exc
    with _file_fields("invalid header", line=1):
        # a text file's shape ids come one per row
        _check_fields(parsed["task"], parsed["t0"], parsed["c0"], parsed["classes"], [],
                      parsed["fixed_lambda"])
    return parsed


def write_dataset_text(path, ds: Dataset) -> None:
    with atomic_write(path) as fh:
        fh.write(_header_line(ds) + "\n")
        for i in range(len(ds)):
            cols = [format_double(v) for v in ds.features[i]]
            if ds.task == "class":
                cols.append(str(int(ds.targets[i])))
            else:
                cols.extend(format_double(v) for v in ds.targets[i])
            cols.append(ds.shape_ids[i])
            fh.write(",".join(cols) + "\n")


def read_dataset_text(path) -> Dataset:
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise FormatError(f"not an ASCII text dataset: {exc}") from exc
    head = _parse_header(lines[0])
    # the writer ends every row with a newline, so a last row without one
    # is a file cut short
    if lines[-1]:
        raise FormatError("row has no closing newline (file cut short?)", line=len(lines))
    d = head["t0"] * head["c0"]
    n_target = 1 if head["task"] == "class" else head["p"]
    features, targets, shape_ids = [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        cols = line.split(",")
        if len(cols) != d + n_target + 1:
            raise FormatError(
                f"expected {d + n_target + 1} columns, got {len(cols)}", line=lineno)
        try:
            features.append([float(v) for v in cols[:d]])
            if head["task"] == "class":
                targets.append(int(cols[d]))
            else:
                targets.append([float(v) for v in cols[d:d + n_target]])
        except ValueError as exc:
            raise FormatError(str(exc), line=lineno) from exc
        shape_ids.append(cols[-1])
    with _file_fields("invalid dataset"):
        return Dataset(np.asarray(features, dtype=np.float64).reshape(-1, d), targets,
                       head["task"], head["t0"], head["c0"], head["classes"], shape_ids,
                       fixed_impedance=head["fixed_lambda"])


# ---------------------------------------------------------------- binary files


def write_dataset_binary(path, ds: Dataset) -> None:
    header = {
        "t0": ds.t0, "c0": ds.c0, "p": ds.target_dim, "task": ds.task,
        "classes": list(ds.classes), "n": len(ds), "shape_ids": ds.shape_ids,
        "fixed_lambda": ds.fixed_impedance,
    }
    blob = json.dumps(header, separators=(",", ":")).encode("ascii")
    with atomic_write(path, "wb") as fh:
        fh.write(BINARY_MAGIC)
        fh.write(np.array(len(blob), dtype="<u4").tobytes())
        fh.write(blob)
        fh.write(np.ascontiguousarray(ds.features, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(ds.targets, dtype="<f8").tobytes())


def read_dataset_binary(path) -> Dataset:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != BINARY_MAGIC:
            raise FormatError(f"bad magic {magic!r}, expected {BINARY_MAGIC!r}")
        raw_len = fh.read(4)
        if len(raw_len) != 4:
            raise FormatError("truncated header length")
        hlen = int(np.frombuffer(raw_len, dtype="<u4")[0])
        header = parse_json_object(fh.read(hlen), "bad binary header", "ascii")
        missing = [key for key in BINARY_HEADER_KEYS if key not in header]
        if missing:
            raise FormatError(f"binary header lacks {', '.join(missing)}")
        n, t0, c0, p = header["n"], header["t0"], header["c0"], header["p"]
        if not all(type(v) is int and v >= 0 for v in (n, t0, c0, p)):
            raise FormatError("binary header n, t0, c0, p must be integers >= 0")
        task, classes = header["task"], header["classes"]
        if isinstance(classes, list):
            classes = tuple(classes)
        fields = (task, t0, c0, classes, header["shape_ids"], header.get("fixed_lambda"))
        with _file_fields("bad binary header"):
            _check_fields(*fields)
        d = t0 * c0
        need = 8 * n * (d + (1 if task == "class" else p))
        # sized against the file before anything is read, so a header
        # cannot ask for more than the file holds
        have = os.fstat(fh.fileno()).st_size - fh.tell()
        if have != need:
            what = "truncated" if have < need else "trailing bytes after"
            raise FormatError(f"{what} payload: {have} bytes where the header needs {need}")
        values = np.frombuffer(fh.read(need), dtype="<f8").astype(np.float64)
    targets = values[n * d:] if task == "class" else values[n * d:].reshape(n, p)
    with _file_fields("bad binary header"):
        return Dataset(values[:n * d].reshape(n, d), targets, *fields)


def write_dataset(path, ds: Dataset, binary: bool = False) -> None:
    if binary:
        write_dataset_binary(path, ds)
    else:
        write_dataset_text(path, ds)


def read_dataset(path) -> Dataset:
    """Sniff the on-disk format by magic bytes and dispatch."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == BINARY_MAGIC:
        return read_dataset_binary(path)
    return read_dataset_text(path)
