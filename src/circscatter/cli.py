"""Command-line entry points for reproducible runs.

Every command reads an optional JSON config file and applies explicit
flags on top (flags win).  Commands never touch their inputs; outputs,
including an archived copy of the resolved configuration, land under the
run's output directory.

Exit codes: 0 success, 2 validation problem, 3 numeric failure
(divergence, failed gradient check), 4 I/O or malformed file.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import dataio, pipeline, training
from .errors import (
    CircScatterError,
    FormatError,
    NumericError,
    SamplingStuckError,
    ValidationError,
)
from .pipeline import DEFAULT_NOISE_LEVELS, suite_spec
from .serial import read_json_object, write_json

PRESET_SUITE = {s.preset: name for name, s in pipeline.SUITES.items()}

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


# ------------------------------------------------------------- arg plumbing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circscatter",
        description="Inverse obstacle scattering with circular CNNs: "
                    "generate data, train, evaluate, sweep noise, "
                    "reconstruct boundaries, check gradients.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int, help="run seed (default 0)")

    p = sub.add_parser("generate", help="generate a suite dataset file")
    common(p)
    p.add_argument("--suite", choices=sorted(pipeline.SUITES))
    p.add_argument("--scale", type=float, help="dataset scale in (0, 1]")
    p.add_argument("--fixed-lambda", type=float, dest="fixed_lambda",
                   help="override the impedance mode with a fixed value")
    p.add_argument("--format", choices=("text", "binary"), dest="file_format",
                   help="dataset container (default binary)")

    p = sub.add_parser("train", help="train a preset on a dataset (or generate one)")
    common(p)
    p.add_argument("--suite", choices=sorted(pipeline.SUITES))
    p.add_argument("--preset", choices=sorted(PRESET_SUITE))
    p.add_argument("--data", help="dataset path; omitted, the suite dataset "
                                  "is generated at --scale")
    p.add_argument("--scale", type=float)
    p.add_argument("--epochs", type=int, help="cap on training epochs")
    p.add_argument("--lr", type=float, help="learning rate override")
    p.add_argument("--batch", type=int, help="batch size override")
    p.add_argument("--patience", type=int, help="early-stopping patience")
    p.add_argument("--min-delta", type=float, dest="min_delta",
                   help="early-stopping improvement threshold")
    p.add_argument("--clip", type=float, help="gradient clipping norm")
    p.add_argument("--noise-levels", dest="noise_levels",
                   help="comma-separated sweep levels for the report")
    p.add_argument("--trials", type=int, help="noise draws per level (default 5)")
    p.add_argument("--verbose", action="store_true", default=None)

    p = sub.add_parser("evaluate", help="clean metrics of a model on a dataset")
    common(p)
    p.add_argument("--model", help="model prefix, e.g. runs/full/peanut")
    p.add_argument("--data")

    p = sub.add_parser("sweep", help="noise sweep of a model on a dataset")
    common(p)
    p.add_argument("--model")
    p.add_argument("--data")
    p.add_argument("--noise-levels", dest="noise_levels")
    p.add_argument("--trials", type=int)

    p = sub.add_parser("reconstruct", help="truth-vs-prediction curve files "
                                           "for max/min/random test samples")
    common(p)
    p.add_argument("--model")
    p.add_argument("--data")
    p.add_argument("--curve-points", type=int, dest="curve_points")

    p = sub.add_parser("gradcheck", help="finite-difference gradient check")
    common(p)
    p.add_argument("--tolerance", type=float)

    return parser


class _Resolver:
    """Flag > config-file > default, per key."""

    def __init__(self, args: argparse.Namespace, config: dict):
        self.args = args
        self.config = config

    def get(self, key, default=None):
        v = getattr(self.args, key, None)
        if v is not None:
            return v
        return self.config.get(key, default)

    def require(self, key, flag: str):
        v = self.get(key)
        if v is None:
            raise ValidationError(f"missing required option {flag} "
                                  f"(flag or config key {key!r})")
        return v


def _parse_levels(value) -> list:
    if isinstance(value, (list, tuple)):
        return [float(v) for v in value]
    try:
        return [float(tok) for tok in str(value).split(",") if tok.strip()]
    except ValueError:
        raise ValidationError(f"bad noise levels {value!r}; "
                              "expected comma-separated numbers") from None


def _archive(out_dir: Path, command: str, resolved: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / f"{command}_config.json", {"command": command, **resolved})


def _model_prefix(value: str):
    """'runs/peanut' or 'runs/peanut.model' -> (directory, name)."""
    p = Path(value)
    if p.suffix == ".model":
        p = p.with_suffix("")
    return p.parent, p.name


def _train_overrides(res: _Resolver) -> dict:
    mapping = {
        "epochs": "max_epochs",
        "lr": "learning_rate",
        "batch": "batch_size",
        "patience": "patience",
        "min_delta": "min_delta",
        "clip": "clip_norm",
    }
    out = {}
    for key, field in mapping.items():
        v = res.get(key)
        if v is not None:
            out[field] = v
    return out


def _resolve_suite(res: _Resolver) -> str:
    suite = res.get("suite")
    preset = res.get("preset")
    if preset is not None:
        if preset not in PRESET_SUITE:
            raise ValidationError(f"unknown preset {preset!r}; "
                                  f"choose from {sorted(PRESET_SUITE)}")
        implied = PRESET_SUITE[preset]
        if suite is not None and suite != implied:
            raise ValidationError(f"preset {preset} belongs to suite {implied}, "
                                  f"not {suite}")
        suite = implied
    if suite is None:
        raise ValidationError("missing --suite (or --preset)")
    suite_spec(suite)
    return suite


# ----------------------------------------------------------------- commands


def cmd_generate(res: _Resolver) -> int:
    suite = _resolve_suite(res)
    out_dir = Path(res.require("out", "--out"))
    scale = float(res.get("scale", 1.0))
    seed = int(res.get("seed", 0))
    fixed_lambda = res.get("fixed_lambda")
    file_format = res.get("file_format", "binary")
    if file_format not in ("text", "binary"):
        raise ValidationError(f"unknown format {file_format!r}")

    s = suite_spec(suite)
    if fixed_lambda is None:
        imp = "variable" if s.fixed_impedance is None else s.fixed_impedance
    else:
        imp = float(fixed_lambda)
    ds = dataio.generate_dataset(s.class_tags, s.n_at_scale(scale), s.config(),
                                 seed, impedance=imp)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{suite}.csc"
    dataio.write_dataset(path, ds, binary=(file_format == "binary"))
    _archive(out_dir, "generate", {
        "suite": suite, "scale": scale, "seed": seed,
        "fixed_lambda": fixed_lambda, "file_format": file_format,
        "n": len(ds), "path": str(path),
    })
    print(f"wrote {len(ds)} samples (t0={ds.t0}, c0={ds.c0}, task={ds.task}) "
          f"to {path}")
    return EXIT_OK


def cmd_train(res: _Resolver) -> int:
    suite = _resolve_suite(res)
    out_dir = Path(res.require("out", "--out"))
    seed = int(res.get("seed", 0))
    scale = float(res.get("scale", 1.0))
    data = res.get("data")
    overrides = _train_overrides(res)
    levels = _parse_levels(res.get("noise_levels", DEFAULT_NOISE_LEVELS))
    trials = int(res.get("trials", 5))

    result = pipeline.run_experiment(
        suite, out_dir=out_dir, scale=scale, seed=seed, data=data,
        train_overrides=overrides, noise_levels=levels, noise_trials=trials,
        verbose=bool(res.get("verbose", False)))
    _archive(out_dir, "train", {
        "suite": suite, "seed": seed, "scale": scale,
        "data": None if data is None else str(data),
        "train_overrides": overrides, "noise_levels": levels, "trials": trials,
    })
    clean = result.clean
    if suite == "classification":
        headline = f"test accuracy {clean.accuracy:.4f}"
    else:
        r2 = "n/a" if clean.r2 is None else f"{clean.r2:.4f}"
        headline = f"test R^2 {r2}, RMSE {clean.rmse:.6f}"
    print(f"{suite}: trained preset {result.preset} on {result.n} samples, "
          f"best epoch {result.history.best_epoch}/"
          f"{result.history.stopped_epoch}, {headline}")
    print(f"artifacts in {out_dir}")
    return EXIT_OK


def _load_model_and_data(res: _Resolver):
    directory, name = _model_prefix(res.require("model", "--model"))
    model = pipeline.TrainedModel.load(directory, name)
    ds = dataio.read_dataset(res.require("data", "--data"))
    return model, name, ds


def cmd_evaluate(res: _Resolver) -> int:
    model, name, ds = _load_model_and_data(res)
    rep = pipeline.evaluate_model(model, ds)
    if ds.task == "class":
        print(f"accuracy {rep.accuracy:.4f}")
        for c, r in rep.recalls.items():
            print(f"  class {c} recall {r:.4f}")
    else:
        r2 = "n/a" if rep.r2 is None else f"{rep.r2:.6f}"
        print(f"R^2 {r2}, RMSE {rep.rmse:.6f}")
    out = res.get("out")
    if out is not None:
        out_dir = Path(out)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_json(out_dir / f"{name}_eval.json", rep.to_json_dict())
        _archive(out_dir, "evaluate", {
            "model": str(res.get("model")), "data": str(res.get("data")),
        })
    return EXIT_OK


def cmd_sweep(res: _Resolver) -> int:
    model, name, ds = _load_model_and_data(res)
    levels = _parse_levels(res.get("noise_levels", DEFAULT_NOISE_LEVELS))
    trials = int(res.get("trials", 5))
    seed = int(res.get("seed", 0))
    table = pipeline.sweep_model(model, ds, levels=levels, trials=trials,
                                 seed=seed)
    for row in table:
        cols = ", ".join(f"{k} {v:.6f}" if isinstance(v, float) else f"{k} {v}"
                         for k, v in row.items())
        print(cols)
    out = res.get("out")
    if out is not None:
        out_dir = Path(out)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_json(out_dir / f"{name}_sweep.json", table)
        _archive(out_dir, "sweep", {
            "model": str(res.get("model")), "data": str(res.get("data")),
            "noise_levels": levels, "trials": trials, "seed": seed,
        })
    return EXIT_OK


def cmd_reconstruct(res: _Resolver) -> int:
    model, _, ds = _load_model_and_data(res)
    out_dir = Path(res.require("out", "--out"))
    seed = int(res.get("seed", 0))
    points = int(res.get("curve_points", 256))
    files = pipeline.reconstruct_samples(model, ds, out_dir, seed=seed,
                                         curve_points=points)
    _archive(out_dir, "reconstruct", {
        "model": str(res.get("model")), "data": str(res.get("data")),
        "seed": seed, "curve_points": points,
    })
    for kind, path in sorted(files.items()):
        print(f"{kind}: {path}")
    return EXIT_OK


def cmd_gradcheck(res: _Resolver) -> int:
    seed = int(res.get("seed", 0))
    tolerance = float(res.get("tolerance", 1e-4))
    reports = training.grad_check_all(seed=seed, tolerance=tolerance)
    all_passed = True
    for name, rep in reports.items():
        verdict = "PASS" if rep.passed else "FAIL"
        print(f"{name}: max_rel_err={rep.max_rel_error:.3e} "
              f"(< {tolerance:g}): {verdict}")
        all_passed = all_passed and rep.passed
    out = res.get("out")
    if out is not None:
        out_dir = Path(out)
        out_dir.mkdir(parents=True, exist_ok=True)
        payload = {
            name: {"max_rel_error": rep.max_rel_error, "passed": rep.passed,
                   "tolerance": rep.tolerance}
            for name, rep in reports.items()
        }
        write_json(out_dir / "gradcheck_report.json", payload)
        _archive(out_dir, "gradcheck", {"seed": seed, "tolerance": tolerance})
    return EXIT_OK if all_passed else EXIT_NUMERIC


_COMMANDS = {
    "generate": cmd_generate,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "sweep": cmd_sweep,
    "reconstruct": cmd_reconstruct,
    "gradcheck": cmd_gradcheck,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = {} if args.config is None else read_json_object(args.config)
        res = _Resolver(args, config)
        return _COMMANDS[args.command](res)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except SamplingStuckError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except FormatError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (CircScatterError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
