"""Command-line entry points for reproducible runs.

Each option is declared once, on its subcommand's parser: flag, type,
default and choices.  An optional JSON config file supplies the
subcommand's defaults, each value parsed the way its option parses a
flag, so explicit flags still win.  Commands never touch their inputs;
outputs land under the run's output directory.  There, once a command
returns (a failed gradient check included), ``main`` archives the run as
``<command>_config.json``: the command name and every option of the
subcommand as resolved from flags, config file and defaults, keyed by
its dest.  Those are exactly the keys ``--config`` reads, so ``--config
<out>/<command>_config.json --out <other>`` replays the run.

Exit codes: 0 success, 2 validation problem, 3 numeric failure
(divergence, failed gradient check), 4 I/O or malformed file (a config
value its option cannot parse included).
"""

from __future__ import annotations

import argparse
import json
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


def _build_parser():
    """The ``circscatter`` parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="circscatter",
        description="Inverse obstacle scattering with circular CNNs: "
                    "generate data, train, evaluate, sweep noise, "
                    "reconstruct boundaries, check gradients.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("--config", help="JSON config file whose keys are option "
                                        "names (dest); flags override it")
        p.add_argument("--out", help="output directory")
        return p

    def suite_and_scale(p):
        p.add_argument("--suite", choices=sorted(pipeline.SUITES))
        p.add_argument("--scale", type=float, default=1.0, help="dataset scale in (0, 1]")

    def noise(p):
        p.add_argument("--noise-levels", dest="noise_levels",
                       default=",".join(map(str, DEFAULT_NOISE_LEVELS)),
                       help="comma-separated sweep levels (default %(default)s)")
        p.add_argument("--trials", type=int, default=5,
                       help="noise draws per level (default %(default)s)")

    def model_and_data(p):
        p.add_argument("--model", help="model prefix, e.g. runs/full/peanut")
        p.add_argument("--data", help="dataset path")

    p = command("generate", cmd_generate, "generate a suite dataset file")
    suite_and_scale(p)
    p.add_argument("--fixed-lambda", type=float, dest="fixed_lambda",
                   help="override the impedance mode with a fixed value")
    p.add_argument("--format", choices=("text", "binary"), default="binary",
                   dest="file_format", help="dataset container (default %(default)s)")

    p = command("train", cmd_train, "train a preset on a dataset (or generate one)")
    suite_and_scale(p)
    p.add_argument("--preset", choices=sorted(PRESET_SUITE))
    p.add_argument("--data", help="dataset path; omitted, the suite dataset "
                                  "is generated at --scale")
    p.add_argument("--epochs", type=int, help="cap on training epochs")
    p.add_argument("--lr", type=float, help="learning rate override")
    p.add_argument("--batch", type=int, help="batch size override")
    p.add_argument("--patience", type=int, help="early-stopping patience")
    p.add_argument("--min-delta", type=float, dest="min_delta",
                   help="early-stopping improvement threshold")
    p.add_argument("--clip", type=float, help="gradient clipping norm")
    noise(p)
    p.add_argument("--verbose", action="store_true")

    p = command("evaluate", cmd_evaluate, "clean metrics of a model on a dataset")
    model_and_data(p)

    p = command("sweep", cmd_sweep, "noise sweep of a model on a dataset")
    model_and_data(p)
    noise(p)

    p = command("reconstruct", cmd_reconstruct, "truth-vs-prediction curve files "
                                                "for max/min/random test samples")
    model_and_data(p)
    p.add_argument("--curve-points", type=int, default=256, dest="curve_points")

    p = command("gradcheck", cmd_gradcheck, "finite-difference gradient check")
    p.add_argument("--tolerance", type=float, default=1e-4)

    # the subcommands that draw random numbers; evaluate draws none
    for name in ("generate", "train", "sweep", "reconstruct", "gradcheck"):
        sub.choices[name].add_argument("--seed", type=int, default=0,
                                       help="run seed (default %(default)s)")
    return parser, sub.choices


def _config_defaults(parser: argparse.ArgumentParser, path) -> dict:
    """The JSON config file at ``path`` as defaults for ``parser``.

    Each value is read as the text its flag would carry and goes through
    that option's type and choices; a switch takes true or false.  A
    ``null`` counts as absent, and keys that name no option are ignored.
    A value the option refuses is a FormatError naming file and key.
    """
    config = read_json_object(path)
    defaults = {}
    # argparse lists a parser's options only in the private ``_actions``,
    # the list add_argument fills; reading it keeps each option's type
    # and choices in its one add_argument call.
    for action in parser._actions:
        value = config.get(action.dest)
        if value is None or action.dest in ("help", "config"):
            continue
        if action.nargs == 0:
            ok = isinstance(value, bool)
        else:
            try:
                value = (action.type or str)(str(value))
                ok = action.choices is None or value in action.choices
            except ValueError:
                ok = False
        if not ok:
            raise FormatError(f"{path}: config key {action.dest!r}: "
                              f"{json.dumps(config[action.dest])} is not a valid "
                              f"{action.option_strings[0]} value")
        defaults[action.dest] = value
    return defaults


def _require(args: argparse.Namespace, key: str):
    value = getattr(args, key)
    if value is None:
        raise ValidationError(f"missing required option --{key} "
                              f"(flag or config key {key!r})")
    return value


def _parse_levels(text: str) -> list:
    """Comma-separated noise levels; a config file's JSON list arrives as
    its text, brackets included."""
    body = text.strip().removeprefix("[").removesuffix("]")
    try:
        return [float(tok) for tok in body.split(",") if tok.strip()]
    except ValueError:
        raise ValidationError(f"bad noise levels {text!r}; "
                              "expected comma-separated numbers") from None


def _write_report(args: argparse.Namespace, name: str, payload) -> None:
    """Write ``payload`` as JSON file ``name`` under --out, if given."""
    if args.out is not None:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_json(out_dir / name, payload)


def _resolve_suite(args: argparse.Namespace) -> str:
    suite = args.suite
    preset = getattr(args, "preset", None)
    if preset is not None:
        implied = PRESET_SUITE[preset]
        if suite is not None and suite != implied:
            raise ValidationError(f"preset {preset} belongs to suite {implied}, "
                                  f"not {suite}")
        suite = implied
    if suite is None:
        raise ValidationError("missing --suite (or --preset)")
    return suite


# ----------------------------------------------------------------- commands


def cmd_generate(args: argparse.Namespace) -> int:
    suite = _resolve_suite(args)
    out_dir = Path(_require(args, "out"))
    s = suite_spec(suite)
    imp = s.fixed_impedance if args.fixed_lambda is None else args.fixed_lambda
    ds = dataio.generate_dataset(s.class_tags, s.n_at_scale(args.scale), s.config(),
                                 args.seed, impedance="variable" if imp is None else imp)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{suite}.csc"
    dataio.write_dataset(path, ds, binary=(args.file_format == "binary"))
    print(f"wrote {len(ds)} samples (t0={ds.t0}, c0={ds.c0}, task={ds.task}) "
          f"to {path}")
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    suite = _resolve_suite(args)
    out_dir = Path(_require(args, "out"))
    overrides = {field: getattr(args, key) for key, field in (
        ("epochs", "max_epochs"), ("lr", "learning_rate"), ("batch", "batch_size"),
        ("patience", "patience"), ("min_delta", "min_delta"), ("clip", "clip_norm"),
    ) if getattr(args, key) is not None}
    result = pipeline.run_experiment(
        suite, out_dir=out_dir, scale=args.scale, seed=args.seed, data=args.data,
        train_overrides=overrides, noise_levels=_parse_levels(args.noise_levels),
        noise_trials=args.trials, verbose=args.verbose)
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


def _load_model_and_data(args: argparse.Namespace):
    """The model named by --model ('runs/peanut' or 'runs/peanut.model'),
    its name, and the --data dataset."""
    prefix = Path(_require(args, "model"))
    if prefix.suffix == ".model":
        prefix = prefix.with_suffix("")
    model = pipeline.TrainedModel.load(prefix.parent, prefix.name)
    return model, prefix.name, dataio.read_dataset(_require(args, "data"))


def cmd_evaluate(args: argparse.Namespace) -> int:
    model, name, ds = _load_model_and_data(args)
    rep = pipeline.evaluate_model(model, ds)
    if ds.task == "class":
        print(f"accuracy {rep.accuracy:.4f}")
        for c, r in rep.recalls.items():
            print(f"  class {c} recall {r:.4f}")
    else:
        r2 = "n/a" if rep.r2 is None else f"{rep.r2:.6f}"
        print(f"R^2 {r2}, RMSE {rep.rmse:.6f}")
    _write_report(args, f"{name}_eval.json", rep.to_json_dict())
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    model, name, ds = _load_model_and_data(args)
    table = pipeline.sweep_model(model, ds, levels=_parse_levels(args.noise_levels),
                                 trials=args.trials, seed=args.seed)
    for row in table:
        cols = ", ".join(f"{k} {v:.6f}" if isinstance(v, float) else f"{k} {v}"
                         for k, v in row.items())
        print(cols)
    _write_report(args, f"{name}_sweep.json", table)
    return EXIT_OK


def cmd_reconstruct(args: argparse.Namespace) -> int:
    model, _, ds = _load_model_and_data(args)
    out_dir = Path(_require(args, "out"))
    files = pipeline.reconstruct_samples(model, ds, out_dir, seed=args.seed,
                                         curve_points=args.curve_points)
    for kind, path in sorted(files.items()):
        print(f"{kind}: {path}")
    return EXIT_OK


def cmd_gradcheck(args: argparse.Namespace) -> int:
    reports = training.grad_check_all(seed=args.seed, tolerance=args.tolerance)
    for name, rep in reports.items():
        verdict = "PASS" if rep.passed else "FAIL"
        print(f"{name}: max_rel_err={rep.max_rel_error:.3e} "
              f"(< {args.tolerance:g}): {verdict}")
    _write_report(args, "gradcheck_report.json",
                  {name: rep.to_json_dict() for name, rep in reports.items()})
    return EXIT_OK if all(rep.passed for rep in reports.values()) else EXIT_NUMERIC


def main(argv=None) -> int:
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            command = commands[args.command]
            command.set_defaults(**_config_defaults(command, args.config))
            args = parser.parse_args(argv)
        code = args.run(args)
        # the command and its resolved options; not the handler, nor the
        # config file, whose values the options now hold
        _write_report(args, f"{args.command}_config.json",
                      {k: v for k, v in vars(args).items() if k not in ("run", "config")})
        return code
    except (NumericError, SamplingStuckError) as exc:
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
