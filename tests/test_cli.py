import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from circscatter import dataio, pipeline, training
from circscatter.cli import main
from circscatter.nncore import init_parameters, preset_spec, save_model
from circscatter.serial import read_json_object


def run(*argv):
    return main(list(argv))


# ---------------------------------------------------------------- generate


def test_generate_writes_dataset_and_config(tmp_path):
    rc = run("generate", "--suite", "classification", "--scale", "0.0001",
             "--seed", "7", "--out", str(tmp_path))
    assert rc == 0
    ds = dataio.read_dataset(tmp_path / "classification.csc")
    assert len(ds) == 9 and ds.classes == (1, 2, 3) and (ds.t0, ds.c0) == (32, 2)
    cfg = json.loads((tmp_path / "generate_config.json").read_text())
    assert cfg["command"] == "generate" and cfg["scale"] == 0.0001 and cfg["seed"] == 7


def test_generate_deterministic(tmp_path):
    for sub in ("a", "b"):
        rc = run("generate", "--suite", "kite", "--scale", "0.0002",
                 "--seed", "3", "--out", str(tmp_path / sub))
        assert rc == 0
    a = (tmp_path / "a" / "kite.csc").read_bytes()
    b = (tmp_path / "b" / "kite.csc").read_bytes()
    assert a == b


def test_generate_text_format_and_star_variable(tmp_path):
    rc = run("generate", "--suite", "star_variable", "--scale", str(3 / 120000),
             "--out", str(tmp_path), "--format", "text")
    assert rc == 0
    first = (tmp_path / "star_variable.csc").read_text().splitlines()[0]
    assert first.startswith("circscatter-v1") and "C0=8" in first


def test_generate_fixed_lambda_override(tmp_path):
    rc = run("generate", "--suite", "peanut", "--scale", str(3 / 30000),
             "--fixed-lambda", "1.5", "--out", str(tmp_path))
    assert rc == 0
    ds = dataio.read_dataset(tmp_path / "peanut.csc")
    assert ds.fixed_impedance == 1.5 and ds.target_dim == 4


def test_generate_missing_args(tmp_path, capsys):
    assert run("generate", "--suite", "peanut") == 2  # no --out
    assert run("generate", "--out", str(tmp_path)) == 2  # no suite
    assert "missing" in capsys.readouterr().err


def test_config_file_with_flag_override(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({
        "suite": "classification", "scale": 1.0, "seed": 5,
        "out": str(tmp_path / "run"),
    }))
    rc = run("generate", "--config", str(cfg_path), "--scale", "0.0001")
    assert rc == 0  # flag --scale wins over the config's full scale
    archived = json.loads((tmp_path / "run" / "generate_config.json").read_text())
    assert archived["scale"] == 0.0001 and archived["seed"] == 5
    # the same run given by flags alone, or by a config file alone (with a
    # null seed counting as absent, i.e. the default 0), writes the same bytes
    names = ("classification.csc", "generate_config.json")
    out = str(tmp_path / "same")
    assert run("generate", "--suite", "classification", "--scale", "0.0001",
               "--format", "text", "--out", out) == 0
    by_flags = [(tmp_path / "same" / name).read_bytes() for name in names]
    cfg_path.write_text(json.dumps({
        "suite": "classification", "scale": 0.0001, "seed": None,
        "file_format": "text", "out": out,
    }))
    assert run("generate", "--config", str(cfg_path)) == 0
    assert [(tmp_path / "same" / name).read_bytes() for name in names] == by_flags
    assert json.loads(by_flags[1])["seed"] == 0


def test_invalid_config_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("generate", "--config", str(bad), "--out", str(tmp_path)) == 4
    lst = tmp_path / "list.json"
    lst.write_text("[1, 2]")
    assert run("generate", "--config", str(lst), "--out", str(tmp_path)) == 4
    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes(b"\xff\xfe" + '{"seed": 1}'.encode("utf-16-le"))
    assert run("generate", "--config", str(utf16), "--out", str(tmp_path)) == 4
    # a value its option cannot parse, or that is not among its choices,
    # exits 4 and names the key, as the same text given as a flag is refused
    value = tmp_path / "value.json"
    for key, bad in (("seed", [1]), ("seed", 3.7), ("seed", True), ("scale", "x"),
                     ("file_format", "xml"), ("suite", ["kite"])):
        value.write_text(json.dumps({"suite": "peanut", key: bad}))
        assert run("generate", "--config", str(value), "--out", str(tmp_path)) == 4
        assert f"config key {key!r}" in capsys.readouterr().err


# ----------------------------------------------------------------- archives


# a run of each subcommand by flags; {model} and {data} stand for the
# trained_run fixture's model prefix and dataset
REPLAY_FLAGS = {
    "generate": ["--suite", "kite", "--scale", "0.0002", "--seed", "3",
                 "--format", "text"],
    "train": ["--suite", "peanut", "--scale", "0.0004", "--seed", "1", "--epochs", "2",
              "--lr", "1e-3", "--patience", "1", "--noise-levels", "0.01,0.05",
              "--trials", "1"],
    "evaluate": ["--model", "{model}", "--data", "{data}"],
    "sweep": ["--model", "{model}", "--data", "{data}", "--noise-levels", "0.02",
              "--trials", "2", "--seed", "4"],
    "reconstruct": ["--model", "{model}", "--data", "{data}", "--seed", "2",
                    "--curve-points", "16"],
    "gradcheck": ["--seed", "1", "--tolerance", "1e-3"],
}


@pytest.mark.parametrize("command", REPLAY_FLAGS)
def test_archive_replays_its_run(trained_run, tmp_path, command):
    # a run given by flags into a/, then replayed from a/'s archive into
    # b/, writes the same files with the same bytes; the archives differ
    # only in "out"
    out, data = trained_run
    argv = [flag.format(model=out / "peanut", data=data) for flag in REPLAY_FLAGS[command]]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(command, *argv, "--out", str(a)) == 0
    archive = f"{command}_config.json"
    assert run(command, "--config", str(a / archive), "--out", str(b)) == 0
    names = sorted(path.name for path in a.iterdir())
    assert archive in names and names == sorted(path.name for path in b.iterdir())
    for name in names:
        if name != archive:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
    archived = [read_json_object(d / archive) for d in (a, b)]
    assert [cfg.pop("out") for cfg in archived] == [str(a), str(b)]
    assert archived[0] == archived[1] and archived[0]["command"] == command


# ------------------------------------------------------------------- train


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """One tiny trained peanut run shared by evaluate/sweep/reconstruct."""
    out = tmp_path_factory.mktemp("run")
    rc = run("train", "--suite", "peanut", "--scale", "0.0004", "--seed", "1",
             "--epochs", "2", "--patience", "2", "--lr", "1e-3",
             "--noise-levels", "0.01", "--trials", "1", "--out", str(out))
    assert rc == 0
    data = tmp_path_factory.mktemp("data")
    rc = run("generate", "--suite", "peanut", "--scale", "0.0004",
             "--seed", "2", "--out", str(data))
    assert rc == 0
    return out, data / "peanut.csc"


def test_train_bundle(trained_run, capsys):
    out, _ = trained_run
    for name in ("peanut.model", "peanut.scaler.json", "manifest.json",
                 "peanut_history.csv", "peanut_report.json", "peanut_config.json",
                 "train_config.json", "peanut_errors_hist.csv",
                 "peanut_reconstruction_max.csv"):
        assert (out / name).exists(), name
    archived = json.loads((out / "train_config.json").read_text())
    assert archived["lr"] == 1e-3


def test_train_preset_implies_suite(tmp_path, capsys):
    rc = run("train", "--preset", "ap2", "--scale", "0.0004", "--epochs", "1",
             "--patience", "1", "--out", str(tmp_path))
    assert rc == 0
    assert "peanut" in capsys.readouterr().out
    assert run("train", "--preset", "ap1", "--suite", "peanut",
               "--out", str(tmp_path)) == 2


def test_train_refuses_mismatched_dataset(tmp_path, capsys):
    assert run("generate", "--suite", "kite", "--scale", "0.0004",
               "--out", str(tmp_path)) == 0
    rc = run("train", "--preset", "ap2", "--data", str(tmp_path / "kite.csc"),
             "--epochs", "1", "--out", str(tmp_path))
    assert rc == 2
    assert "suite 'peanut'" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--lr", "inf"), ("--lr", "nan"),
                                         ("--min-delta", "nan"), ("--clip", "inf")])
def test_train_refuses_nonfinite_hyperparameter(tmp_path, flag, value, capsys):
    # NaN passes a plain "<= 0" check and inf trains into a numeric
    # failure (exit 3); both are refused as values: exit 2
    rc = run("train", "--suite", "peanut", "--scale", "0.0004", "--epochs", "1",
             "--patience", "1", flag, value, "--out", str(tmp_path))
    assert rc == 2
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [("--noise-levels", "0.01,nan"), ("--trials", "0")],
                         ids=["nan-level", "no-trials"])
def test_train_refuses_sweep_arguments_before_training(tmp_path, flags, capsys):
    # the test-set sweep's arguments are checked before any data is made
    # or any epoch runs: exit 2, no epoch printed, nothing written
    out = tmp_path / "out"
    rc = run("train", "--suite", "peanut", "--scale", "0.01", "--epochs", "3", "--verbose",
             *flags, "--out", str(out))
    assert rc == 2
    assert "epoch" not in capsys.readouterr().out
    assert not out.exists()


def test_train_config_number_overflowing_a_double_exit_code(tmp_path, capsys):
    # json reads 1e999 as inf; the config reader refuses it: exit 4, before
    # anything trains on it
    cfg = tmp_path / "run.json"
    cfg.write_text('{"suite": "peanut", "lr": 1e999, "epochs": 1}')
    rc = run("train", "--config", str(cfg), "--scale", "0.0004", "--out", str(tmp_path))
    assert rc == 4
    assert "1e999 is too large for a double" in capsys.readouterr().err
    assert not (tmp_path / "peanut.model").exists()


def test_train_divergence_exit_code(tmp_path, capsys):
    with np.errstate(all="ignore"):
        rc = run("train", "--suite", "peanut", "--scale", "0.0004",
                 "--epochs", "3", "--patience", "3", "--lr", "1e18",
                 "--out", str(tmp_path))
    assert rc == 3
    assert "numeric failure" in capsys.readouterr().err


# -------------------------------------------------- evaluate/sweep/curves


def test_evaluate_command(trained_run, tmp_path, capsys):
    out, data = trained_run
    rc = run("evaluate", "--model", str(out / "peanut"), "--data", str(data),
             "--out", str(tmp_path))
    assert rc == 0
    assert "RMSE" in capsys.readouterr().out
    assert (tmp_path / "peanut_eval.json").exists()
    # .model suffix is accepted too
    assert run("evaluate", "--model", str(out / "peanut.model"),
               "--data", str(data)) == 0


def test_evaluate_refuses_other_class(trained_run, tmp_path, capsys):
    out, _ = trained_run
    # a fixed-lambda kite row has as many targets as a peanut regressor outputs
    assert run("generate", "--suite", "kite", "--scale", "0.0004",
               "--fixed-lambda", "2", "--out", str(tmp_path)) == 0
    rc = run("evaluate", "--model", str(out / "peanut"),
             "--data", str(tmp_path / "kite.csc"))
    assert rc == 2
    assert "classes (2,) do not match the model classes (1,)" in capsys.readouterr().err


def test_evaluate_missing_model(trained_run, tmp_path):
    _, data = trained_run
    rc = run("evaluate", "--model", str(tmp_path / "nope"), "--data", str(data))
    assert rc == 4


def test_evaluate_bad_model_spec_exit_code(trained_run, tmp_path, capsys):
    # a .model whose spec fails validation (Output units -1, a bool or
    # string where the Dense layer wants a number or a bool), names a
    # layer kind nncore lacks or holds a dtype numpy cannot read is a
    # format error: exit 4, not the exit 2 of a bad flag or a traceback
    out, data = trained_run
    for name in ("peanut.model", "peanut.scaler.json"):
        shutil.copy(out / name, tmp_path / name)
    path = tmp_path / "peanut.model"
    magic, header, payload = path.read_bytes().split(b"\n", 2)
    for layer, key, value, message in (
            (-1, "units", -1, "units must be an integer >= 1"),
            (-1, "kind", "pooling", "unknown layer kind 'pooling'"),
            (-2, "l2", True, "l2 must be a finite number >= 0"),
            (-2, "dropout", False, "dropout must be a number in [0, 1)"),
            (-2, "layernorm", "no", "layernorm must be true or false"),
            (None, "dtype", 5, "bad model header")):
        spec = json.loads(header)
        (spec if layer is None else spec["spec"]["layers"][layer])[key] = value
        path.write_bytes(b"\n".join([magic, json.dumps(spec).encode("ascii"), payload]))
        rc = run("evaluate", "--model", str(tmp_path / "peanut"), "--data", str(data))
        assert rc == 4
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("header", [
    b"[1, 2]", b'{"t0": 32}',
    b'{"n": 0, "t0": 32, "c0": 2, "p": 5, "task": "reg", "classes": [1], "shape_ids": []}',
])
def test_evaluate_bad_binary_header_exit_code(trained_run, tmp_path, header):
    # a non-object header, one missing n/c0/p/task, or n = 0 rows exits 4
    out, _ = trained_run
    bad = tmp_path / "bad.csc"
    bad.write_bytes(dataio.BINARY_MAGIC + np.array(len(header), dtype="<u4").tobytes()
                    + header)
    rc = run("evaluate", "--model", str(out / "peanut"), "--data", str(bad))
    assert rc == 4


@pytest.mark.parametrize("key, value", [("shape_ids", list(range(12))),
                                        ("fixed_lambda", "abc"), ("classes", [7])])
def test_reconstruct_bad_binary_header_field_exit_code(trained_run, tmp_path, key, value,
                                                       capsys):
    # header fields of the wrong type or value are refused when the file
    # is read: exit 4, not a traceback or exit 2 later on
    out, data = trained_run
    blob = data.read_bytes()
    hlen = int(np.frombuffer(blob[4:8], dtype="<u4")[0])
    header = json.dumps({**json.loads(blob[8:8 + hlen]), key: value}).encode("ascii")
    bad = tmp_path / "bad.csc"
    bad.write_bytes(blob[:4] + np.array(len(header), dtype="<u4").tobytes() + header
                    + blob[8 + hlen:])
    rc = run("reconstruct", "--model", str(out / "peanut"), "--data", str(bad),
             "--out", str(tmp_path))
    assert rc == 4
    assert "bad binary header" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["{not json", "[]"])
def test_malformed_scaler_and_manifest_exit_code(trained_run, tmp_path, text, capsys):
    # a scaler or manifest that is not a JSON object is a format error: exit 4
    out, data = trained_run
    shutil.copy(out / "peanut.model", tmp_path / "peanut.model")
    (tmp_path / "peanut.scaler.json").write_text(text)
    rc = run("evaluate", "--model", str(tmp_path / "peanut"), "--data", str(data))
    assert rc == 4
    assert "peanut.scaler.json" in capsys.readouterr().err
    (tmp_path / "manifest.json").write_text(text)
    rc = run("train", "--suite", "peanut", "--scale", "0.0004", "--epochs", "1",
             "--patience", "1", "--noise-levels", "0.01", "--trials", "1",
             "--out", str(tmp_path))
    assert rc == 4
    assert "manifest.json" in capsys.readouterr().err


@pytest.mark.parametrize("member, key, value", [
    (None, "meta", []),
    ("features", "mean", "not numbers"),
    ("features", "std", [1.0, 2.0]),
], ids=["meta-list", "mean-text", "std-length"])
def test_wrongly_typed_scaler_exit_code(trained_run, tmp_path, member, key, value, capsys):
    # a scaler object with members of the wrong type or length: exit 4
    out, data = trained_run
    shutil.copy(out / "peanut.model", tmp_path / "peanut.model")
    blob = json.loads((out / "peanut.scaler.json").read_text())
    (blob if member is None else blob[member])[key] = value
    (tmp_path / "peanut.scaler.json").write_text(json.dumps(blob))
    rc = run("evaluate", "--model", str(tmp_path / "peanut"), "--data", str(data))
    assert rc == 4
    assert "peanut.scaler.json" in capsys.readouterr().err


@pytest.mark.parametrize("class_tag", [None, 7, "peanut"], ids=["null", "seven", "text"])
def test_regressor_meta_without_a_shape_class_exit_code(trained_run, tmp_path, class_tag,
                                                        capsys):
    # a regressor's scaler meta must name its shape class: exit 4, not
    # the exit 2 that building its shapes would end in
    out, data = trained_run
    shutil.copy(out / "peanut.model", tmp_path / "peanut.model")
    blob = json.loads((out / "peanut.scaler.json").read_text())
    blob["meta"]["class_tag"] = class_tag
    (tmp_path / "peanut.scaler.json").write_text(json.dumps(blob))
    rc = run("evaluate", "--model", str(tmp_path / "peanut"), "--data", str(data))
    assert rc == 4
    assert "peanut.scaler.json: class tag" in capsys.readouterr().err


@pytest.fixture(scope="module")
def star_model(tmp_path_factory):
    """An untrained ap7 star regressor at fixed impedance 2.0, saved with
    scalers fitted on a tiny star_fixed dataset, and that dataset."""
    out = tmp_path_factory.mktemp("star")
    assert run("generate", "--suite", "star_fixed", "--scale", "0.0001",
               "--out", str(out)) == 0
    data = out / "star_fixed.csc"
    ds = dataio.read_dataset(data)
    spec = preset_spec("ap7")
    pipeline.TrainedModel(spec, init_parameters(spec, 0), dataio.Standardizer.fit(ds.features),
                          dataio.Standardizer.fit(ds.targets), preset="ap7", seed=0,
                          class_tag=3, fixed_impedance=2.0).save(out, "star")
    assert run("evaluate", "--model", str(out / "star"), "--data", str(data)) == 0
    return out, data


@pytest.mark.parametrize("fixed", [None, "abc", -5.0, [1]],
                         ids=["null", "text", "out-of-range", "list"])
def test_regressor_meta_fixed_impedance_exit_code(star_model, tmp_path, fixed, capsys):
    # a regressor whose outputs omit the impedance needs a fixed impedance
    # in IMPEDANCE_RANGE: exit 4, not exit 0 with a wrong obstacle, exit 2
    # or a traceback
    out, data = star_model
    shutil.copy(out / "star.model", tmp_path / "star.model")
    blob = json.loads((out / "star.scaler.json").read_text())
    blob["meta"]["fixed_impedance"] = fixed
    (tmp_path / "star.scaler.json").write_text(json.dumps(blob))
    for extra in ((), ("--out", str(tmp_path / "curves"))):
        command = "reconstruct" if extra else "evaluate"
        rc = run(command, "--model", str(tmp_path / "star"), "--data", str(data), *extra)
        assert rc == 4, command
        assert "star.scaler.json" in capsys.readouterr().err
    assert not (tmp_path / "curves").exists()


@pytest.mark.parametrize("classes", [None, [1, 2], [1, 2, 3, 3], [1, 2, 9], [1, 1, 3]],
                         ids=["null", "too-few", "too-many", "not-a-class", "repeated"])
def test_classifier_meta_classes_must_match_its_outputs_exit_code(tmp_path, classes, capsys):
    # a classifier's scaler meta needs one distinct shape class per output:
    # exit 4
    spec = preset_spec("ap1")
    scaler = dataio.Standardizer(np.zeros(64), np.ones(64))
    pipeline.TrainedModel(spec, init_parameters(spec, 0), scaler, None, preset="ap1", seed=0,
                          classes=(1, 2, 3)).save(tmp_path, "classifier")
    path = tmp_path / "classifier.scaler.json"
    blob = json.loads(path.read_text())
    blob["meta"]["classes"] = classes
    path.write_text(json.dumps(blob))
    rc = run("evaluate", "--model", str(tmp_path / "classifier"),
             "--data", str(tmp_path / "none.csc"))
    assert rc == 4
    assert "classifier.scaler.json: classes" in capsys.readouterr().err


def test_nonfinite_answer_from_finite_inputs_exit_code(trained_run, tmp_path):
    # every weight at 3e38 overflows float32 in the first layer: a
    # numeric failure, exit 3, not NaN metrics and exit 0
    out, data = trained_run
    shutil.copy(out / "peanut.scaler.json", tmp_path / "peanut.scaler.json")
    model = pipeline.TrainedModel.load(out, "peanut")
    params = model.params.copy()   # a model's own parameters are read-only
    params.vector[:] = 3e38
    save_model(tmp_path / "peanut.model", model.spec, params)
    # run as a process, so numpy's overflow warnings would reach its stderr
    proc = subprocess.run(
        [sys.executable, "-m", "circscatter.cli", "evaluate",
         "--model", str(tmp_path / "peanut"), "--data", str(data)],
        capture_output=True, text=True)
    assert proc.returncode == 3
    assert "non-finite output from finite inputs" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def test_nonfinite_model_parameter_exit_code(trained_run, tmp_path, capsys):
    # a .model whose last float32 parameter is NaN is refused on load:
    # exit 4, not nan metrics (evaluate) or a misleading exit 2 (reconstruct)
    out, data = trained_run
    for name in ("peanut.model", "peanut.scaler.json"):
        shutil.copy(out / name, tmp_path / name)
    path = tmp_path / "peanut.model"
    path.write_bytes(path.read_bytes()[:-4] + np.array(np.nan, dtype="<f4").tobytes())
    rc = run("evaluate", "--model", str(tmp_path / "peanut"), "--data", str(data))
    assert rc == 4
    assert "non-finite parameter" in capsys.readouterr().err
    rc = run("reconstruct", "--model", str(tmp_path / "peanut"), "--data", str(data),
             "--out", str(tmp_path))
    assert rc == 4
    assert "non-finite parameter" in capsys.readouterr().err


@pytest.mark.parametrize("command, member, text, message", [
    ("evaluate", "features", "0.0", "std finite and > 0"),
    # a bare NaN token and a number too large for a double are both
    # refused by the JSON reader, before the scaler's own check
    ("sweep", "targets", "NaN", "bare NaN is not a JSON number"),
    ("sweep", "targets", "1e999", "1e999 is too large for a double"),
], ids=["feature-std-0", "target-std-nan", "target-std-overflow"])
def test_nonfinite_or_zero_scaler_std_exit_code(trained_run, tmp_path, command, member,
                                                text, message, capsys):
    out, data = trained_run
    shutil.copy(out / "peanut.model", tmp_path / "peanut.model")
    blob = json.loads((out / "peanut.scaler.json").read_text())
    blob[member]["std"][0] = "@"
    (tmp_path / "peanut.scaler.json").write_text(json.dumps(blob).replace('"@"', text))
    rc = run(command, "--model", str(tmp_path / "peanut"), "--data", str(data))
    assert rc == 4
    assert message in capsys.readouterr().err


def test_nonfinite_dataset_value_exit_code(trained_run, tmp_path, capsys):
    # a binary dataset whose last target is NaN is refused on read: exit 4,
    # not "RMSE nan" and exit 0
    out, data = trained_run
    bad = tmp_path / "bad.csc"
    bad.write_bytes(data.read_bytes()[:-8] + np.array(np.nan, dtype="<f8").tobytes())
    rc = run("evaluate", "--model", str(out / "peanut"), "--data", str(bad))
    assert rc == 4
    assert "features and targets must be finite" in capsys.readouterr().err


def test_bare_nan_in_config_or_manifest_exit_code(tmp_path, capsys):
    # json reads a bare NaN as a float; a config or manifest holding one is
    # refused (exit 4) before anything trains on it
    cfg = tmp_path / "run.json"
    cfg.write_text('{"suite": "peanut", "lr": NaN, "epochs": 2}')
    rc = run("train", "--config", str(cfg), "--scale", "0.0004", "--out", str(tmp_path))
    assert rc == 4
    assert "bare NaN is not a JSON number" in capsys.readouterr().err
    (tmp_path / "manifest.json").write_text(
        '{"format": "circscatter-registry-v1", "models": {}, "seed": NaN}')
    rc = run("train", "--suite", "peanut", "--scale", "0.0004", "--epochs", "1",
             "--patience", "1", "--noise-levels", "0.01", "--trials", "1",
             "--out", str(tmp_path))
    assert rc == 4
    assert "manifest.json" in capsys.readouterr().err


def test_sweep_command(trained_run, tmp_path, capsys):
    out, data = trained_run
    rc = run("sweep", "--model", str(out / "peanut"), "--data", str(data),
             "--noise-levels", "0.0,0.02", "--trials", "1",
             "--out", str(tmp_path))
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2 and lines[0].startswith("level 0.000000")
    table = json.loads((tmp_path / "peanut_sweep.json").read_text())
    assert [row["level"] for row in table] == [0.0, 0.02]


def test_evaluate_takes_no_seed(trained_run, capsys):
    # evaluate draws nothing at random, so it has no --seed to ignore
    out, data = trained_run
    with pytest.raises(SystemExit) as exc:
        run("evaluate", "--model", str(out / "peanut"), "--data", str(data), "--seed", "5")
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err


def test_sweep_bad_levels(trained_run, tmp_path):
    # a level that is not a finite number >= 0 exits 2 and writes nothing
    out, data = trained_run
    for levels in ("a,b", "nan", "0.01,inf", "-0.1"):
        rc = run("sweep", "--model", str(out / "peanut"), "--data", str(data),
                 "--noise-levels", levels, "--out", str(tmp_path))
        assert rc == 2, levels
    assert list(tmp_path.iterdir()) == []


def test_reconstruct_command(trained_run, tmp_path):
    out, data = trained_run
    rc = run("reconstruct", "--model", str(out / "peanut"), "--data", str(data),
             "--curve-points", "16", "--out", str(tmp_path))
    assert rc == 0
    for kind in ("max", "min", "random"):
        path = tmp_path / f"reconstruction_{kind}.csv"
        assert path.exists()
        assert path.read_text().startswith("tau,x_true,y_true,x_pred,y_pred")


def test_reconstruct_rejects_classification_data(trained_run, tmp_path):
    out, _ = trained_run
    assert run("generate", "--suite", "classification", "--scale", "0.0001",
               "--out", str(tmp_path)) == 0
    rc = run("reconstruct", "--model", str(out / "peanut"),
             "--data", str(tmp_path / "classification.csc"),
             "--out", str(tmp_path))
    assert rc == 2


# --------------------------------------------------------------- gradcheck


def test_gradcheck_command(tmp_path, capsys):
    rc = run("gradcheck", "--out", str(tmp_path))
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 2 and "max_rel_err" in out
    report = json.loads((tmp_path / "gradcheck_report.json").read_text())
    assert report["regression"]["passed"] and report["classification"]["passed"]


def test_gradcheck_fail_exit_code(monkeypatch, capsys):
    # an absurdly tight tolerance turns the check into a failure: exit 3
    rc = run("gradcheck", "--tolerance", "1e-18")
    assert rc == 3
    assert "FAIL" in capsys.readouterr().out


def test_gradcheck_nonfinite_tolerance_exit_code(tmp_path, capsys):
    assert run("gradcheck", "--tolerance", "nan", "--out", str(tmp_path)) == 2
    assert "tolerance must be finite and > 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_gradcheck_nan_gradient_report(monkeypatch, tmp_path, capsys):
    # a NaN gradient fails the check (exit 3) and its error is archived as
    # null, so the report stays strict JSON
    backward = training.network_backward

    def nan_backward(*args, **kwargs):
        grads = backward(*args, **kwargs)
        grads.vector[:] = np.nan
        return grads

    monkeypatch.setattr(training, "network_backward", nan_backward)
    assert run("gradcheck", "--out", str(tmp_path)) == 3
    assert capsys.readouterr().out.count("FAIL") == 2
    report = read_json_object(tmp_path / "gradcheck_report.json")
    assert report["regression"] == {"max_rel_error": None, "passed": False,
                                    "tolerance": 1e-4}


# ------------------------------------------------------------ entry point


def test_console_script_runs(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "circscatter.cli", "generate", "--suite",
         "peanut", "--scale", str(3 / 30000), "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "wrote 3 samples" in proc.stdout


def test_threads_cap_warns_when_numpy_loaded_first():
    # numpy's BLAS reads its thread variables when numpy loads, so
    # CIRCSCATTER_THREADS set in a process that imported numpy first
    # cannot take effect, and importing circscatter says so
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["CIRCSCATTER_THREADS"] = "1"
    for order, warns in (("numpy, circscatter", True), ("circscatter, numpy", False)):
        proc = subprocess.run([sys.executable, "-c", f"import {order}"], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert ("CIRCSCATTER_THREADS=1 does not reach" in proc.stderr) == warns, order
