"""Fast checks of the benchmark itself, at smoke size.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import dataclasses
import json
import os
import sys
from pathlib import Path

os.environ.setdefault("CIRCSCATTER_THREADS", "1")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import layerprof  # noqa: E402
import probes  # noqa: E402
import run  # noqa: E402
import traced  # noqa: E402
import workloads as W  # noqa: E402
from circscatter import dataio  # noqa: E402

SMOKE = {
    "desk-t32": dataclasses.replace(W.WORKLOADS["desk-t32"], rows=60, epochs=1),
    "wide-t128": dataclasses.replace(W.WORKLOADS["wide-t128"], rows=40, epochs=1),
    "invert-superset": dataclasses.replace(W.WORKLOADS["invert-superset"], rows=30,
                                           pool=90, per_class=3, checked_per_family=2),
}


def _declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m for m in spec["end_to_end"]},
            {m["name"]: m for m in spec["per_layer"]})


def _assert_matches(metrics: dict, declared: dict) -> None:
    assert sorted(metrics) == sorted(declared)
    for name, (value, unit) in metrics.items():
        assert unit == declared[name]["unit"], name
        assert declared[name]["better"] in ("higher", "lower"), name
        assert np.isfinite(value), name


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_smoke_run_emits_every_end_to_end_metric(name, tmp_path):
    tally = W.Tally()
    metrics, rounds = W.run_untraced(SMOKE[name], 1, 0.0, ROOT, tmp_path, tally)
    assert len(rounds) == 1
    assert tally.attempted > 0 and tally.failed == 0
    _assert_matches(metrics, _declared()[0])
    for key in ("setup_s", "generate_rows_per_s", "main_rows_per_s", "query_ms_p50"):
        assert metrics[key][0] > 0
    packed = run.result_of(tally, metrics)
    assert packed["correct"] and set(packed) == {"correct", "attempted", "failed", "metrics"}


def test_end_to_end_scales_rounds_to_the_yardstick_speed(monkeypatch):
    monkeypatch.setattr(W, "YARDSTICK_EXPONENT", 1.0)
    ref = W.YARDSTICK_REF_S
    # the second round ran on a machine twice as slow; the third was slow
    # itself on a machine at the reference speed
    rounds = [{"times": {"generate": 1.0, "infer": 2.0, "batched": 0.5}, "yardstick": ref,
               "latencies": [0.001, 0.002, 0.003]},
              {"times": {"generate": 2.0, "infer": 4.0, "batched": 1.0}, "yardstick": 2 * ref,
               "latencies": [0.002, 0.004, 0.006]},
              {"times": {"generate": 2.0, "infer": 4.0, "batched": 1.0}, "yardstick": ref,
               "latencies": [0.002, 0.004, 0.006]}]
    for r in rounds:
        r.update(rows=100, generated=300, main_rows=100)
    m = W.end_to_end(W.WORKLOADS["invert-superset"], rounds, 0.1)
    assert m["generate_rows_per_s"][0] == pytest.approx(300.0)
    assert m["main_rows_per_s"][0] == pytest.approx(50.0)
    assert m["batched_rows_per_s"][0] == pytest.approx(200.0)
    assert m["query_ms_p50"][0] == pytest.approx(2.0)
    assert m["query_ms_p90"][0] == pytest.approx(2.8)
    monkeypatch.setattr(W, "YARDSTICK_EXPONENT", 0.5)
    m = W.end_to_end(W.WORKLOADS["invert-superset"], rounds[1:2], 0.1)
    assert m["generate_rows_per_s"][0] == pytest.approx(300.0 / 2 ** 0.5)


def test_traced_run_emits_every_per_layer_metric(tmp_path, monkeypatch):
    monkeypatch.setattr(layerprof, "REPS", 1)
    originals = [vars(owner)[attr] for owner, attr, _ in probes.PROBES]
    tally = W.Tally()
    metrics, tracer, self_times = traced.traced_run(1, tmp_path, tally, workloads=SMOKE)
    assert tally.failed == 0
    _assert_matches(metrics, _declared()[1])
    assert [vars(owner)[attr] for owner, attr, _ in probes.PROBES] == originals
    assert set(self_times) == set(SMOKE)
    # the query set is routed evenly
    assert len({metrics[f"pipeline.routed.{r}"][0] for r in probes.ROUTE.values()}) == 1
    path = tmp_path / "trace.json"
    tracer.write(path)
    doc = json.loads(path.read_text())
    assert doc["spans"] and all(s[2] >= s[1] for s in doc["spans"])


def test_corrupted_surrogate_is_a_failure_not_a_speedup(tmp_path, monkeypatch):
    def fast_and_wrong(shape, config, phi):
        n = config.t0
        return np.ones(n, dtype=complex), np.ones(n, dtype=complex)

    monkeypatch.setattr(dataio, "surrogate_farfield", fast_and_wrong)
    tally = W.Tally()
    metrics, _ = W.run_untraced(SMOKE["desk-t32"], 1, 0.0, ROOT, tmp_path, tally)
    assert tally.failed >= SMOKE["desk-t32"].checked
    assert run.result_of(tally, metrics)["correct"] is False


def test_slightly_wrong_surrogate_is_caught(tmp_path, monkeypatch):
    true_surrogate = dataio.surrogate_farfield

    def off_by_1e_7(shape, config, phi):
        e, h = true_surrogate(shape, config, phi)
        return e * (1 + 1e-7), h

    monkeypatch.setattr(dataio, "surrogate_farfield", off_by_1e_7)
    tally = W.Tally()
    rounds, _ = W.run_rounds(SMOKE["invert-superset"], 2, 0.0, tmp_path, tally)
    assert rounds and tally.failed >= 6
