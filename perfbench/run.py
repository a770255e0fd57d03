"""circscatter benchmark: three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload desk-t32 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload
    python3 perfbench/run.py --workload all --trace 1         # per-layer run
    python3 perfbench/run.py --profile ap7 --batch 128        # one preset's layers

The package is imported from ./src of the checkout; nothing is
installed.  The last line of standard output is one JSON object with
keys correct, attempted, failed and metrics.
"""

import os
import sys

# BLAS reads its thread count when numpy loads it, so this precedes every
# import that could load numpy.
os.environ["CIRCSCATTER_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
NAMES = ("desk-t32", "wide-t128", "invert-superset")


def _import_package():
    """Import circscatter from this checkout's src, or exit 2."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import circscatter
    except ImportError as exc:
        print(f"perfbench: cannot import circscatter from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        sys.exit(2)
    if Path(circscatter.__file__).resolve().parent.parent != ROOT / "src":
        print(f"perfbench: circscatter came from {circscatter.__file__}, not this checkout",
              file=sys.stderr)
        sys.exit(2)


def _directions() -> dict:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return {}
    return {m["name"]: m.get("better", "") for m in spec.get("end_to_end", [])
            + spec.get("per_layer", [])}


def _emit(result: dict, record: dict, label: str) -> None:
    """Human table, then the result record, then the one-line JSON result."""
    directions = _directions()
    print(f"== {label}: attempted {result['attempted']}, failed {result['failed']}, "
          f"failed_frac {result['failed'] / max(1, result['attempted']):.3g}")
    for name, m in result["metrics"].items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']:<8} "
              f"{directions.get(name, '')}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{label}.json"
    path.write_text(json.dumps({**record, **result}, indent=1) + "\n")
    print(f"record: {path}")
    print(json.dumps(result))


def result_of(tally, metrics: dict) -> dict:
    """The result line: a run with any failed operation or check, or with
    no metrics, is not correct, whatever its timings."""
    return {"correct": tally.failed == 0 and bool(metrics), "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}}


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    import envinfo
    import numpy as np
    import workloads as W
    from traced import format_self_times, traced_run

    env = envinfo.environment(ROOT, seed)
    tally = W.Tally()
    capped = env["blas_threads"] == 1 if env["blas_threads"] is not None else (
        os.environ.get("OMP_NUM_THREADS") == "1")
    tally.check(capped)
    if not capped:
        print(f"perfbench: BLAS not capped at one thread ({env['blas_threads']}); "
              "run is invalid", file=sys.stderr)
    label = f"{name}-seed{seed}-trace{int(trace)}"
    record = {"workload": name, "seconds": seconds, "trace": trace, "env": env}
    workdir = OUT / f"work-{label}-{os.getpid()}"
    try:
        if trace:
            metrics, tracer, self_times = traced_run(seed, workdir, tally)
            print("\n".join(format_self_times(self_times)))
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"trace-{label}.json")
        else:
            metrics, rounds = W.run_untraced(W.WORKLOADS[name], seed, seconds, ROOT, workdir,
                                             tally)
            record["rounds"] = [{"times": r["times"], "rows": r["rows"],
                                 "main_rows": r["main_rows"], "yardstick_s": r["yardstick"],
                                 "query_ms_p50_p90": list(
                                     1e3 * np.percentile(r["latencies"], [50, 90]))}
                                for r in rounds]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = result_of(tally, metrics)
    _emit(result, record, label)
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in a fresh process of its own, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", "0"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            res = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"perfbench: {name} printed no result", file=sys.stderr)
            return 1
        combined["correct"] &= res["correct"] and proc.returncode == 0
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update({f"{name}/{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def run_profile(preset: str, batch: int) -> int:
    import layerprof
    from tracing import Tracer

    _, metrics = layerprof.profile(Tracer(preset), preset, batch, backward=True)
    print(f"{preset} at batch {batch}, median of {layerprof.REPS} repetitions")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>12.4g} {unit}")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0,
                   help="seconds of rounds per run, after the warm-up round")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced run of every workload, reporting the per-layer metrics")
    p.add_argument("--profile", metavar="PRESET",
                   help="print one preset's per-layer forward/backward table and exit")
    p.add_argument("--batch", type=int, default=128, help="batch size for --profile")
    args = p.parse_args(argv)
    _import_package()
    sys.path.insert(0, str(HERE))
    if args.profile:
        return run_profile(args.profile, args.batch)
    if args.trace:
        # one traced run covers every workload, whichever is named
        return run_one("all", args.seed, args.seconds, True)
    if args.workload == "all":
        return run_all(args)
    return run_one(args.workload, args.seed, args.seconds, False)


if __name__ == "__main__":
    sys.exit(main())
