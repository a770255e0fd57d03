"""Records the machine and software a run measured, and checks that BLAS
runs on one thread."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
from pathlib import Path


def _openblas_library():
    """The OpenBLAS shared object numpy loaded, found in our own memory map."""
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in Path(path).name.lower() and ".so" in path:
                return ctypes.CDLL(path)
    return None


def _call(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = restype
            return fn()
    return None


def blas_info() -> dict:
    """OpenBLAS thread count and build string; None where unavailable."""
    import numpy  # noqa: F401  (loads the BLAS library)

    lib = _openblas_library()
    if lib is None:
        return {"threads": None, "config": None}
    threads = _call(lib, ("openblas_get_num_threads", "openblas_get_num_threads64_",
                          "scipy_openblas_get_num_threads64_"), ctypes.c_int)
    config = _call(lib, ("openblas_get_config", "openblas_get_config64_",
                         "scipy_openblas_get_config64_"), ctypes.c_char_p)
    return {"threads": threads,
            "config": config.decode("ascii", "replace") if config else None}


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _cache_sizes() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            out[f"L{level}"] = size
    return out


def _git_commit(root: Path) -> str | None:
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _source_digest(src: Path) -> str:
    """sha256 over the package sources, for checkouts that are not git trees."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(root: Path, seed: int) -> dict:
    import numpy

    blas = blas_info()
    return {
        "seed": seed,
        "git_commit": _git_commit(root),
        "src_sha256": _source_digest(root / "src"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas": blas["config"],
        "blas_threads": blas["threads"],
        "circscatter_threads": os.environ.get("CIRCSCATTER_THREADS"),
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "caches": _cache_sizes(),
    }
