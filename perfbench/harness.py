"""Shared plumbing for the benchmark: thread pinning, locating the source
tree, recording the environment, and the summary statistics.

Importing this module does not import numpy, so an entry script can call
`pin_threads()` before numpy loads its BLAS.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (missing source or fixture)."""


def pin_threads() -> None:
    """One BLAS thread: float sums then do not depend on the core count."""
    if "numpy" in sys.modules:
        raise SetupError("pin_threads() must run before numpy is imported")
    for var in PIN_VARS:
        os.environ[var] = "1"


def use_source_tree() -> None:
    """Import `speechslu` from this checkout's src/, never from elsewhere."""
    if not (SRC / "speechslu" / "__init__.py").is_file():
        raise SetupError(f"no speechslu package under {SRC}")
    sys.path.insert(0, str(SRC))
    import speechslu

    if Path(speechslu.__file__).resolve().parent != (SRC / "speechslu").resolve():
        raise SetupError(f"speechslu imported from {speechslu.__file__}, not {SRC}")


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def source_digest() -> str:
    """Content digest of src/, which identifies the code when git is absent."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def _git(*args) -> str | None:
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib_path in libs:
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def describe_environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    dirty = None
    if (ROOT / ".git").exists():
        commit = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else bool(status)
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "pinned": {var: os.environ.get(var) for var in PIN_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "dirty": dirty,
        "src_sha256": source_digest(),
    }


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (numpy's default method), q in [0, 100]."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie strictly above the q-th percentile's rank."""
    return n - 1 - math.floor((n - 1) * q / 100.0)


def median(values) -> float:
    return percentile(values, 50.0)


def peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MiB (Linux reports KiB)."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
