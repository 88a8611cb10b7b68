"""Process environment shared by the benchmark's entry scripts.

Importing this module pins the BLAS/OpenMP pools to one thread (before numpy
is first imported) and puts the checkout's `src/` first on `sys.path`, so the
benchmark always measures the library next to it, never an installed copy.
"""
from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


class MissingSource(RuntimeError):
    """The checkout holds no library source to benchmark."""


def require_source() -> None:
    """Raise MissingSource unless `pointvortex` imports from this checkout."""
    if not (SRC / "pointvortex" / "__init__.py").is_file():
        raise MissingSource(f"no library source under {SRC}")
    import pointvortex

    origin = Path(pointvortex.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise MissingSource(f"pointvortex was imported from {origin}, not {SRC}")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_info(seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }
