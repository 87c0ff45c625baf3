"""Process set-up shared by the benchmark's entry points.

`prepare()` must run before numpy is imported: it pins BLAS and OpenMP to
one thread in this process's own environment (multithreaded OpenBLAS on a
2-core machine turns a 1.5 ms scoring call into a 30 ms one now and then)
and puts the checkout's `src/` on the import path.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingSourceError(RuntimeError):
    pass


def prepare() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "blockdec" / "__init__.py").is_file():
        raise MissingSourceError(f"no blockdec package under {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def environment(seed: int) -> dict:
    """What a result depends on besides the code: interpreter, numpy and
    its BLAS, thread settings, CPU count and the workload seed."""
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy older than 1.25 prints instead
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
    }
