"""Test-session set-up, run before any test module imports numpy.

BLAS and OpenMP are pinned to one thread, as `perfbench/env.py` does for
the benchmark: the models' small matrix products train faster on one
thread than on a contended pool, with the same losses. A value already set
in the environment is kept.
"""

import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")
