"""Host-speed calibration for the timed loop.

A shared host's speed swings by a quarter or more over tens of seconds:
other tenants' work slows every instruction, short loops and whole decodes
alike, and no statistic over a 30-second window removes that. So before
every timed decode the timed loop also runs a fixed calibration kernel, a
small piece of work of the decode's own two kinds (Python bytecode and
small float32 matrix products). The kernel's timings are reduced exactly as
the decode's are (fastest per slot over the passes, see
`workloads.best_times`), and every end-to-end time is then rescaled to a
host on which the kernel takes `REFERENCE_NS`:

    calibrated time = measured time * REFERENCE_NS / kernel time

A change to the program moves its own time and not the kernel's, so it
moves the calibrated figure; a slow stretch of the host moves both, and
cancels. The report prints the measured figures and the kernel time too.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_NS = 100_000  # about the kernel's fastest time on a quiet 2.1 GHz x86-64 core

_rng = np.random.default_rng(0)
_W = (_rng.standard_normal((64, 64)) / 8).astype(np.float32)
_X = _rng.standard_normal((8, 64)).astype(np.float32)


def _kernel() -> int:
    x = _X
    for _ in range(10):
        x = np.tanh(x @ _W)
    total = 0
    for i in range(1000):
        total += i * i % 7
    return total


def kernel_ns() -> int:
    """Wall ns of one calibration kernel. It runs twice and the second run
    is timed, so its data and code are back in cache: the timing follows the
    host's speed, not what the decode before it left in the cache."""
    _kernel()
    start = time.perf_counter_ns()
    _kernel()
    return time.perf_counter_ns() - start
