"""Test-session set-up, run before any test module imports numpy.

BLAS and OpenMP are pinned to one thread, as `perfbench/env.py` does for
the benchmark: the models' small matrix products train faster on one
thread than on a contended pool, with the same losses. A value already set
in the environment is kept.

The `moved` fixture builds a model with one parameter element moved, for
finite differences and nudged weights: a model's parameters are read-only.
"""

import os

import pytest

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")


def _moved(model, name, index, step):
    """A model built from `model`'s parameters, with the element `index` of
    parameter `name`, flattened, moved by `step` (a slice moves every
    element it selects)."""
    params = dict(model.params)
    moved = params[name] = params[name].copy()
    moved.reshape(-1)[index] += step
    return type(model)(model.config, dtype=model.dtype, params=params)


@pytest.fixture
def moved():
    """`_moved(model, name, index, step)`."""
    return _moved
