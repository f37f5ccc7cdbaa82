"""Machine-speed calibration for op timings.

On a shared 2-CPU VM the same fixed work runs up to ~20% faster or
slower from one stretch of seconds to the next.  A ~2 ms kernel with the
program's own mix (a Python loop, small LAPACK eigendecompositions, row
norms of a 4096 x 3 array, a max over a 384 x 1024 product) is timed
before every op, after one untimed warm-up call.  Each op's time is
scaled by REFERENCE_S / (median kernel time over the ops around it),
which keeps that drift out of the reported figures.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 2.1e-3  # calibrate() on the reference box (2-CPU x86-64 VM)
WINDOW = 8  # kernel samples on each side of an op

_RNG = np.random.default_rng(0)
_SMALL = _RNG.standard_normal((12, 12))
_SMALL = _SMALL @ _SMALL.T
_ROWS = _RNG.standard_normal((4096, 3))
_NODES = _RNG.standard_normal((1024, 3))


def _kernel():
    acc = 0
    for i in range(5000):
        acc += i * i
    for _ in range(20):
        np.linalg.eigh(_SMALL)
    for _ in range(4):
        np.linalg.norm(_ROWS @ _SMALL[:3, :3], axis=1)
    (_ROWS[:384] @ _NODES.T).max(axis=1)


def calibrate() -> float:
    """Seconds taken by the fixed kernel now (after one untimed warm-up)."""
    _kernel()
    start = perf_counter()
    _kernel()
    return perf_counter() - start


def scales(kernel_s: list[float]) -> list[float]:
    """Per-op factor REFERENCE_S / median of the kernel times around the op."""
    n = len(kernel_s)
    return [
        REFERENCE_S / statistics.median(kernel_s[max(0, i - WINDOW) : i + WINDOW + 1])
        for i in range(n)
    ]
