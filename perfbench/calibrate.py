"""A fixed reference computation that measures how fast the host runs now.

The benchmark's box shares its cores with other tenants: the same op
takes 0.7 ms in one second and 1.3 ms in the next.  Timing this kernel
just before each short op and dividing by it cancels that drift, because
the kernel does the same kinds of work as the ops (Python float loops,
exact fractions, small NumPy gates and norms, small LAPACK calls).  The
kernel uses no qsvt code, so a change to the package moves the ratio and
a change of host speed does not.
"""
from __future__ import annotations

import math
import statistics
import time
from fractions import Fraction

import numpy as np

# Median kernel time on the reference box (2-core Intel Xeon VM, Python
# 3.11, NumPy 2.4, one BLAS thread) in a quiet second.  Normalised times
# are op time x REFERENCE_S / kernel time: seconds on that box at that speed.
REFERENCE_S = 2.8e-4

_GATE = np.eye(4, dtype=complex)
_HERMITIAN = np.array([[2.0, 1, 0, 0], [1, 3, 0, 0], [0, 0, 1, 0.5], [0, 0, 0.5, 4]])
_MATRIX = np.arange(6.0).reshape(2, 3) + 1


def kernel() -> float:
    total = 0.0
    for _ in range(3):
        total += math.fsum(x * x * math.sin(0.3 * x) for x in range(60))
    y = Fraction(1, 3)
    for _ in range(10):
        y = y * y - Fraction(1, 7) * y + Fraction(1, 2)
        y = Fraction(math.floor(y * 256), 256)
    state = np.zeros((2,) * 9, dtype=complex)
    state[0] = 1.0
    for axis in range(0, 8, 2):
        moved = np.moveaxis(state, [axis, axis + 1], [0, 1])
        moved[...] = (_GATE @ moved.reshape(4, -1)).reshape(moved.shape)
        total += float(np.linalg.norm(state.reshape(-1)))
    total += float(np.linalg.eigh(_HERMITIAN)[0][0])
    total += float(np.linalg.svd(_MATRIX, compute_uv=False)[0])
    return total + float(y)


def seconds() -> float:
    """Time of one kernel run."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def median_seconds(runs: int) -> float:
    return statistics.median(seconds() for _ in range(runs))
