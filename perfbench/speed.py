"""Host-speed calibration for timings on a shared, drifting host.

On a shared 2-core host the speed of the same computation drifts from run to
run (the median kernel time of a run varied by a factor of 1.75 within one
pass of 30 runs), which would swamp the changes a benchmark has to resolve.
A fixed kernel (small dense linear algebra, complex Gaussian draws
and Python arithmetic, like the GP solver and the Monte-Carlo draws; no
cfurllc code) is timed before the first point and after every point. A run's
times are multiplied by NOMINAL_S over the median kernel time of the run,
which gives seconds at the reference host speed. The run record keeps the
raw times beside the adjusted ones.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# median kernel time on the reference host (2-core Intel Xeon, OpenBLAS
# 0.3.31, one BLAS thread); only the scale of adjusted times depends on it
NOMINAL_S = 2.5e-3

_rng = np.random.default_rng(20221123)
_A = _rng.standard_normal((24, 24))
_H = _A @ _A.T + 24.0 * np.eye(24)
_V = _rng.standard_normal(24)
_EYE = np.eye(24)


def _kernel() -> float:
    rng = np.random.Generator(np.random.Philox(key=7))
    total = 0.0
    for i in range(40):
        chol = np.linalg.cholesky(_H + i * _EYE)
        x = np.linalg.solve(chol, _V)
        z = rng.standard_normal((8, 24)) + 1j * rng.standard_normal((8, 24))
        total += float(np.exp(-np.abs(x)).sum()) + float(np.abs(z @ x).sum())
        for j in range(40):
            total += j * 0.5
    return total


def kernel_seconds() -> float:
    t0 = perf_counter()
    _kernel()
    return perf_counter() - t0


class SpeedClock:
    """Kernel samples taken between timed intervals; `factor()` scales them."""

    def __init__(self):
        self.samples = [kernel_seconds()]

    def sample(self):
        self.samples.append(kernel_seconds())

    def factor(self) -> float:
        """NOMINAL_S over the median sample: > 1 when the host ran slow."""
        return NOMINAL_S / statistics.median(self.samples)
