"""Machine-speed calibration kernel.

On a shared machine the speed drifts: the same op runs up to 20-30 % slower
for seconds to minutes at a time, with CPU time tracking wall time.  Before
every op the benchmark times this kernel, a fixed piece of work that uses no
kazvol code, and reports the op's wall time over the kernel's, times
``REFERENCE_S``: seconds at the kernel's reference speed.  A change to kazvol
cannot change the kernel, so the ratio removes the machine's drift without
hiding the program's own speed.

The kernel mixes what the workloads do: Python set intersections (the
lattice closure), small SVDs (per-face bases and rho), a Qhull call and
Gaussian sphere sampling (angles and quadrature).
"""

from __future__ import annotations

import time

import numpy as np
from scipy.spatial import ConvexHull

# Median kernel time on the 2-vCPU Xeon used to set the bounds; any constant
# would do, it only fixes the unit ("seconds at that speed").
REFERENCE_S = 0.028


class Kernel:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.sets = [frozenset(rng.choice(40, 12, replace=False).tolist()) for _ in range(120)]
        self.mats = rng.standard_normal((300, 6, 6))
        self.cloud = rng.standard_normal((16, 4))

    def __call__(self) -> float:
        """Seconds the kernel took."""
        t0 = time.perf_counter()
        for a in self.sets:
            for b in self.sets[:60]:
                a & b
        for m in self.mats:
            np.linalg.svd(m)
        ConvexHull(self.cloud)
        gen = np.random.default_rng(1)
        for _ in range(6):
            x = gen.standard_normal((20_000, 4))
            x /= np.linalg.norm(x, axis=1)[:, None]
        return time.perf_counter() - t0
