"""Machine-speed calibration for a shared, noisy host.

On the 2-core virtual machine this benchmark was built on, other tenants slow
every process down by up to a half, in phases that last from seconds to
minutes; the same op on the same inputs can take 1.5 times as long from one
minute to the next. A fixed pure-Python kernel, timed right next to each
measurement, gives the machine's speed of that moment. Timings are reported
scaled by ``REFERENCE_S / kernel time``: as they would read when the machine
runs at the speed at which the kernel takes ``REFERENCE_S``.
"""

from __future__ import annotations

import time

KERNEL_ITERATIONS = 30_000
# median kernel time on the machine the first baseline was taken on
REFERENCE_S = 3.5e-3


def kernel_seconds() -> float:
    """Wall time of the fixed kernel: interpreter-bound arithmetic and dict stores."""
    t0 = time.perf_counter()
    acc, table = 0.0, {}
    for k in range(KERNEL_ITERATIONS):
        acc += k * 0.5
        table[k & 255] = acc
    return time.perf_counter() - t0


def scaled(raw_s: float, *kernel_s: float) -> float:
    """``raw_s`` at reference speed, the speed taken as the mean of the kernel samples."""
    return raw_s * REFERENCE_S * len(kernel_s) / sum(kernel_s)
