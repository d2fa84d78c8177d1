"""A fixed calibration kernel that gauges how fast the host runs right now.

The host these benchmarks run on is shared: identical work takes 20-40 %
more or less CPU time from one minute to the next (see README.md). The
worker runs this kernel once after every timed operation. ``run.py``
divides each operation's CPU time by the median of the kernel samples
taken around it and multiplies by ``REFERENCE_MS``, the kernel's median on
the reference host, so the reported times read as CPU time on that host
and a slow or fast spell of the host cancels out. Set-up times are scaled
by the median over the whole timed run.

The kernel is benchmark code only and never calls sqlab, so a change to
the program moves the operations' times and not the kernel's. It mixes a
pure-Python loop with small numpy calls (matrix-vector products,
reductions, ``searchsorted``), the two kinds of work the workloads do, and
keeps a working set of a few kilobytes so it adds nothing to peak RSS.
"""

from __future__ import annotations

import time

import numpy as np

#: Median CPU time of one ``kernel()`` call on the reference host (see
#: README.md, "Reference figures").
REFERENCE_MS = 1.7

_RNG = np.random.default_rng(0)
_MAT = _RNG.random((16, 16))
_VEC = _RNG.random(16)
_GRID = np.sort(_RNG.random(4096))
_PROBES = _RNG.random(1024)


def kernel() -> float:
    acc = 0
    for i in range(4000):
        acc += i * i % 7
    x = _VEC
    for _ in range(40):
        x = _MAT @ x
        x = x / np.abs(x).sum()
    for _ in range(8):
        acc += int(np.searchsorted(_GRID, _PROBES)[-1])
    return acc + float(x[0])


def sample() -> int:
    """CPU nanoseconds of one kernel call."""
    t0 = time.process_time_ns()
    kernel()
    return time.process_time_ns() - t0
