"""Reference-speed scaling of measured times.

The machines this benchmark runs on share their cores with other tenants.
On the 2-core VM it was defined on, one fixed loop of small numpy calls took
anywhere from 1.0x to 2.4x its fastest time, switching within seconds, with
no steal time visible to the guest.  Medians over 20-second runs did not
remove that: the run-to-run spread of wall time reached 35 %.

So every timed interval is bracketed by a short reference loop of the same
kinds of work phint does, and the time is scaled by
REFERENCE_S / (mean time of the two loops): it is reported as the time the
interval would have taken at the speed where the reference loop takes
REFERENCE_S.  The raw times are reported beside the metrics.
"""
import time

import numpy as np
from mpmath import mp, mpf

# about the fastest time of reference_loop on one core of the x86-64 VM the
# benchmark was defined on (Python 3.11, numpy 2.4, mpmath 1.3)
REFERENCE_S = 1.35e-3

_M = np.eye(3)
_WIDE = np.random.default_rng(0).standard_normal((12, 24))
_SQUARE = 2.0 * np.eye(8) + 0.1

clock = time.perf_counter


def reference_loop() -> float:
    """Seconds taken by a fixed mix of the three kinds of work phint does:
    Python calls around small numpy operations, 40-digit mpmath arithmetic,
    and LAPACK calls on small matrices.  Under contention the slowdown of
    this mix stayed within 5 % of that of the linear stepper, the Newton
    stepper, kernel_check and dense_eval; a loop of numpy calls alone was
    off by up to 21 %."""
    t0 = clock()
    acc = 0.0
    for i in range(75):
        y = _M @ np.array([1.0, 2.0, float(i)])
        acc += float(np.max(np.abs(y))) + len([j for j in range(5)])
    with mp.workdps(40):
        big = mpf(1)
        for i in range(38):
            big = (big * mpf(i + 1) + mpf(1) / (i + 3)) / (i + 2)
    for _ in range(20):
        np.linalg.svd(_WIDE, compute_uv=False)
        np.linalg.inv(_SQUARE)
    return clock() - t0


def at_reference_speed(fn):
    """Run fn() between two reference loops; return its result and the
    factor that scales times measured inside it to reference speed."""
    before = reference_loop()
    out = fn()
    after = reference_loop()
    return out, 2.0 * REFERENCE_S / (before + after)
