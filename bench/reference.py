"""A fixed reference job that puts every timing on one host speed.

The host this benchmark was defined on (2 cores, x86_64, shared with
other tenants) alternates between a fast and a slow state about 1.4x
apart.  Its phases last from seconds to minutes, so whole 25 s runs
land in one state or the other.  A pure-Python loop and the benchmark's
own workloads slow down by nearly the same factor, and CPU time slows as
much as wall time.

The workloads mix interpreter work, many numpy calls on small arrays
(the CLI workloads) and BLAS work on large ones (the sweeps), so the
reference job has one part of each: a pure-Python loop, ``kron`` and
``eigh`` on 4x4 and 16x16 matrices, and a values-only SVD of a fixed
128x128 matrix.  Of the three, the small-array part follows the
per-call variation of the CLI workloads most closely (correlation about
0.5 to 0.6, against 0.1 to 0.5 for the loop).  Measured against the
loop and SVD parts alone, the time of a unit already varied less from
repeat to repeat than its wall time: from about 16 % down to 7-9 % on
``identify-full`` and to 13 % on ``err-grid``.

The job runs between every two units.  A unit's calibrated time is its
wall time times ``REF_MS`` over the lower of the reference times
measured just before and just after it.  The lower of the two is used
because a disturbance only ever slows the job down.  The job is fixed
code of the benchmark and no qnetid change can alter it.
"""

import time

import numpy as np

#: the reference job's time, ms, on the defining host in its fast state:
#: calibrated times are wall times at a host speed where the job takes this
REF_MS = 4.0
LOOP = 20_000
SMALL_REPS = 32
_MATRIX = np.random.default_rng(0).normal(size=(128, 128))
_SMALL = np.random.default_rng(1).normal(size=(4, 4))
# bound at import, so a tracer's wrapper never sees them
_SVD = np.linalg.svd
_EIGH = np.linalg.eigh
_KRON = np.kron


def reference_ms() -> float:
    """Wall time of one run of the reference job, in ms."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(LOOP):
        acc += i * i
    for _ in range(SMALL_REPS):
        k = _KRON(_SMALL, _SMALL)
        _EIGH(k + k.T)
    _SVD(_MATRIX, compute_uv=False)
    return (time.perf_counter() - t0) * 1e3
