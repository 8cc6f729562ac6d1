"""Machine-speed calibration shared by the worker and the import timer.

The benchmark machine's speed drifts by up to 2x over tens of seconds on
identical work (other tenants share its cores and caches), which would
swamp any change to the program.  A fixed pure-Python kernel, timed next to
the work, drifts with it: over a 30 s window the ratio of work time to
kernel time varies by about 2% where the raw work time varies by 20%.

``speed_factor()`` times the kernel once and returns its time over
``REFERENCE_S``: 1 at the reference speed, 2 when the machine runs at half
of it.  Dividing a measured time by the factor around it gives the time the
work would take at the reference speed.  The kernel is part of the
benchmark, not of the program, so no change to the program can move it.
"""

from __future__ import annotations

import gc
import random
import time

#: Kernel time, in seconds, that defines the reference speed: near the
#: kernel's median time on a 2 GHz Xeon vCPU under Python 3.11.
REFERENCE_S = 0.012

_ROUNDS = 300


def _matrix() -> dict:
    rng = random.Random(7)
    return {
        (rng.randrange(12), rng.randrange(12)): complex(rng.random(), rng.random())
        for _ in range(40)
    }


_A = _matrix()


def kernel() -> complex:
    """Sparse products of a dict-of-entries complex matrix with itself.

    Dict building, tuple keys and complex arithmetic, the same kind of
    interpreter work the program does.
    """
    acc = 0j
    for _ in range(_ROUNDS):
        by_row: dict = {}
        for (p, q), v in _A.items():
            by_row.setdefault(p, []).append((q, v))
        prod: dict = {}
        for (m, k), x in _A.items():
            for q, y in by_row.get(k, ()):
                prod[(m, q)] = prod.get((m, q), 0j) + x * y
        acc += sum(prod.values())
    return acc


def speed_factor() -> float:
    """Time one kernel call, with the garbage collector off so that the
    program's live objects cannot slow it, relative to ``REFERENCE_S``."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    return elapsed / REFERENCE_S
