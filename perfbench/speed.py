"""Machine-speed calibration for the timed runs.

The benchmark runs on shared hosts whose speed drifts by tens of percent
over seconds to minutes, while CPU time tracks wall time: the slowdown is
contention outside the process, not lost CPU time.  To keep that drift out
of the figures, a timed run brackets every slice of cases with a probe of a
fixed pure-Python kernel and scales the slice's times by

    REFERENCE_S / (mean of the two probes around the slice)

so every reported time is "seconds on a machine that runs the probe in
REFERENCE_S".  Each set-up start-up is scaled the same way.  The kernel is a sparse product of two dicts from exponent
triples to ints, the same kind of work as daha's own arithmetic, but it is
the benchmark's own code and never calls daha, so a change to daha cannot
change it.  Garbage collection is off while it runs, so a larger heap left
by daha cannot slow the probe and flatter the scaled times.
"""

from __future__ import annotations

import gc
import time

# Seconds one probe takes on the reference machine speed.  A fixed constant:
# it only sets the scale of the reported times, never their ratio between
# two commits.
REFERENCE_S = 0.002
# Kernel repetitions per probe: about REFERENCE_S on the machine the
# benchmark was built on.
PROBE_REPS = 4


def _poly(n: int) -> dict[tuple[int, int, int], int]:
    return {(i, (i * 7) % 5 - 2, (i * 3) % 4 - 1): (i % 9) - 4 or 1 for i in range(n)}


_LEFT = _poly(40)
_RIGHT = _poly(30)


def _kernel() -> dict[tuple[int, int, int], int]:
    out: dict[tuple[int, int, int], int] = {}
    get = out.get
    for (a0, a1, a2), u in _LEFT.items():
        for (b0, b1, b2), v in _RIGHT.items():
            key = (a0 + b0, a1 + b1, a2 + b2)
            total = get(key, 0) + u * v
            if total:
                out[key] = total
            else:
                del out[key]
    return out


def probe() -> float:
    """Wall seconds of one fixed calibration workload."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(PROBE_REPS):
            _kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(before: float, after: float) -> float:
    """Factor turning wall seconds measured between two probes into
    reference seconds."""
    return REFERENCE_S / ((before + after) / 2)
