"""Machine speed, measured next to every timed interval.

The shared machine's speed drifts by up to half over seconds and differs
between its cores, which moves every absolute time alike.  A frozen copy
of the direct product over a fixed signed-permutation table (independent
of kaluza, so no change to the package moves it) is timed right before
and after each measured stretch, in the same process; the benchmark
reports times and rates scaled to the speed at which this calibration
product takes REFERENCE_NS.  It imports nothing but ``time``, so the
set-up child can load it before kaluza without loading modules for it.
"""

import time

REFERENCE_NS = 100_000
CAL_REPS = 8
_CAL_INDEX = tuple(tuple(i ^ j for j in range(32)) for i in range(32))
_CAL_NEG = tuple(tuple(bin(i & j).count("1") % 2 == 1 for j in range(32)) for i in range(32))
_CAL_A = tuple((i % 7 - 3) * 0.375 for i in range(32))
_CAL_B = tuple((i % 5 - 2) * 0.625 for i in range(32))


def _calibration_product(av, bv):
    out = [av[0] * x for x in bv]
    for i in range(1, 32):
        ai, neg, idx = av[i], _CAL_NEG[i], _CAL_INDEX[i]
        for j in range(32):
            t = ai * bv[j]
            if neg[j]:
                out[idx[j]] -= t
            else:
                out[idx[j]] += t
    return out


def machine_ns(reps: int = 2 * CAL_REPS) -> list:
    """Times of ``reps`` calibration products, in ns."""
    clock = time.perf_counter_ns
    out = []
    for _ in range(reps):
        t0 = clock()
        _calibration_product(_CAL_A, _CAL_B)
        out.append(clock() - t0)
    return out


def median(values):
    v = sorted(values)
    mid = len(v) // 2
    return v[mid] if len(v) % 2 else (v[mid - 1] + v[mid]) / 2


def timed_at_reference(fn):
    """Run ``fn()`` between two calibrations: (its result, reference scale)."""
    cal = machine_ns()
    result = fn()
    return result, REFERENCE_NS / median(cal + machine_ns())
