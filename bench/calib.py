"""Host-speed calibration: a fixed pure-Python loop timed next to the ops.

On a shared host the speed of a vCPU drifts with the load of other tenants,
in phases of seconds to minutes.  On a 2-vCPU host, one ``zset_general``
call took 0.40 ms in one five-second stretch and 0.78 ms in another, while
its time divided by that of this loop, timed right next to it, stayed
within 0.38-0.45.  So every time the benchmark reports is scaled by
``REF_NOMINAL_S / local``, where ``local`` is the median time of this loop
over the runs of it nearest in time: it reads as seconds on a host where
the loop takes ``REF_NOMINAL_S``.  The loop shares no code with detthick,
so a change to the program moves the scaled times exactly as it moves the
raw ones; only the host's drift is divided out.  The raw times are
reported beside the scaled ones.
"""

# Only the clock is imported: the set-up timer loads this module into the
# interpreter before it imports detthick, so no module detthick needs may be
# loaded here.
from time import perf_counter

REF_NOMINAL_S = 0.0005
WINDOW = 8  # loop runs on each side of an op that set its local speed


def _loop() -> int:
    # tuples, dict updates and small-int arithmetic, the mix of partition
    # combinatorics
    seen = {}
    total = 0
    for i in range(1500):
        key = (i % 7, i % 11, i % 13)
        seen[key] = seen.get(key, 0) + 1
        total += sum(key)
    return total


def time_ref() -> float:
    """Time of one run of the calibration loop."""
    t0 = perf_counter()
    _loop()
    return perf_counter() - t0


def scale(refs) -> float:
    """Factor that turns a time taken next to these loop times into seconds
    at the nominal loop time: the nominal time over their median."""
    ordered = sorted(refs)
    mid = len(ordered) // 2
    median = ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2
    return REF_NOMINAL_S / median


def scales(refs, n: int) -> list:
    """Scale factors for n timed stretches, where refs[i] and refs[i + 1]
    were timed just before and just after stretch i."""
    return [scale(refs[max(0, i - WINDOW + 1) : i + WINDOW + 1]) for i in range(n)]
