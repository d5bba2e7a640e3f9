"""Machine-speed reference for the CPU-bound workloads.

The 2-vCPU virtual machine this benchmark was tuned on changes speed with
the load of its neighbours, flipping between a fast and a slow state
every few seconds and drifting for minutes: the same sweep ran at 246
cells/s in one run and 390 in another a minute later.  So the raw timing
of any one run mostly says when it ran.  A fixed kernel of the
benchmark's own, timed after every op, slows down with the ops (over
24 s windows their mean times correlate at 0.89 on ``sweep`` and 0.92 on
``stream``), and those two workloads report their timings scaled by it:
as if the kernel had taken :data:`NOMINAL_S`.  The kernel runs on two
threads at once, as the two rank threads do, so it pays the same
interpreter-lock hand-overs between vCPUs.
"""

from __future__ import annotations

import statistics
import threading
import time

import numpy as np

#: Mean :func:`reference` wall time on the 2-vCPU reference box.  A run
#: reports its timings as if its reference had taken this long.
NOMINAL_S = 0.36
#: Kernel calls per thread in one :func:`reference`.
REPS = 128
#: Most CPU other threads may use during a reference, as a share of it.
IDLE_SHARE = 0.2

_ROWS = np.random.default_rng(12345).standard_normal((48, 60))
_VALUES = _ROWS.ravel().tolist()


def kernel() -> float:
    """Small-window numpy arithmetic, then a plain Python loop.

    The mix stands for the robust-correlation windows and the strategy's
    per-bar loop, the two layers that take most of a sweep.
    """
    acc = 0.0
    for row in _ROWS:
        d = row - row.mean()
        s = np.sqrt((d * d).mean())
        w = np.minimum(1.0, 2.0 / (np.abs(d / s) + 1e-12))
        acc += float((w * d).sum())
    total = 0.0
    state = {}
    for i, v in enumerate(_VALUES):
        total += v * v if v > 0 else -v
        state[i & 63] = total
    return acc + total + len(state)


def reference() -> tuple[float, float]:
    """Time two threads running :data:`REPS` kernels each, at once.

    Returns the wall time and the CPU seconds that other threads of this
    process used meanwhile.  The second should be about 0: a program
    that leaves threads working after an op would slow the reference and
    so inflate its own scaled speed, and the caller fails such a run.
    """
    own = [0.0, 0.0]

    def work(i: int) -> None:
        t0 = time.thread_time()
        for _ in range(REPS):
            kernel()
        own[i] = time.thread_time() - t0

    threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    return wall, time.process_time() - cpu0 - sum(own)


def scale(samples) -> tuple[float, bool]:
    """How much slower than nominal the machine ran, from a run's samples.

    Returns the mean reference time over :data:`NOMINAL_S` and whether
    every sample ran with the rest of the process idle.  The mean, not
    the median: the machine flips between a fast and a slow state every
    few seconds, and the mean follows the share of time spent in each,
    as the ops' own times do, where a median jumps between the two.
    """
    quiet = all(other < IDLE_SHARE * wall for wall, other in samples)
    return statistics.fmean(wall for wall, _ in samples) / NOMINAL_S, quiet
