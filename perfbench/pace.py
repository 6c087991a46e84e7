"""The reference kernel: how fast this machine runs at the moment.

The benchmark's host shares its cores with other machines' work, and its
speed drifts by a third and more over tens of seconds, longer than a run.
Every run therefore times this fixed kernel between ops, outside their
timing, and reports op times in reference time: the measured time scaled
by REF_NS over the kernel's time around it.  A change to the package leaves
the kernel's time alone, so it moves the reference times in full; a slow
phase of the host slows the ops and the kernel alike, and cancels.  The
kernel imports nothing from the package.  Its work is of the kinds the
workloads do: bit loops over Python ints, dict, set and tuple
churn, sorting, and numpy sampling with column gathers.
"""

from __future__ import annotations

import random
import statistics
import threading
import time
from bisect import bisect_right

import numpy as np

# The unit of reference time: an op that takes as long as the kernel reads
# REF_NS.  3 ms is about the kernel's time alone on the host the benchmark
# was tuned on (a 2-vCPU KVM guest on an Intel Xeon, model 143); between ops,
# with the caches they left, it takes 3 to 4.5 ms there.
REF_NS = 3_000_000
RUN_NS = 50_000_000  # a probe runs the kernel once per this much op time before it
MIN_RUNS, MAX_RUNS = 3, 15  # and at least and at most this many times
WINDOW = 2  # an op's pace is the median of this many probes on either side

_gen = random.Random(20260823)
_KEYS = [_gen.getrandbits(60) for _ in range(250)]
_COLS = np.random.default_rng(20260823).integers(0, 1000, size=(100, 2))


def _kernel() -> int:
    acc = 0
    seen = {}
    for k in _KEYS:
        m = k
        while m:
            low = m & -m
            acc += low.bit_length()
            m ^= low
        seen[k >> 44] = (k & 0xFFFF, acc)
    order = sorted(seen.items(), key=lambda kv: kv[1])
    acc += len({a for _, (a, _) in order})
    rows = np.random.default_rng(7).random((256, 1000)) < 0.2
    hit = np.zeros(256, dtype=bool)
    for c in _COLS:
        hit |= rows[:, c].all(axis=1)
    return acc + int(hit.sum())


def probe(op_ns: int = 0, threads: int = 1) -> int:
    """The kernel's time now, in ns.

    One untimed run warms the caches the ops left cold; then MIN_RUNS to
    MAX_RUNS timed runs, more after a longer stretch of ops (op_ns), so that
    a probe between long ops weighs more.  With one thread the probe is the
    median run; with more, as many threads as the ops keep busy each make
    the runs at once, handing the GIL to each other as the ops' threads do,
    and the probe is the mean run.
    """
    runs = min(MAX_RUNS, max(MIN_RUNS, op_ns // RUN_NS))
    _kernel()
    if threads > 1:
        def body():
            for _ in range(runs):
                _kernel()

        pool = [threading.Thread(target=body) for _ in range(threads)]
        t0 = time.perf_counter_ns()
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        return (time.perf_counter_ns() - t0) // (threads * runs)
    times = []
    for _ in range(runs):
        t0 = time.perf_counter_ns()
        _kernel()
        times.append(time.perf_counter_ns() - t0)
    return int(statistics.median(times))


def scale(probes: list[int]) -> float:
    """Factor from wall time to reference time, given probes around it."""
    return REF_NS / statistics.median(probes)


def op_scales(probe_at: list[int], probe_ns: list[int], ops: int) -> list[float]:
    """Each op's factor from wall time to reference time.

    probe_ns[i] was taken when probe_at[i] ops had finished; probe_at starts
    at 0 and never falls.  An op between two probes takes the median of the
    WINDOW probes before it and the WINDOW after it.
    """
    out = []
    for j in range(ops):
        a = bisect_right(probe_at, j) - 1
        near = probe_ns[max(0, a - WINDOW + 1): a + WINDOW + 1]
        out.append(scale(near))
    return out
