"""Host-speed probe used to normalise pass times on a shared machine.

A fixed mix of what the pipeline spends its time on: a sort, a random
gather and a ``bincount`` over int64 arrays larger than the L2 cache, and
an interpreted dict/list loop.  Its duration follows the host's current
speed (co-tenant load, memory bandwidth, frequency) but never the program
under test.  On a shared 2-vCPU host, pass times scaled by the probe time
(``scaled`` in run.py) spread two to three times less than raw pass
times.
"""

import time

import numpy as np

SIZE = 1_500_000


def probe_once():
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    a = rng.integers(0, 1 << 40, size=SIZE)
    np.sort(a)
    np.bincount(a[rng.permutation(SIZE)] % (SIZE // 3))
    table = {}
    for i in range(SIZE // 8):
        table[i * 7 % 100_003] = i
    sorted(table.items())
    return time.perf_counter() - start


def probe(reps=2):
    """Mean of ``reps`` probe durations, in seconds."""
    return sum(probe_once() for _ in range(reps)) / reps
