"""Machine-speed reference: a fixed kernel timed alongside the program.

The benchmark's host is a shared virtual machine whose speed moves in
phases of seconds to minutes, by up to 2x between phases (the same request,
minutes apart), far more than any bound a regression check can use. The
kernel below is benchmark code: a program change cannot make it faster or
slower, but a slow phase of the machine slows it as it slows the program.
It does the program's kind of work, subset-lattice arithmetic on a dict
keyed by tuples, because that kind of work slows most in a slow phase; on
the machine the bounds were set on, a window's total request time moved
with the kernel's mean time at a log-log slope of 1.0 (correlation 0.99),
where pure float arithmetic gave a slope of 1.16 and numpy array work 1.45.

A request timed between kernels ``slot - 1`` and ``slot`` is scaled by

    REFERENCE_S / (trimmed mean of the WINDOW kernels on either side)

which gives the time it would have taken on a machine running at
reference speed, one where the kernel takes REFERENCE_S.

The garbage collector is held off while the kernel runs, so its time does
not depend on the size of the program's heap.
"""
from __future__ import annotations

import gc
import math
import statistics
from time import perf_counter

# The kernel's time on the machine the bounds were set on (an Intel Xeon
# vCPU of a 2-vCPU VM, Python 3.11) in its fast phase: scaled figures read
# as wall seconds there.
REFERENCE_S = 0.0015
TRIM = 0.1  # share of kernel times dropped at each end before the mean
# Kernels on each side of a request that set its scale. The host's phases
# change within seconds; over ten runs per workload, 2 gave steadier figures
# than 5, 10 or the whole run.
WINDOW = 2


def kernel() -> float:
    n = 8
    table = {}
    for mask in range(1 << n):
        table[tuple(i for i in range(n) if mask >> i & 1)] = (mask % 13) * 0.5
    for i in range(n):
        for key in list(table):
            if i in key:
                table[key] -= table[tuple(j for j in key if j != i)]
    items = sorted(table.items(), key=lambda kv: (len(kv[0]), kv[0]))
    return math.fsum(v for _, v in items)


def time_kernel() -> float:
    """Wall time of one kernel call, with the garbage collector held off."""
    gc.disable()
    try:
        start = perf_counter()
        kernel()
        return perf_counter() - start
    finally:
        gc.enable()


def trimmed_mean(values: list[float]) -> float:
    ordered = sorted(values)
    cut = int(len(ordered) * TRIM)
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def local_factor(kernel_times: list[float], slot: int) -> float:
    """Scale for a request timed between kernels slot - 1 and slot."""
    window = kernel_times[max(0, slot - WINDOW):slot + WINDOW]
    return REFERENCE_S / trimmed_mean(window)
