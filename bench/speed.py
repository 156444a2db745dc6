"""Wall times scaled to a fixed machine speed.

A shared virtual machine does not run at one speed: its host switches for
seconds at a time between a fast state and one about 1.7 times slower, and
process CPU time slows just as much as wall time.  A run of the benchmark
therefore times whatever mix of states it met, and two runs of the same code
can differ by more than the bounds in ``BENCHMARK.json``.

``Speedometer`` measures the machine's speed while the benchmark runs.  Every
``PERIOD_S`` a ``SIGALRM`` handler times two small fixed kernels, a Python
loop and one small LP through scipy's HiGHS ``linprog`` (flexgrid's work is
mostly interpreted Python around many small HiGHS LPs), keeps the fastest of
``REPS`` tries of each, and records their geometric mean as the kernel time.
Of the kernels tried (these two, small and large dense numpy products and
solves, sparse products), this pair's speed tracked flexgrid's the closest
across the machine's states.  ``seconds(t0, t1)`` then splits a wall
interval at those samples, leaves out the handler's own time, and weights
each piece by ``REF_KERNEL_S / kernel time`` measured on either side of it:
the seconds the interval would have taken on a machine where the kernel
takes ``REF_KERNEL_S``.  A change that makes flexgrid slower or faster moves
these seconds just as it moves wall time; a change of machine speed mostly
does not.  The kernels run no flexgrid code.
"""

from __future__ import annotations

import bisect
import signal
import time

import math

import numpy as np
from scipy.optimize import linprog

PERIOD_S = 0.25
REPS = 3
# Kernel time that defines a reference second: about the kernel time in the
# fast state of a shared 2-vCPU virtual machine (Python 3.11, numpy 2.4,
# scipy 1.17), so the scaled seconds read like wall seconds there.
REF_KERNEL_S = 0.47e-3

_ROW = list(range(64))
_rng = np.random.default_rng(0)
_C = -_rng.random(20)
_A_UB = _rng.random((30, 20))
_B_UB = _rng.random(30) + 5.0


def python_kernel() -> float:
    """Interpreted arithmetic; allocates no Python containers, so starts no GC."""
    acc = 0.0
    for i in range(1500):
        acc += _ROW[i & 63] * 0.5
    return acc


def lp_kernel() -> float:
    """One small bounded LP, solved to optimality by HiGHS."""
    return linprog(_C, A_ub=_A_UB, b_ub=_B_UB, bounds=(0, 1), method="highs").fun


def _fastest(kernel) -> float:
    best = float("inf")
    for _ in range(REPS):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class Speedometer:
    """Samples the kernel time on a timer while running; see the module doc."""

    def __init__(self):
        self.ends: list[float] = []  # perf_counter at the end of each sample
        self.spent: list[float] = []  # handler time of each sample
        self.kernel_s: list[float] = []  # kernel time of each sample
        self._previous = None

    def _sample(self, *_):
        t0 = time.perf_counter()
        kernel_s = math.sqrt(_fastest(python_kernel) * _fastest(lp_kernel))
        t1 = time.perf_counter()
        self.ends.append(t1)
        self.spent.append(t1 - t0)
        self.kernel_s.append(kernel_s)

    def start(self) -> None:
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        """Stop the timer; safe to call more than once."""
        if self._previous is None:
            return
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._previous = None
        self._sample()

    def overhead(self) -> float:
        """Share of the sampled wall time spent in the handler."""
        span = self.ends[-1] - self.ends[0] if len(self.ends) > 1 else 0.0
        return sum(self.spent[1:]) / span if span > 0 else 0.0

    def seconds(self, t0: float, t1: float) -> float:
        """Reference-speed seconds of the program's work in wall interval [t0, t1]."""
        ends, spent, ks = self.ends, self.spent, self.kernel_s
        i = bisect.bisect_right(ends, t0)
        total, start = 0.0, t0
        while True:
            stop = ends[i] if i < len(ends) and ends[i] < t1 else t1
            busy = stop - start
            if stop < t1:  # the piece ends with sample i, which ran inside it
                busy -= spent[i]
            around = [ks[j] for j in (i - 1, i) if 0 <= j < len(ks)]
            total += max(busy, 0.0) * REF_KERNEL_S * len(around) / sum(around)
            if stop >= t1:
                return total
            start, i = stop, i + 1
