"""Host speed, measured by a fixed kernel that uses no code of the program.

On a shared host the speed of one core drifts by 30-50 % over tens of
seconds to minutes (a fixed pure-Python loop measured 6.5 ms and 10 ms per
call in spells of 10-40 s on a 2-vCPU Xeon VM), so raw wall times of
separate runs cannot resolve a 25 % change.  The benchmark therefore
samples a reference kernel between ops, every EVERY_S seconds of op time,
and reports each op's duration in *nominal seconds*:

    nominal = wall * NOMINAL_S / kernel

where ``kernel`` is the median of the SPAN samples around the op: one call
varies by 10-20 % even back to back, a spell of the host lasts far longer
than SPAN samples.  The kernel is rational Gaussian elimination of a fixed
matrix with the standard library's ``Fraction``, the same kind of work as
the program's hot path, so the two slow down together; it calls nothing
in ``src/``, so a change to the program moves the nominal times exactly as
it moves the wall times.  NOMINAL_S is a fixed scale, the kernel's time on
an unloaded 2-vCPU Xeon VM, so nominal seconds read close to wall seconds
there.
"""

from __future__ import annotations

import gc
import statistics
from fractions import Fraction
from time import perf_counter

NOMINAL_S = 0.005
EVERY_S = 0.5
SPAN = 5  # samples in the median around an op: two before it, three after
REPEAT = 3  # kernel calls per sample; a sample is their median
_N = 12
_MATRIX = [[Fraction((7 * i + 3 * j) % 11 - 5, 1 + (i + 2 * j) % 5) for j in range(_N)] for i in range(_N)]


def _eliminate() -> None:
    m = [row[:] for row in _MATRIX]
    for c in range(_N):
        p = next((r for r in range(c, _N) if m[r][c]), None)
        if p is None:
            continue
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for r in range(_N):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]


def kernel_s() -> float:
    """Median wall time of REPEAT kernel calls, with the cyclic collector
    off so that the program's heap does not enter them."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(REPEAT):
            t0 = perf_counter()
            _eliminate()
            times.append(perf_counter() - t0)
        return sorted(times)[REPEAT // 2]
    finally:
        if enabled:
            gc.enable()


class HostClock:
    """Turns the wall times of a sequence of ops into nominal seconds.

    Call :meth:`tick` before each op and :meth:`record` with its wall time
    after it; :meth:`finish` returns the nominal durations in order.
    """

    def __init__(self, every_s: float = EVERY_S):
        kernel_s()  # warm-up, not kept
        self.every_s = every_s
        self.samples: list[float] = [kernel_s()]
        self._windows: list[list[float]] = [[]]  # wall times after each sample
        self._since = 0.0

    def tick(self) -> None:
        if self._since >= self.every_s:
            # after a long op, one sample per EVERY_S of it (up to SPAN)
            for _ in range(min(SPAN, int(self._since / self.every_s))):
                self.samples.append(kernel_s())
                self._windows.append([])
            self._since = 0.0

    def record(self, wall_s: float) -> None:
        self._windows[-1].append(wall_s)
        self._since += wall_s

    def finish(self) -> list[float]:
        self.samples.append(kernel_s())
        out = []
        before = SPAN // 2
        for i, window in enumerate(self._windows):
            # window i lies between samples i and i + 1
            lo = max(0, min(i + 1 - before, len(self.samples) - SPAN))
            kernel = statistics.median(self.samples[lo : lo + SPAN])
            out.extend(w * NOMINAL_S / kernel for w in window)
        return out
