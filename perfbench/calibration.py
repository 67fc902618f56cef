"""A fixed kernel that measures how fast the machine is running right now.

On a virtual machine shared with other tenants, the same work takes up to
twice as long from one second to the next.  While a round runs, a
:class:`Clock` interrupts it every ``PERIOD_S`` seconds and times this
kernel, which uses no hkcert code.  Afterwards it maps the round's
``perf_counter()`` times to *reference seconds*: time spent in the kernel
counts for nothing, and the work between two kernel runs is multiplied by
``REFERENCE_S / kernel time`` (their mean), which is how long it would have
taken at the reference speed.  A change to hkcert does not change the
kernel, so it still shows in full; a change of machine speed cancels out.
The times as measured stay in the full result.

The kernel mixes the two kinds of work the workloads do: exact rational
arithmetic on Python integers, and numpy arithmetic on arrays the size of a
search grid.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter

import numpy as np

# The kernel's median time on the machine the baseline was measured on.
REFERENCE_S = 0.00233
# Seconds between two kernel runs while a round runs.
PERIOD_S = 0.25


def kernel() -> float:
    acc = Fraction(0)
    for i in range(1, 80):
        s = Fraction(i * 7919, 104729)
        acc += ((s - 1) ** 9 / 362880).limit_denominator(10**6)
    x = np.linspace(0.0, 8.0, 10000)
    y = np.zeros_like(x)
    for j in range(8):
        y += (-1.0) ** j * np.maximum(x - j, 0.0) ** 8
    return float(acc) + float(y.sum())


def kernel_s(repeats: int = 3) -> float:
    """Seconds the kernel takes now: the fastest of ``repeats`` runs."""
    best = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        kernel()
        best = min(best, perf_counter() - start)
    return best


def scale() -> float:
    """Reference seconds per measured second, measured now."""
    return REFERENCE_S / kernel_s()


class Clock:
    """Times the kernel at the start, at the end and every ``period``
    seconds in between (on ``SIGALRM``) of the work run inside ``with``.

    :meth:`ref` and :meth:`work` then map ``perf_counter()`` times taken
    inside the block onto time lines that stand still while the kernel runs:
    in reference seconds, and as measured.
    """

    def __init__(self, kernel=kernel_s, period: float = PERIOD_S):
        self.kernel = kernel
        self.period = period
        self.runs: list[tuple[float, float, float]] = []  # start, end, kernel seconds
        self._busy = False

    def _sample(self, *_) -> None:
        if self._busy:  # a signal that arrives during a kernel run
            return
        self._busy = True
        start = perf_counter()
        seconds = self.kernel()
        self.runs.append((start, perf_counter(), seconds))
        self._busy = False

    def __enter__(self) -> "Clock":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def _map(self, times, scaled: bool) -> np.ndarray:
        xs, ys, at = [], [], 0.0
        for i, (start, end, seconds) in enumerate(self.runs):
            if i:
                _, last_end, last_seconds = self.runs[i - 1]
                rate = 2 * REFERENCE_S / (last_seconds + seconds) if scaled else 1.0
                at += (start - last_end) * rate
            xs += [start, end]
            ys += [at, at]
        return np.interp(np.asarray(times, dtype=float), xs, ys)

    def ref(self, times) -> np.ndarray:
        """``times`` on the reference-seconds time line."""
        return self._map(times, scaled=True)

    def work(self, times) -> np.ndarray:
        """``times`` on the measured time line, kernel runs left out."""
        return self._map(times, scaled=False)
