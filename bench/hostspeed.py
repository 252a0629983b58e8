"""Host speed, sampled while the benchmark measures, to normalise its times.

On a small shared virtual machine the same code runs up to 1.7 times slower
for stretches of seconds to minutes, as neighbouring tenants load the host.
CPU time slows down as much as wall time does, so the cause is the host's
cores, not descheduling inside the guest, and no statistic over raw times
(median, minimum, low percentile) stays put: a whole 30-second window can
fall in a slow stretch.

``HostSpeed`` measures that speed from inside the benchmark process.  While
it is active, a ``SIGALRM`` timer runs ``reference_work`` every ``PERIOD``
seconds: a fixed mix of interpreter-bound arithmetic on slotted objects and
small complex numpy operations, the two kinds of work the simulator does,
frozen here so that no change to the program can change it.  The handler's
own time is kept out of the sections it interrupts.

``normalise(seconds, start, end)`` rescales a section's measured time by
``(REFERENCE_WORK_S / t_ref) ** SLOWDOWN_EXPONENT``, where ``t_ref`` is the
median time of ``reference_work`` around the section: the section's time on
a host where ``reference_work`` takes ``REFERENCE_WORK_S``.  The simulator
slows down less than the reference work in a slow stretch: in a six-minute
probe that sampled the reference work on this timer while it ran short
slices of each workload, the simulator's slowdown was the reference work's
slowdown to the power 0.60 (``testbed``, ``sweep``) to 0.70
(``cp_island``).  With the exponent at 0.65 the spread (IQR/median) of
30-second window medians fell from 0.24-0.25 to 0.02-0.03.  A change
that makes the program slower makes the normalised time slower by the same
share; a slow stretch of the host slows the reference work as well and
cancels.
"""

from __future__ import annotations

import cmath
import math
import signal
import statistics
import time

import numpy as np

PERIOD = 0.1            # s between samples of reference_work
REFERENCE_WORK_S = 2.0e-3  # reference_work's time on the unloaded baseline host
SLOWDOWN_EXPONENT = 0.65  # simulator slowdown = reference slowdown ** this
MARGIN = 0.5            # s of samples taken on each side of a short section

_PY_ITERS = 1500
_NP_ITERS = 150
_Y = np.array([[complex(4.0 + (i == j) * 3.0, -1.0 + 0.1 * (i - j)) for j in range(7)]
               for i in range(7)])
_YINV = np.linalg.inv(_Y)


class _State:
    __slots__ = ("theta", "omega", "x1", "x2", "q")

    def __init__(self) -> None:
        self.theta, self.omega, self.x1, self.x2, self.q = 0.0, 376.99, 0.0, 0.0, 0.0


def reference_work() -> float:
    """A fixed amount of simulator-like work (about 2 ms on the baseline host)."""
    s, dt = _State(), 1e-4
    for _ in range(_PY_ITERS):
        v = cmath.rect(1.0, s.theta + 0.1)
        e = v.real * math.sin(s.theta) - v.imag * math.cos(s.theta)
        s.x1 += dt * (e - s.x2)
        s.x2 += dt * s.x1
        s.omega = 376.99 + 50.0 * e + s.x1
        s.theta += s.omega * dt
        s.q = max(-1.0, min(1.0, 0.9 * s.q + 0.1 * e))
    acc = s.q
    for i in range(_NP_ITERS):
        ib = np.zeros(7, dtype=complex)
        ib[i % 7] = 1.0 + 0.5j
        v = _YINV @ ib
        r = _Y @ v - ib
        acc += float(np.max(np.abs(r))) + float(np.dot(np.abs(v) ** 2, v.real))
    return acc


class HostSpeed:
    """Samples ``reference_work`` on a timer while active (a ``with`` block).

    ``clock()`` is ``time.perf_counter`` less the time spent in the sampler,
    so a section timed with it excludes the samples taken inside it.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (perf_counter, seconds)
        self._spent = 0.0
        self._saved = None

    def clock(self) -> float:
        while True:  # retry if a sample ran while reading the two
            spent = self._spent
            now = time.perf_counter()
            if spent == self._spent:
                return now - spent

    def sample(self) -> None:
        t0 = time.perf_counter()
        reference_work()
        t1 = time.perf_counter()
        self.samples.append((0.5 * (t0 + t1), t1 - t0))
        self._spent += time.perf_counter() - t0

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "HostSpeed":
        self._saved = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        self.sample()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._saved)

    def normalise(self, seconds: float, start: float, end: float) -> float:
        """``seconds`` measured between perf_counter times ``start`` and
        ``end``, rescaled to the reference host speed."""
        lo, hi = start - MARGIN, end + MARGIN
        near = [s for t, s in self.samples if lo <= t <= hi]
        if not near:
            mid = 0.5 * (start + end)
            near = [min(self.samples, key=lambda ts: abs(ts[0] - mid))[1]]
        scale = REFERENCE_WORK_S / statistics.median(near)
        return seconds * scale ** SLOWDOWN_EXPONENT
