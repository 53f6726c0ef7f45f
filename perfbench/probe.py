"""Host-speed probe, so that time metrics do not move with the host.

The machines this benchmark runs on are shared: the same traffic
simulation takes 26 ms in one stretch of seconds and 48 ms in the next, with
CPU time moving with wall time.  A probe is a fixed piece of work of the
same kind as ``tramopt``'s (a short Godunov loop over small numpy arrays,
with Python scalar code at the road ends), taking about 3 ms.  Probes run
in bursts around each measured stretch and, while ``HostClock.ticking`` is
on, from a wall-clock timer inside it, whatever code is running; the
benchmark hooks nothing of ``tramopt`` for them.  A time measured over a
stretch is scaled by the mean of ``REFERENCE_S`` over each probe duration in
that stretch, which gives the seconds it would have taken at the host speed
where one probe takes ``REFERENCE_S``.  The README gives how well this holds.
"""

from __future__ import annotations

import contextlib
import signal
import time

import numpy as np

#: probe duration that defines the reported seconds
REFERENCE_S = 0.003
#: seconds of wall time between the probes of ``HostClock.ticking``
TICK_S = 0.05

_ROADS, _CELLS, _STEPS = 6, 20, 60
_V = np.linspace(0.5, 2.0, _ROADS)[:, None]
_CAP = np.broadcast_to(_V / 4.0, (_ROADS, _CELLS - 1)).copy()
_START = np.linspace(0.05, 0.95, _CELLS).reshape(1, _CELLS).repeat(_ROADS, axis=0)
# the probe's arrays, made once: a probe that allocated buffers could
# fragment the heap of the run it measures and move its peak memory
_RHO = np.empty((_ROADS, _CELLS))
_FLUX = np.empty((_ROADS, _CELLS + 1))
_DEM = np.empty((_ROADS, _CELLS - 1))
_SUP = np.empty((_ROADS, _CELLS - 1))
_MASK = np.empty((_ROADS, _CELLS - 1), dtype=bool)
_DIV = np.empty((_ROADS, _CELLS))


def _greenshields(rho, out) -> None:
    """``out`` = v rho (1 - rho), row by row."""
    np.subtract(1.0, rho, out=out)
    np.multiply(out, rho, out=out)
    np.multiply(out, _V, out=out)


def probe() -> float:
    """Run the probe once and return its duration in seconds."""
    start = time.perf_counter()
    rho, flux, dem, sup, mask = _RHO, _FLUX, _DEM, _SUP, _MASK
    np.copyto(rho, _START)
    flux[:, 0] = 0.1
    acc = 0.0
    for _ in range(_STEPS):
        left, right = rho[:, :-1], rho[:, 1:]
        _greenshields(left, dem)
        np.greater(left, 0.5, out=mask)
        np.copyto(dem, _CAP, where=mask)
        _greenshields(right, sup)
        np.less_equal(right, 0.5, out=mask)
        np.copyto(sup, _CAP, where=mask)
        np.minimum(dem, sup, out=flux[:, 1:-1])
        _greenshields(rho[:, -1:], flux[:, -1:])
        np.subtract(flux[:, :-1], flux[:, 1:], out=_DIV)
        np.multiply(_DIV, 0.1, out=_DIV)
        np.add(rho, _DIV, out=rho)
        np.clip(rho, 0.0, 1.0, out=rho)
        for e in range(_ROADS):
            a, b = float(rho[e, -1]), float(rho[e, 0])
            acc += min(a * (1.0 - a), b * (1.0 - b) if b > 0.5 else 0.25)
    if not acc > 0.0:
        raise RuntimeError("probe computed nothing")
    return time.perf_counter() - start


class HostClock:
    """Probe samples taken during a run, with their start times."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._busy = False

    def sample(self) -> None:
        self._busy = True
        try:
            start = time.perf_counter()
            self.samples.append((start, probe()))
        finally:
            self._busy = False

    def burst(self, n: int = 2) -> None:
        for _ in range(n):
            self.sample()

    @contextlib.contextmanager
    def ticking(self, interval: float = TICK_S):
        """Run a probe every ``interval`` seconds of wall time while inside.

        The probe runs from a ``SIGALRM`` handler, between two bytecodes of
        whatever the main thread is running.  System calls the signal
        interrupts are restarted, so file reads and writes are unaffected.
        """

        def tick(_signum, _frame):
            if not self._busy:
                self.sample()

        previous = signal.signal(signal.SIGALRM, tick)
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def mark(self) -> int:
        return len(self.samples)

    def since(self, mark: int) -> list[tuple[float, float]]:
        return self.samples[mark:]

    @staticmethod
    def inside(samples, start: float, end: float) -> float:
        """Seconds of the given probes that ran within [start, end]."""
        return sum(d for s, d in samples if start <= s and s + d <= end)

    @staticmethod
    def factor(samples) -> float:
        """Reference seconds per measured second over the given probes.

        Probes are spread evenly over wall time, so each stands for an equal
        stretch run at its own speed: the factor is the mean of
        ``REFERENCE_S / d``, not ``REFERENCE_S`` over the mean ``d``.
        """
        return REFERENCE_S * sum(1.0 / d for _, d in samples) / len(samples)
