"""A work clock that does not drift with the speed of a shared CPU.

On a shared virtual machine the speed of a vCPU changes by tens of percent
within seconds, as other tenants load the host, and the same pass takes
10 s in one minute and 13 s in the next. The change hits interpreter-bound
and BLAS-bound code alike. ``PaceClock`` measures it where it happens: a
timer signal interrupts the measured process every ``INTERVAL_S`` seconds,
runs a fixed pure-Python calibration unit and records its duration. The
time between samples is scaled by the ratio of the unit's reference
duration to its measured one, so ``now()`` advances in *reference seconds*:
the wall time the work would have taken on a CPU that runs the unit in
``REF_UNIT_S``. The calibration time itself is left out.

The unit is pure Python so that the clock imports nothing the program
under test imports (set-up time includes importing numpy).
"""

from __future__ import annotations

import signal
from time import perf_counter

#: Duration of one calibration unit, run by the timer handler, on the
#: reference CPU. On a 2.1 GHz Intel Xeon vCPU under CPython 3.11 the handler's
#: unit took 0.37 / 0.50 / 0.59 ms (5th / 50th / 95th percentile) in a
#: graph40 run, so reference seconds there read below wall seconds.
REF_UNIT_S = 0.00040
#: Seconds between calibration samples; about 2% of the time goes to them.
INTERVAL_S = 0.025
UNIT_LOOPS = 1000
_KEYS = tuple(f"k{i}" for i in range(500))
_VALUES = tuple(range(4000))


def calibration_unit() -> int:
    """Fixed interpreter work: arithmetic, dict and list updates, a keyed sort, a join."""
    acc = 0
    items = []
    for i in range(UNIT_LOOPS):
        acc = (acc + i * i) % 1_000_003
        items.append(acc & 255)
    table = {key: len(key) + acc for key in _KEYS}
    order = sorted(_VALUES[::5], key=lambda v: (v * 2654435761) & 0xFFFF)
    text = ",".join(str(v) for v in order[:100])
    return acc + len(items) + len(table) + len(text)


def unit_seconds() -> float:
    start = perf_counter()
    calibration_unit()
    return perf_counter() - start


class PaceClock:
    """Reference seconds of work done since entering the context.

    While running, SIGALRM belongs to the clock. System calls interrupted by
    it are restarted.
    """

    def __init__(self):
        self.samples: list[float] = []  # measured unit durations
        self.calibration_s = 0.0
        self._work = 0.0
        self._factor = 1.0
        self._mark = 0.0
        self._previous = None

    def __enter__(self) -> "PaceClock":
        self._factor = REF_UNIT_S / unit_seconds()
        self._work = 0.0
        self._mark = perf_counter()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def _sample(self, _signum, _frame) -> None:
        start = perf_counter()
        unit = unit_seconds()
        factor = REF_UNIT_S / unit
        # Trapezoid over the segment since the last sample.
        self._work += (start - self._mark) * (self._factor + factor) / 2.0
        self._factor = factor
        self.samples.append(unit)
        self._mark = perf_counter()
        self.calibration_s += self._mark - start

    def now(self) -> float:
        """Reference seconds so far; the current segment is scaled by the last sample."""
        blocked = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return self._work + (perf_counter() - self._mark) * self._factor
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, blocked)
