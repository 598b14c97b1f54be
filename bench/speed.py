"""Machine-speed probe: turns wall time on a shared machine into reference seconds.

On a machine shared with other tenants the same work can take up to twice
as long from one minute to the next, with CPU time tracking wall time: the
core runs slower, no time is stolen from the process.  A daemon thread
times a fixed pure-Python snippet every 50 ms, and :meth:`SpeedProbe.seconds`
scales an interval of wall time by REFERENCE_S over the mean snippet time
sampled during it.  A reference second is a second of this machine at the
speed where the snippet takes REFERENCE_S.

The probe holds the interpreter lock for under a millisecond per sample,
about 2% of a single-threaded program's time.  It assumes the program uses
one core: work spread over several cores would slow the snippet as well
and be over-credited.
"""

from __future__ import annotations

import bisect
import threading
import time

REFERENCE_S = 3.0e-4  # snippet time at the speed that defines a reference second
PERIOD_S = 0.05
MARGIN_S = 0.5  # intervals shorter than the period borrow nearby samples


def _snippet() -> int:
    table: dict[tuple[int, int], float] = {}
    for i in range(600):
        key = (i % 53, (i * 7) % 61)
        table[key] = table.get(key, 0.0) + 0.5
    return len(sorted(table))


class SpeedProbe:
    """Context manager sampling the snippet's duration until it exits."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="speed-probe", daemon=True)

    def _sample(self) -> None:
        clock = time.perf_counter
        while not self._stop.wait(PERIOD_S):
            _snippet()  # warm the caches the program evicted; time the second run
            start = clock()
            _snippet()
            self.durations.append(clock() - start)
            self.starts.append(start)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        return False

    def factor(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the mean snippet time sampled in [t0, t1]."""
        count = len(self.starts)  # the thread appends duration before start
        lo = bisect.bisect_left(self.starts, t0, 0, count)
        hi = bisect.bisect_right(self.starts, t1, 0, count)
        if hi - lo < 2:
            lo = bisect.bisect_left(self.starts, t0 - MARGIN_S, 0, count)
            hi = bisect.bisect_right(self.starts, t1 + MARGIN_S, 0, count)
        if hi == lo:
            raise RuntimeError(f"no speed sample near [{t0:.3f}, {t1:.3f}]")
        return REFERENCE_S * (hi - lo) / sum(self.durations[lo:hi])

    def seconds(self, t0: float, t1: float) -> float:
        """The wall-clock interval [t0, t1] in reference seconds."""
        return (t1 - t0) * self.factor(t0, t1)
