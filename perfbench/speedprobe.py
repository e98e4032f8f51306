"""Machine-speed probe that runs alongside the measured code.

On a shared machine the speed at which one process runs Python changes by
up to 2x within seconds, as neighbours come and go.  While a ``SpeedProbe``
is active, a SIGALRM handler times a short fixed task every ``period``
seconds.  For any interval of the measured code the probe then gives the
interval's time minus the probe's own, and the median probe time in and
around it, by which run.py scales the time to a reference speed.
"""

import bisect
import signal
import statistics
import time


def probe_task():
    """Fixed tuple, dict and float work, the kind the pipeline does."""
    table = {}
    key = ()
    total = 0.0
    for i in range(400):
        key = (key + (i % 7,))[-3:]
        table[key] = table.get(key, 0.0) + i * 0.5
        total += table[key] / (i + 1)
    return total


class SpeedProbe:
    def __init__(self, period=0.05):
        self.period = period
        self.starts = []
        self.durations = []
        self._previous = None

    def tick(self, *_):
        start = time.perf_counter()
        probe_task()
        self.durations.append(time.perf_counter() - start)
        self.starts.append(start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *_):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def interval(self, start, end, least=5):
        """[seconds in start..end not spent probing, median probe time]; the
        median takes the nearest probes around when fewer than least fell
        inside."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        spent = sum(self.durations[lo:hi])
        while hi - lo < least and (lo > 0 or hi < len(self.durations)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.durations))
        return [end - start - spent, statistics.median(self.durations[lo:hi])]
