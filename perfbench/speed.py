"""Machine-speed reference for normalising times on a shared host.

On a shared 2-core Intel Xeon VM the same task took up to 1.7 times longer
from one minute to the next, in CPU time as much as in wall time. A fixed
reference kernel, timed between measured pieces of work and, through an
interval timer, every 0.25 s during them, tracks that drift: the work's time
(less the samples taken inside it) is reported as
``raw * nominal / reference``, with the median reference reading from a
window around the work, i.e. in seconds at the speed the host had when the
reference took ``nominal`` seconds. The kernels are independent of
kummer_lcd, so the factor is the same for every version of the program. Raw
times are kept in the run metadata.

Two kernels: interpreter work (ints, tuples, dict and set traffic) for
workloads that run Python code, and numpy gathers and XORs over int64
arrays for the enumeration workload, whose time is in numpy. On that VM,
a kernel of the other kind tracked the drift several times worse.
"""

from __future__ import annotations

import signal
import statistics
import time


def _python_kernel() -> int:
    acc = 0
    seen: set = set()
    table: dict = {}
    for i in range(3000):
        t = (i % 97, (i * 31) % 89, i & 7)
        if t not in seen:
            seen.add(t)
        table[t[0]] = table.get(t[0], 0) + t[1]
        acc = (acc * 31 + (t[1] ^ t[2])) % 1000003
    return acc


class _NumpyKernel:
    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(12345)
        self.np = np
        self.index = rng.integers(0, 64, size=(4096, 24))
        self.table = rng.integers(0, 64, size=64)

    def __call__(self) -> int:
        np = self.np
        acc = np.zeros(self.index.shape, dtype=np.int64)
        for i in range(6):
            acc = np.bitwise_xor(acc, self.table[(self.index + i) % 64])
        return int(np.count_nonzero(acc))


# nominal kernel times: roughly their time on an unloaded 2-core Intel Xeon VM
NOMINAL_S = {"python": 0.0015, "numpy": 0.004}


SAMPLE_INTERVAL_S = 0.25
WINDOW_S = 1.0


class SpeedProbe:
    """Reference readings taken between and during measured work.

    ``reading()`` runs the kernel between pieces of work. Between ``arm()``
    and ``disarm()`` a SIGALRM handler runs it every SAMPLE_INTERVAL_S in the
    main thread, between bytecodes; no thread or process is started.
    ``normalize`` then puts each piece of work on the reference speed, using
    the median reading within WINDOW_S of it on either side: the drift moves
    over seconds, while a single reading jitters by several percent.
    """

    def __init__(self, kind: str):
        self.kernel = _python_kernel if kind == "python" else _NumpyKernel()
        self.nominal = NOMINAL_S[kind]
        self.readings: list = []   # (start, end) of each kernel run counted
        self._previous_handler = None
        self.reading()

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.kernel()
        self.readings.append((start, time.perf_counter()))

    def arm(self) -> None:
        self._previous_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def disarm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def reading(self) -> None:
        """Best of three kernel runs (a run hit by an interrupt reads long)."""
        best = None
        for _ in range(3):
            start = time.perf_counter()
            self.kernel()
            end = time.perf_counter()
            if best is None or end - start < best[1] - best[0]:
                best = (start, end)
        self.readings.append(best)

    def normalize(self, start: float, end: float) -> tuple:
        """(raw, normalised) time of work timed from ``start`` to ``end``.

        Kernel samples taken inside the interval are subtracted from it.
        """
        inside = sum(b - a for a, b in self.readings if start <= a and b <= end)
        near = sorted(b - a for a, b in self.readings
                      if start - WINDOW_S <= a and b <= end + WINDOW_S)
        raw = end - start - inside
        return raw, raw * self.nominal / statistics.median(near)
