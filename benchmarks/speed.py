"""Machine-speed probe.

The CPU this benchmark runs on is shared: its speed drifts by a quarter
or more over seconds to minutes, and wall-clock throughput drifts with
it. The probe times a fixed reference workload (Python loops, small
float32 matmuls, ``np.unique``, zlib and a gather from a table larger
than the caches, the mix the program runs) every ``INTERVAL_S`` from a
timer signal, in the benchmark's own process. A timed region's nominal
time is its wall time scaled by ``NOMINAL_S`` over the probe durations
seen inside it: the time it would have taken at the reference speed.
The benchmark reports throughput and set-up time in nominal seconds and
the raw wall-clock values beside them.

Probe time is subtracted from every timed region: the handler runs
between bytecodes of the main thread, so a sample that starts inside a
region also ends inside it.
"""

from __future__ import annotations

import bisect
import signal
import time
import zlib

import numpy as np

INTERVAL_S = 0.1
# About the median of one reference run on the 2-vCPU machine the first
# steady numbers were measured on (Python 3.11, numpy 2.4).
NOMINAL_S = 0.002

_now = time.perf_counter
_rng = np.random.default_rng(12345)
_X = _rng.random((48, 16), dtype=np.float32)
_W = _rng.random((16, 16), dtype=np.float32)
_IDS = _rng.integers(0, 1000, 4096)
_BUF = _IDS[:2048].astype("<i8").tobytes()
_TABLE = _rng.random((200_000, 16), dtype=np.float32)
_ROWS = _rng.integers(0, _TABLE.shape[0], 8192)


def reference_work() -> None:
    d: dict[int, int] = {}
    for i in range(1500):
        d[i & 255] = d.get(i & 255, 0) + i
    for _ in range(20):
        (_X @ _W) @ _W.T
    np.unique(_IDS)
    zlib.compress(_BUF, 6)
    _TABLE[_ROWS].sum(axis=0)


class SpeedProbe:
    def __init__(self, tracer=None) -> None:
        self.starts: list[float] = []
        self.durs: list[float] = []
        self._cum = [0.0]  # probe seconds before sample i
        self._tracer = tracer
        self._old = None
        self._busy = False

    def __enter__(self) -> "SpeedProbe":
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def _tick(self, signum=None, frame=None) -> None:
        if self._tracer is not None:
            with self._tracer.span("bench.probe"):
                self.sample()
        else:
            self.sample()

    def sample(self) -> None:
        if self._busy:  # a tick arrived during an explicit sample
            return
        self._busy = True
        t0 = _now()
        reference_work()
        self.starts.append(t0)
        self.durs.append(_now() - t0)
        self._cum.append(self._cum[-1] + self.durs[-1])
        self._busy = False

    def measure(self, t0: float) -> tuple[float, float]:
        """(wall seconds since ``t0`` without probe time, the same in
        nominal seconds). Takes one more sample first when the region
        holds none."""
        t1 = _now()
        i = bisect.bisect_left(self.starts, t0)
        j = bisect.bisect_left(self.starts, t1)
        wall = t1 - t0 - (self._cum[j] - self._cum[i])
        if i == j:
            self.sample()
            return wall, wall * NOMINAL_S / self.durs[-1]
        speed = sum(NOMINAL_S / d for d in self.durs[i:j]) / (j - i)
        return wall, wall * speed
