"""Box-speed calibration: a fixed kernel timed *while* the operations run.

The reference box is a 2-vCPU microVM whose instructions run 10-40%
slower for seconds at a time (host neighbours; no steal time is
reported, CPU time inflates with wall time).  The slow spells are about
as long as one operation, so a burst timed *between* operations says
nothing about the operation next to it (correlation 0.08 over 16
campaigns), while a burst timed *during* it does (0.84).  A run
therefore keeps one **sampler** process beside the program: every
:data:`PERIOD_S` it runs a fixed micro-burst — interpreter bytecode plus
small-matrix NumPy maths, the program's own instruction mix — and
records the burst's own CPU time (``thread_time``: waiting for a core is
not counted, running slowly on it is).  A host time measured over an
interval is then reported scaled to a nominal box on which the burst
costs :data:`NOMINAL_MS`, by the mean burst of that same interval.  A
change in the program's cost moves the scaled value as it moves the raw
one; a slow spell of the box moves both and cancels.

The sampler is its own process, not a thread: a thread would take the
load generator's GIL.  It costs 3% of one core, the same on every
commit.  Run as a script, this file *is* the sampler: it samples until
its stdin closes, then prints what it has as one JSON line.
"""

from __future__ import annotations

import bisect
import json
import select
import subprocess
import sys
import time
from typing import List, Optional

__all__ = ["NOMINAL_MS", "PERIOD_S", "Calibrator"]

#: Burst CPU time of the nominal box, close to the reference box when
#: quiet, so scaled values read like this box's raw ones.
NOMINAL_MS = 0.7
PERIOD_S = 0.025
#: An interval is never judged by fewer bursts than this; a shorter one
#: borrows its nearest neighbours in time.
_MIN_BURSTS = 5


def _monotonic() -> float:
    """``CLOCK_MONOTONIC``: the one clock the harness and the sampler share.

    (``perf_counter`` reads the same clock on Linux, but only promises a
    per-process reference point; ``stop`` converts.)
    """
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _burst_ms(np, matrix) -> float:
    started = time.thread_time()
    total = 0
    for i in range(8000):
        total += i * i
    for _ in range(20):
        matrix = np.tanh(matrix @ matrix.T / 32.0)
    return (time.thread_time() - started) * 1e3


def _sampler_main() -> None:
    import numpy as np

    matrix = np.arange(1024, dtype=np.float64).reshape(32, 32) / 1024.0
    at: List[float] = []
    cpu_ms: List[float] = []
    # The wait for the period doubles as the wait for stdin to close.
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        cpu_ms.append(_burst_ms(np, matrix))
        at.append(_monotonic())
    print(json.dumps({"at": at, "cpu_ms": cpu_ms}))


class Calibrator:
    """The sampler process of one run, and the scale of any interval of it."""

    def __init__(self) -> None:
        self.at: List[float] = []
        self.cpu_ms: List[float] = []
        self._proc: Optional[subprocess.Popen] = None

    def start(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )

    def stop(self) -> None:
        """Close the sampler's stdin, collect its samples, wait for it."""
        proc, self._proc = self._proc, None
        if proc is None:
            return
        try:
            out, _ = proc.communicate(timeout=30.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        if proc.returncode != 0:
            raise RuntimeError(f"calibration sampler exited {proc.returncode}")
        doc = json.loads(out)
        shift = time.perf_counter() - _monotonic()
        self.at = [at + shift for at in doc["at"]]
        self.cpu_ms = doc["cpu_ms"]

    def abort(self) -> None:
        """Stop the sampler on a failed run, whatever state it is in."""
        if self._proc is not None:
            self._proc.kill()
            self._proc.communicate()
            self._proc = None

    def burst_ms(self, start: float, end: float) -> float:
        """Mean burst over ``[start, end]``, ``perf_counter`` stamps.

        The mean, not the median: an operation's wall time is the sum of
        its fast and slow stretches, and so is the mean of the bursts
        that ran beside it.
        """
        if len(self.cpu_ms) < _MIN_BURSTS:
            raise RuntimeError("the calibration sampler recorded no bursts")
        low = bisect.bisect_left(self.at, start)
        high = bisect.bisect_right(self.at, end)
        short = _MIN_BURSTS - (high - low)
        if short > 0:
            low = max(0, low - (short + 1) // 2)
            high = min(len(self.at), low + _MIN_BURSTS)
            low = max(0, high - _MIN_BURSTS)
        window = self.cpu_ms[low:high]
        return sum(window) / len(window)

    def scale(self, start: float, end: float) -> float:
        """What a time measured over ``[start, end]`` is multiplied by."""
        return NOMINAL_MS / self.burst_ms(start, end)


if __name__ == "__main__":
    _sampler_main()
