"""Machine-speed probe: fixed work, independent of mixref, timed during the work measured.

Other tenants of a shared host slow this process by up to 2x in
phases that last from seconds to minutes; a wall time then says as much
about the host as about the code.  While a measurement runs, a
wall-clock timer interrupts it every ``INTERVAL_S`` seconds to time one
chunk of fixed work.  The chunks' mean time measures the speed the
measured work ran at, and scaling its time (the chunks taken out) by the
chunk's reference time over that mean gives its seconds at the
reference speed: the chunk's speed on the baseline machine when it was
quiet.  Nothing in a chunk calls the package, so a change to the
package cannot move the scale.

The slow phases slow numpy and scipy work more than plain bytecode, so
there are two kinds of chunk.  ``array`` does small-array numpy and
scipy.special work, as the package's jobs do, and samples the timed
passes.  ``interpreter`` uses only the interpreter, as module imports
mostly do, and samples ``import mixref.cli``, during which it must not
import anything itself.
"""

from __future__ import annotations

import math
import signal
import time

INTERVAL_S = 0.05  # wall time between the starts of two chunks
# Seconds of one chunk on the baseline machine when it was quiet.
REFERENCE_S = {"interpreter": 0.0030, "array": 0.0038}


def interpreter_chunk() -> float:
    """Seconds taken by one chunk of fixed bytecode work."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(1500):
        d = {j: j * 0.5 for j in range(8)}
        acc += math.sqrt(sum(d.values()) + i)
    if not math.isfinite(acc):
        raise ArithmeticError("probe arithmetic went non-finite")
    return time.perf_counter() - start


def array_chunk() -> float:
    """Seconds taken by one chunk of fixed numpy and scipy work."""
    import numpy as np
    from scipy import special

    x = np.linspace(0.5, 6.0, 64)
    start = time.perf_counter()
    acc = 0.0
    for i in range(100):
        a = x * (1 + i % 7)
        acc += float(special.gammaln(a).sum()) + float(special.gammaincc(a, x).sum())
        acc += float(np.logaddexp.reduce(a[:16])) + float(np.cumsum(a).max())
        d = {j: j * 0.5 for j in range(40)}
        acc += sum(v * v for v in d.values())
    if not math.isfinite(acc):
        raise ArithmeticError("probe arithmetic went non-finite")
    return time.perf_counter() - start


CHUNKS = {"interpreter": interpreter_chunk, "array": array_chunk}


class Sampler:
    """Times a chunk every ``INTERVAL_S`` of wall time while active.

    Python runs the handler between bytecodes of the main thread, so the
    work measured sees nothing of it but the time it loses.  ``clock``
    is ``time.perf_counter`` with that time taken out.
    """

    def __init__(self, kind: str):
        self._chunk = CHUNKS[kind]
        self._reference = REFERENCE_S[kind]
        self.chunks: list[float] = []
        self._spent = 0.0  # wall seconds taken by the handler so far
        self._previous = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.chunks.append(self._chunk())
        self._spent += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def clock(self) -> float:
        """Seconds of ``perf_counter`` not spent in the handler."""
        while True:
            spent = self._spent
            now = time.perf_counter()
            if spent == self._spent:  # no chunk ran between the two reads
                return now - spent

    def scale(self) -> float:
        """Factor from seconds at the speed the chunks saw to reference seconds."""
        if not self.chunks:
            self.chunks.append(self._chunk())
        return self._reference / math.fsum(self.chunks) * len(self.chunks)
