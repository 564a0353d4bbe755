"""Host-speed normalisation of wall-clock times.

The benchmark runs on a few cores of a shared host whose speed drifts:
a fixed piece of pure-Python work can take twice as long from one
moment to the next, in swings that last from a fraction of a second to
minutes.  Raw wall times of two runs of the same code therefore disagree
by far more than a change to the program would move them.

So alongside the program the benchmark times a fixed *reference chunk*
of work that never touches ``repro`` and that mixes what the program
spends its time on: small-object churn in dicts and lists, sorting,
SHA-256 over short buffers and 512-bit modular exponentiation.  Most of
it is allocation, the kind of chunk that followed the program's own
swings in speed most closely.  Every wall time the benchmark reports is
scaled by ``REFERENCE_MS / t``, where ``t`` is the chunk's wall time
measured close by, so the figures read as milliseconds (or seconds) on
a host that runs one chunk in ``REFERENCE_MS``.  A change that makes the
program faster or slower moves the scaled figure by the same factor; a
change of host speed, which moves the program and the chunk alike,
cancels out.

Closeness matters because the swings are fast: a chunk is timed every
``PROBE_INTERVAL_S`` (between operations, or from a SIGALRM handler
during set-up) and an operation is scaled by the ``WINDOW`` chunks on
either side of it.  The cancelling is not exact -- the program and the
chunk do not respond alike to every kind of contention -- so rounds of
the same inputs still differ by some 5-15% after scaling, against
20-70% before.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import signal
import statistics
import time

#: wall ms of one reference chunk at the nominal host speed
REFERENCE_MS = 4.0
#: reference chunks timed back to back around a set-up
SETUP_PROBES = 5
#: minimum wall seconds between two reference chunks inside a timed phase
PROBE_INTERVAL_S = 0.05
#: reference chunks on each side of an operation that set its scale
WINDOW = 4

_MODULUS = (1 << 512) - 569  # a 512-bit prime, the size of the system's keys
_BASE = 0x1F2E3D4C5B6A79881726354453627180 | 1


def reference_chunk() -> None:
    """A fixed piece of work: the same instructions on every call."""
    records = [{"id": i, "key": (i, i * 7 % 31), "refs": [i] * 3} for i in range(2000)]
    records.sort(key=lambda record: (record["key"][1], -record["id"]))
    digest = hashlib.sha256()
    for record in records[::4]:
        digest.update(repr(record["key"]).encode())
    pow(_BASE, int.from_bytes(digest.digest(), "big"), _MODULUS)


def time_chunk() -> float:
    """Wall ms of one reference chunk.

    The collector is off meanwhile: a collection the chunk's allocations
    set off would walk the program's heap, and tie the chunk's time to
    the program's size.  The chunk frees all it allocates.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        reference_chunk()
        return (time.perf_counter() - started) * 1e3
    finally:
        if enabled:
            gc.enable()


def probe(count: int) -> list[float]:
    """Wall ms of ``count`` reference chunks run back to back."""
    return [time_chunk() for _ in range(count)]


class Sampler:
    """Times a reference chunk every ``interval`` wall seconds between
    :meth:`start` and :meth:`stop`, from a SIGALRM handler, so the chunks
    interleave with code that offers no place to call :func:`time_chunk`
    from.  ``spent_s`` is the wall time the chunks took, to take out of
    the time measured around them."""

    def __init__(self, interval: float = PROBE_INTERVAL_S) -> None:
        self.interval = interval
        self.samples: list[float] = []
        self.spent_s = 0.0
        self._previous = None

    def _on_alarm(self, _signum, _frame) -> None:
        started = time.perf_counter()
        self.samples.append(time_chunk())
        self.spent_s += time.perf_counter() - started

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        if self._previous is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None


def scale(samples: list[float]) -> float:
    """Factor that turns wall time at the speed ``samples`` saw into
    wall time at the nominal speed."""
    return REFERENCE_MS / statistics.median(samples)


def scale_each(samples: list[float], taken_before: list[int], count: int) -> list[float]:
    """Per-operation scale factors for ``count`` operations.

    ``samples[k]`` was timed just before operation ``taken_before[k]``
    (non-decreasing).  Operation ``i`` is scaled by the median of the
    ``WINDOW`` chunks on either side of it in time.
    """
    factors = []
    for i in range(count):
        k = bisect.bisect_right(taken_before, i)
        factors.append(scale(samples[max(0, k - WINDOW) : k + WINDOW]))
    return factors
