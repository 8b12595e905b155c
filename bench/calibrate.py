"""Box-speed calibration: every reported time is in *reference seconds*.

The 2-vCPU box this runs on changes speed by up to 1.7x for tens of
seconds at a time (a busy hyperthread sibling on the host; CPU time
tracks wall time, so it is the CPU that slows, not the process that
waits).  Run-level medians of raw wall time therefore spread by 24-34 %
between identical runs, wider than any usable regression bound.  A fixed
pure-Python kernel sampled every ``SEGMENT`` packets *inside* the timed
region tracks the slowdown: wall time between two samples is scaled by
``NOMINAL_S / (mean of the two kernel times)``.  Medians of calibrated
rounds spread by 1-5 % (README, "Reference seconds").

The kernel lives here, not in ``src/``, so no engine change can move it.
"""

from __future__ import annotations

import struct
import time
from typing import Iterator, List, Sequence, Tuple

#: packets between two kernel samples (~50 ms of engine work)
SEGMENT = 16_384

#: what one kernel pass takes on this box when nothing contends for it;
#: a reference second equals a wall second exactly when the kernel runs
#: at this speed
NOMINAL_S = 0.003

_UNPACK = struct.Struct("!6s6sHBBHHHBBH4s4sHH").unpack_from
_FRAMES = [bytes((i * 7 + j) & 0xFF for j in range(64)) for i in range(64)]
_PASSES = 100


def kernel() -> float:
    """Seconds one pass of the reference kernel took.

    The mix is the engine's: fixed-offset header unpacks, tuple
    building, dict upserts and list appends over small byte strings.
    """
    begin = time.perf_counter()
    for _ in range(_PASSES):
        counts: dict = {}
        rows: List[tuple] = []
        for frame in _FRAMES:
            fields = _UNPACK(frame)
            key = (fields[11], fields[12], fields[13], fields[14])
            counts[key] = counts.get(key, 0) + fields[5]
            rows.append(key + (fields[2],))
    return time.perf_counter() - begin


class Pacer:
    """An iterable over packet segments that samples the kernel between
    them, and the calibrated length of whatever ran between its first
    and last sample.

    ``feed()`` sees exactly the packets of ``segments`` in order; the
    kernel passes are excluded from every reported time.
    """

    def __init__(self, segments: Sequence[Sequence]) -> None:
        self._segments = segments
        #: (wall start, wall end, cpu start, cpu end) per kernel sample
        self.samples: List[Tuple[float, float, float, float]] = []

    def sample(self, passes: int = 1) -> None:
        for _ in range(passes):
            cpu = time.process_time()
            begin = time.perf_counter()
            took = kernel()
            self.samples.append((begin, begin + took, cpu,
                                 time.process_time()))

    def __iter__(self) -> Iterator:
        for index, segment in enumerate(self._segments):
            if index:
                self.sample()
            yield from segment

    def elapsed(self) -> Tuple[float, float, float]:
        """``(raw wall, reference, own cpu)`` seconds between the first
        and the last sample, kernel passes excluded.

        One 3 ms pass is itself noisy, so each sample's kernel time is
        the median of it and its two neighbours; callers take three
        samples in a row at each end of the region.
        """
        took = [end - begin for begin, end, _, _ in self.samples]
        smooth = ([took[0]] + [sorted(took[i - 1:i + 2])[1]
                               for i in range(1, len(took) - 1)] + [took[-1]])
        raw = reference = 0.0
        for i in range(len(took) - 1):
            gap = self.samples[i + 1][0] - self.samples[i][1]
            raw += gap
            reference += gap * NOMINAL_S * 2 / (smooth[i] + smooth[i + 1])
        cpu = self.samples[-1][2] - self.samples[0][3]
        cpu -= sum(s[3] - s[2] for s in self.samples[1:-1])
        return raw, reference, cpu
