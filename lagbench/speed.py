"""The machine's speed, sampled beside the workload.

On a shared host the speed of a vCPU drifts by up to 2x within seconds to
minutes, which is larger than any bound a benchmark could keep. So between
ops the benchmark runs a fixed probe (an interpreter loop, small matrix
products and a 512 KB copy, under a millisecond, on numpy alone: no code of
the program) and scales each time it measured by ``REF_MS`` over the median
probe time around it. For a workload whose ops write files, the probe also
rewrites a small file (write, then rename), because there the time of the
host's file system drifts the most. A reported time is thus the time at the
speed at which the probe takes ``REF_MS``: a change to the program moves it
as it moves the raw time, a change of the host's speed far less. ``run.py``
prints the raw figures beside the scaled ones.
"""

from __future__ import annotations

import bisect
import os
import statistics
import time
from pathlib import Path

import numpy as np

# The probe's time, without the file, on a quiet spell of a 2-vCPU Intel
# Xeon (Python 3.11, numpy 2.4, one BLAS thread). Only the ratio of two
# runs' figures matters.
REF_MS = 0.4
EVERY_S = 0.03  # one probe per this much time of measured work
WINDOW = 25  # a time's speed: the median of this many probes on each side

_A = np.random.default_rng(0).random((48, 48))
_B = np.random.default_rng(1).random(65536)
_C = np.empty_like(_B)
_PAGE = bytes(4096)


def _kernel(file: Path | None) -> None:
    total = 0
    for i in range(4000):
        total += i * i
    for _ in range(25):
        _A @ _A
    np.copyto(_C, _B)
    if file is not None:
        tmp = file.with_suffix(".tmp")
        with open(tmp, "wb") as fh:
            fh.write(_PAGE)
        os.replace(tmp, file)


def probe_ms(file: Path | None = None) -> float:
    """Time of one fixed probe, in ms; with ``file``, one that also rewrites
    that file. The kernel runs once untimed first, so what the measured work
    left in the caches does not count."""
    _kernel(file)
    start = time.perf_counter()
    _kernel(file)
    return (time.perf_counter() - start) * 1e3


class Speed:
    """Probe times and when they were taken. With ``files``, a directory,
    the probes also rewrite a file there."""

    def __init__(self, files: Path | None = None):
        self.file = Path(files) / "speed-probe" if files is not None else None
        self.at: list[float] = []
        self.ms: list[float] = []
        self._owed = 0.0

    def probe(self, n: int = WINDOW) -> None:
        for _ in range(n):
            at = time.perf_counter()
            self.ms.append(probe_ms(self.file))
            self.at.append(at)

    def after(self, busy_s: float) -> None:
        """Probes owed for ``busy_s`` seconds of work just measured: one per
        ``EVERY_S``, so the probes are spread evenly over the measured work."""
        self._owed += busy_s
        n = int(self._owed / EVERY_S)
        self._owed -= n * EVERY_S
        self.probe(n)

    def scale(self, at: float, window: int = WINDOW) -> float:
        """``REF_MS`` over the median of the ``window`` probes on each side
        of time ``at``."""
        i = bisect.bisect(self.at, at)
        return REF_MS / statistics.median(self.ms[max(0, i - window): i + window])
