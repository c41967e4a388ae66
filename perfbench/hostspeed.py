"""Scale measured seconds to a reference host speed.

The benchmark runs on a shared host whose speed changes by up to 2x, in
bursts of a fraction of a second and in phases of minutes, while CPU time
keeps tracking wall time: the host runs slower, nothing waits.  No statistic
over one run removes a phase that covers the whole run.  So a fixed kernel
of plain Python arithmetic, sharing no code with nuttallq, is timed between
stretches of about CAL_EVERY_S seconds of measured work, and each stretch is
scaled by REF_KERNEL_S over the mean of the kernel times on either side.
The result is the time the work would take on a host that runs the kernel
in REF_KERNEL_S; a change to nuttallq moves it in full, a change of host
speed hardly at all.

Fresh interpreter starts track the kernel poorly, so each timed start is
instead scaled by REF_START_S over a bare ``python -c pass`` run just
before it (see ``run.cli_setup``).
"""

from __future__ import annotations

import math
import time

# Kernel time on the defining host (shared 2-core Linux, Python 3.11.7) in
# a slow phase; scaled figures are close to the raw ones measured there.
REF_KERNEL_S = 150e-6
CAL_EVERY_S = 0.02
# ``python -c pass`` wall time on the same host.
REF_START_S = 0.06


def kernel() -> float:
    """About 150 microseconds of loops, float arithmetic and math calls."""
    total = 0.0
    for k in range(1, 120):
        a = 0.5 + k
        term = 1.0
        s = 0.0
        for j in range(1, 8):
            term *= a / (a + j)
            s += term
        total += math.log(s) + math.exp(-a * 1e-3)
    return total


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class ScaledTimer:
    """Turns raw durations, added in order, into reference-host seconds."""

    def __init__(self) -> None:
        for _ in range(3):
            kernel()  # let the interpreter specialise the kernel first
        self._before = kernel_seconds()
        self._open: list[float] = []
        self._open_s = 0.0
        self.raw_s = 0.0
        self.scaled: list[float] = []

    def add(self, seconds: float) -> None:
        self._open.append(seconds)
        self._open_s += seconds
        self.raw_s += seconds
        if self._open_s >= CAL_EVERY_S:
            self.close()

    def close(self) -> None:
        """Scale the open stretch; call once more after the last add."""
        if not self._open:
            return
        after = kernel_seconds()
        scale = REF_KERNEL_S / (0.5 * (self._before + after))
        self.scaled.extend(d * scale for d in self._open)
        self._before = after
        self._open = []
        self._open_s = 0.0
