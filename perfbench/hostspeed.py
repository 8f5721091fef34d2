"""Host-speed calibration: a fixed kernel timed next to every command.

On a shared host the speed the benchmark gets drifts by tens of percent
within seconds, and CPU time drifts with wall time, so neither alone says
whether the program got faster. The drift is not even one number: starting
an interpreter and importing (page faults, file reads) can slow by 40% while
computing slows by 10%. The benchmark therefore runs a fixed kernel
(kernel.py: a subprocess shaped like one jjtune call, which never imports
jjtune) after every command, and splits every timed subprocess, and the
kernel, into its start (interpreter start, imports, exit) and its work (the
time after the imports, which the subprocess reports itself). Each part is
rescaled to a host on which the kernel's matching part takes the reference
time:

    scaled = start * REFERENCE_START_S / median(kernel starts around the call)
           + work * REFERENCE_WORK_S / median(kernel works around the call)

The kernel runs taken are the ``WINDOW`` on each side of the call. The speed
changes within seconds, so the runs right next to a call follow it best; a
wider window averages over more runs but follows it less. A change to jjtune
moves ``start`` or ``work`` and not the kernel, so it shows in the scaled
time in full.
"""

from __future__ import annotations

import statistics
from typing import Callable, TypeVar

REFERENCE_START_S = 0.2
REFERENCE_WORK_S = 0.25
WINDOW = 1

T = TypeVar("T")


class Calibrated:
    """Places calls between kernel runs and rescales their wall times.

    ``kernel`` runs the kernel once and returns its start and work seconds.
    Calls made between two ``mark`` calls share a place, with kernel runs on
    each side.
    """

    def __init__(self, kernel: Callable[[], tuple[float, float]]) -> None:
        self.kernel = kernel
        kernel()  # warm the page cache; not counted
        self.kernels = [kernel()]

    def mark(self) -> None:
        """Run the kernel: the calls made since the last mark form one place."""
        self.kernels.append(self.kernel())

    def run(self, call: Callable[[], T]) -> tuple[T, int]:
        """Run ``call``; return its result and its place."""
        return call(), len(self.kernels) - 1

    def scaled(self, start_s: float, work_s: float, place: int) -> float:
        """Start and work seconds of a call at ``place``, at the reference speed."""
        near = self.kernels[max(0, place - WINDOW + 1):place + WINDOW + 1]
        return (start_s * REFERENCE_START_S / statistics.median(s for s, _ in near)
                + work_s * REFERENCE_WORK_S / statistics.median(w for _, w in near))
