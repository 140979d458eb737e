"""Host-speed correction: a fixed pure-Python kernel timed between ops.

On the shared 2-vCPU virtual machine the benchmark was tuned on, the same
pure-Python code runs at two speeds about 1.6x apart, switching every tenth
of a second to every few minutes.  Raw timings of identical work therefore
spread by up to 50 % (interquartile range over median) between runs.  So a run
also times ``kernel()``, a fixed piece of exponent-tuple arithmetic of the
kind the library does (lcm of rows, divisibility, set and dict lookups)
that imports nothing of ``spreadpol``, before the first op and then
whenever ``EVERY_S`` seconds of op time have passed since the last sample.
Each op's time is divided by the host's slowdown around it: the mean of the
kernel times just before and just after it (each the median of the samples
taken there), over ``REFERENCE_S``.  A
timing thus reads as on a host that runs the kernel in ``REFERENCE_S``
seconds, and a change to the library moves it as it moves the raw time.
"""

from __future__ import annotations

import bisect
import gc
import statistics
from time import perf_counter

# Median time of one kernel() in the faster of the two speeds of the machine
# the benchmark was tuned on (Python 3.11, 2-vCPU Intel Xeon virtual machine).
REFERENCE_S = 0.0016
# Op time between two kernel samples.
EVERY_S = 0.02

_ROWS = tuple(((i * 5) % 7, (i * 7) % 4, (i * 3) % 6, (i * 11) % 5) for i in range(30))


def kernel() -> tuple[int, int]:
    """A fixed piece of exponent arithmetic; returns a checksum."""
    seen: set[tuple[int, ...]] = set()
    degrees: dict[int, int] = {}
    divides = 0
    for a in _ROWS:
        for b in _ROWS:
            lcm = tuple(map(max, a, b))
            if lcm not in seen:
                seen.add(lcm)
                d = sum(lcm)
                degrees[d] = degrees.get(d, 0) + 1
            divides += all(x <= y for x, y in zip(b, a))
    return divides, len(seen) * 1000 + max(degrees)


KERNEL_ANSWER = kernel()


class Speed:
    """Kernel samples taken along a run.

    A sample is tagged with the number of timed items (ops or set-ups) done
    when it was taken, so the samples tagged ``i`` lie just before item ``i``.
    """

    def __init__(self) -> None:
        self.tags: list[int] = []
        self.groups: list[list[float]] = []
        self.ok = True

    def sample(self, done: int, repeats: int = 1) -> None:
        """Time `repeats` kernels, with the collector off, as samples tagged `done`."""
        if not self.tags or self.tags[-1] != done:
            self.tags.append(done)
            self.groups.append([])
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(repeats):
                start = perf_counter()
                ans = kernel()
                self.groups[-1].append(perf_counter() - start)
                self.ok &= ans == KERNEL_ANSWER
        finally:
            if enabled:
                gc.enable()

    def samples(self) -> int:
        return sum(map(len, self.groups))

    def slowdown(self, i: int) -> float:
        """Mean of the median kernel times just before and after item `i`, over the reference."""
        j = bisect.bisect_right(self.tags, i)  # first group taken after item i
        before = self.groups[max(j - 1, 0)]
        after = self.groups[min(j, len(self.groups) - 1)]
        return (statistics.median(before) + statistics.median(after)) / 2 / REFERENCE_S

    def scale(self, times) -> list[float]:
        """Each item's time divided by the slowdown around it."""
        return [dt / self.slowdown(i) for i, dt in enumerate(times)]
