"""Machine-speed reference: a fixed pure-Python kernel timed between operations.

The benchmark runs on shared machines whose speed drifts by up to 1.5x
over seconds to minutes, as neighbours come and go. A fixed kernel timed
right before and after each stretch of operations measures that speed.
Every reported time is scaled to the speed at which the kernel takes
REFERENCE_S, so the metrics follow the program instead of its neighbours.

The kernel does not touch ss3, and it is timed only while the process
that times it is the only busy process of the benchmark (see sampled.py),
so the library's own load cannot slow it down. A change that made the
library run work beside the kernel would move it, and with it the scale.
"""

from __future__ import annotations

import statistics
import time

# The kernel's time in the quiet state of a 2-vCPU Intel Xeon virtual
# machine under Python 3.11; it only fixes the scale of the reported times.
REFERENCE_S = 0.0035


def _kernel() -> None:
    # small tuples, bytes round trips, big-int products and dict updates:
    # the same kinds of work as the library's field arithmetic
    acc = 0x123456789ABCDEF
    seen: dict = {}
    for j in range(600):
        v = tuple((j * k + 1) % 3 for k in range(24))
        n = int.from_bytes(bytes(v), "little") * (acc | 1)
        acc = (acc * 6364136223846793005 + n.to_bytes(64, "little")[3]) & 0xFFFFFFFFFFFFFFFF
        seen[v] = seen.get(v, 0) + 1


def timed_kernel() -> float:
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def sample() -> float:
    """Median of three kernel timings, in seconds."""
    return statistics.median(timed_kernel() for _ in range(3))


class Meter:
    """Kernel timings over one stretch of operations.

    The stretch is bracketed by two samples in this process. Child
    processes add the timings they took themselves (see sampled.py) and
    the time they spent taking them, which is left out of the child's time.
    """

    def __init__(self) -> None:
        self.samples = [sample()]
        self.child_kernel_s = 0.0

    def add_child(self, timings: list[float], kernel_s: float) -> None:
        self.samples += timings
        self.child_kernel_s += kernel_s

    def close(self) -> float:
        """End the stretch; return its factor and start the next one."""
        self.samples.append(sample())
        f = REFERENCE_S / statistics.mean(self.samples)
        self.samples = self.samples[-1:]
        return f
