"""A fixed reference kernel that tracks how fast the machine runs right now.

On a shared machine the speed available to one process drifts by a third
or more over minutes as other tenants come and go, in wall and CPU time
alike, so raw times from two runs a few minutes apart differ by more than
most changes worth measuring.  Each repetition therefore times this kernel,
which does not depend on opetree, every REF_INTERVAL_S between ops, and
reports its times scaled by REF_NOMINAL_S / (median kernel time): seconds
at the speed at which the kernel takes REF_NOMINAL_S.

The kernel mixes what opetree's hot paths do in the interpreter: exact
Fraction arithmetic, tuple-keyed dict updates and complex multiply-adds.
It must not change, or numbers before and after the change would not
compare.
"""

import time
from fractions import Fraction

REF_NOMINAL_S = 0.010
REF_INTERVAL_S = 0.25


def kernel():
    acc = Fraction(0)
    table = {}
    for i in range(1, 1200):
        q = Fraction(i, i % 7 + 1)
        acc += q * q / (i + 1)
        key = (i % 13, i % 11)
        table[key] = table.get(key, 0) + complex(i, -i) * 0.5
    return acc, table


def timed_kernel() -> tuple:
    """(wall, cpu) seconds of one kernel run."""
    wall, cpu = time.perf_counter(), time.process_time()
    kernel()
    return time.perf_counter() - wall, time.process_time() - cpu


class Sampler:
    """Times the kernel at most every REF_INTERVAL_S, on request."""

    def __init__(self):
        self.walls = []
        self.spent_wall = 0.0
        self.spent_cpu = 0.0
        self.last = float("-inf")

    def sample(self, force=False) -> None:
        if force or time.perf_counter() - self.last >= REF_INTERVAL_S:
            wall, cpu = timed_kernel()
            self.walls.append(wall)
            self.spent_wall += wall
            self.spent_cpu += cpu
            self.last = time.perf_counter()
