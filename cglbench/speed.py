"""Reference kernel for scaling times on a machine whose speed drifts.

On a shared machine the same Python code runs up to 3.5 times slower for
stretches of seconds, in CPU time as much as in wall time (neighbours on
the same cores).  A median over a 20-second run then moves with the phase
the run happens to fall in.  The benchmark therefore times this fixed,
cgl-independent kernel next to each measured interval and scales the
interval to reference speed, the speed at which the kernel takes REF_S:

    scaled = measured * REF_S / kernel_time

A program change scales its times exactly as it changes them; a phase of
the machine changes the kernel's time and the interval's alike and mostly
drops out.  The raw times are kept in the run's detail file.
"""

from __future__ import annotations

import time
from fractions import Fraction

REF_S = 0.020
_ITERATIONS = 6000


def kernel() -> Fraction:
    """Fixed work of the kind the kernel does: exact rational arithmetic,
    tuple keys, dict lookups and small allocations."""
    acc = Fraction(0)
    table = {}
    for i in range(_ITERATIONS):
        key = ("v", i % 61, i % 7)
        row = table.get(key)
        if row is None:
            row = table[key] = [Fraction(i % 11, 1 + i % 5)]
        acc += row[0] * Fraction(1, 1 + i % 3)
        row.append(acc.denominator % 17)
    return acc


def measure() -> float:
    """Seconds one run of the kernel takes now."""
    t = time.perf_counter()
    kernel()
    return time.perf_counter() - t
