"""A fixed standard-library computation that measures the CPU's current speed.

On a shared virtual machine the speed a process gets changes by tens of
percent over tens of seconds, which swamps the effect of most program
changes. The benchmark therefore times this reference right before and
right after every measured interval and reports times in *reference-speed
seconds*:

    measured seconds * REFERENCE_S / (mean of the two reference times)

That is the time the interval would have taken on a CPU that runs the
reference in exactly REFERENCE_S. A program change cannot move the
reference, which touches no cubehom code. Its mix of small integer matrix
products and tuple and dict churn is close to what cubehom's pure-Python
kernels do, so a slow spell of the machine slows both by about the same
factor.
"""

import time

# Scale of a reference-speed second: the reference's time on the 2-core
# Xeon (2.1 GHz, CPython 3.11.7) that recorded the first baseline.
REFERENCE_S = 0.08


def reference():
    a = [[(i * 7 + j * 3) % 11 - 5 for j in range(24)] for i in range(24)]
    bt = list(zip(*a))
    for _ in range(40):
        c = [[sum(x * y for x, y in zip(r, col)) for col in bt] for r in a]
    d = {}
    for i in range(40000):
        d[(i % 97, f"k{i % 89}")] = tuple(range(i % 5))
    return c, d


def reference_seconds():
    """Wall time of one reference() call."""
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0
