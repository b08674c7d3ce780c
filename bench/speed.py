"""The machine's speed, measured next to the work it is used to scale.

The benchmark runs on a few cores of a shared host whose speed changes
from moment to moment: a fixed calibration kernel of about half a
millisecond runs at two speeds about 1.8 times apart, and successive runs
of it stay correlated over 10 to 50 ms and barely over a second (CPU
time moves with wall time, so the neighbours slow the processor rather
than take it away).  Unscaled, that moved the totals of the same cases
by 15-25% between the quartiles of blocks run a minute apart, far more
than the benchmark's own inputs move them.

So the benchmark runs the kernel right before and right after each piece
of work it times, and scales the piece by REFERENCE_S over the mean of
the two: a reported time is the time the work would have taken while
the machine ran the kernel in exactly REFERENCE_S, the kernel's median
time on the 2-core machine of the reference figures.  The kernel does
the kind of work the program does (Fraction arithmetic, dicts keyed by
tuples, sorting, small calls) and never touches baire_lab, so a change
to the program moves the scaled times exactly as much as the raw ones.
Scaling each piece by its own neighbours cut the spread of those blocks
to 1-5%; scaling a whole block by the median kernel time did not help,
since the speed changes far faster than a block lasts.
"""

import time
from fractions import Fraction

# the kernel's median time on the reference machine, in seconds
REFERENCE_S = 0.0004

# a set-up is timed in pieces of about this length, each scaled on its own
SEGMENT_S = 0.02

_VALUES = [Fraction(1 + i % 9, 1 + i % 6) for i in range(48)]


def _kernel():
    totals = {}
    acc = Fraction(0)
    for i, f in enumerate(_VALUES):
        key = (i % 5, i % 3)
        acc += f / 2
        totals[key] = totals.get(key, 0) + f
    ranked = sorted(totals.items(), key=lambda kv: kv[1])
    return max(acc, ranked[-1][1])


def kernel_seconds():
    """One timed run of the calibration kernel."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def scaled(seconds, before, after):
    """`seconds` of work at the reference speed, from the kernel times
    measured just before and just after it."""
    return seconds * 2 * REFERENCE_S / (before + after)


class Segments:
    """Times one stretch of work, such as a set-up, in pieces of about
    SEGMENT_S, each scaled by the kernel runs that bound it.  The owner
    calls start, then tick between items of work, then stop; kernel time
    is left out of both totals."""

    def __init__(self):
        self.raw = 0.0
        self.scaled = 0.0
        self.kernels = []

    def start(self):
        self.before = kernel_seconds()
        self.kernels.append(self.before)
        self.t0 = time.perf_counter()

    def tick(self):
        if time.perf_counter() - self.t0 >= SEGMENT_S:
            self.stop()
            self.t0 = time.perf_counter()

    def stop(self):
        elapsed = time.perf_counter() - self.t0
        after = kernel_seconds()
        self.kernels.append(after)
        self.raw += elapsed
        self.scaled += scaled(elapsed, self.before, after)
        self.before = after
