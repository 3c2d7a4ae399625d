"""Scale wall times to a nominal machine speed.

On a shared two-core machine the speed of pure-Python code drifts by up
to 50% over tens of seconds, and CPU time drifts with it, so no clock
gives steady figures. The benchmark therefore times a fixed pure-Python
reference loop, which does not touch gccodes, between the pieces of work
it measures, and scales each piece by NOMINAL_S over the mean of the
reference times just before and just after it. Scaled figures are what
the machine would have measured had the reference loop taken NOMINAL_S.
Anything that speeds up the interpreter for the whole process (say,
switching the garbage collector off at import) speeds up the reference
too, and the scaling hides it.
"""

from time import perf_counter

# About the reference() time on an idle core of the Xeon 2.1 GHz machine the
# bounds in BENCHMARK.json were set on, with Python 3.11.
NOMINAL_S = 0.003


def reference():
    """Seconds taken by a fixed mix of int, str and dict work. It is short
    so that it can run between pieces of work a few tens of ms long."""
    t0 = perf_counter()
    acc = 0
    table = {}
    for i in range(3000):
        v = (i * 2654435761) & 0xFFFF
        table[v & 1023] = format(v, "016b")
        acc ^= int(table.get((v >> 3) & 1023, "0"), 2)
    return perf_counter() - t0


class Speed:
    """Scale factors for consecutive pieces of work.

    factor() closes the piece of work done since the previous call (or
    since construction): it times the reference once more and returns
    NOMINAL_S over the mean of the reference times on both sides.
    """

    def __init__(self):
        self.last = reference()

    def factor(self):
        now = reference()
        f = NOMINAL_S / ((self.last + now) / 2)
        self.last = now
        return f
