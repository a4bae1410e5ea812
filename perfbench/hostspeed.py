"""The host's speed during a run, read from a fixed pure-Python loop.

On a shared host the same code runs up to 1.7x slower for minutes at a time
while a neighbour loads the same core: the loop below then takes about 12 ms
instead of about 8 ms.  The child times the loop SAMPLES times before the
first step and after every step of a workload body.  run.py reports each
run's times in seconds at the reference speed, multiplied by
``speed_factor`` of that run's loop times.  A change to the program moves
the timed steps and leaves the loop alone.
"""

import statistics
import time

REFERENCE_ITERATIONS = 100_000
# the loop's time on a quiet 2 GHz Xeon vCPU, the host the benchmark was
# sized on, so that reported times read as that host's quiet wall time
REFERENCE_S = 0.008
# loop times taken at each point, so that one slow sample does not decide
# a run whose body is a single step
SAMPLES = 3


def reference_loop():
    """Seconds the fixed loop takes now."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


def speed_factor(loop_times):
    """What turns a time measured among ``loop_times`` into reference seconds.

    The median of the loop times stands for the host's speed over the run.
    """
    return REFERENCE_S / statistics.median(loop_times)
