"""Reference timings that say how fast the machine runs at the moment.

The box this benchmark was built on is shared: its speed drifts by 20-30%
over a minute (a bare `import fencetiles` took 77 ms in one run and 125 ms
in the next), more than the regressions the benchmark must catch.  So
every timed op is bracketed by references timed right before and right
after it, and its latency is scaled to what it would be if the references
took their nominal times.  The unscaled timings are kept in the run's
context line.  No reference runs fencetiles code, so a change to the
program moves a scaled timing as much as an unscaled one.

* reference() is an interpreter loop, a big-integer product and a few
  thousand small strings put in a set and a dict, nominal REFERENCE_S.  A library call (oracle, bigint) is timed in the same
  process as its bracketing kernels and scaled by them.
* A CLI process or set-up probe is bracketed by bare interpreter starts
  (`python -c pass`, nominal BARE_START_S) and by kernels: the bare start
  counts as its nominal time, and the rest of the latency (import, parse,
  compute, output) is scaled by the kernels.  Process start and CPU-bound
  work drift differently on that box, so one factor fits neither.
"""

from __future__ import annotations

import gc
import sys
import time

#: nominal duration of one reference() call
REFERENCE_S = 0.01
#: nominal wall time of BARE_ARGV
BARE_START_S = 0.06
BARE_ARGV = (sys.executable, "-c", "pass")

_BIG = 3 ** 20000


def reference() -> float:
    """Time an interpreter loop, a big-integer product and building a set
    and a dict of short strings; return seconds.

    The mix follows the library's own work: the interpreter, bigint
    arithmetic, and hashing and allocating small objects.  The collector is
    paused so that the size of the program's heap does not slow it down."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        s = 0
        for i in range(25_000):
            s += i * i % 7
        s += _BIG * (_BIG + s) % (_BIG + 12345)
        seen, sizes = set(), {}
        for i in range(4_000):
            word = "hL" * (i % 7) + str(i)
            seen.add(word)
            sizes[word] = len(word)
        return time.perf_counter() - t0
    finally:
        if collecting:
            gc.enable()


def scale(latency: float, measured: float, nominal: float) -> float:
    """latency as it would read if the reference took nominal, not measured."""
    return latency * nominal / measured


def scale_process(latency: float, bare: float, ref: float) -> float:
    """A process's latency at reference speed: its bare interpreter start
    scaled by the bare-start reference, the rest by the kernel reference."""
    return BARE_START_S + scale(max(latency - bare, 0.0), ref, REFERENCE_S)
