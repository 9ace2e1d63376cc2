"""How fast the host runs right now, from a fixed reference workload.

The benchmark's host is shared: a neighbour on the same physical core
comes and goes, and while it is busy everything here runs up to twice
as slowly, in phases that last from seconds to minutes and differ from
one CPU to the other. A run of 20 s can fall wholly inside a slow
phase, so no statistic over one run's raw host times is steady from run
to run.

:func:`reference_ms` times a small, fixed piece of work that never
changes with the code under test (numpy ops on a 4096-element array
driven from a Python loop, like the simulator's own mix). Dividing a
host time by it, and multiplying by :data:`NOMINAL_MS`, gives the time
the same work would take on the sizing host with its neighbours idle.
README.md shows how much steadier that is than raw times.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy

#: The reference's time on the 2-core x86_64 host the benchmark was
#: sized on, in a phase with idle neighbours. It only fixes the scale of
#: the normalised metrics; any constant would compare commits equally.
NOMINAL_MS = 5.5

_BASE = numpy.random.default_rng(1).integers(0, 1 << 20, 4096)


def _reference() -> int:
    a = _BASE
    total = 0
    for i in range(300):
        b = (a * (i + 3)) & 1023
        total += int(numpy.bincount(b, minlength=1024).argmax())
        a = numpy.roll(a, 1)
    return total


def _median_ms(repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        _reference()
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples)


def reference_ms(repeats: int = 5) -> float:
    """Median wall milliseconds of ``repeats`` runs of the reference on
    each CPU this process may use, averaged over the CPUs.

    Pool workers and the serial loop run on any of them, so the mean is
    the speed they see. The process's CPU set is restored afterwards
    (pool workers inherit it).
    """
    try:
        cpus = sorted(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return _median_ms(repeats)
    per_cpu = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            per_cpu.append(_median_ms(repeats))
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.mean(per_cpu)


def normalise(host_s: float, ref_ms: float) -> float:
    """``host_s`` scaled to the host speed at which the reference takes
    :data:`NOMINAL_MS`."""
    return host_s * NOMINAL_MS / ref_ms
