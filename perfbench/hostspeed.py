"""Host-speed normalisation: time the program against a fixed yardstick.

The benchmark runs on a few vCPUs of a shared host.  How fast a vCPU
runs Python changes by half and more from one second to the next, as
neighbours load its sibling threads and caches, and for minutes at a
time.  Raw wall time of a whole run therefore spreads by a quarter and
more between runs of the same code.

:func:`time_slices` cuts the timed run into short slices of simulated
time.  About every :data:`PROBE_EVERY_S` host seconds it runs
:func:`reference_work`, a fixed piece of pure-Python work written in
the benchmark's own files, and times it.  Each stretch of program time
is scaled by ``REFERENCE_S / probe``: the host seconds the stretch
would have taken on a host that runs the yardstick in
:data:`REFERENCE_S`.  The yardstick is interpreter work of the
program's own kind (small allocations, method calls, dict lookups), so
a slowdown of the host slows both alike and cancels.  The program's
own cost does not touch the yardstick, so a change to the program
moves the scaled time in full.

Of the yardsticks tried against the same runs (a pure arithmetic loop,
random lookups in a 20,000-entry pool of dicts, a small event loop over
20,000 objects, and this one), this one steadied the scaled time most:
on the hotspot and lossy workloads the spread of one repetition's
scaled time was a sixth to an eighth of its raw wall time's.
"""

from __future__ import annotations

import time
from typing import Any

#: Host seconds of program time between two yardstick measurements.
PROBE_EVERY_S = 0.05
#: The timed run is cut into this many equal slices of simulated time;
#: a yardstick measurement falls between two slices.
SLICES = 2000
#: Yardstick seconds of the reference host, inside a run on a quiet
#: 2-vCPU VM.
REFERENCE_S = 1.5e-3

#: Objects the yardstick allocates.
_ITEMS = 1500


class _Item:
    """One small object of the yardstick."""

    __slots__ = ("key", "value", "half")

    def __init__(self, key: int) -> None:
        self.key = key
        self.value = float(key)
        self.half = key * 0.5

    def bump(self, by: float) -> float:
        self.value += by
        return self.value


def reference_work() -> float:
    """The yardstick: always the same interpreter work.

    It allocates :data:`_ITEMS` small objects, calls a method on each,
    indexes them in a dict and looks a third of them up: the kind of
    work the program's event loop does with its events and messages.
    """
    items = [_Item(key) for key in range(_ITEMS)]
    total = 0.0
    for item in items:
        total += item.bump(1.0)
    index = {item.key: item for item in items}
    for key in range(0, _ITEMS, 3):
        total += index[key].half
    return total


def probe() -> float:
    """Host seconds :func:`reference_work` takes now."""
    started = time.perf_counter()
    reference_work()
    return time.perf_counter() - started


def time_slices(sim: Any, record: dict) -> None:
    """Make *sim*'s next ``run(until=...)`` run in :data:`SLICES` slices
    and measure it against the yardstick.

    Running to each slice's end in turn executes the same events in the
    same order as one call would.  When the call returns, *record*
    holds ``program_s`` (host seconds in the program, yardstick
    excluded), ``scaled_s`` (those seconds scaled to the reference
    host), ``probes`` and ``probe_median_s``.  The wrapper is an
    attribute of the instance; deleting it restores the class's method.
    """
    run = sim.run
    clock = time.perf_counter

    def sliced(until: float) -> None:
        probes = [probe()]
        program_s = scaled_s = stretch = 0.0
        for k in range(1, SLICES + 1):
            started = clock()
            run(until=until * k / SLICES)
            stretch += clock() - started
            if stretch >= PROBE_EVERY_S or k == SLICES:
                probes.append(probe())
                # A stretch is scaled by the mean of the speeds
                # measured on either side of it.
                scaled_s += stretch * REFERENCE_S * 0.5 * (
                    1.0 / probes[-2] + 1.0 / probes[-1]
                )
                program_s += stretch
                stretch = 0.0
        probes.sort()
        record.update(
            program_s=program_s,
            scaled_s=scaled_s,
            probes=len(probes),
            probe_median_s=probes[len(probes) // 2],
        )

    sim.run = sliced
