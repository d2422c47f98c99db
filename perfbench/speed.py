"""Host-speed normalisation of the benchmark's timings.

The benchmark runs on virtual CPUs of a shared host whose speed drifts
with the load its neighbours put on the physical cores. On the 2-vCPU
host this benchmark was built on, a fixed pure-Python task pinned to one
CPU ran at one speed or at about half of it, switching within
milliseconds and for stretches of seconds, each CPU on its own; the
middle half of 20-second stretches of it spread by a fifth of their
median, and the benchmark's raw timings of the same code by 0.2 to 0.4.

So the whole benchmark runs pinned to one CPU, and between operations it
times a fixed reference task on that CPU (``Probe``). A wall time ``t``
is reported as ``t * scale(probes)``: ``REFERENCE_MS`` times the mean
speed (one over the probe time) the probes of its one-second window saw,
which is the time the operation would have taken on a host that runs the
reference task in ``REFERENCE_MS``. A set-up is rescaled by the probes
run while it loads. The rescaling does not touch the program: the
reference task is this file's code, so a change to ``repro`` moves the
program's times and leaves the probes alone.
"""

from __future__ import annotations

import gc
import os
import statistics
import time

# The reference-task time the rescaled timings assume; a run's median
# probe on the 2-vCPU build host read 0.5-0.65 ms.
REFERENCE_MS = 0.5
PROBE_EVERY_S = 0.05  # between probes while a workload runs
SETUP_PROBE_EVERY_S = 0.02  # between probes while a set-up runs
WINDOW_S = 1.0  # probes in one window scale that window's timings
_ITEMS = 600


def pin_to_one_cpu() -> None:
    """Pin this process, and so every process it starts later, to the
    last CPU it may use."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def reference_task() -> int:
    """A fixed mix of the interpreter work ``repro`` does: formatting
    strings, dict lookups and updates, tuple building and a sort."""
    counts: dict[str, int] = {}
    pairs = []
    for i in range(_ITEMS):
        key = f"k{i % 97}"
        counts[key] = counts.get(key, 0) + 1
        pairs.append((i * 7919 % 1009, key))
    pairs.sort()
    return len(counts) + pairs[0][0]


def probe_ms() -> float:
    """The wall time of one run of the reference task, in ms: wall time,
    so that a stretch in which the hypervisor runs another guest on this
    CPU reads as slow too. The cyclic collector is off meanwhile, so the
    probe never reads the size of the heap."""
    gc.disable()
    try:
        started = time.perf_counter()
        reference_task()
        return (time.perf_counter() - started) * 1e3
    finally:
        gc.enable()


class Probe:
    """Reference-task timings over one measured span.

    ``tick()`` between operations runs the task when it is due;
    ``factor(at_s)`` is the scale for a time measured ``at_s`` seconds
    into the span, and ``probe_s(window)`` what the probes took there.
    """

    def __init__(self, begin: float, every_s: float = PROBE_EVERY_S) -> None:
        self.begin = begin
        self.every_s = every_s
        self._next = begin
        self._by_window: dict[int, list[float]] = {}

    def tick(self) -> None:
        if time.perf_counter() >= self._next:
            self.run()

    def run(self) -> None:
        now = time.perf_counter()
        self._by_window.setdefault(window(now - self.begin), []).append(
            probe_ms())
        self._next = now + self.every_s

    def all_ms(self) -> list[float]:
        return [ms for values in self._by_window.values() for ms in values]

    def factor(self, at_s: float) -> float:
        probes = self._by_window.get(window(at_s))
        if not probes:  # a window one long operation filled
            probes = self.all_ms()
        return scale(probes)

    def probe_s(self, index: int) -> float:
        return sum(self._by_window.get(index, ())) / 1e3

    def reference_ms(self) -> float:
        """The median probe of the span: the host's speed, for stderr."""
        return statistics.median(self.all_ms())

    def elapsed(self, end_s: float) -> float:
        """The span ``0 .. end_s`` less its probes, rescaled window by
        window: the time the operations had, at reference speed."""
        total = 0.0
        for index in range(int(end_s // WINDOW_S) + 1):
            length = min(WINDOW_S, end_s - index * WINDOW_S)
            if length > 0:
                busy = max(0.0, length - self.probe_s(index))
                total += busy * self.factor(index * WINDOW_S)
        return total


def window(at_s: float) -> int:
    return int(at_s // WINDOW_S)


def scale(probes_ms: list[float]) -> float:
    """The factor from wall time to reference time over a stretch these
    probes sampled: ``REFERENCE_MS`` times the mean speed, one over the
    probe time. The mean, because the speed can halve and recover within
    milliseconds, so the work done in a stretch follows the mean speed
    and the median of a two-speed mix jumps between the two."""
    return REFERENCE_MS * statistics.fmean(1.0 / ms for ms in probes_ms)


def timed_setup(action) -> tuple[object, float]:
    """Time ``action(tick)``, which calls ``tick()`` while it loads or
    waits; returns its result and its seconds less the probes ``tick``
    ran, rescaled by those probes."""
    probe = Probe(time.perf_counter(), SETUP_PROBE_EVERY_S)
    started = time.perf_counter()
    result = action(probe.tick)
    seconds = time.perf_counter() - started - sum(probe.all_ms()) / 1e3
    return result, seconds * scale(probe.all_ms())
