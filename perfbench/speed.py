"""Core-speed normalisation of wall-clock timings.

On a shared host a vCPU loses time in two ways that have nothing to do
with the program. It runs either fast or 1.5-2x slower (another tenant
busy on the same physical core), in episodes lasting from a second to
minutes, each vCPU on its own. And the hypervisor holds it off the
physical CPU while it wants to run (steal time, up to a quarter of the
wall time in busy periods). Identical mining steps then take anywhere
from 6 to 10 s, and no statistic over one run removes an episode that
spans the run. So every end-to-end timing is reported in
*reference-core seconds*: wall seconds scaled by how much work the CPU
could do in them, measured alongside the work.

A :class:`Speedometer` runs one thread per CPU, pinned to it, that every
``PERIOD`` seconds times a fixed reference snippet (a little Python
object work and a small matrix product, like the mining loop) in thread
CPU time, which leaves out steal, and reads the CPU's steal counter from
``/proc/stat``. A wall interval counts as its length times the CPU's
speed relative to a core that runs the snippet in ``REF_S`` seconds,
times the share of the interval the CPU was not held off::

    with Speedometer(cpus) as speed:
        start = clock(); work(); end = clock()
    seconds = speed.scaled(start, end)

The snippet thread shares the GIL and the core with the work it
measures; that costs the work about 1% of its time, the same on every
commit.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

import numpy as np

clock = time.perf_counter

#: Sampling period of each snippet thread, in seconds.
PERIOD = 0.05
#: Snippet CPU time, in seconds, on the reference core: about its time
#: on this benchmark's 2-vCPU Xeon host in its fast state, so that
#: reference seconds there read close to wall seconds.
REF_S = 0.30e-3
#: A shorter interval is judged by the samples of this many seconds
#: around its middle: enough for ~20 snippets and ~100 steal ticks per
#: CPU, and short against the host's speed episodes.
MIN_WINDOW = 1.0
_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")

_MATRIX = np.random.default_rng(0).random((24, 24))


def snippet() -> None:
    """The fixed reference work: dict, tuple, hash and sort, then BLAS."""
    table = {}
    for i in range(300):
        key = (i, i * 3 % 17, "x")
        table[key] = hash(key) ^ i
    sorted(table, key=lambda key: key[1])
    for _ in range(20):
        _MATRIX @ _MATRIX


def steal_s(cpu: int) -> float:
    """Seconds ``cpu`` has been held off by the hypervisor since boot."""
    prefix = f"cpu{cpu} "
    with open("/proc/stat", encoding="ascii") as stat:
        for line in stat:
            if line.startswith(prefix):
                return int(line.split()[8]) * _TICK_S
    raise RuntimeError(f"/proc/stat has no line for cpu{cpu}")


class Speedometer:
    """Samples each CPU's speed and steal while a measured phase runs."""

    def __init__(self, cpus) -> None:
        self.cpus = sorted(cpus)
        #: Per CPU: (wall time, snippet CPU seconds, steal seconds so far).
        self._samples: dict[int, list[tuple[float, float, float]]] = {
            cpu: [] for cpu in self.cpus
        }
        self._stop = threading.Event()
        self._threads = [
            threading.Thread(target=self._sample, args=(cpu,), daemon=True)
            for cpu in self.cpus
        ]

    def __enter__(self) -> "Speedometer":
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join()

    def _sample(self, cpu: int) -> None:
        os.sched_setaffinity(threading.get_native_id(), {cpu})
        samples = self._samples[cpu]
        while not self._stop.wait(PERIOD):
            start, cpu_start = clock(), time.thread_time()
            snippet()
            samples.append((start, time.thread_time() - cpu_start, steal_s(cpu)))

    def factor(self, start: float, end: float) -> float:
        """Work the CPUs could do per wall second over ``[start, end]``,
        relative to the reference core, averaged over the CPUs."""
        factors: list[float] = []
        pad = max(0.0, MIN_WINDOW - (end - start)) / 2
        start, end = start - pad, end + pad
        for samples in self._samples.values():
            samples = list(samples)
            if len(samples) < 2:
                raise RuntimeError("the speedometer took too few samples")
            inside = [s for t, s, _ in samples if start <= t <= end] or [
                min(samples, key=lambda sample: abs(sample[0] - (start + end) / 2))[1]
            ]
            speed = statistics.fmean(REF_S / s for s in inside)
            before = [x for x in samples if x[0] <= start] or samples[:1]
            after = [x for x in samples if x[0] >= end] or samples[-1:]
            (t0, _, steal0), (t1, _, steal1) = before[-1], after[0]
            held = (steal1 - steal0) / (t1 - t0) if t1 > t0 else 0.0
            factors.append(speed * (1.0 - min(held, 1.0)))
        return statistics.fmean(factors)

    def scaled(self, start: float, end: float) -> float:
        """Wall interval ``[start, end]`` in reference-core seconds."""
        return (end - start) * self.factor(start, end)

    def summary(self) -> dict[str, float]:
        """Per CPU over the whole run: median snippet time, steal share."""
        out = {}
        for cpu, samples in self._samples.items():
            if len(samples) >= 2:
                out[f"cpu{cpu}_snippet_ms"] = statistics.median(s for _, s, _ in samples) * 1e3
                (t0, _, steal0), (t1, _, steal1) = samples[0], samples[-1]
                out[f"cpu{cpu}_steal_share"] = (steal1 - steal0) / (t1 - t0)
        return out
