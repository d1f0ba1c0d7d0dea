"""
Machine-speed normalisation of the benchmark's times.

On a shared VM the host CPU runs the same Python code at speeds that
differ by up to 1.6x, in phases that last from under a second to over
half a minute, so two runs of the same code a minute apart can differ by a
third in raw wall time.  The benchmark therefore measures the speed of the
CPU while it times the work, with a fixed reference loop (pure Python, no
posetmorse code, garbage collector off), and reports each time at a
reference speed: the speed at which one sample of the loop takes
REFERENCE_S.  A change to posetmorse cannot move the samples, only the
work between them, so the scaled times compare commits as raw times would
on a machine of constant speed.  run.py prints the raw times too.

Two ways to measure the speed:

- Sampler, for the timed work itself.  While a segment of work runs, a
  SIGALRM handler in the same process runs one sample every PERIOD_S of
  wall time.  The segment's time, less the time the handler took, is
  scaled by the mean of REFERENCE_S / sample time.  On the benchmark's
  intervals this halves the repetition-to-repetition spread of the
  bracketing probes below.
- probe(), for set-up, which runs before any hook can start a sampler: the
  median of PROBE_SAMPLES samples, taken before the process starts and
  after its set-up ends.
"""

from __future__ import annotations

import gc
import resource
import signal
import statistics
import time

# Time of one sample at the reference speed: about what a sample takes on a
# 2-vCPU Intel Xeon VM with CPython 3.11 in its fast phase.  Only a scale:
# every comparison is between runs that share it.
REFERENCE_S = 0.0005
SAMPLE_ITERATIONS = 120
PERIOD_S = 0.05
PROBE_SAMPLES = 50

_SETS = [frozenset(range(k, k + 9)) for k in range(12)]
_SEQ = tuple((k * 7) % 13 for k in range(13))


def _reference_loop() -> int:
    """Work of the kinds posetmorse does most: small sorts with a key,
    set differences, subset tests, tuple building."""
    acc = 0
    for k in range(SAMPLE_ITERATIONS):
        order = sorted(range(len(_SEQ)), key=_SEQ.__getitem__)
        rest = set(order).difference(_SEQ[k % 5:k % 5 + 4])
        acc += sum(1 for s in _SETS if rest <= s) + len(tuple(order[k % 7:]))
    return acc


def _sample() -> tuple[float, float]:
    """One run of the reference loop: its time, and the time the whole
    sample took (collector switching included)."""
    began = time.perf_counter()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _reference_loop()
        loop = time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()
    return loop, time.perf_counter() - began


def probe() -> float:
    """Median time of PROBE_SAMPLES samples."""
    return statistics.median(_sample()[0] for _ in range(PROBE_SAMPLES))


def scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two probes into a time at
    the reference speed."""
    return REFERENCE_S / ((before + after) / 2)


def cpu_seconds(who: int = resource.RUSAGE_SELF) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


class Sampler:
    """
    Samples the speed of the CPU that runs this process while it times one
    segment of work.  Only the main thread can use it, and nothing else in
    the process may use SIGALRM.
    """

    def __init__(self) -> None:
        self.loops: list[float] = []
        self.overhead_s = 0.0
        self._wall = self._cpu = 0.0

    def _on_alarm(self, _signum, _frame) -> None:
        loop, whole = _sample()
        self.loops.append(loop)
        self.overhead_s += whole

    def start(self) -> None:
        self.loops = [_sample()[0]]
        self.overhead_s = 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)
        self._wall, self._cpu = time.monotonic(), cpu_seconds()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> dict:
        """The segment's wall and CPU time less the samples', raw and at
        the reference speed, and the number of samples."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.monotonic() - self._wall - self.overhead_s
        cpu = cpu_seconds() - self._cpu - self.overhead_s
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.loops.append(_sample()[0])
        speed = statistics.fmean(REFERENCE_S / loop for loop in self.loops)
        return {"wall_s": wall, "cpu_s": cpu, "ref_wall_s": wall * speed,
                "ref_cpu_s": cpu * speed, "overhead_s": self.overhead_s,
                "samples": len(self.loops)}
