"""Times rescaled to the host's reference speed.

On a shared host the CPU this process runs on is slowed by up to 1.9 times,
for stretches from under a second to over a minute, while the process itself
keeps running: no time is stolen, and CPU time slows exactly as wall time
does. No statistic over one run removes a slow stretch longer than the run.
So each timed stretch of work is divided by the time of a fixed calibration
task run just before and just after it, on the same CPU, and multiplied by
that task's time at full speed on the reference host. The result is the
work's wall time at the reference speed: a faster program reads lower in
proportion, a slower host does not.

The calibration task is the benchmark's own code, never the program's, so a
change to the program cannot move it. It mixes the interpreter work the
program does: dict and tuple updates, a keyed sort, string building, and a
set-based graph search over every vertex subset of a small wheel.

A round's operations are timed one by one. One calibration closes each
segment of `SEGMENT_S` of their time and opens the next: an interval timer
(SIGALRM) fires every `SEGMENT_S` while an operation runs in this process, so
that an operation of several seconds is calibrated throughout, not only at
its ends. Operations timed elsewhere, such as child processes, are closed
after the operation instead, so that no calibration competes with the child
for its CPU. The calibrations are not counted in the round's time.
"""

from __future__ import annotations

import random
import signal
import time

# Time of one calibration at full speed on the reference host (see
# README.md); it sets the scale of the figures, never their spread.
REF_CALIBRATION_S = 0.0021
CALIBRATION_REPEATS = 2  # the faster of two, so one interrupt does not decide it
SEGMENT_S = 0.1

_rng = random.Random(0)
_TRIPLES = [tuple(_rng.randrange(1000) for _ in range(3)) for _ in range(1500)]
_HUB = 7  # the wheel W_7: a 7-cycle and a hub joined to every cycle vertex
_WHEEL = [{(v + 1) % _HUB, (v - 1) % _HUB, _HUB} for v in range(_HUB)] + [set(range(_HUB))]


def _calibration_task() -> int:
    totals = {}
    for t in _TRIPLES:
        totals[t] = totals.get(t[:2], 0) + t[2]
    keys = sorted(totals, key=lambda k: (k[2], k[0]))
    "".join(str(k[0]) for k in keys[:500])
    connected = 0
    for _ in range(2):
        for mask in range(1, 1 << len(_WHEEL)):
            vs = [v for v in range(len(_WHEEL)) if mask >> v & 1]
            seen, todo = {vs[0]}, [vs[0]]
            while todo:
                for u in _WHEEL[todo.pop()]:
                    if mask >> u & 1 and u not in seen:
                        seen.add(u)
                        todo.append(u)
            connected += len(seen) == len(vs)
    return connected


def calibrate() -> float:
    """Seconds the calibration task takes on this CPU now."""
    best = float("inf")
    for _ in range(CALIBRATION_REPEATS):
        start = time.perf_counter()
        _calibration_task()
        best = min(best, time.perf_counter() - start)
    return best


class Meter:
    """Wall time and reference time of the operations of one round."""

    def __init__(self, segment_s: float = SEGMENT_S):
        self.segment_s = segment_s
        self.sample_inside = True  # calibrate inside operations; off while tracing
        self.start()

    def start(self) -> None:
        self.wall_s = self.ref_s = self.open_s = 0.0
        self.slowdowns = []  # calibration time over REF_CALIBRATION_S
        self.before = self._calibrate()

    def _calibrate(self) -> float:
        s = calibrate()
        self.slowdowns.append(s / REF_CALIBRATION_S)
        return s

    def time(self, fn, *args, **kwargs):
        """fn(*args, **kwargs), timed; an exception passes through, timed too."""
        if not self.sample_inside:
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.record(time.perf_counter() - start)
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, max(self.segment_s - self.open_s, 1e-3),
                         self.segment_s)
        self.mark = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.open_s += time.perf_counter() - self.mark
            signal.signal(signal.SIGALRM, previous)

    def _on_timer(self, signum, frame) -> None:
        # the calibration's own time falls between two marks and is not counted
        self.open_s += time.perf_counter() - self.mark
        self._close()
        self.mark = time.perf_counter()

    def record(self, seconds: float) -> None:
        """Count an operation timed elsewhere, such as in a child process."""
        self.open_s += seconds
        if self.open_s >= self.segment_s:
            self._close()

    def _close(self) -> None:
        after = self._calibrate()
        self.wall_s += self.open_s
        self.ref_s += self.open_s * 2 * REF_CALIBRATION_S / (self.before + after)
        self.open_s, self.before = 0.0, after

    def stop(self) -> tuple[float, float]:
        """(wall seconds, reference seconds) since `start`."""
        if self.open_s:
            self._close()
        return self.wall_s, self.ref_s
