"""Host speed, for turning CPU seconds measured on a shared machine into
seconds on a reference host.

Shared virtual machines change speed by up to a factor of two for minutes
at a time (other tenants' load), and that moves wall and CPU seconds
alike, so raw times of two runs of the same code differ by more than any
useful bound.  While the benchmark measures, a calibration process runs on
the benchmark's CPU at a lower priority (about a tenth of the CPU).  It
adds Fractions in a loop and publishes, through a small shared file, how
many loops it has run and its own CPU seconds.  A step's CPU seconds times
REFERENCE_LOOP_S over the mean loop time while the step ran are the CPU
seconds the step would take on a host that runs one loop in
REFERENCE_LOOP_S.  The loop uses only the standard library and runs in its
own process, so a change to girthgeom cannot change its speed.

    python3 bench/hostspeed.py PATH    # the calibration process itself
"""

from __future__ import annotations

import mmap
import os
import struct
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

REFERENCE_LOOP_S = 0.00025
NICE = 10
MIN_LOOPS = 10
RECORD = struct.Struct("dd")  # loops run, CPU seconds spent in them


def loop() -> Fraction:
    total = Fraction(0)
    for i in range(1, 100):
        total += Fraction(i, i + 7)
    return total


def calibrate(path: str) -> None:
    """Body of the calibration process; runs until it is terminated or
    the benchmark that started it has gone."""
    os.nice(NICE)
    parent = os.getppid()
    with open(path, "r+b") as fh:
        shared = mmap.mmap(fh.fileno(), RECORD.size)
    loops, cpu = 0, 0.0
    while os.getppid() == parent:
        start = time.process_time()
        loop()
        loops, cpu = loops + 1, cpu + time.process_time() - start
        shared[:] = RECORD.pack(loops, cpu)


class HostSpeed:
    """Pins this process (and so the processes it starts) to one CPU and
    starts the calibration process there; ``stop`` ends it."""

    def __init__(self, path: Path):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.path = path
        path.write_bytes(bytes(RECORD.size))
        with open(path, "r+b") as fh:
            self.shared = mmap.mmap(fh.fileno(), RECORD.size)
        self.proc = subprocess.Popen([sys.executable, __file__, str(path)])
        deadline = time.monotonic() + 30
        while self.read()[0] < MIN_LOOPS:
            if time.monotonic() > deadline or self.proc.poll() is not None:
                self.stop()
                raise RuntimeError("the calibration process did not start")
            time.sleep(0.01)

    def read(self) -> tuple[float, float]:
        """(loops, CPU seconds) so far; two equal reads rule out one torn
        by a concurrent write."""
        while True:
            first = self.shared[:]
            if first == self.shared[:]:
                return RECORD.unpack(first)

    def scale(self, cpu_s: float, before: tuple, after: tuple) -> float:
        """Reference-host seconds of ``cpu_s`` CPU seconds spent between two
        ``read``s; a step too short to time the loop uses every loop so far."""
        (n0, c0), (n1, c1) = before, after
        if n1 - n0 < MIN_LOOPS:
            n0, c0 = 0, 0.0
        return cpu_s * REFERENCE_LOOP_S * (n1 - n0) / (c1 - c0)

    def stop(self) -> None:
        self.proc.terminate()
        self.proc.wait()
        self.shared.close()
        self.path.unlink()


if __name__ == "__main__":
    calibrate(sys.argv[1])
