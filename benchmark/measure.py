"""Summary statistics, machine pace, peak memory and the environment record.

On a shared virtual machine the CPU speed can drift by 20-40% over
minutes as the neighbours' load comes and goes, and CPU time slows with
wall time, so raw times of runs made minutes apart are not comparable.  The gated
times are therefore scaled to a fixed reference speed: a small
pure-Python kernel (chord-map float arithmetic, like the program's
scalar lift) is timed over and over while the workload runs, at a low
duty cycle, and every time of the window is multiplied by
REFERENCE_S over the kernel's median time in that window.  Raw wall
times are printed beside the scaled ones.
"""

from __future__ import annotations

import importlib.metadata
import math
import os
import platform
import resource
import statistics
import time
from statistics import median


#: seconds the calibration kernel takes at the reference speed, close to
#: its time on an unloaded 2-vCPU Intel Xeon virtual machine, Python 3.11
REFERENCE_S = 0.0015
KERNEL_STEPS = 2000
TWO_PI = 2.0 * math.pi


def kernel_seconds() -> float:
    """Wall time of one run of the calibration kernel."""
    t0 = time.perf_counter()
    px, py, a = 0.3, -0.2, 0.1
    for _ in range(KERNEL_STEPS):
        t = TWO_PI * a
        vx, vy = math.cos(t), math.sin(t)
        dx, dy = px - vx, py - vy
        s = -2.0 * (vx * dx + vy * dy) / (dx * dx + dy * dy)
        a = (math.atan2(vy + s * dy, vx + s * dx) / TWO_PI + 0.37) % 1.0
    return time.perf_counter() - t0


class Pace:
    """Machine speed over a window, from kernel samples taken throughout it."""

    def __init__(self):
        self.samples = []

    def sample(self) -> None:
        self.samples.append(kernel_seconds())

    def factor(self) -> float:
        """Reference speed over machine speed: scaled time = wall x factor."""
        return REFERENCE_S / median(self.samples)


def tail_percentile(samples):
    """(percentile, value) of the highest whole percentile that has at
    least ten samples beyond it, by nearest rank; None below 11 samples.

    The nearest-rank P-th percentile is the ceil(P/100 * n)-th smallest
    sample, which leaves n - ceil(P/100 * n) samples beyond it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for pct in range(99, 0, -1):
        rank = math.ceil(pct * n / 100)
        if rank >= 1 and n - rank >= 10:
            return pct, ordered[rank - 1]
    return None


def quartile_spread(values) -> float:
    """Distance between the first and third quartiles, over the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def peak_rss_mb(children: bool) -> float:
    """Peak RSS in MiB of this process, or of the largest waited-for
    descendant with ``children``; Linux reports ru_maxrss in KiB."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def jobs() -> int:
    """Worker processes a workload may use: min(2, nproc)."""
    return max(1, min(2, os.cpu_count() or 1))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _version(dist: str):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def environment() -> dict:
    """Python, numpy and scipy versions, nproc, CPU model and --jobs."""
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "jobs": jobs(),
    }
