"""What the benchmark reads about the machine it runs on.

On a shared 2-core VM the speed drifts by +-15% over seconds (other
tenants share the cores), which is larger than any bound worth setting.
``calibration_ns`` times a fixed pure-Python loop shaped like the jet
product (complex multiply-adds into fresh tuples); the benchmark runs it
next to the measured operations and scales the time spent in hzeta by
``CALIBRATION_REF_NS / calibration_ns()``, i.e. to the speed at which the
loop takes its reference time.  The loop is the benchmark's own code, so a
change to hzeta cannot move it.
"""

import statistics
import time

CALIBRATION_REF_NS = 140_000  # the loop's typical time on a 2-core Xeon VM


def _jet_like_loop():
    a = tuple(complex(0.5, 0.1 * i) for i in range(6))
    for _ in range(12):
        b = tuple(sum(a[j] * a[i - j] for j in range(i + 1)) for i in range(6))
        m = max(abs(c) for c in b)
        a = tuple(c / m for c in b)
    return a


def calibration_ns() -> int:
    """Time of one run of the calibration loop."""
    t0 = time.perf_counter_ns()
    _jet_like_loop()
    return time.perf_counter_ns() - t0


def cold_calibration_ns() -> float:
    """Calibration reading in a process that has not run the loop yet: the
    interpreter specializes the loop's bytecode during the first runs, so
    take the median of five."""
    return statistics.median(calibration_ns() for _ in range(5))


def smooth(readings: list[int], half_width: int) -> list[float]:
    """Running median of calibration readings, so that one preempted run
    does not rescale its operation."""
    n = len(readings)
    return [
        statistics.median(readings[max(0, i - half_width):min(n, i + half_width + 1)])
        for i in range(n)
    ]


def peak_rss_mb() -> float | None:
    """Peak resident memory of this process.  VmHWM belongs to the address
    space, which exec() replaces, so unlike ru_maxrss it does not inherit
    the high-water mark of the parent that started the process."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None
