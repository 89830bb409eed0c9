"""Machine-speed calibration: a fixed probe loop timed beside every measurement.

The shared host the benchmark was defined on (a 2-vCPU Xeon VM) changes
speed by up to a factor of two for seconds to minutes at a time.  It shows no
steal time: the process's own CPU time moves with its wall time, so neither
measures the program alone, and a run's median pass time spread by 15-40% of
its median from run to run.  What stays put is the ratio between the
program's time and the time of a fixed piece of work run just before and
just after it on the same core: within a run, pass times and probe times
correlate at 0.9-0.97, and a busy process on the other vCPU that slowed
passes by half left the ratio within 5%.

``probe()`` is that fixed work.  It mixes what heavykp spends its time on:
numpy calls on 256-lane float arrays (the batch kernels), a scalar float loop
(the phase flow of the spectrum search) and small Python calls with dict
stores (runner, rng set-up, CSV rows).  It uses numpy and the standard library
only, never heavykp, so no change to the program moves it.

Pass times are reported in calibrated seconds: each config's measured
seconds times ``NOMINAL_S`` over the mean of the probes just before and just
after it.  Set-up time is scaled by the median of every probe of the run's
timed passes instead: a fresh interpreter's import time follows the host's
load level over minutes, but not the probe from one second to the next.

``NOMINAL_S`` is a round figure near the probe's fastest time on the host
above (Python 3.11, numpy 2.4), so a calibrated second is about a second of
that host running unloaded.  Calibrated seconds from two hosts are
not comparable; the ratio between two commits measured on one host is.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 0.030

_A = np.linspace(0.05, 0.95, 256)
_B = _A[::-1].copy()


def _numpy_part(steps: int = 600) -> float:
    a = _A.copy()
    for _ in range(steps):
        c = np.cos(a)
        s = np.sin(_B)
        a = np.where(c > s, a * 0.99 + 0.01, a * 1.01 - 0.01)
        a = np.abs(a) % 1.0
    return float(a[0])


def _scalar_part(steps: int = 120000) -> float:
    x = 0.0
    for i in range(steps):
        x = (x * 1.000001 + i) % 12345.0
    return x


def _step(a: float, b: float) -> float:
    return a * b + 1.0


def _call_part(steps: int = 60000) -> float:
    d = {}
    for i in range(steps):
        d[i & 255] = _step(float(i), 0.5)
    return d[0]


def probe() -> float:
    """Seconds the fixed probe work takes now."""
    t0 = time.perf_counter()
    _numpy_part()
    _scalar_part()
    _call_part()
    return time.perf_counter() - t0


def speed_factor(probe_times) -> float:
    """Calibrated seconds per measured second, from the probes around a
    measurement (for two probes, the median is their mean)."""
    return NOMINAL_S / statistics.median(probe_times)
