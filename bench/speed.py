"""Host speed, measured by timing a fixed piece of reference work.

The benchmark's host is shared: the same work runs up to 1.5x slower while
other tenants are busy, for periods from about a second to minutes, and CPU
time slows with wall time.  So every timed task is bracketed by two runs of
``speed_probe`` in the same interpreter, and its time is scaled to the
reference speed: ``time_s * PROBE_REF_S / mean(probe before, probe after)``.
A change to skeinquant moves the task time and leaves the probe alone.
"""

from __future__ import annotations

import time

import numpy as np

# the probe's time at the reference host speed (a quiet period on the
# 2-vCPU host the README describes); scaled times read in seconds at that speed
PROBE_REF_S = 0.015

_MOD = (1 << 521) - 1
_MATRIX = np.exp(1j * np.linspace(0.0, 3.0, 32 * 32)).reshape(32, 32) / 32


def speed_probe() -> float:
    """Seconds taken by the reference work, about 15-20 ms.

    Big-integer arithmetic (what mpmath's python backend does), dict and
    loop overhead, and small complex matrix products: the mix the workloads
    spend their time in.  It touches no skeinquant code or cache.
    """
    t0 = time.perf_counter()
    x, acc = 0x9E3779B97F4A7C15, 0
    for i in range(6000):
        x = (x * x + i) % _MOD
        acc ^= x & 0xFFFF
    d = {}
    for i in range(20000):
        d[i % 97] = d.get(i % 97, 0) + i
    m = _MATRIX
    for _ in range(200):
        m = m @ _MATRIX
        m /= np.abs(m).max()
    return time.perf_counter() - t0


def scaled(time_s: float, probe_s: float) -> float:
    """A time taken while the probe took probe_s, at the reference speed."""
    return time_s * PROBE_REF_S / probe_s
