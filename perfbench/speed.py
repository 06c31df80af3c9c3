"""The host's speed, measured with a fixed reference kernel.

On a shared host the whole machine runs faster or slower in phases: pure
Python slows down by up to 2x, BLAS and numpy calls on tiny arrays by
~1.45x, for a fraction of a second to minutes at a time.  The benchmark runs
the kernel below before and after every set-up and between jobs (never
inside one) and rescales each wall time to the host's nominal speed:

    normalised seconds = wall seconds * NOMINAL_S / kernel seconds

where the kernel seconds are the mean of the samples taken right before and
right after the timed work.  The host switches between a fast and a slow
mode (the kernel takes ~3.4 or ~6 ms) many times a minute, and spends a
share of the time in each that drifts over minutes; a job of a second or
less mostly runs in the mode of the samples around it.  The kernel is the
benchmark's own code, so no change to palinopt can change it; a program
that gets faster or slower moves the normalised time exactly as it moves
the wall time on a host of steady speed.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# About the kernel's mean time on the reference box (2-vCPU VM, Python
# 3.11.7, numpy 2.4.6, one BLAS thread).  It only sets the scale of
# normalised seconds.
NOMINAL_S = 0.004
REPEATS = 5  # a sample is the median of this many kernel runs

_M = np.exp(1j * np.arange(64 * 64).reshape(64, 64) / 7.0) / 8.0
_V = np.exp(1j * np.arange(128) / 5.0)


def _kernel() -> float:
    """About 3 ms of the mix palinopt's jobs spend their time on, in equal
    parts: Python loops over small objects, string formatting and parsing;
    dense complex matmuls; and many numpy calls on tiny arrays, as when a
    2x2 gate is applied to a pair of amplitudes."""
    acc = 0.0
    rows = {}
    for i in range(600):
        z = complex(i % 13, i % 7)
        text = f"{z.real!r},{z.imag!r}"
        re, im = text.split(",")
        rows[i & 127] = (float(re), float(im))
        acc += rows[i & 127][0] * 0.5
    m = _M
    for _ in range(40):
        m = m @ _M
    v = _V.copy()
    g = _M[:2, :2]
    for k in range(0, 128, 2):
        for _ in range(3):
            v[k:k + 2] = g @ v[k:k + 2]
            acc += float(np.abs(v[k:k + 2]).max())
    return acc + float(abs(m[0, 0]))


def sample() -> float:
    """Seconds of one kernel run: the median of REPEATS runs, so a single
    preemption of a few milliseconds does not move it."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def normalise(seconds: float, before: float, after: float) -> float:
    """Wall seconds rescaled to NOMINAL_S by the kernel samples around them."""
    return seconds * NOMINAL_S / ((before + after) / 2)
