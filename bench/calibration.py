"""Fixed reference work that measures how fast the machine is right now.

On a shared virtual machine the same operation's time drifts by 20-35 %
between stretches of a few seconds, in CPU time as much as in wall time,
so it is the machine that slows and not the scheduler that preempts.  The
benchmark runs this kernel before the first timed operation and after each
one, and divides each operation's time by the mean of the two kernel runs
around it.  The quotient, in kernel units, cancels most of the drift.
Operations that start a fresh interpreter are calibrated by running this
file as a fresh interpreter too, so both sides pay the same kind of work.

The kernel never touches thermocap, so no program change can move it.  It
mixes the kinds of work thermocap's operations do: interpreted Python, many
small numpy calls, and vector arithmetic on 16001-point arrays.
"""

from __future__ import annotations

import time

import numpy as np

_X = np.linspace(0.5, 1.5, 16001)
_M = np.array([[1.0, 0.2, 0.0], [0.1, 0.3, 1.0], [0.4, 0.5, 0.0]])


def kernel_seconds() -> float:
    """Wall time of one run of the reference kernel (about 25 ms)."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(20000):
        acc += i * 0.5
    for i in range(2000):
        m = _M.copy()
        m[2, 1] += i * 1e-6
        acc += np.linalg.det(m)
    for _ in range(100):
        acc += float((_X * _X * (_X - 1.0) + np.tanh(_X)).sum())
    elapsed = time.perf_counter() - start
    if not np.isfinite(acc):
        raise ArithmeticError("calibration kernel lost its result")
    return elapsed


if __name__ == "__main__":
    kernel_seconds()
