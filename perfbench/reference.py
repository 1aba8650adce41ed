"""A fixed reference kernel that measures how fast the machine is right now.

The benchmark runs on a few cores of a shared host whose speed drifts by a
quarter or more over seconds to tens of seconds, so a control time in ms
read in one run cannot be compared with one read in another. The run
observer times this kernel ten times right before and ten times right after
every `run_scenario` call and once every few cycles during it, and the
gated figures divide a low percentile of each run's control times by the
same percentile of the kernel times: the host's speed cancels, and what is
left is the program's cost in kernel runs.

The kernel does the kinds of work a control cycle does, in about the
shares they took in the kernel that followed the control time best: numpy
calls on 6-vectors and 6x6 matrices, which are mostly call overhead, a few
LAPACK solves of a 40x40 system, and Python-level arithmetic. The host's
busy spells slow these kinds of work by different shares (a pure-Python
loop up to 2.3x, the control cycles 1.5x in the same spell), so the mix
matters. Of a pure-Python, a small-numpy, a LAPACK and this mixed kernel,
all timed around the same 158 runs, the mixed one's times followed the
runs' control times most closely (log-log slope 0.79, correlation 0.82;
the pure-Python one 0.62 and 0.71). The kernel uses neither dcmwalk nor the
workload seed, so no change to the program can move it.
"""

import time

import numpy as np

_rng = np.random.default_rng(0)
_a = _rng.standard_normal((40, 40))
_SPD = _a @ _a.T + 40 * np.eye(40)
_RHS = _rng.standard_normal(40)
_VEC6 = _rng.standard_normal(6)
_MAT6 = _rng.standard_normal((6, 6))


def kernel():
    acc = 0.0
    for _ in range(25):
        v = _VEC6 * 2.0 + 1.0
        w = _MAT6 @ v
        acc += float(w[0]) + float(np.cross(v[:3], w[:3])[1])
    for i in range(4):
        acc += float(np.linalg.solve(_SPD, _RHS)[i])
    table = {}
    for i in range(190):
        acc += i * 0.5
        table[i & 63] = acc
        acc -= table.get((i * 7) & 63, 0.0) * 1e-3
    return acc


def time_kernel(repeats, clock=time.perf_counter):
    """Wall time of each of `repeats` kernel calls, in ms."""
    times = []
    for _ in range(repeats):
        t0 = clock()
        kernel()
        times.append((clock() - t0) * 1e3)
    return times
