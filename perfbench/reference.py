"""The fixed reference kernel that the benchmark's operation times are
divided by.

On a shared host the same code runs up to about 2x slower for stretches of
seconds to minutes, long enough to cover whole runs, so raw seconds from two
runs cannot be compared. The benchmark times this kernel between every two
operations and divides each operation's time by the mean of the kernel
times on either side of it. That gives the operation's time in kernel runs
("ref"), which follows opcert's own cost but not the host's phase.

The kernel does the kinds of work opcert's searches are made of, taking
about a third, a sixth and a half of its time: the closed form 2x2 Gram
norm over 360 points (the point-backed path), LAPACK SVDs of small dense
complex matrices (the dense path's norms) and scalar Python arithmetic
(the solver loops and the CLI). Host phases slow these by different factors (vectorised numpy the
most, plain Python the least), so a kernel of one kind would misjudge
operations made mostly of another. It imports nothing from opcert, so no
change to opcert changes it.
"""

from __future__ import annotations

import time

import numpy as np

ROUNDS = 24
SVDS = 4           # per round
PYTHON_STEPS = 830  # per round
_RNG = np.random.default_rng(20080514)
_DENSE = _RNG.standard_normal((16, 4, 4)) + 1j * _RNG.standard_normal((16, 4, 4))
_POINTS = _RNG.standard_normal((360, 2, 2)) + 1j * _RNG.standard_normal((360, 2, 2))


def kernel():
    acc = 0.0
    for i in range(ROUNDS):
        g = _POINTS @ np.conj(np.swapaxes(_POINTS, -1, -2))
        tr = np.real(g[..., 0, 0] + g[..., 1, 1])
        det = np.real(g[..., 0, 0] * g[..., 1, 1]) - np.abs(g[..., 0, 1]) ** 2
        top = 0.5 * (tr + np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0)))
        acc += float(np.sqrt(top.max()))
        for j in range(SVDS):
            u, s, vh = np.linalg.svd(_DENSE[(SVDS * i + j) % len(_DENSE)])
            acc += float(s[0]) + abs(u[0, 0]) + abs(vh[0, 0])
        for k in range(PYTHON_STEPS):
            acc += (k * 0.5) ** 2 % 7.0
    return acc


def timed():
    """Wall seconds of one kernel run."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
