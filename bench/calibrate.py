"""A fixed calibration kernel that measures how fast the machine is.

The benchmark runs on a shared host whose speed drifts: the same `ddehist`
run can take twice as long from one minute to the next, in CPU time as much
as in wall time.  The kernel below is a fixed piece of work of the same kind
as ddehist's (small numpy calls, a small eigenvalue solve, and a method of
steps on frozen dataclass segments), written here and sharing no code with
ddehist.  A run times it every EVERY_S of CLI time or so, and `rescale`
turns the run's times into times on a machine on which the kernel's median
is REFERENCE_S.  A change to ddehist moves the rescaled time exactly as it
moves the raw time; a change of machine speed moves the kernel with it and
largely cancels.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from dataclasses import dataclass

import numpy as np

P = np.polynomial.polynomial

# About the kernel's median time on the machine of the reference figures in
# README.md (a shared 2-core x86-64 VM, Python 3.11, numpy 2.4).  It only
# sets the scale of the rescaled times; any fixed value would do.
REFERENCE_S = 0.035

# A run times the kernel after each CLI run that ends this much CLI time or
# more since the kernel last ran: about a tenth of the run goes to it.
EVERY_S = 0.25

_NODES = np.cos(np.pi * (np.arange(9) + 0.5) / 9)
_VANDER = np.vander(_NODES, 9, increasing=True)


class _Piece:
    __slots__ = ("lo", "hi", "coef")

    def __init__(self, lo, hi, coef):
        self.lo, self.hi, self.coef = lo, hi, coef


def _small_arrays(reps=60):
    """Piecewise evaluation, norms and an eigenvalue solve on small arrays."""
    acc = 0.0
    t = np.linspace(-1.0, 0.0, 41)
    for r in range(reps):
        bps = np.linspace(-1.0, 0.0, 9) + r * 1e-6
        pieces = [
            _Piece(float(bps[i]), float(bps[i + 1]), np.array([1.0, -0.5 * i, 0.25, 1e-3 * r, 0.1]))
            for i in range(8)
        ]
        idx = np.clip(np.searchsorted(bps, t, side="right") - 1, 0, 7)
        vals = np.empty_like(t)
        for i, p in enumerate(pieces):
            sel = idx == i
            u = (t[sel] - p.lo) / (p.hi - p.lo)
            v = np.zeros_like(u)
            for c in p.coef[::-1]:
                v = v * u + c
            vals[sel] = v
        acc += float(np.sum(np.abs(vals) ** 3))
        acc += float(np.sum(_VANDER @ pieces[r % 8].coef.repeat(2)[:9]))
        companion = np.diag(np.ones(4), -1)
        companion[:, -1] = -pieces[r % 8].coef
        acc += float(np.max(np.abs(np.linalg.eigvals(companion))))
        table = {(k, r): math.sqrt(k + 1.0) * 0.5 for k in range(40)}
        acc += math.fsum(table.values()) * 1e-6
    return acc


@dataclass(frozen=True)
class _Segment:
    lo: float
    hi: float
    coef: np.ndarray

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("empty segment")


def _steps(runs=4, steps=22):
    """A method of steps for x'(t) = x(t - 1) / (1 + |x|) on frozen segments."""
    acc = 0.0
    for _ in range(runs):
        pieces = [_Segment(-1.0, -0.5, np.array([0.3, 0.1])), _Segment(-0.5, 0.0, np.array([-0.2, 0.0, 0.4]))]
        x0 = 0.1
        every = list(pieces)
        for _ in range(steps):
            new = []
            for p in pieces:
                c = P.polyint(p.coef * (1.0 / (1.0 + abs(x0))))
                c = P.polyadd(c, [x0 - P.polyval(p.lo, c)])
                x0 = float(P.polyval(p.hi, c))
                new.append(_Segment(p.lo + 1.0, p.hi + 1.0, c[:6]))
            pieces = new
            every.extend(new)
            bps = np.array([p.lo for p in every] + [every[-1].hi])
            t = np.linspace(bps[0], bps[-1] - 1e-9, 33)
            idx = np.searchsorted(bps, t, side="right") - 1
            acc += sum(float(P.polyval(u, every[i].coef)) for u, i in zip(t[::4], idx[::4]))
    return acc


def kernel() -> float:
    """Seconds the fixed kernel takes now.

    The cyclic garbage collector is off while it runs, so that its time does
    not depend on how many objects the CLI run before it left behind.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        _small_arrays()
        _steps()
        return time.perf_counter() - start
    finally:
        gc.enable()


def rescale(seconds: float, kernels) -> float:
    """`seconds`, measured in a run whose kernel times were `kernels`,
    rescaled to a machine on which the kernel's median is REFERENCE_S."""
    return seconds * REFERENCE_S / statistics.median(kernels)
