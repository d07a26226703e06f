"""Independent reference solutions for the benchmark's correctness checks.

Nothing here imports ddehist: the formulas below are written out again from
their definitions, so a fault in the program cannot hide in a shared helper.
"""

from __future__ import annotations

import numpy as np

# The right-hand sides the long-horizon workload uses, at the registry's
# default parameters: mackey_glass(beta=2, k=1) and saturating(dim=1).
RHS = {
    "mackey_glass": lambda y: 2.0 * y / (1.0 + y * y),
    "saturating": lambda y: y / np.sqrt(1.0 + y * y),
}


def history_values(breakpoints, pieces, t):
    """Values of a scalar piecewise history given in the global power basis.

    pieces[i] holds the ascending power coefficients of piece i on
    [breakpoints[i], breakpoints[i + 1]); `t` must avoid the breakpoints.
    """
    t = np.asarray(t, dtype=float)
    idx = np.searchsorted(breakpoints, t, side="right") - 1
    out = np.empty_like(t)
    for i, coeffs in enumerate(pieces):
        sel = idx == i
        out[sel] = np.polynomial.polynomial.polyval(t[sel], coeffs)
    return out


def midpoint_solution(rhs, breakpoints, pieces, endpoint, horizon, panels, sample_every):
    """x'(t) = rhs(x(t - 1)) on [0, horizon] with R = r = 1, by the midpoint rule.

    The grid has `panels` panels per delay, aligned with the delay and with
    the history's breakpoints (which must be multiples of 1 / panels), so
    the delayed argument at a panel midpoint is itself a panel midpoint one
    delay earlier: on [-1, 0] it is evaluated exactly, later it is the mean
    of the two grid values around it.  Each delay interval is one
    vectorised block.  Returns x at t = 0, s, 2s, ... where s =
    sample_every / panels, and keeps only one block in memory.
    """
    h = 1.0 / panels
    mids = -1.0 + (np.arange(panels) + 0.5) * h
    delayed = history_values(np.asarray(breakpoints, float), pieces, mids)
    start = float(endpoint)
    samples = [start]
    for _ in range(int(round(horizon))):
        block = np.empty(panels + 1)
        block[0] = start
        block[1:] = start + h * np.cumsum(rhs(delayed))
        samples.extend(block[sample_every::sample_every])
        delayed = 0.5 * (block[:-1] + block[1:])
        start = block[-1]
    return np.array(samples)
