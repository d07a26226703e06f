"""Step-by-step solution of x'(t) = f(x(t - r)) from an integrable history.

On each step of length r the delayed argument refers only to already-known
values, so the equation reduces to an explicit integral.  The integrand
f(x(s - r)) is piecewise smooth with kinks exactly at the delayed images of
existing breakpoints; the solver cuts each step there, interpolates the
integrand per cut at Chebyshev points, and antidifferentiates the interpolant
in closed form.  Because each step re-interpolates at a fixed node count, the
polynomial degree of trajectory pieces never grows with the step index.

Every delayed cut lies inside one piece of the previous step (or of the
history), so a step is one batched Chebyshev evaluation of the delayed
argument, one call of f, two matrix products and a cumulative sum of the cut
increments.  The trajectory is built once, so a solve is linear in its steps.

Interpolation nodes are strictly interior to the cut intervals, so the
trajectory depends on the history only through its almost-everywhere class
and its value at 0, exactly like the underlying equation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from .funcrep import (
    PiecewiseFunction,
    _NODES_PER_PIECE,
    _cheb_interp_matrix,
    _cheb_nodes,
    _cheb_values,
    _piece_index,
    _scale_tol,
)
from .histspace import HistoryConfig, HistoryElement, _check, history_segment
from .nonlinear import Nonlinearity

__all__ = ["Problem", "Trajectory", "solve", "step_edges"]


@dataclass(frozen=True, eq=False)
class Problem:
    """A delay equation instance: space, right-hand side, delay, history."""

    cfg: HistoryConfig
    nl: Nonlinearity
    r: float
    phi: HistoryElement

    def __post_init__(self):
        if not 0.0 < self.r <= self.cfg.R + 1e-12 * max(1.0, self.cfg.R):
            raise ValueError("delay must satisfy 0 < r <= R")
        if self.nl.dim != self.cfg.N:
            raise ValueError("nonlinearity dimension does not match the space")
        _check(self.phi, self.cfg)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A solved trajectory on [-R, horizon].

    integration_defect is the largest sampled residual |x'(t) - f(x(t - r))|
    on the solved part, a direct measure of how well the interpolated
    integrands matched the true ones.
    """

    problem: Problem
    horizon: float
    x: PiecewiseFunction
    step_boundaries: np.ndarray
    integration_defect: float

    def history_at(self, t: float) -> HistoryElement:
        return history_segment(self.x, t, self.problem.cfg.R)

    def continuity_defect(self) -> float:
        """Largest one-sided value gap at breakpoints inside (0, horizon]."""
        x = self.x
        right = x.coeffs.sum(axis=1)
        left = x.coeffs[:, 0::2].sum(axis=1) - x.coeffs[:, 1::2].sum(axis=1)
        seams = x.breakpoints[1:-1] > _scale_tol(*x.domain)
        gaps = np.linalg.norm(right[:-1][seams] - left[1:][seams], axis=1)
        final = np.linalg.norm(right[-1] - x.endpoint_value)
        return float(max(final, gaps.max(initial=0.0)))


def step_edges(T: float, r: float) -> np.ndarray:
    """Partition of [0, T] at multiples of r, with a truncated last step."""
    tol = 1e-12 * max(1.0, T)
    count = int(np.floor(T / r + 1e-12))
    edges = [i * r for i in range(count + 1)]
    if T - edges[-1] > tol:
        edges.append(T)
    else:
        edges[-1] = T
    return np.array(edges)


def solve(problem: Problem, T: float) -> Trajectory:
    """Solve on [0, T] and return the trajectory on [-R, T]."""
    if not T > 0:
        raise ValueError("horizon must be positive")
    r, rep, n = problem.r, problem.phi.rep, _NODES_PER_PIECE
    u, fit, antider, slope = _step_matrices(n)
    # The known pieces a step reads: the history, then the previous step.
    window_bp, window, value = rep.breakpoints, rep.coeffs, rep.endpoint_value
    breakpoints, blocks, defect = [rep.breakpoints], [], 0.0
    edges = step_edges(T, r)
    for t0, t1 in zip(edges[:-1], edges[1:]):
        tol = _scale_tol(rep.breakpoints[0], t1)
        shifted = window_bp + r
        inner = shifted[(shifted > t0 + tol) & (shifted < t1 - tol)]
        cuts = np.concatenate(([t0], inner, [t1]))
        half = 0.5 * np.diff(cuts)[:, None, None]
        rhs = _delayed_rhs(problem, window_bp, window, cuts, u)
        # The antiderivative of each cut's interpolant, chained across the
        # cuts so that it starts from the value reached so far.
        integ = half * (antider @ (fit @ rhs[:, :n]))
        chain = np.cumsum(np.vstack((value, integ.sum(axis=1))), axis=0)
        integ[:, 0] += chain[:-1]
        value = chain[-1]
        defect = max(defect, float(np.abs(slope @ integ / half - rhs[:, n:]).max()))
        breakpoints.append(cuts[1:])
        blocks.append(integ)
        window_bp, window = cuts, integ
    x = PiecewiseFunction(np.concatenate(breakpoints), [rep.coeffs] + blocks, value)
    return Trajectory(problem, float(T), x, edges, defect)


@lru_cache(maxsize=None)
def _step_matrices(n: int):
    """Local points u (n interpolation nodes, then 5 defect probes) and the
    matrices fit (values to coefficients), antider (n coefficients to the
    n + 1 of the antiderivative vanishing at -1) and slope (those n + 1 to
    the derivative at the probes)."""
    u = np.concatenate((_cheb_nodes(n), _cheb_nodes(5)))
    antider = _cheb.chebint(np.eye(n), lbnd=-1, axis=0)
    slope = _cheb_values(_cheb.chebder(np.eye(n + 1), axis=0), u[n:])
    for mat in (u, antider, slope):
        mat.flags.writeable = False
    return u, _cheb_interp_matrix(n), antider, slope


def _delayed_rhs(problem: Problem, bp: np.ndarray, coeffs: np.ndarray, cuts, u) -> np.ndarray:
    """f(x(t - r)) at the local points u of each cut, shape (cuts, len(u), N),
    where x is the padded block (bp, coeffs) and holds each delayed cut in
    one piece, found from the cut's midpoint."""
    mid = 0.5 * (cuts[:-1] + cuts[1:])
    t = (mid[:, None] + 0.5 * np.diff(cuts)[:, None] * u) - problem.r
    piece = _piece_index(bp, mid - problem.r)
    lo, hi = bp[piece][:, None], bp[piece + 1][:, None]
    vals = _cheb_values(coeffs[piece], (2.0 * t - (lo + hi)) / (hi - lo))
    return problem.nl.fn(vals.reshape(-1, vals.shape[-1])).reshape(vals.shape)
