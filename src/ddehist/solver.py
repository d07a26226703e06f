"""Step-by-step solution of x'(t) = f(x(t - r)) from an integrable history.

On each step of length r the delayed argument refers only to already-known
values, so the equation reduces to an explicit integral.  The integrand
f(x(s - r)) is piecewise smooth with kinks exactly at the delayed images of
existing breakpoints; the solver cuts each step there, interpolates the
integrand per cut at Chebyshev points, and antidifferentiates the interpolant
in closed form.  Because each step re-interpolates at a fixed node count, the
polynomial degree of trajectory pieces never grows with the step index.

Every delayed cut lies inside one piece of the previous step (or of the
history).  Except on the first step when r < R and on a truncated last step,
the delayed cuts are, as a rule, that window's breakpoints up to rounding, and
the step reads the whole window at the fixed local nodes through one cached
Chebyshev-Vandermonde product; other steps search each cut's piece and map
points into it only when the cut is not that whole piece.  A step is that read,
one call of f, one matrix product and a cumulative sum.  The defect is taken
after the steps, over blocks of held steps, one product per block.  The
trajectory is assembled once, in one array, so a solve is linear in steps.

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
    _sealed,
    _vandermonde,
)
from .histspace import HistoryConfig, _check, history_segment
from .nonlinear import Nonlinearity

__all__ = ["Problem", "Trajectory", "solve", "step_edges"]
_ULPS = 2.0**-49  # 8 float64 ulps of 1 (8 * 2^-52): `_delayed_rhs`' tolerance


@dataclass(frozen=True, eq=False)
class Problem:
    """A delay equation instance: space, right-hand side, delay, and a
    history phi on [-R, 0]."""

    cfg: HistoryConfig
    nl: Nonlinearity
    r: float
    phi: PiecewiseFunction

    def __post_init__(self):
        if not 0.0 < self.r <= self.cfg.R + _scale_tol(self.cfg.R):
            raise ValueError("delay must satisfy 0 < r <= R")
        if self.nl.dim != self.cfg.N:
            raise ValueError(f"nonlinearity dimension {self.nl.dim} does not match the space's N = {self.cfg.N}")
        _check(self.phi, self.cfg)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A solved trajectory on [-R, horizon].

    integration_defect is the largest sampled residual |x'(t) - f(x(t - r))|
    on the solved part: each cut's interpolant minus f at 5 Chebyshev probe
    points of the cut, taken over all cuts after the steps, in blocks; a
    direct measure of how well the interpolated integrands matched the true ones.
    """

    problem: Problem
    horizon: float
    x: PiecewiseFunction
    step_boundaries: np.ndarray
    integration_defect: float

    def history_at(self, t: float) -> PiecewiseFunction:
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


def step_edges(T: float, r: float, one_step: str = "") -> np.ndarray:
    """Partition of [0, T] at multiples of r, the last put on T while its step stays within 8 ulps of T
    of r (as `_delayed_rhs` allows), else followed by a shorter step; a ValueError when T < r is within
    `_scale_tol(T)` of 0, or when one_step names a one-step bound and there is more than one step."""
    tol = _scale_tol(T)
    count = int(np.floor(T / r))
    edges = [i * r for i in range(count + 1)]
    if count and T - edges[-2] <= r + _ULPS * T:
        edges[-1] = T
    elif count or T > tol:
        edges.append(T)
    else:
        raise ValueError(f"horizon {T:g} is within {tol:g} of 0, too short for one method-of-steps cut")
    if one_step and len(edges) > 2:
        raise ValueError(f"{one_step} is a one-step bound: horizon must lie in (0, r]")
    return np.array(edges)


def solve(problem: Problem, T: float) -> Trajectory:
    """Solve on [0, T] and return the trajectory on [-R, T]."""
    if not T > 0:
        raise ValueError("horizon must be positive")
    r, phi, n = problem.r, problem.phi, _NODES_PER_PIECE
    integrate, probe = _step_matrices(n)[1:]
    # The known pieces a step reads: the history, then the previous step.
    window_bp, window, value = phi.breakpoints, phi.coeffs, phi.endpoint_value
    breakpoints, blocks, held, starts, defect = [phi.breakpoints], [], [], [0], 0.0
    edges = step_edges(T, r)
    ends, start = edges.tolist(), float(phi.breakpoints[0])
    for t0, t1 in zip(ends[:-1], ends[1:]):
        tol = _scale_tol(start, t1)
        shifted = window_bp + r
        inner = shifted[shifted.searchsorted(t0 + tol, "right") : shifted.searchsorted(t1 - tol)]
        cuts = np.concatenate(([t0], inner, [t1]))
        rhs = _delayed_rhs(problem, window_bp, window, cuts, n)
        # The antiderivative of each cut's interpolant, chained across the
        # cuts so that it starts from the value reached so far.
        integ = 0.5 * (cuts[1:] - cuts[:-1])[:, None, None] * (integrate @ rhs[:, :n])
        chain = np.concatenate((value[None], integ.sum(axis=1))).cumsum(axis=0)
        integ[:, 0] += chain[:-1]
        value = chain[-1]
        held.append(rhs)
        starts.append(starts[-1] + len(rhs))  # the held steps' first cuts, then their end
        if starts[-1] * rhs[0].size > 2**11 or t1 == ends[-1]:  # 16 KiB held, or the last step
            # Each held step's largest |x' - f| at the probes; a max passes over NaN steps.
            block = np.concatenate(held)
            cut = np.abs(probe @ block[:, :n] - block[:, n:]).max(axis=(1, 2))
            steps = np.maximum.reduceat(cut, starts[:-1])
            defect, held, starts = max(defect, *steps.tolist()), [], [0]
        breakpoints.append(cuts[1:])
        blocks.append(integ)
        window_bp, window = cuts, integ
    bp = _sealed(np.concatenate(breakpoints))
    coeffs = np.zeros((bp.size - 1, max(phi.degree, n) + 1, phi.n_components))
    coeffs[: phi.n_pieces, : phi.degree + 1] = phi.coeffs
    np.concatenate(blocks, out=coeffs[phi.n_pieces :, : n + 1])
    x = PiecewiseFunction(bp, _sealed(coeffs), value)
    return Trajectory(problem, float(T), x, edges, defect)


@lru_cache(maxsize=None)
def _step_matrices(n: int):
    """Local points u (n interpolation nodes, then 5 defect probes) and two
    matrices on values at the nodes: integrate, to the n + 1 coefficients of
    the interpolant's antiderivative vanishing at -1, and probe, to that
    antiderivative's derivative at the probes, which ignores its constant."""
    u = np.concatenate((_cheb_nodes(n), _cheb_nodes(5)))
    integrate = _cheb.chebint(np.eye(n), lbnd=-1, axis=0) @ _cheb_interp_matrix(n)
    probe = _cheb.chebvander(u[n:], n - 1) @ _cheb.chebder(np.eye(n + 1), axis=0) @ integrate
    return _sealed(u), _sealed(integrate), _sealed(probe)


_step_nodes = lambda n: _step_matrices(n)[0]  # the points u, a node set of `funcrep._vandermonde`


def _delayed_rhs(problem: Problem, bp: np.ndarray, coeffs: np.ndarray, cuts, n: int) -> np.ndarray:
    """f(x(t - r)) at the local points u of `_step_matrices(n)` on each cut,
    shape (cuts, n + 5, N), where x is the padded block (bp, coeffs) and holds
    each delayed cut in one piece.  Delayed cuts that are bp up to a few ulps
    read the block whole through one cached Vandermonde product; otherwise each
    cut finds its piece from its midpoint and maps points into it unless whole."""
    delayed = cuts - problem.r
    # A few ulps, not `_scale_tol`: at t = 200 that is 2e-10, and would take a
    # cut a real amount off its piece for the whole piece.
    tol = _ULPS * max(1.0, abs(bp[0]), abs(cuts[-1]))
    if delayed.size == bp.size and np.abs(delayed - bp).max() <= tol:
        # Contiguous, as `coeffs[piece]` is: a strided block takes another BLAS path.
        vals = _vandermonde(_step_nodes, n, coeffs.shape[1] - 1) @ np.ascontiguousarray(coeffs)
        return problem.nl.fn(vals.reshape(-1, vals.shape[-1])).reshape(vals.shape)
    mid = 0.5 * (cuts[:-1] + cuts[1:])
    piece = _piece_index(bp, mid - problem.r)
    lo, hi = bp[piece], bp[piece + 1]
    moved = (np.maximum(np.abs(delayed[:-1] - lo), np.abs(delayed[1:] - hi)) > tol).nonzero()[0]
    vals = _vandermonde(_step_nodes, n, coeffs.shape[1] - 1) @ coeffs[piece]
    if moved.size:
        lo, hi, half = lo[moved, None], hi[moved, None], 0.5 * (cuts[moved + 1] - cuts[moved])[:, None]
        t = (mid[moved, None] + half * _step_matrices(n)[0]) - problem.r
        vals[moved] = _cheb_values(coeffs[piece[moved]], (2.0 * t - (lo + hi)) / (hi - lo))
    return problem.nl.fn(vals.reshape(-1, vals.shape[-1])).reshape(vals.shape)
