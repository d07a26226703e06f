"""Independent reference computations used to pin expected values in tests.

The trajectory oracle below integrates the delay equation with a plain
midpoint rule on uniform panels, feeding delayed arguments from the already
computed grid by linear interpolation.  It shares no code with the solver
(which interpolates integrands at Chebyshev points and antidifferentiates
exactly), so agreement between the two is meaningful.  The scheme is second
order in the panel width for integrands that are smooth within each panel.

The per-piece references at the end evaluate piecewise functions one piece
at a time with numpy's `chebval`, for comparison with the batched array
operations of `ddehist.funcrep`; the sup norm reference finds each piece's
critical points with numpy's `chebroots`.
"""

import numpy as np


def riemann_solve(problem, T, panels_per_step=20000):
    """Midpoint-rule trajectory on [0, T]; returns (ts, xs) on a dense grid.

    Panels never straddle a step boundary, so histories whose delayed kinks
    sit at multiples of the delay are integrated at full order.
    """
    r = problem.r
    f = problem.nl.fn
    phi = problem.phi.rep
    count = int(np.floor(T / r + 1e-12))
    edges = [i * r for i in range(count + 1)]
    if T - edges[-1] > 1e-12 * max(1.0, T):
        edges.append(T)
    else:
        edges[-1] = T

    ts = np.array([0.0])
    xs = np.array(problem.phi.value_at_zero, ndmin=2)
    for t0, t1 in zip(edges[:-1], edges[1:]):
        panels = int(panels_per_step)
        h = (t1 - t0) / panels
        mids = t0 + (np.arange(panels) + 0.5) * h
        args = mids - r
        vals = np.empty((panels, xs.shape[1]))
        neg = args < 0
        if np.any(neg):
            vals[neg] = phi(args[neg])
        pos = ~neg
        if np.any(pos):
            for j in range(xs.shape[1]):
                vals[pos, j] = np.interp(args[pos], ts, xs[:, j])
        rates = np.atleast_2d(f(vals))
        step_xs = xs[-1] + h * np.cumsum(rates, axis=0)
        step_ts = t0 + h * (np.arange(panels) + 1.0)
        step_ts[-1] = t1
        ts = np.concatenate([ts, step_ts])
        xs = np.concatenate([xs, step_xs], axis=0)
    return ts, xs


def midpoint_integral(fn, a, b, panels=200_000):
    """Composite midpoint rule for a vectorized scalar integrand on [a, b].

    Second order in the panel width on smooth stretches; a kink costs only
    O(h^2) as well, so 2e5 panels on a unit interval give about 1e-11.
    """
    h = (b - a) / panels
    mids = a + (np.arange(panels) + 0.5) * h
    return float(h * np.sum(fn(mids)))


# -- per-piece references for the piecewise representation ------------------
#
# These loop over pieces and evaluate each with numpy's chebval (Clenshaw),
# as the representation did before it stored one padded coefficient array.
# `blocks` are ragged (deg_i + 1, N) Chebyshev blocks, one per piece.


def piecewise_values(breakpoints, blocks, endpoint_value, t):
    """Values at the points t: pieces are half open [t_i, t_{i+1}) and the
    right end takes the stored endpoint value; shape (len(t), N)."""
    from numpy.polynomial.chebyshev import chebval

    bp = np.asarray(breakpoints, dtype=float)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty((t.size, np.asarray(endpoint_value).size))
    idx = np.clip(np.searchsorted(bp, t, side="right") - 1, 0, len(blocks) - 1)
    at_end = t == bp[-1]
    for i in np.unique(idx):
        mask = (idx == i) & ~at_end
        if mask.any():
            c, d = bp[i], bp[i + 1]
            out[mask] = chebval((2.0 * t[mask] - (c + d)) / (d - c), blocks[i]).T
    out[at_end] = endpoint_value
    return out


def _piece_values(f, i, u):
    from numpy.polynomial.chebyshev import chebval

    if hasattr(f, "fn"):  # a LazyComposition
        return f.fn(_piece_values(f.base, i, u))
    return chebval(u, f.coeffs[i]).T


def lazy_lp_norm(f, p, nodes=16):
    """Composite Gauss-Legendre rule with `nodes` points per piece, summed
    piece by piece."""
    u, w = np.polynomial.legendre.leggauss(nodes)
    total = 0.0
    for i in range(f.n_pieces):
        c, d = f.breakpoints[i], f.breakpoints[i + 1]
        radii = np.linalg.norm(_piece_values(f, i, u), axis=-1)
        total += 0.5 * (d - c) * float(w @ radii**p)
    return total ** (1.0 / p)


def critical_point_sup_norm(f, imag_tol=1e-6):
    """sup |f| piece by piece: the largest |f| over both ends of each piece,
    the stored endpoint value and the real roots in [-1, 1] (imaginary part
    within imag_tol) of the derivative of sum_j f_j^2, whose coefficients
    come from `chebmul` and whose roots come from `chebroots`."""
    from functools import reduce
    from numpy.polynomial import chebyshev as cheb

    best = float(np.linalg.norm(np.atleast_1d(f.endpoint_value)))
    for i in range(f.n_pieces):
        block = f.coeffs[i]
        square = reduce(cheb.chebadd, (cheb.chebmul(c, c) for c in block.T))
        slope = cheb.chebder(square)
        slope = cheb.chebtrim(slope, 1e-14 * np.abs(slope).sum())
        crit = cheb.chebroots(slope) if slope.any() else np.empty(0)
        crit = crit[(np.abs(crit.imag) <= imag_tol) & (np.abs(crit.real) <= 1.0 + imag_tol)]
        u = np.concatenate(([-1.0, 1.0], np.clip(crit.real, -1.0, 1.0)))
        best = max(best, float(np.linalg.norm(_piece_values(f, i, u), axis=-1).max()))
    return best


def sampled_sup_norm(f, samples=64, tol=1e-10, levels=7):
    """A lower bound for sup |f|, piece by piece: a closed Chebyshev extrema
    grid per piece, the discrete maximum polished by one parabolic vertex
    step, and the grid doubled until two levels agree within tol."""
    previous = None
    for _ in range(levels):
        grid = -np.cos(np.arange(samples) * np.pi / (samples - 1))
        grid[0], grid[-1] = -1.0, 1.0
        best = float(np.linalg.norm(np.atleast_1d(f.endpoint_value)))
        for i in range(f.n_pieces):
            radii = np.linalg.norm(_piece_values(f, i, grid), axis=-1)
            best = max(best, float(radii.max()))
            k = int(np.argmax(radii))
            if not 0 < k < samples - 1:
                continue
            du1, du2 = grid[k] - grid[k - 1], grid[k] - grid[k + 1]
            dr1, dr2 = radii[k] - radii[k - 1], radii[k] - radii[k + 1]
            denom = du1 * dr2 - du2 * dr1
            if abs(denom) < 1e-300:
                continue
            shift = 0.5 * (du1 * du1 * dr2 - du2 * du2 * dr1) / denom
            if np.isfinite(shift):
                vertex = np.array([np.clip(grid[k] - shift, -1.0, 1.0)])
                best = max(best, float(np.linalg.norm(_piece_values(f, i, vertex), axis=-1)[0]))
        if previous is not None and abs(best - previous) <= tol:
            return max(best, previous)
        previous = best
        samples = 2 * samples
    return previous
