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
critical points with numpy's `chebroots`.  The split L^p reference keeps
the per-piece zero split that `funcrep` replaced by one array pass over all
roots, and the per-group, per-rule-size Gauss-Jacobi loop that it replaced
by one evaluation per bisection level.  The last two loops measure one
function at a time, the reference for `funcrep.lp_norm` and `sup_norm`
given a sequence of functions.  The delayed read at the end evaluates every
cut of a solver step at points mapped into its piece, the read the solver
keeps only for cuts that are not a whole piece, and the reference solve
after it is the solver's step loop as it read each cut and took each
step's defect before the whole-window read.  The restriction after it
cuts one function at a time, with its own re-expansion and its own
one-point read, the reference for the sequence cut of
`funcrep.restricted` and `histspace.history_segment`.  The operator norm
loop measures one candidate and one image per norm call, the reference
for `derivops.estimate_operator_norm`.  The CSV cell formatter at the very
end prints one cell at a time, the reference for the one-pass table
formatting of `cli.write_csv`.
"""

import numpy as np


def riemann_solve(problem, T, panels_per_step=20000):
    """Midpoint-rule trajectory on [0, T]; returns (ts, xs) on a dense grid.

    Panels never straddle a step boundary, so histories whose delayed kinks
    sit at multiples of the delay are integrated at full order.
    """
    r = problem.r
    f = problem.nl.fn
    phi = problem.phi
    count = int(np.floor(T / r + 1e-12))
    edges = [i * r for i in range(count + 1)]
    if T - edges[-1] > 1e-12 * max(1.0, T):
        edges.append(T)
    else:
        edges[-1] = T

    ts = np.array([0.0])
    xs = np.array(problem.phi.endpoint_value, ndmin=2)
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


def modulus_intervals(coeffs):
    """The zero split of `funcrep._modulus_intervals`, piece by piece: a
    Python loop over the searched pieces, one `zeros_of_modulus` call and
    one list of cuts per piece, rows sorted by piece at the end."""
    from ddehist import funcrep

    lead = np.abs(coeffs[:, 0, :]) - np.abs(coeffs[:, 1:, :]).sum(axis=1)
    scale = np.abs(coeffs).sum(axis=(1, 2))
    free = np.any(lead > funcrep._ZERO_FREE_MARGIN * scale[:, None], axis=1)
    if free.all():
        ones, none = np.ones(free.size), np.zeros(free.size, dtype=int)
        return np.arange(free.size), -ones, ones, none, none
    searched = np.flatnonzero(~free)
    series, per_zero = funcrep._modulus_series(coeffs[searched])
    found = {int(searched[j]): roots for j, roots in funcrep._cheb_roots(series).items()}
    rows = [(i, -1.0, 1.0, 0, 0) for i in range(free.size) if i not in found]
    for i, roots in found.items():
        cuts = [[-1.0, 0], [1.0, 0]]
        for x, m in zip(*zeros_of_modulus(roots, per_zero)):
            if abs(x) == 1.0:
                end = cuts[0 if x < 0 else -1]
                end[1] = max(end[1], int(m))
            else:
                cuts.insert(-1, [float(x), int(m)])
        for (lo, mlo), (hi, mhi) in zip(cuts[:-1], cuts[1:]):
            rows.append((i, lo, hi, mlo, mhi))
    rows.sort(key=lambda row: row[0])  # stable: each piece keeps its order
    return tuple(np.array(col) for col in zip(*rows))


def zeros_of_modulus(roots, per_zero):
    """Zeros of |f| on one piece from the roots of its modulus series:
    (locations, multiplicities), sorted.  Real roots within _ROOT_TOL of
    each other are merged at their mean, those within _END_TOL of an end
    are snapped onto it and those outside the piece dropped; each complex
    root x + iy with y within _NEAR_TOL of the axis adds x - y, x, x + y
    with multiplicity 0."""
    from ddehist.funcrep import _END_TOL, _NEAR_TOL, _ROOT_TOL

    roots = roots[np.abs(roots.real) <= 1.0 + _ROOT_TOL]
    real = np.sort(roots[np.abs(roots.imag) <= _ROOT_TOL].real)
    group = np.cumsum(np.diff(real, prepend=-np.inf) > _ROOT_TOL) - 1
    size = np.bincount(group)
    bends = roots[(roots.imag > _ROOT_TOL) & (roots.imag <= _NEAR_TOL)]
    near = np.concatenate((bends.real - bends.imag, bends.real, bends.real + bends.imag))
    near = near[np.abs(near) < 1.0]
    at = np.concatenate((np.bincount(group, weights=real) / size, near))
    mults = np.concatenate((np.maximum(1, size // per_zero), np.zeros(near.size, dtype=int)))
    at[np.abs(at + 1.0) <= _END_TOL] = -1.0
    at[np.abs(at - 1.0) <= _END_TOL] = 1.0
    inside = np.flatnonzero(np.abs(at) <= 1.0)
    order = inside[np.argsort(at[inside])]
    return at[order], mults[order]


def split_power_integral(f, p):
    """The integral of |f|^p over the domain by the zero-splitting
    Gauss-Jacobi rule of `funcrep._power_integrals`, with the loops it
    replaced: the per-piece zero split of `modulus_intervals`, and one |f|^p
    evaluation per group of sub-intervals with equal endpoint-zero
    multiplicities and per rule size, each divided by the Jacobi weight
    function before it is summed.  No warning is raised."""
    import math

    from ddehist import funcrep

    def jacobi_integrals(piece, lo, hi, mlo, mhi, n):
        out = np.empty(piece.size)
        for mlo_k, mhi_k in set(zip(mlo.tolist(), mhi.tolist())):
            sel = (mlo == mlo_k) & (mhi == mhi_k)
            a, b = p * mhi_k, p * mlo_k
            x, w = funcrep._jacobi_rule(n, a, b)
            values = funcrep._power_values(f.coeffs, piece[sel], lo[sel], hi[sel], x, p)
            smooth = values / ((1.0 - x) ** a * (1.0 + x) ** b)
            out[sel] = 0.5 * (hi[sel] - lo[sel]) * (smooth @ w)
        return out

    scale = 0.5 * np.diff(f.breakpoints)
    n = max(funcrep._NODES_PER_PIECE, math.ceil((p * f.degree + 1.0) / 2.0))
    piece, lo, hi, mlo, mhi = modulus_intervals(f.coeffs)
    if p == round(p) and f.n_components == 1:
        return float(scale[piece] @ jacobi_integrals(piece, lo, hi, mlo, mhi, n))
    total = 0.0
    for level in range(funcrep._JACOBI_MAX_ROUNDS + 1):
        coarse = jacobi_integrals(piece, lo, hi, mlo, mhi, n)
        fine = jacobi_integrals(piece, lo, hi, mlo, mhi, 2 * n)
        weighted = scale[piece] * fine
        if level == 0:
            floor = 1e-16 * float(weighted.sum())
        done = scale[piece] * np.abs(fine - coarse) <= 1e-14 * weighted + floor
        if done.all() or level == funcrep._JACOBI_MAX_ROUNDS:
            break
        total += float(weighted[done].sum())
        piece, lo, hi, mlo, mhi = (arr[~done] for arr in (piece, lo, hi, mlo, mhi))
        mid = 0.5 * (lo + hi)
        zeros = np.zeros_like(mlo)
        piece = np.concatenate((piece, piece))
        lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
        mlo, mhi = np.concatenate((mlo, zeros)), np.concatenate((zeros, mhi))
    return total + float(weighted.sum())


def lp_norm_loop(fs, p):
    """`funcrep.lp_norm` of each function, one call at a time."""
    from ddehist.funcrep import lp_norm

    return np.array([lp_norm(f, p) for f in fs])


def sup_norm_loop(fs):
    """`funcrep.sup_norm` of each function, one call at a time."""
    from ddehist.funcrep import sup_norm

    return np.array([sup_norm(f) for f in fs])


def delayed_rhs(problem, bp, coeffs, cuts, u):
    """f(x(t - r)) at the local points u of each cut, shape (cuts, len(u), N),
    as `solver._delayed_rhs` read every cut before whole pieces took the
    cached product: each cut's points mapped into the piece of (bp, coeffs)
    that holds its delayed midpoint, and evaluated there with numpy's
    chebval, one cut at a time."""
    from numpy.polynomial.chebyshev import chebval

    mid = 0.5 * (cuts[:-1] + cuts[1:])
    t = (mid[:, None] + 0.5 * np.diff(cuts)[:, None] * u) - problem.r
    piece = np.searchsorted(bp[1:-1], mid - problem.r, side="right")
    lo, hi = bp[piece][:, None], bp[piece + 1][:, None]
    local = (2.0 * t - (lo + hi)) / (hi - lo)
    vals = np.stack([chebval(x, coeffs[i]).T for x, i in zip(local, piece)])
    return problem.nl.fn(vals.reshape(-1, vals.shape[-1])).reshape(vals.shape)


def reference_solve(problem, T):
    """`solver.solve` as it stepped before whole windows were read in one
    product and the defect was taken in blocks: every step finds each cut's
    piece, gathers its ends and tests each cut for a whole-piece read, and
    takes its own defect.  The solver's results must equal it bit for bit."""
    from ddehist import solver
    from ddehist.funcrep import PiecewiseFunction, _scale_tol, _sealed

    if not T > 0:
        raise ValueError("horizon must be positive")
    r, phi, n = problem.r, problem.phi, solver._NODES_PER_PIECE
    integrate, probe = solver._step_matrices(n)[1:]
    window_bp, window, value = phi.breakpoints, phi.coeffs, phi.endpoint_value
    breakpoints, blocks, defect = [phi.breakpoints], [], 0.0
    edges = solver.step_edges(T, r)
    for t0, t1 in zip(edges[:-1], edges[1:]):
        tol = _scale_tol(phi.breakpoints[0], t1)
        shifted = window_bp + r
        inner = shifted[(shifted > t0 + tol) & (shifted < t1 - tol)]
        cuts = np.concatenate(([t0], inner, [t1]))
        rhs = _reference_delayed_rhs(problem, window_bp, window, cuts, n)
        integ = 0.5 * (cuts[1:] - cuts[:-1])[:, None, None] * (integrate @ rhs[:, :n])
        chain = np.cumsum(np.concatenate((value[None], integ.sum(axis=1))), axis=0)
        integ[:, 0] += chain[:-1]
        value = chain[-1]
        defect = max(defect, float(np.abs(probe @ rhs[:, :n] - rhs[:, n:]).max()))
        breakpoints.append(cuts[1:])
        blocks.append(integ)
        window_bp, window = cuts, integ
    bp = _sealed(np.concatenate(breakpoints))
    coeffs = np.zeros((bp.size - 1, max(phi.degree, n) + 1, phi.n_components))
    coeffs[: phi.n_pieces, : phi.degree + 1] = phi.coeffs
    np.concatenate(blocks, out=coeffs[phi.n_pieces :, : n + 1])
    x = PiecewiseFunction(bp, _sealed(coeffs), value)
    return solver.Trajectory(problem, float(T), x, edges, defect)


def _reference_delayed_rhs(problem, bp, coeffs, cuts, n):
    """`solver._delayed_rhs` before the whole-window read: a piece search,
    the piece ends gathered and a whole-piece test for every cut."""
    from ddehist import solver
    from ddehist.funcrep import _cheb_values, _piece_index, _vandermonde

    delayed, mid = cuts - problem.r, 0.5 * (cuts[:-1] + cuts[1:])
    piece = _piece_index(bp, mid - problem.r)
    lo, hi = bp[piece], bp[piece + 1]
    tol = solver._ULPS * max(1.0, abs(bp[0]), abs(cuts[-1]))
    moved = (np.maximum(np.abs(delayed[:-1] - lo), np.abs(delayed[1:] - hi)) > tol).nonzero()[0]
    vals = _vandermonde(solver._step_nodes, n, coeffs.shape[1] - 1) @ coeffs[piece]
    if moved.size:
        lo, hi, half = lo[moved, None], hi[moved, None], 0.5 * (cuts[moved + 1] - cuts[moved])[:, None]
        t = (mid[moved, None] + half * solver._step_matrices(n)[0]) - problem.r
        vals[moved] = _cheb_values(coeffs[piece[moved]], (2.0 * t - (lo + hi)) / (hi - lo))
    return problem.nl.fn(vals.reshape(-1, vals.shape[-1])).reshape(vals.shape)


def restrict_one(f, lo, hi):
    """(partition, coefficients, endpoint value) of f.restrict(lo, hi), one
    function at a time: its pieces re-expanded on their own, and its value
    at hi read with a Chebyshev row on floats and a product with the piece's
    contiguous block, as `funcrep` cut one function before the sequence cut."""
    from ddehist.funcrep import _cheb_interp_matrix, _cheb_nodes, _cheb_values, _piece_index, _scale_tol

    (a, b), bp = f.domain, f.breakpoints
    tol = _scale_tol(a, b)
    lo, hi = max(float(lo), a), min(float(hi), b)
    partition = np.concatenate(([lo], bp[(bp > lo + tol) & (bp < hi - tol)], [hi]))
    if partition.size == bp.size and (partition == bp).all():
        out = f.coeffs
    else:
        idx = _piece_index(bp, 0.5 * (partition[:-1] + partition[1:]))
        c, d = bp[idx], bp[idx + 1]
        out = f.coeffs[idx]
        moved = ((partition[:-1] != c) | (partition[1:] != d)).nonzero()[0]
        if moved.size:
            n = f.degree + 1
            lo_m, hi_m = partition[:-1][moved, None], partition[1:][moved, None]
            t = 0.5 * (lo_m + hi_m) + 0.5 * (hi_m - lo_m) * _cheb_nodes(n)
            vals = _cheb_values(out[moved], (2.0 * t - (c[moved, None] + d[moved, None])) / (d[moved, None] - c[moved, None]))
            out[moved] = _cheb_interp_matrix(n) @ vals
    if hi == bp[-1]:
        return partition, out, f.endpoint_value
    i = int(_piece_index(bp, hi))
    u = (2.0 * hi - (float(bp[i]) + float(bp[i + 1]))) / (float(bp[i + 1]) - float(bp[i]))
    row, two_u = [1.0, u], 2.0 * u
    while len(row) <= f.degree:
        row.append(row[-1] * two_u - row[-2])
    return partition, out, np.array(row[: f.degree + 1]) @ np.ascontiguousarray(f.coeffs[i])


def operator_norm_loop(op, norm_in, norm_out, span, n_components, probes=12, seed=0, extra=()):
    """`derivops.estimate_operator_norm` as one norm_in and one norm_out call
    per candidate, with the same candidates."""
    from ddehist.corpus import piecewise_constant
    from ddehist.derivops import ZERO_SIZE

    rng = np.random.default_rng(seed)
    candidates = list(extra)
    for _ in range(int(probes)):
        candidates.append(piecewise_constant(rng, span, n_pieces=8, n_components=n_components))
    best = 0.0
    for chi in candidates:
        size = norm_in(chi)
        if size < ZERO_SIZE:
            continue
        best = max(best, norm_out(op(chi)) / size)
    return best


def csv_cell(value) -> str:
    """One CSV cell as `cli.write_csv` printed it before whole tables were
    formatted in one pass: an isinstance chain per cell."""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.17g" % float(value)
    return str(value)


def csv_text(header, rows) -> str:
    """The CSV text of a table, cell by cell through `csv_cell`."""
    lines = [",".join(header)]
    lines.extend(",".join(csv_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"
