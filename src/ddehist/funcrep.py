"""Piecewise-polynomial function representatives with a distinguished endpoint.

A function on a closed interval [a, b] is stored as one polynomial per
component on each sub-interval of a breakpoint partition, in a Chebyshev basis
on the piece mapped to [-1, 1], as in Chebfun (Battles & Trefethen, SIAM J.
Sci. Comput. 25(5), 2004).  All pieces share one read-only (n_pieces, deg + 1,
N) coefficient array, zero-padded to the largest degree.  Evaluation,
re-expansion onto a finer partition, sums, stacking and both norms work on
that array for all pieces at once; one batched colleague-matrix root finder
gives sup_norm the critical points of |f| and lp_norm its zeros, so no root
search goes piece by piece.  Pieces are half open [t_i, t_{i+1}):
evaluation at an interior breakpoint uses the piece to its right, and
evaluation at b returns a separately stored endpoint value which may differ
from the polynomial limit.  The stored endpoint is what makes these objects
suitable representatives for seminormed history spaces: integral norms are
computed by quadrature at nodes that are strictly interior to pieces, and on
piecewise polynomials they are exact up to rounding whatever the partition, so
two representatives that agree almost everywhere and share the endpoint value
are indistinguishable to every norm in this module.

Resolution is a property of the program, not a per-call setting: the node
count _NODES_PER_PIECE below is the same for every caller.

All instances are immutable and every operation returns a new value.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import chebyshev as _cheb

__all__ = [
    "DomainError",
    "PiecewiseFunction",
    "LazyComposition",
    "lp_norm",
    "sup_norm",
    "stack",
]


class DomainError(ValueError):
    """Raised when an argument lies outside the domain of a function."""


# Gauss-Legendre nodes per piece for integral norms of compositions (a lower
# bound for piecewise polynomials, which get as many as exactness needs), and
# Chebyshev nodes per cut when the solver and tangent_deviation interpolate an
# integrand.  A rule with n nodes integrates polynomials of degree 2n - 1
# exactly.
_NODES_PER_PIECE = 16


def _scale_tol(a: float, b: float) -> float:
    return 1e-12 * max(1.0, abs(a), abs(b))


@lru_cache(maxsize=None)
def _gauss_rule(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


@lru_cache(maxsize=None)
def _cheb_nodes(n: int):
    # Chebyshev points of the first kind, ascending, strictly inside (-1, 1).
    k = np.arange(n)
    x = -np.cos((2 * k + 1) * np.pi / (2 * n))
    x.flags.writeable = False
    return x


@lru_cache(maxsize=None)
def _cheb_interp_matrix(n: int):
    # Maps values at the n first-kind points to Chebyshev coefficients.
    # Exact (up to rounding) for polynomials of degree < n.
    x = _cheb_nodes(n)
    theta = np.arccos(x)
    j = np.arange(n)
    mat = (2.0 / n) * np.cos(np.outer(j, theta))
    mat[0] *= 0.5
    mat.flags.writeable = False
    return mat


@lru_cache(maxsize=None)
def _cheb_derivative(n: int):
    # Maps n Chebyshev coefficients to the n - 1 of their derivative.
    return _frozen(_cheb.chebder(np.eye(n)))


@lru_cache(maxsize=None)
def _colleague(d: int):
    # numpy's `chebcompanion` template for degree d >= 2: the matrix before
    # the series term enters its last column, and the scl / scl[-1] factor
    # of that term.
    k = np.arange(d - 1)
    mat = np.zeros((d, d))
    mat[k, k + 1] = mat[k + 1, k] = np.where(k == 0, np.sqrt(0.5), 0.5)
    scl = np.where(np.arange(d) == 0, 1.0, np.sqrt(0.5))
    return _frozen(mat), _frozen(scl / scl[-1])


def _frozen(arr: np.ndarray) -> np.ndarray:
    # Read-only float copy; an array that is already read-only float is
    # shared, since no holder can write to it.
    if arr.dtype != float or arr.flags.writeable:
        arr = np.array(arr, dtype=float)
        arr.flags.writeable = False
    return arr


def _padded(parts) -> np.ndarray:
    """Ragged (deg_i + 1, N) blocks, or (n_i, deg_i + 1, N) runs of them, as
    one zero-padded (n, deg + 1, N) array."""
    parts = [np.atleast_2d(np.asarray(c, dtype=float)) for c in parts]
    parts = [c[None] if c.ndim == 2 else c for c in parts]
    n = parts[0].shape[2]
    if any(c.ndim != 3 or c.shape[2] != n for c in parts):
        raise ValueError("all pieces must share a component count")
    out = np.zeros((sum(c.shape[0] for c in parts), max(c.shape[1] for c in parts), n))
    at = 0
    for c in parts:
        out[at : at + c.shape[0], : c.shape[1]] = c
        at += c.shape[0]
    return out


def _piece_index(bp: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The piece of the partition bp holding each t (from the right at an
    interior breakpoint); points beyond an end go to the end piece."""
    return bp[1:-1].searchsorted(t, side="right")


def _cheb_values(coeffs: np.ndarray, u) -> np.ndarray:
    """Chebyshev coefficients (..., deg + 1, N) at local points u of shape
    (..., m): the Chebyshev-Vandermonde matrix of u, built by the recurrence
    T_k = 2u T_(k-1) - T_(k-2), times coeffs; shape (..., m, N)."""
    u = np.asarray(u, dtype=float)
    deg = coeffs.shape[-2] - 1
    vander = np.empty((deg + 1,) + u.shape)
    vander[0] = 1.0
    if deg:
        vander[1] = u
        two_u = 2.0 * u
        for k in range(2, deg + 1):
            vander[k] = vander[k - 1] * two_u - vander[k - 2]
    return vander.transpose(tuple(range(1, vander.ndim)) + (0,)) @ coeffs


@dataclass(frozen=True, eq=False)
class PiecewiseFunction:
    """Vector-valued piecewise polynomial on [breakpoints[0], breakpoints[-1]].

    breakpoints: strictly increasing, at least two entries.
    coeffs: read-only (n_pieces, deg + 1, N) array of Chebyshev coefficients,
        piece i in the local coordinate mapping it onto [-1, 1], zero-padded
        to the largest degree.  A sequence of ragged (deg_i + 1, N) blocks
        or (n_i, deg_i + 1, N) runs of them is accepted and padded.
    endpoint_value: the value returned at the right domain endpoint.
    """

    breakpoints: np.ndarray
    coeffs: np.ndarray
    endpoint_value: np.ndarray

    def __post_init__(self):
        bp = _frozen(np.asarray(self.breakpoints, dtype=float))
        if bp.ndim != 1 or bp.size < 2:
            raise ValueError("need at least two breakpoints")
        if not (bp[1:] > bp[:-1]).all():
            raise ValueError("breakpoints must be strictly increasing")
        coeffs = self.coeffs
        if not (isinstance(coeffs, np.ndarray) and coeffs.ndim == 3):
            coeffs = _padded(coeffs)
        if coeffs.shape[0] != bp.size - 1:
            raise ValueError("piece count does not match breakpoints")
        ev = np.asarray(self.endpoint_value, dtype=float).reshape(-1)
        if ev.size != coeffs.shape[2]:
            raise ValueError("endpoint value has wrong component count")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "coeffs", _frozen(coeffs))
        object.__setattr__(self, "endpoint_value", _frozen(ev))

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_power(cls, breakpoints, pieces, endpoint_value=None):
        """Build from per-piece power-basis coefficients in the global variable.

        pieces: one block per piece; block[j] lists the ascending power
        coefficients of component j as a polynomial in t (not in a local
        variable).  Ragged component degrees are allowed within a block.
        """
        bp = np.asarray(breakpoints, dtype=float)
        blocks = []
        for i, piece in enumerate(pieces):
            rows = [np.atleast_1d(np.asarray(row, dtype=float)) for row in piece]
            deg = max(r.size for r in rows) - 1
            power = np.zeros((deg + 1, len(rows)))
            for j, r in enumerate(rows):
                power[: r.size, j] = r
            c, d = bp[i], bp[i + 1]
            u = _cheb_nodes(deg + 1)
            t = 0.5 * (c + d) + 0.5 * (d - c) * u
            vals = np.polynomial.polynomial.polyval(t, power)  # (N, deg+1)
            blocks.append(_cheb_interp_matrix(deg + 1) @ vals.T)
        if endpoint_value is None:
            endpoint_value = _cheb.chebval(1.0, blocks[-1])
        return cls(bp, blocks, endpoint_value)

    @classmethod
    def constant(cls, values, domain):
        values = np.atleast_1d(np.asarray(values, dtype=float))
        a, b = float(domain[0]), float(domain[1])
        return cls(np.array([a, b]), values[None, None, :], values)

    @classmethod
    def zero(cls, n_components, domain):
        return cls.constant(np.zeros(n_components), domain)

    @classmethod
    def identity(cls, domain):
        return cls.from_power(list(domain), [[[0.0, 1.0]]])

    # -- basic queries -----------------------------------------------------

    @property
    def domain(self):
        return float(self.breakpoints[0]), float(self.breakpoints[-1])

    @property
    def n_pieces(self) -> int:
        return self.coeffs.shape[0]

    @property
    def n_components(self) -> int:
        return self.coeffs.shape[2]

    @property
    def degree(self) -> int:
        return self.coeffs.shape[1] - 1

    def piece_interval(self, i: int):
        return float(self.breakpoints[i]), float(self.breakpoints[i + 1])

    def local_values(self, u) -> np.ndarray:
        """Every piece at local coordinates u in [-1, 1], of shape (m,) for
        the same points on each piece or (n_pieces, m) for points per piece;
        returns (n_pieces, m, N)."""
        return _cheb_values(self.coeffs, u)

    # -- evaluation ---------------------------------------------------------

    def __call__(self, t):
        t_in = np.asarray(t, dtype=float)
        tt = np.atleast_1d(t_in).ravel()
        bp = self.breakpoints
        a, b = bp[0], bp[-1]
        tol = _scale_tol(a, b)
        if (tt < a - tol).any() or (tt > b + tol).any():
            raise DomainError(
                f"evaluation point outside domain [{a}, {b}]"
            )
        tt = np.minimum(np.maximum(tt, a), b)
        idx = _piece_index(bp, tt)
        lo, hi = bp[idx], bp[idx + 1]
        u = (2.0 * tt - (lo + hi)) / (hi - lo)
        out = _cheb_values(self.coeffs[idx], u[:, None])[:, 0]
        out[tt == b] = self.endpoint_value
        return out[0] if t_in.ndim == 0 else out

    # -- structural operations ----------------------------------------------

    def shift(self, dt: float) -> "PiecewiseFunction":
        """Translate the domain by dt.  Piece polynomials are untouched, so
        every norm in this module is preserved exactly up to rounding."""
        return PiecewiseFunction(
            self.breakpoints + float(dt), self.coeffs, self.endpoint_value
        )

    def _pieces_on(self, partition: np.ndarray) -> np.ndarray:
        """Coefficients on the pieces of a partition each of whose pieces
        lies inside one piece of self.  A piece whose interval is unchanged
        is copied; the others are re-expanded at deg + 1 Chebyshev points
        of their interval, all in one product."""
        bp = self.breakpoints
        if partition.size == bp.size and (partition == bp).all():
            return self.coeffs
        lo, hi = partition[:-1], partition[1:]
        idx = _piece_index(bp, 0.5 * (lo + hi))
        c, d = bp[idx], bp[idx + 1]
        out = self.coeffs[idx]
        moved = ((lo != c) | (hi != d)).nonzero()[0]
        if moved.size:
            n = self.degree + 1
            lo, hi, c, d = lo[moved, None], hi[moved, None], c[moved, None], d[moved, None]
            t = 0.5 * (lo + hi) + 0.5 * (hi - lo) * _cheb_nodes(n)
            vals = _cheb_values(out[moved], (2.0 * t - (c + d)) / (d - c))
            out[moved] = _cheb_interp_matrix(n) @ vals
        return out

    def restrict(self, lo: float, hi: float) -> "PiecewiseFunction":
        """Restriction to [lo, hi] within the domain.

        The new endpoint value is the evaluation of self at hi, so a
        restriction ending at an interior breakpoint takes its distinguished
        value from the piece on the right, exactly like pointwise evaluation.
        """
        a, b = self.domain
        lo, hi = float(lo), float(hi)
        tol = _scale_tol(a, b)
        if lo < a - tol or hi > b + tol or not lo < hi:
            raise DomainError("restriction interval must sit inside the domain")
        lo, hi = max(lo, a), min(hi, b)
        inner = self.breakpoints[
            (self.breakpoints > lo + tol) & (self.breakpoints < hi - tol)
        ]
        partition = np.concatenate(([lo], inner, [hi]))
        return PiecewiseFunction(partition, self._pieces_on(partition), self(hi))

    def refine(self, points) -> "PiecewiseFunction":
        """Insert extra breakpoints; the represented function is unchanged."""
        a, b = self.domain
        tol = _scale_tol(a, b)
        pts = np.asarray(points, dtype=float).reshape(-1)
        pts = pts[(pts > a) & (pts < b)]
        # A point within tol of a breakpoint would take its place in the
        # merge and move the function on the sliver between them.
        pts = pts[np.abs(pts[:, None] - self.breakpoints).min(axis=1) > tol]
        partition = _merge_partitions(self.breakpoints, pts, tol)
        return PiecewiseFunction(
            partition, self._pieces_on(partition), self.endpoint_value
        )

    def with_endpoint(self, values) -> "PiecewiseFunction":
        return PiecewiseFunction(self.breakpoints, self.coeffs, values)

    def _snap_domain(self, lo: float, hi: float) -> "PiecewiseFunction":
        # Replace the outermost breakpoints by exact targets (within rounding).
        a, b = self.domain
        tol = 1e-9 * max(1.0, abs(a), abs(b), abs(lo), abs(hi))
        if abs(a - lo) > tol or abs(b - hi) > tol:
            raise DomainError("snap targets too far from the actual domain")
        bp = np.array(self.breakpoints)
        bp[0], bp[-1] = lo, hi
        return PiecewiseFunction(bp, self.coeffs, self.endpoint_value)

    # -- algebra --------------------------------------------------------------

    def _binary(self, other: "PiecewiseFunction", sign: float):
        """self + sign * other on the partition of `_merged_pieces`."""
        if self.n_components != other.n_components:
            raise ValueError("component counts differ")
        partition, (mine, theirs) = _merged_pieces((self, other))
        out = np.zeros((partition.size - 1, max(mine.shape[1], theirs.shape[1]), self.n_components))
        out[:, : mine.shape[1]] = mine
        out[:, : theirs.shape[1]] += sign * theirs
        endpoint = self.endpoint_value + sign * other.endpoint_value
        return PiecewiseFunction(partition, out, endpoint)

    def __add__(self, other):
        return self._binary(other, 1.0)

    def __sub__(self, other):
        return self._binary(other, -1.0)

    def scale(self, factor: float) -> "PiecewiseFunction":
        factor = float(factor)
        return PiecewiseFunction(
            self.breakpoints, factor * self.coeffs, factor * self.endpoint_value
        )

    def __neg__(self):
        return self.scale(-1.0)

    def __mul__(self, factor):
        return self.scale(factor)

    __rmul__ = __mul__

    def __repr__(self):
        a, b = self.domain
        return (
            f"PiecewiseFunction([{a:g}, {b:g}], pieces={self.n_pieces}, "
            f"components={self.n_components}, degree={self.degree})"
        )


def _merge_partitions(a: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    pts = np.sort(np.concatenate((np.asarray(a, float), np.asarray(b, float))))
    keep = [pts[0]]
    for t in pts[1:]:
        if t - keep[-1] > tol:
            keep.append(t)
    return np.array(keep)


def _merged_pieces(functions: Sequence[PiecewiseFunction]):
    """The breakpoints of functions on a common domain merged into one
    partition, with the first function's ends, and each function's
    coefficients on it.  Of two breakpoints within the tolerance the left
    one is kept, so on the sliver between them a function takes the value
    of its piece to the right."""
    lows, highs = zip(*[f.domain for f in functions])
    a, b = lows[0], highs[0]
    tol = _scale_tol(min(lows), max(highs))
    if max(abs(lo - a) for lo in lows) > tol or max(abs(hi - b) for hi in highs) > tol:
        raise DomainError("domains differ")
    partition = functions[0].breakpoints.copy()
    for f in functions[1:]:
        partition = _merge_partitions(partition, f.breakpoints, tol)
    partition[0], partition[-1] = a, b
    return partition, [f._pieces_on(partition) for f in functions]


@dataclass(frozen=True, eq=False)
class LazyComposition:
    """A pointwise map applied to a piecewise function, never interpolated.

    fn maps a (k, base.n_components) batch of values to a (k, n_out) batch.
    Evaluation and quadrature sample the base strictly inside its pieces and
    push the samples through fn, so the composition inherits the base's
    almost-everywhere semantics; the endpoint value is fn(base endpoint).
    """

    base: PiecewiseFunction
    fn: Callable[[np.ndarray], np.ndarray]
    n_out: int

    @property
    def breakpoints(self) -> np.ndarray:
        return self.base.breakpoints

    @property
    def n_pieces(self) -> int:
        return self.base.n_pieces

    def local_values(self, u) -> np.ndarray:
        vals = self.base.local_values(u)
        return self.fn(vals.reshape(-1, vals.shape[-1])).reshape(vals.shape[:-1] + (self.n_out,))

    def __call__(self, t):
        t_in = np.asarray(t, dtype=float)
        if t_in.ndim == 0:
            return self.fn(np.atleast_2d(self.base(t_in)))[0]
        return self.fn(self.base(t_in))


def lp_norm(
    f: PiecewiseFunction | LazyComposition | Sequence[PiecewiseFunction], p: float
) -> float | np.ndarray:
    """The L^p norm of |f| (Euclidean norm across components) over the domain:
    a float for one function, an array for a sequence of PiecewiseFunctions
    of one component count, all measured in one `_power_integrals` pass.

    For a PiecewiseFunction the integral of |f|^p is exact up to rounding,
    or a RuntimeWarning says by how much it may be off: see
    `_power_integrals` (one |f|^p evaluation per bisection level).  It
    depends only on the represented function, so refining a partition
    leaves the norm unchanged to rounding.

    For a LazyComposition the rule is composite Gauss-Legendre with
    _NODES_PER_PIECE = 16 nodes per piece of the base, applied without
    materializing the composition.  That rule is exact for polynomial
    integrands of degree below 32 and otherwise carries a
    quadrature error that is neither bounded nor reported here; in
    particular it is not invariant under refinement when |f| has kinks
    inside a piece.

    Nodes are strictly interior in both cases, so neither stored endpoint
    values nor breakpoint conventions influence the result.
    """
    p = float(p)
    if not p >= 1.0:
        raise ValueError("p must be at least 1")
    if isinstance(f, LazyComposition):
        u, w = _gauss_rule(_NODES_PER_PIECE)
        radii = np.linalg.norm(f.local_values(u), axis=-1)
        return float(0.5 * np.diff(f.breakpoints) @ (radii**p @ w)) ** (1.0 / p)
    single = isinstance(f, PiecewiseFunction)
    norms = _power_integrals([f] if single else f, p) ** (1.0 / p)
    return float(norms[0]) if single else norms


# Real zeros of a piece closer than this (in local coordinates) are merged
# into one zero of higher multiplicity; roots with a smaller imaginary part
# count as real.  Double roots come out of the colleague matrix with a
# spread of about sqrt(machine epsilon).
_ROOT_TOL = 1e-6
# Zeros this close to an end of the piece (in local coordinates) lie on it
# up to rounding.  Moving a zero at distance d onto the end moves the
# integral by about d times the coefficient scale.
_END_TOL = 1e-12
# Complex zeros this close to the real axis put a sharp bend into |f|^p;
# pieces are also split around them.
_NEAR_TOL = 1e-2
# Pieces on which |f| certainly stays above this fraction of the piece's
# coefficient scale are not searched for zeros: any bend |f|^p has there is
# wide enough for the bisection test to see.
_ZERO_FREE_MARGIN = 0.1
# Bisection rounds before the estimate is returned with a warning.
_JACOBI_MAX_ROUNDS = 40
# |f|^p is evaluated in row blocks whose Chebyshev-Vandermonde array holds at
# most this many doubles, which bounds the memory of a batch of many pieces.
_BLOCK_DOUBLES = 2**16


@lru_cache(maxsize=None)
def _jacobi_rule(n: int, a: float, b: float):
    """Gauss-Jacobi rule for the weight (1 - x)^a (1 + x)^b on [-1, 1].

    Golub-Welsch: the nodes are the eigenvalues of the symmetric tridiagonal
    matrix of the monic Jacobi recurrence, the weights the squared first
    eigenvector components times the weight's total mass.
    """
    if a == 0.0 and b == 0.0:
        return _gauss_rule(n)
    k = np.arange(n, dtype=float)
    s = 2.0 * k + a + b
    diag = (b * b - a * a) / (s * (s + 2.0))
    k = k[1:]
    s = s[1:]
    off = np.sqrt(4.0 * k * (k + a) * (k + b) * (k + a + b) / (s * s * (s + 1.0) * (s - 1.0)))
    nodes, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    mass = math.exp(
        (a + b + 1.0) * math.log(2.0)
        + math.lgamma(a + 1.0) + math.lgamma(b + 1.0) - math.lgamma(a + b + 2.0)
    )
    weights = mass * vecs[0] ** 2
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


@lru_cache(maxsize=None)
def _split_rule(sizes: tuple, a: float, b: float):
    """`_jacobi_rule` for each n in sizes, nodes concatenated and weights
    divided by the weight (1 - x)^a (1 + x)^b, for integrands without it."""
    x = np.concatenate([_jacobi_rule(n, a, b)[0] for n in sizes])
    w = np.concatenate([_jacobi_rule(n, a, b)[1] for n in sizes])
    return _frozen(x), _frozen(w / ((1.0 - x) ** a * (1.0 + x) ** b))


def _modulus_series(coeffs: np.ndarray):
    """Per piece of a padded block, a Chebyshev series with the zeros and the
    other critical points of |f|: the component when N = 1, else sum_j f_j^2
    (exact at 2 deg + 1 points).  Returns (series, roots per zero of |f|)."""
    if coeffs.shape[2] == 1:
        return coeffs[:, :, 0], 1
    m = 2 * coeffs.shape[1] - 1
    vals = _cheb_values(coeffs, _cheb_nodes(m))
    # One product per piece: in one BLAS call a row's result can depend on
    # how many rows share it.
    return (np.einsum("snj,snj->sn", vals, vals)[:, None] @ _cheb_interp_matrix(m).T)[:, 0], 2


def _cheb_roots(series: np.ndarray) -> dict:
    """{row: sorted roots} for the rows of a (m, deg + 1) stack of Chebyshev
    series, as eigenvalues of numpy's colleague matrix, with one `eigvals`
    call per degree.  Each row is first cut after its last coefficient above
    1e-14 of the row's absolute sum; rows then of degree 0 are left out."""
    mag = np.abs(series)
    degs = ((mag > 1e-14 * mag.sum(axis=1, keepdims=True)) * np.arange(series.shape[1])).max(axis=1)
    roots = {}
    for d in sorted(set(degs.tolist()) - {0}):
        rows = np.flatnonzero(degs == d)
        c = series[rows, : d + 1]
        if d == 1:
            found = -c[:, :1] / c[:, 1:]
        else:
            template, ratio = _colleague(d)
            mat = np.repeat(template[None], rows.size, axis=0)
            mat[:, :, -1] -= (c[:, :-1] / c[:, -1:]) * ratio * 0.5
            found = np.sort(np.linalg.eigvals(mat[:, ::-1, ::-1]), axis=1)
        roots.update(zip(rows.tolist(), found))
    return roots


def _zeros_of_modulus(roots: np.ndarray, per_zero: int):
    """Zeros of |f| on one piece from the roots of its modulus series (see
    `_modulus_series`): (locations, multiplicities), sorted.

    Real roots within _ROOT_TOL of each other are merged, those within
    _END_TOL of an end are snapped onto it, and those outside the piece are
    dropped: |f| does not vanish on the piece there, and the bend such a
    zero puts near the end is left to the zero-free margin and the
    bisection.  Each complex root x + iy with y within _NEAR_TOL of the axis
    adds the points x - y, x, x + y with multiplicity 0: |f| does not vanish
    there but bends sharply over a width of about y.
    """
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


def _modulus_intervals(coeffs: np.ndarray):
    """Split every piece at the zeros of |f| (see `_zeros_of_modulus`).

    coeffs: padded (n_pieces, deg + 1, N) block.  Returns arrays (piece, lo,
    hi, lo_mult, hi_mult) of sub-intervals in local coordinates, where the
    multiplicities are those of the zeros of |f| at each end (0 if none).
    A piece is not searched when the constant Chebyshev coefficient of some
    component exceeds the sum of its other |c_k| >= |sum_k c_k T_k| by
    _ZERO_FREE_MARGIN times the piece's coefficient scale.
    """
    lead = np.abs(coeffs[:, 0, :]) - np.abs(coeffs[:, 1:, :]).sum(axis=1)
    scale = np.abs(coeffs).sum(axis=(1, 2))
    free = np.any(lead > _ZERO_FREE_MARGIN * scale[:, None], axis=1)
    if free.all():
        ones, none = np.ones(free.size), np.zeros(free.size, dtype=int)
        return np.arange(free.size), -ones, ones, none, none
    searched = np.flatnonzero(~free)
    series, per_zero = _modulus_series(coeffs[searched])
    found = {int(searched[j]): roots for j, roots in _cheb_roots(series).items()}
    rows = [(i, -1.0, 1.0, 0, 0) for i in range(free.size) if i not in found]
    for i, roots in found.items():
        cuts = [[-1.0, 0], [1.0, 0]]
        for x, m in zip(*_zeros_of_modulus(roots, per_zero)):
            if abs(x) == 1.0:
                end = cuts[0 if x < 0 else -1]
                end[1] = max(end[1], int(m))
            else:
                cuts.insert(-1, [float(x), int(m)])
        for (lo, mlo), (hi, mhi) in zip(cuts[:-1], cuts[1:]):
            rows.append((i, lo, hi, mlo, mhi))
    rows.sort(key=lambda row: row[0])  # stable: each piece keeps its order
    return tuple(np.array(col) for col in zip(*rows))


def _power_values(coeffs, piece, lo, hi, x, p):
    """|f|^p at the points x, shared (m,) or per row, mapped onto local
    sub-intervals [lo, hi] of the listed pieces; shape (len(piece), m)."""
    u = (0.5 * (hi + lo))[:, None] + (0.5 * (hi - lo))[:, None] * x
    vals = _cheb_values(coeffs[piece], u)
    return np.einsum("snj,snj->sn", vals, vals) ** (0.5 * p)


def _jacobi_integrals(coeffs, piece, lo, hi, mlo, mhi, p, sizes):
    """Gauss-Jacobi integrals of |f|^p over local sub-intervals [lo, hi]
    whose ends are zeros of |f| of the given multiplicities, one row per
    rule size: the weight carries the endpoint behaviour |x -/+ 1|^(p m),
    the rule the rest.  |f|^p is evaluated once, at every size's nodes, in
    blocks of rows of at most _BLOCK_DOUBLES Vandermonde entries each."""
    base = int(mhi.max()) + 1
    keys, group = np.unique(mlo * base + mhi, return_inverse=True)
    rules = [_split_rule(sizes, p * (k % base), p * (k // base)) for k in keys.tolist()]
    x, w = (np.stack(arrays) for arrays in zip(*rules))
    terms = np.empty((piece.size, x.shape[1]))
    rows = max(1, _BLOCK_DOUBLES // (coeffs.shape[1] * x.shape[1]))
    for at in range(0, piece.size, rows):
        s, g = slice(at, at + rows), group[at : at + rows]
        terms[s] = _power_values(coeffs, piece[s], lo[s], hi[s], x[g], p) * w[g]
    sums = [part.sum(axis=1) for part in np.split(terms, np.cumsum(sizes)[:-1], axis=1)]
    return 0.5 * (hi - lo) * np.array(sums)


def _degree_groups(fs: Sequence[PiecewiseFunction]):
    """The pieces of fs, one group per degree: for each degree, the (pieces,
    deg + 1, N) coefficients of the functions of that degree, the index in
    fs of each piece's function and each piece's half-width.  A function's
    norm is measured within its group, so it gets the same bits in a batch
    as alone: padding to a larger degree would move it by rounding."""
    degrees = np.array([f.degree for f in fs])
    for d in np.unique(degrees):
        at = np.flatnonzero(degrees == d)
        coeffs = np.concatenate([fs[i].coeffs for i in at])
        owner = np.repeat(at, [fs[i].n_pieces for i in at])
        yield coeffs, owner, np.concatenate([0.5 * np.diff(fs[i].breakpoints) for i in at])


def _power_integrals(fs: Sequence[PiecewiseFunction], p: float) -> np.ndarray:
    """The integral of |f|^p over the domain of each f in fs, exact up to
    rounding, over the pieces of all functions of one degree at once
    (`_degree_groups`).

    When p is an even integer, |f|^p = (sum_j f_j^2)^(p/2) is a polynomial
    on each piece and Gauss-Legendre with enough nodes integrates it
    exactly.  Otherwise each piece is split at the real zeros of |f|, found
    from the colleague matrix (`_cheb_roots`), and around complex zeros close
    to the real axis.  A Gauss-Jacobi rule whose weight carries the
    |x -/+ 1|^(p m) behaviour at the zeros handles the rest.  When p is an
    integer and N = 1 the rest is a polynomial, which n nodes integrate
    exactly.  Otherwise sub-intervals on which n and 2n nodes disagree
    beyond rounding are bisected; if some still disagree after
    _JACOBI_MAX_ROUNDS rounds, the estimates are returned with one
    RuntimeWarning that states their disagreement.  Each level of the
    bisection evaluates |f|^p once, at both rule sizes (`_split_rule`).
    The test's rounding floor is 1e-16 of each function's own integral.
    """
    total = np.zeros(len(fs))
    # The owners and errors of the sub-intervals that still disagree.
    stuck, stuck_error = [np.zeros(0, dtype=int)], 0.0
    for coeffs, owner, scale in _degree_groups(fs):
        n = max(_NODES_PER_PIECE, math.ceil((p * (coeffs.shape[1] - 1) + 1.0) / 2.0))
        even, none = p % 2.0 == 0.0, np.zeros(owner.size, dtype=int)
        whole = np.arange(owner.size), none - 1.0, none + 1.0, none, none
        piece, lo, hi, mlo, mhi = whole if even else _modulus_intervals(coeffs)
        if even or (p == round(p) and coeffs.shape[2] == 1):
            # The rest is a polynomial of degree at most p * deg: n nodes are
            # exact and there is nothing to check.
            rest = _jacobi_integrals(coeffs, piece, lo, hi, mlo, mhi, p, (n,))[0]
            total += np.bincount(owner[piece], weights=scale[piece] * rest, minlength=len(fs))
            continue
        for level in range(_JACOBI_MAX_ROUNDS + 1):
            coarse, fine = _jacobi_integrals(coeffs, piece, lo, hi, mlo, mhi, p, (n, 2 * n))
            weighted = scale[piece] * fine
            if level == 0:
                floor = 1e-16 * np.bincount(owner[piece], weights=weighted, minlength=len(fs))
            error = scale[piece] * np.abs(fine - coarse)
            done = error <= 1e-14 * weighted + floor[owner[piece]]
            if done.all() or level == _JACOBI_MAX_ROUNDS:
                break
            total += np.bincount(owner[piece[done]], weights=weighted[done], minlength=len(fs))
            piece, lo, hi, mlo, mhi = (arr[~done] for arr in (piece, lo, hi, mlo, mhi))
            mid = 0.5 * (lo + hi)
            zeros = np.zeros_like(mlo)
            piece = np.concatenate((piece, piece))
            lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
            mlo, mhi = np.concatenate((mlo, zeros)), np.concatenate((zeros, mhi))
        total += np.bincount(owner[piece], weights=weighted, minlength=len(fs))
        stuck.append(owner[piece[~done]])
        stuck_error += error[~done].sum()
    stuck = np.concatenate(stuck)
    if stuck.size:
        short = np.unique(stuck)
        warnings.warn(
            f"integral of |f|^{p:g}: {stuck.size} sub-intervals of {short.size} "
            f"function(s) still disagree after {_JACOBI_MAX_ROUNDS} rounds of bisection, by "
            f"{stuck_error:.3e} in total against integrals of {total[short].sum():.6e}",
            RuntimeWarning,
            stacklevel=3,
        )
    return total


def sup_norm(f: PiecewiseFunction | Sequence[PiecewiseFunction]) -> float | np.ndarray:
    """Supremum of |f|, exact up to rounding: a float for one function, an
    array for a sequence of them, with the same bits as one at a time.

    It is the maximum over both ends of every piece, the stored endpoint
    value and the critical points of |f|, the roots of the derivative of
    `_modulus_series`, as Chebfun finds a maximum.  Each root counts at its
    real part clipped onto [-1, 1]: an extra point cannot raise the maximum
    above the supremum, so the near-real roots a multiple critical point
    splits into are kept.  Pieces whose bound sqrt(sum_j (sum_k |c_kj|)^2)
    >= |f| is at most their function's best end value are skipped.  The
    search runs over all pieces of one degree at once (`_degree_groups`).
    Meaningful for continuous representatives.
    """
    single = isinstance(f, PiecewiseFunction)
    fs = [f] if single else f
    best = np.array([np.linalg.norm(g.endpoint_value) for g in fs])
    for coeffs, owner, _ in _degree_groups(fs):
        ends = np.linalg.norm(_cheb_values(coeffs, np.array([-1.0, 1.0])), axis=-1)
        np.maximum.at(best, owner, ends.max(axis=1))
        searched = np.flatnonzero(np.linalg.norm(np.abs(coeffs).sum(axis=1), axis=1) > best[owner])
        series, _ = _modulus_series(coeffs[searched])
        roots = _cheb_roots((series[:, None] @ _cheb_derivative(series.shape[1]).T)[:, 0])
        piece = np.repeat(searched[list(roots)], [r.size for r in roots.values()])
        u = np.clip(np.concatenate([np.empty(0), *roots.values()]).real, -1.0, 1.0)
        # Clenshaw's recurrence works elementwise, so a point gets the same
        # bits however many share the call; a stacked matrix product may
        # send one row to BLAS and several to another loop.
        vals = _cheb.chebval(u[:, None], np.moveaxis(coeffs[piece], 1, 0), tensor=False)
        np.maximum.at(best, owner[piece], np.linalg.norm(vals, axis=-1))
    return float(best[0]) if single else best


def stack(functions: Sequence[PiecewiseFunction]) -> PiecewiseFunction:
    """Concatenate components of several functions on the partition of
    `_merged_pieces`."""
    if not functions:
        raise ValueError("need at least one function")
    partition, per_fn = _merged_pieces(functions)
    deg = max(c.shape[1] for c in per_fn)
    blocks = np.concatenate(
        [np.pad(c, ((0, 0), (0, deg - c.shape[1]), (0, 0))) for c in per_fn], axis=2
    )
    endpoint = np.concatenate([g.endpoint_value for g in functions])
    return PiecewiseFunction(partition, blocks, endpoint)
