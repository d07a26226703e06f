"""Seeded generators for histories, probes, and perturbation directions.

Everything here is driven by a numpy Generator so corpora are reproducible
from a single seed, both in the test suite and in the verification harness.
"""

from __future__ import annotations

import numpy as np

from .funcrep import PiecewiseFunction
from .histspace import HistoryConfig

__all__ = [
    "random_breakpoints",
    "random_piecewise",
    "random_history",
    "piecewise_constant",
    "indicator_history",
    "bump_history",
    "null_set_variant",
]


def random_breakpoints(rng, domain, n_pieces: int) -> np.ndarray:
    a, b = float(domain[0]), float(domain[1])
    if n_pieces == 1:
        return np.array([a, b])
    while True:
        cuts = np.sort(rng.uniform(a, b, n_pieces - 1))
        bp = np.concatenate(([a], cuts, [b]))
        if np.min(np.diff(bp)) > 0.02 * (b - a) / n_pieces:
            return bp


def random_piecewise(
    rng,
    domain,
    n_pieces: int = 3,
    max_degree: int = 3,
    n_components: int = 1,
    scale: float = 1.0,
    continuous: bool = False,
) -> PiecewiseFunction:
    """A random piecewise polynomial, optionally continuous across seams.

    Coefficients are drawn in the global power basis, so expected magnitudes
    stay O(scale) on domains of unit size.  With continuous=True the constant
    term of each piece is adjusted to match the previous piece's end value
    and the endpoint value is the final polynomial limit.
    """
    bp = random_breakpoints(rng, domain, n_pieces)
    pieces = []
    prev_end = None
    for i in range(n_pieces):
        deg = int(rng.integers(0, max_degree + 1))
        block = rng.uniform(-scale, scale, (n_components, deg + 1))
        if continuous and prev_end is not None:
            left = np.polynomial.polynomial.polyval(bp[i], block.T)
            block[:, 0] += prev_end - left
        prev_end = np.polynomial.polynomial.polyval(bp[i + 1], block.T)
        pieces.append(block.tolist())
    if continuous:
        endpoint = prev_end
    else:
        endpoint = rng.uniform(-scale, scale, n_components)
    return PiecewiseFunction.from_power(bp, pieces, endpoint_value=endpoint)


def random_history(
    rng,
    cfg: HistoryConfig,
    n_pieces: int = 3,
    max_degree: int = 3,
    scale: float = 1.0,
    continuous: bool = False,
) -> PiecewiseFunction:
    return random_piecewise(
        rng,
        (-cfg.R, 0.0),
        n_pieces=n_pieces,
        max_degree=max_degree,
        n_components=cfg.N,
        scale=scale,
        continuous=continuous,
    )


def piecewise_constant(
    rng, domain, n_pieces: int = 8, n_components: int = 1, scale: float = 1.0
) -> PiecewiseFunction:
    """A random step function; the probe shape used for operator norm estimates."""
    bp = random_breakpoints(rng, domain, n_pieces)
    values = rng.standard_normal((n_pieces, n_components)) * scale
    return PiecewiseFunction(bp, values[:, None, :], values[-1])


def indicator_history(cfg: HistoryConfig, lo: float, hi: float, height=1.0) -> PiecewiseFunction:
    """Indicator of [lo, hi) intersected with [-R, 0), scaled by height.

    The value at 0 is always 0: the indicator lives in the almost-everywhere
    part of the history only.
    """
    lo = max(float(lo), -cfg.R)
    hi = min(float(hi), 0.0)
    if not lo < hi:
        raise ValueError("indicator support is empty after clipping")
    height_vec = np.full(cfg.N, float(height))
    cuts = [-cfg.R]
    blocks = []
    if lo > -cfg.R:
        cuts.append(lo)
        blocks.append(np.zeros((1, cfg.N)))
    blocks.append(height_vec[None, :])
    if hi < 0.0:
        cuts.append(hi)
        blocks.append(np.zeros((1, cfg.N)))
    cuts.append(0.0)
    bp = np.array(cuts, dtype=float)
    return PiecewiseFunction(bp, blocks, np.zeros(cfg.N))


def bump_history(cfg: HistoryConfig, center: float, halfwidth: float, height=1.0):
    """Indicator bump of total width 2*halfwidth centered at `center`."""
    return indicator_history(cfg, center - halfwidth, center + halfwidth, height)


def null_set_variant(phi: PiecewiseFunction, rng, n_points: int = 3) -> PiecewiseFunction:
    """A representative of the same history with a refined partition.

    The represented function and its value at 0 are unchanged; only the
    breakpoint set differs, which is invisible to every norm.
    """
    a, b = phi.domain
    return phi.refine(rng.uniform(a, b, n_points))
