"""Composition operators sending g to f(g(.)) between Lebesgue spaces.

On a finite interval, a pointwise map f of polynomial growth order alpha
carries L^(alpha q) into L^q; with a Jacobian of growth order alpha it does
so differentiably from L^((alpha+1) q), the derivative at g acting as
multiplication by Df(g(.)).  One context holds both source exponents.
Images stay lazy: norms and gaps are integrated through the composed map
without materializing it.  Both probes run along a
`derivops.halving_schedule`, sized in their source exponent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certify import GapTable, RemainderTable
from .derivops import estimate_operator_norm, halving_schedule, jacobian_gap, map_gap
from .funcrep import LazyComposition, PiecewiseFunction, _scale_tol, lp_norm, stack
from .nonlinear import Nonlinearity, spectral_norm

__all__ = [
    "CompositionContext",
    "CompositionReport",
    "DerivativeReport",
    "MeasureDomain",
    "apply_derivative",
    "compose",
    "continuity_probe",
    "curvature_image_bound",
    "derivative_gap",
    "smoothness_probe",
]


@dataclass(frozen=True)
class MeasureDomain:
    """A finite interval carrying Lebesgue measure."""

    lower: float
    upper: float

    def __post_init__(self):
        if not self.upper > self.lower:
            raise ValueError("domain must have positive length")

    @property
    def measure(self) -> float:
        return self.upper - self.lower


@dataclass(frozen=True, eq=False)
class CompositionContext:
    """Exponent bookkeeping for one composition operator into L^q.

    The source exponent of continuity is alpha * q with alpha the growth
    order of f itself; that of smoothness is (alpha + 1) * q with alpha the
    growth order of the Jacobian, which is exactly what makes the
    derivative a bounded multiplier into L^q.
    """

    nl: Nonlinearity
    q: float
    domain: MeasureDomain

    def __post_init__(self):
        if self.q < 1.0:
            raise ValueError("target exponent q must be at least 1")
        if self.nl.f_growth is None:
            raise ValueError("nonlinearity does not certify growth of f")

    @property
    def continuity_p(self) -> float:
        return self.nl.f_growth.alpha * self.q

    @property
    def smoothness_p(self) -> float:
        if self.nl.jac is None or self.nl.df_growth is None:
            raise ValueError("smoothness needs a jacobian with certified growth")
        return (self.nl.df_growth.alpha + 1.0) * self.q

    def _accept(self, g: PiecewiseFunction, label: str = "argument") -> None:
        if g.n_components != self.nl.dim:
            raise ValueError(f"{label} has wrong component count")
        a, b = g.domain
        tol = _scale_tol(self.domain.lower, self.domain.upper)
        if abs(a - self.domain.lower) > tol or abs(b - self.domain.upper) > tol:
            raise ValueError(f"{label} does not live on the context domain")


@dataclass(frozen=True, eq=False)
class CompositionReport:
    """A composed image with its measured size and the growth-based bound.

    bound_power dominates the q-th power of the norm; the comparison comes
    from splitting f pointwise into the large-argument power term and the
    constant term.
    """

    image: LazyComposition
    norm: float
    bound_power: float
    q: float


@dataclass(frozen=True, eq=False)
class DerivativeReport:
    """The multiplier image Df(g(.)) h(.) with its size and gain bound."""

    image: LazyComposition
    norm: float
    gain_bound: float
    direction_size: float


def compose(ctx: CompositionContext, g: PiecewiseFunction) -> CompositionReport:
    """The image f(g(.)), its L^q size, and the well-definedness bound."""
    ctx._accept(g)
    image = LazyComposition(g, ctx.nl.fn, ctx.nl.dim)
    norm = lp_norm(image, ctx.q)
    growth = ctx.nl.f_growth
    power = growth.alpha * ctx.q
    big = growth.c1**ctx.q * lp_norm(g, power) ** power
    small = growth.c2**ctx.q * ctx.domain.measure
    bound_power = 2.0 ** (ctx.q - 1.0) * (big + small)
    return CompositionReport(image, norm, bound_power, ctx.q)


def continuity_probe(
    ctx: CompositionContext,
    g: PiecewiseFunction,
    direction: PiecewiseFunction,
    count: int,
) -> GapTable:
    """Output gaps of the composition along g + direction/2^k.

    Input gaps are 2^-k times the size of the direction in the source
    exponent p (every L^p norm is homogeneous), output gaps are measured in
    the target exponent q; continuity is certified by decay of the outputs.
    """
    ctx._accept(g)
    ctx._accept(direction, "direction")
    g, _, steps, sizes = halving_schedule(g, direction, count, lambda h: lp_norm(h, ctx.continuity_p))
    return GapTable(sizes, np.array([lp_norm(map_gap(ctx.nl.fn, g, step), ctx.q) for step in steps]))


def apply_derivative(
    ctx: CompositionContext,
    g: PiecewiseFunction,
    h: PiecewiseFunction,
) -> DerivativeReport:
    """The derivative image Df(g(.)) h(.) with the multiplier gain bound."""
    p = ctx.smoothness_p
    ctx._accept(g)
    ctx._accept(h, "direction")
    m = ctx.nl.dim
    jac = ctx.nl.jac

    def multiplier(values):
        return np.einsum("kij,kj->ki", jac(values[:, :m]), values[:, m:])

    image = LazyComposition(stack((g, h)), multiplier, m)
    norm = lp_norm(image, ctx.q)
    gains = LazyComposition(g, lambda v: spectral_norm(jac(v))[:, None], 1)
    gain_bound = lp_norm(gains, p / ctx.nl.df_growth.alpha)
    return DerivativeReport(image, norm, gain_bound, lp_norm(h, p))


def smoothness_probe(
    ctx: CompositionContext,
    g: PiecewiseFunction,
    direction: PiecewiseFunction,
    count: int,
) -> RemainderTable:
    """Linearization remainders of the composition along a halving schedule."""
    ctx._accept(g)
    ctx._accept(direction, "direction")
    g, _, steps, sizes = halving_schedule(g, direction, count, lambda h: lp_norm(h, ctx.smoothness_p))
    m = ctx.nl.dim
    fn, jac = ctx.nl.fn, ctx.nl.jac

    def remainder_map(values):
        base, step = values[:, :m], values[:, m:]
        linear_part = np.einsum("kij,kj->ki", jac(base), step)
        return fn(base + step) - fn(base) - linear_part

    remainders = [LazyComposition(stack((g, step)), remainder_map, m) for step in steps]
    return RemainderTable(sizes, np.array([lp_norm(rem, ctx.q) for rem in remainders]))


def curvature_image_bound(ctx: CompositionContext, h: PiecewiseFunction) -> float:
    """Taylor bound for the composition remainder when Df is Lipschitz.

    Pointwise the remainder is at most half the Lipschitz constant times
    the squared perturbation, so its L^q size is controlled through the
    doubled exponent 2q.
    """
    lip = ctx.nl.df_lipschitz
    if lip is None:
        raise ValueError("nonlinearity does not certify a jacobian Lipschitz constant")
    return 0.5 * lip * lp_norm(h, 2.0 * ctx.q) ** 2


def derivative_gap(
    ctx: CompositionContext,
    g: PiecewiseFunction,
    g0: PiecewiseFunction,
    probes: int = 12,
    seed: int = 0,
    extra=(),
) -> tuple:
    """Distance between the derivative multipliers at two base points.

    Returns (probed, bound): the operator gap probed on step-function
    directions, and the analytic bound it must stay below, the L^(p/alpha)
    size of the Jacobian gap along the two base points.
    """
    p = ctx.smoothness_p
    ctx._accept(g)
    ctx._accept(g0, "base point")
    m = ctx.nl.dim
    jac = ctx.nl.jac
    bound = lp_norm(jacobian_gap(jac, g, g0), p / ctx.nl.df_growth.alpha)

    def gap_image(h):
        def multiplier(values):
            mats = jac(values[:, :m]) - jac(values[:, m : 2 * m])
            return np.einsum("kij,kj->ki", mats, values[:, 2 * m :])

        return LazyComposition(stack((g, g0, h)), multiplier, m)

    probed = estimate_operator_norm(
        gap_image,
        norm_in=lambda h: lp_norm(h, p),
        norm_out=lambda images: np.array([lp_norm(image, ctx.q) for image in images]),
        span=(ctx.domain.lower, ctx.domain.upper),
        n_components=m,
        probes=probes,
        seed=seed,
        extra=extra,
    )
    return probed, bound
