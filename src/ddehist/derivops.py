"""Derivative operators for the dependence of trajectories on their histories.

For a C¹ right-hand side, the first-order response y to a history
perturbation chi solves y' = Df(x(t - r)) y(t - r) with y = chi on [-R, 0],
so (x, y) solves the delay equation of `nonlinear.tangent_system` from the
history (phi, chi): one `solve`, at any horizon.  y splits into the static
prolongation of chi and a deviation that vanishes on the history; within
one delay the deviation is

    t  |->  integral over [0, t] of  Df(phi(s - r)) chi(s - r) ds,

which this module bounds through the Hoelder inequality.  It also certifies
that what remains after subtracting the first-order response shrinks faster
than the perturbation, along halving schedules: every one of the package
is made by `halving_schedule`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .certify import RemainderTable, halving
from .corpus import piecewise_constant
from .funcrep import LazyComposition, PiecewiseFunction, aligned, lp_norm, stack, sup_norm
from .histspace import HistoryConfig, prolongation_deviation
from .nonlinear import holder_conjugate, spectral_norm, tangent_system
from .solver import Problem, solve

__all__ = [
    "ZERO_SIZE",
    "DerivativeContext",
    "curvature_remainder_bound",
    "derivative_gap",
    "direction_size",
    "estimate_operator_norm",
    "halving_schedule",
    "halving_solves",
    "jacobian_gap",
    "map_gap",
    "remainder_function",
    "remainder_schedule",
    "tangent_deviation",
    "tangent_deviation_bound",
    "tangent_trajectory",
]

ZERO_SIZE = 1e-13  # a direction or probe smaller than this in its norm counts as zero


@dataclass(frozen=True, eq=False)
class DerivativeContext:
    """A problem together with the exponents used for differentiation.

    horizon is the linearization window; the one-step bounds check that it
    is at most one delay.  The exponent p of the problem's history space
    must dominate alpha + 1, where alpha is the certified growth order of
    the Jacobian.  q, the Hoelder conjugate of alpha + 1, is where Df along
    the base history must be integrable for the integral part to be bounded.
    """

    problem: Problem
    horizon: float

    def __post_init__(self):
        nl = self.problem.nl
        if nl.jac is None:
            raise ValueError("nonlinearity does not provide a jacobian")
        if nl.df_growth is None:
            raise ValueError("nonlinearity does not certify jacobian growth")
        if not self.horizon > 0.0:
            raise ValueError("horizon must be positive")
        if self.problem.cfg.p < self.alpha + 1.0 - 1e-12:
            raise ValueError("exponent p must be at least alpha + 1")

    @property
    def alpha(self) -> float:
        return self.problem.nl.df_growth.alpha

    @property
    def q(self) -> float:
        return holder_conjugate(self.alpha + 1.0)

    def require_one_step(self, bound: str) -> None:
        """Raise unless horizon <= r, where the one-step bound named `bound` holds."""
        r = self.problem.r
        if self.horizon > r + 1e-12 * max(1.0, r):
            raise ValueError(f"{bound} is a one-step bound: horizon must lie in (0, r]")


def _doubled_solve(ctx: DerivativeContext, chi: PiecewiseFunction) -> tuple:
    # The (x, y) blocks of one solve of tangent_system from (phi, chi) on
    # [-R, horizon]: the base trajectory and the response, on one partition.
    pb, n = ctx.problem, ctx.problem.cfg.N
    cfg = HistoryConfig(pb.cfg.R, pb.cfg.p, 2 * n)
    history = stack((pb.phi, chi))
    z = solve(Problem(cfg, tangent_system(pb.nl), pb.r, history), ctx.horizon).x
    x = PiecewiseFunction(z.breakpoints, z.coeffs[:, :, :n], z.endpoint_value[:n])
    return x, PiecewiseFunction(z.breakpoints, z.coeffs[:, :, n:], z.endpoint_value[n:])


def tangent_trajectory(ctx: DerivativeContext, chi: PiecewiseFunction) -> PiecewiseFunction:
    """The first-order response to chi on [-R, horizon]."""
    return _doubled_solve(ctx, chi)[1]


def tangent_deviation(ctx: DerivativeContext, chi: PiecewiseFunction) -> PiecewiseFunction:
    """The first-order response y less the static prolongation of chi on
    y's partition (`prolongation_deviation`): zero on the history, then
    y - chi(0).  Linear in chi."""
    return prolongation_deviation(_doubled_solve(ctx, chi)[1], chi)


def tangent_deviation_bound(ctx: DerivativeContext) -> float:
    """Analytic gain bound for the integral part: the L^q size of Df along phi.

    By Hoelder, the integral part is dominated in sup norm by this number
    times the L^(alpha+1) size of the direction.
    """
    ctx.require_one_step("tangent_deviation_bound")
    pb = ctx.problem
    jac = pb.nl.jacobian
    gains = LazyComposition(pb.phi, lambda v: spectral_norm(jac(v))[:, None], 1)
    return lp_norm(gains, ctx.q)


def estimate_operator_norm(
    op,
    norm_in,
    norm_out,
    span,
    n_components: int,
    probes: int = 12,
    seed: int = 0,
    extra=(),
) -> float:
    """Empirical lower bound for an operator norm via seeded step-function probes.

    Probes are random piecewise-constant functions on span with n_components
    components (dense enough in every L^p and integrated exactly by the
    quadrature), plus any caller-supplied directions in extra.  On the span
    (-R, 0) each probe is a history.  norm_in and norm_out map a list to an
    array of norms: one call measures every candidate, one their images.
    """
    rng = np.random.default_rng(seed)
    candidates = list(extra)
    for _ in range(int(probes)):
        candidates.append(piecewise_constant(rng, span, n_pieces=8, n_components=n_components))
    sizes = np.asarray(norm_in(candidates), dtype=float)
    kept = [i for i, size in enumerate(sizes.tolist()) if not size < ZERO_SIZE]
    best = 0.0
    for ratio in (norm_out([op(candidates[i]) for i in kept]) / sizes[kept]).tolist():
        best = max(best, ratio)
    return best


def jacobian_gap(jac, a: PiecewiseFunction, b: PiecewiseFunction) -> LazyComposition:
    """The spectral norm of Df(a(.)) - Df(b(.)), integrated without materializing."""
    n = a.n_components
    return LazyComposition(
        stack((a, b)), lambda v: spectral_norm(jac(v[:, :n]) - jac(v[:, n:]))[:, None], 1
    )


def map_gap(fn, base: PiecewiseFunction, step: PiecewiseFunction) -> LazyComposition:
    """The gap f(base(.) + step(.)) - f(base(.)) of a map f from R^N to R^N,
    integrated without materializing it or the moved function."""
    n = base.n_components
    return LazyComposition(stack((base, step)), lambda v: fn(v[:, :n] + v[:, n:]) - fn(v[:, :n]), n)


def direction_size(direction: PiecewiseFunction, norm) -> float:
    """norm(direction): the zero-direction rule of every schedule and of
    every config that sets a direction, a ValueError below ZERO_SIZE."""
    size = norm(direction)
    if size < ZERO_SIZE:
        raise ValueError("direction must be nonzero")
    return size


def halving_schedule(base: PiecewiseFunction, direction: PiecewiseFunction, count: int, norm) -> tuple:
    """The schedule base + 2^-k direction, k = 0..count: (base, factors 2^-k,
    steps 2^-k direction, input sizes), base and steps on one partition
    (`aligned`) so that base + step skips the merge.  Every norm is
    homogeneous: the direction is measured once, and no step is."""
    factors = halving(count)
    size = direction_size(direction, norm)
    base, direction = aligned((base, direction))
    return base, factors, [direction.scale(f) for f in factors], factors * size


def halving_solves(pb: Problem, chi: PiecewiseFunction, horizon: float, count: int, norm) -> tuple:
    """The trajectory gaps behind every dependence table: the input sizes of
    the `halving_schedule` pb.phi + f chi under norm, and one (f, f chi,
    x(f) - x(0)) row per f, where x(f) is the solve on [-R, horizon] from
    pb.phi + f chi.  x(0) is solved on the schedule's partition, so each
    gap is a coefficient difference."""
    phi, factors, steps, sizes = halving_schedule(pb.phi, chi, count, norm)
    base = solve(replace(pb, phi=phi), horizon).x
    return sizes, [(f, step, solve(replace(pb, phi=phi + step), horizon).x - base) for f, step in zip(factors, steps)]


def remainder_function(ctx: DerivativeContext, chi: PiecewiseFunction) -> PiecewiseFunction:
    """Perturbed trajectory minus base trajectory minus first-order response."""
    base, tangent = _doubled_solve(ctx, chi)
    moved = solve(replace(ctx.problem, phi=ctx.problem.phi + chi), ctx.horizon).x
    return moved - base - tangent


def remainder_schedule(ctx: DerivativeContext, chi0: PiecewiseFunction, count: int) -> RemainderTable:
    """Linearization remainders along the halving schedule chi0, chi0/2, ...

    The first-order response is computed once and rescaled (it is linear by
    construction); each row re-solves the perturbed problem.  The sizes are
    2^-k times the L^(alpha+1) size of chi0.
    """
    sizes, rows = halving_solves(ctx.problem, chi0, ctx.horizon, count, lambda chi: lp_norm(chi, ctx.alpha + 1.0))
    tangent0 = tangent_trajectory(ctx, chi0)
    return RemainderTable(sizes, sup_norm([gap - tangent0.scale(f) for f, _, gap in rows]))


def curvature_remainder_bound(ctx: DerivativeContext, chi: PiecewiseFunction) -> float:
    """Quadratic remainder bound available when Df is Lipschitz.

    Taylor with the integral form of the remainder gives half the Lipschitz
    constant times the squared L^2 size of the perturbation.
    """
    lip = ctx.problem.nl.df_lipschitz
    if lip is None:
        raise ValueError("nonlinearity does not certify a jacobian Lipschitz constant")
    return 0.5 * lip * lp_norm(chi, 2.0) ** 2


def derivative_gap(
    ctx: DerivativeContext,
    phi0: PiecewiseFunction,
    probes: int = 12,
    seed: int = 0,
    extra=(),
) -> tuple:
    """Distance between the integral parts at two base histories.

    Returns (probed, bound): the probed operator gap, which must stay below
    the bound, the L^q size of the Jacobian difference along the two
    histories.  That is what makes the derivative continuous in the base
    point.
    """
    ctx.require_one_step("derivative_gap")
    pb = ctx.problem
    ctx0 = DerivativeContext(replace(pb, phi=phi0), ctx.horizon)
    bound = lp_norm(jacobian_gap(pb.nl.jac, pb.phi, phi0), ctx.q)
    probed = estimate_operator_norm(
        lambda chi: tangent_deviation(ctx, chi) - tangent_deviation(ctx0, chi),
        norm_in=lambda chi: lp_norm(chi, ctx.alpha + 1.0),
        norm_out=sup_norm,
        span=(-pb.cfg.R, 0.0),
        n_components=pb.cfg.N,
        probes=probes,
        seed=seed,
        extra=extra,
    )
    return probed, bound
