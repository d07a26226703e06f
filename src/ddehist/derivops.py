"""Derivative operators for the dependence of trajectories on their histories.

For a C¹ right-hand side, the first-order response of the solution to a
history perturbation chi splits into two parts: the static prolongation of
chi (carrying the perturbed start value forward) and a cumulative integral
applying the Jacobian along the base trajectory's delayed argument,

    t  |->  integral over [0, t] of  Df(phi(s - r)) chi(s - r) ds,

which vanishes on the history interval.  This module builds both parts,
bounds the integral part through the Hoelder inequality, and certifies that
what remains after subtracting the first-order response shrinks faster than
the perturbation.  Horizons are capped at one delay so the base trajectory
argument stays inside the history, where the perturbation lives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certify import RemainderTable, halving
from .corpus import piecewise_constant
from .funcrep import (
    LazyComposition,
    PiecewiseFunction,
    _NODES_PER_PIECE,
    _cheb_nodes,
    _scale_tol,
    lp_norm,
    stack,
    sup_norm,
)
from .histspace import HistoryElement, _check, static_prolongation
from .nonlinear import holder_conjugate, spectral_norm
from .solver import Problem, _chained_antiderivative, solve

__all__ = [
    "DerivativeContext",
    "curvature_remainder_bound",
    "derivative_gap",
    "estimate_operator_norm",
    "halving_solves",
    "jacobian_gap",
    "map_gap",
    "remainder_function",
    "remainder_schedule",
    "tangent_deviation",
    "tangent_deviation_bound",
    "tangent_trajectory",
]


@dataclass(frozen=True, eq=False)
class DerivativeContext:
    """A problem together with the exponents used for differentiation.

    horizon is the linearization window, at most one delay.  The exponent
    p of the problem's history space must dominate alpha + 1, where alpha
    is the certified growth order of the Jacobian.  q, the Hoelder
    conjugate of alpha + 1, is where Df along the base history must be
    integrable for the integral part to be bounded.
    """

    problem: Problem
    horizon: float

    def __post_init__(self):
        nl = self.problem.nl
        if nl.jac is None:
            raise ValueError("nonlinearity does not provide a jacobian")
        if nl.df_growth is None:
            raise ValueError("nonlinearity does not certify jacobian growth")
        r = self.problem.r
        if not 0.0 < self.horizon <= r + 1e-12 * max(1.0, r):
            raise ValueError("horizon must lie in (0, r]")
        if self.problem.cfg.p < self.alpha + 1.0 - 1e-12:
            raise ValueError("exponent p must be at least alpha + 1")

    @property
    def alpha(self) -> float:
        return self.problem.nl.df_growth.alpha

    @property
    def q(self) -> float:
        return holder_conjugate(self.alpha + 1.0)


def tangent_deviation(ctx: DerivativeContext, chi: HistoryElement) -> PiecewiseFunction:
    """The integral part of the first-order response, zero on the history.

    Linear in chi; the integrand is interpolated on the union of the shifted
    breakpoints of the base history and of the direction, so piecewise
    polynomial data integrates exactly up to the node count.
    """
    pb = ctx.problem
    _check(chi, pb.cfg)
    phi_rep = pb.phi.rep
    chi_rep = chi.rep
    r, T, R = pb.r, ctx.horizon, pb.cfg.R
    n = phi_rep.n_components
    tol = _scale_tol(-R, T)
    shifted = np.concatenate([phi_rep.breakpoints + r, chi_rep.breakpoints + r])
    inner = np.unique(shifted[(shifted > tol) & (shifted < T - tol)])
    if inner.size:
        inner = inner[np.concatenate(([True], np.diff(inner) > tol))]
    cuts = np.concatenate(([0.0], inner, [T]))
    # One step of the method of steps, linear in chi: Df(phi(s - r)) chi(s - r)
    # at the nodes of every cut, integrated from 0 as the solver does.
    nodes = _cheb_nodes(_NODES_PER_PIECE)
    half = 0.5 * np.diff(cuts)[:, None, None]
    args = ((0.5 * (cuts[:-1] + cuts[1:]))[:, None] + half[:, :, 0] * nodes - r).ravel()
    rates = np.einsum("kij,kj->ki", pb.nl.jacobian(phi_rep(args)), chi_rep(args))
    integ, value = _chained_antiderivative(rates.reshape(cuts.size - 1, -1, n), half, np.zeros(n))
    return PiecewiseFunction(np.concatenate(([-R], cuts)), [np.zeros((1, n)), integ], value)


def tangent_trajectory(ctx: DerivativeContext, chi: HistoryElement) -> PiecewiseFunction:
    """The full first-order response: prolongation of chi plus integral part."""
    return static_prolongation(chi, ctx.horizon) + tangent_deviation(ctx, chi)


def tangent_deviation_bound(ctx: DerivativeContext) -> float:
    """Analytic gain bound for the integral part: the L^q size of Df along phi.

    By Hoelder, the integral part is dominated in sup norm by this number
    times the L^(alpha+1) size of the direction.
    """
    pb = ctx.problem
    jac = pb.nl.jacobian
    gains = LazyComposition(pb.phi.rep, lambda v: spectral_norm(jac(v))[:, None], 1)
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
    lift=lambda h: h,
) -> float:
    """Empirical lower bound for an operator norm via seeded step-function probes.

    Probes are random piecewise-constant functions on span with n_components
    components (dense enough in every L^p and integrated exactly by the
    quadrature), passed through lift (HistoryElement for operators on
    histories), plus any caller-supplied directions in extra.
    """
    rng = np.random.default_rng(seed)
    candidates = list(extra)
    for _ in range(int(probes)):
        candidates.append(
            lift(piecewise_constant(rng, span, n_pieces=8, n_components=n_components))
        )
    best = 0.0
    for chi in candidates:
        size = norm_in(chi)
        if size < 1e-13:
            continue
        best = max(best, norm_out(op(chi)) / size)
    return best


def jacobian_gap(jac, a: PiecewiseFunction, b: PiecewiseFunction) -> LazyComposition:
    """The spectral norm of Df(a(.)) - Df(b(.)), integrated without materializing."""
    n = a.n_components
    return LazyComposition(
        stack((a, b)), lambda v: spectral_norm(jac(v[:, :n]) - jac(v[:, n:]))[:, None], 1
    )


def map_gap(fn, a: PiecewiseFunction, b: PiecewiseFunction) -> LazyComposition:
    """The gap f(a(.)) - f(b(.)) of a map f from R^N to R^N, integrated without
    materializing it."""
    n = a.n_components
    return LazyComposition(stack((a, b)), lambda v: fn(v[:, :n]) - fn(v[:, n:]), n)


def halving_solves(pb: Problem, chi: HistoryElement, horizon: float, count: int):
    """The solves behind every dependence table: from pb.phi and along the
    halving schedule pb.phi + chi/2^k, k = 0..count.

    Returns the base trajectory and one (2^-k, chi/2^k, trajectory) row per k.
    """
    factors = halving(count)
    base = solve(pb, horizon)
    rows = []
    for factor in factors:
        step = chi.scale(factor)
        moved = solve(Problem(pb.cfg, pb.nl, pb.r, pb.phi + step), horizon)
        rows.append((factor, step, moved))
    return base, rows


def remainder_function(ctx: DerivativeContext, chi: HistoryElement) -> PiecewiseFunction:
    """Perturbed trajectory minus base trajectory minus first-order response."""
    pb = ctx.problem
    base = solve(pb, ctx.horizon).x
    moved = solve(Problem(pb.cfg, pb.nl, pb.r, pb.phi + chi), ctx.horizon).x
    return moved - base - tangent_trajectory(ctx, chi)


def remainder_schedule(ctx: DerivativeContext, chi0: HistoryElement, count: int) -> RemainderTable:
    """Linearization remainders along the halving schedule chi0, chi0/2, ...

    The first-order response is computed once and rescaled (it is linear by
    construction); each row re-solves the perturbed problem.
    """
    tangent0 = tangent_trajectory(ctx, chi0)
    base, rows = halving_solves(ctx.problem, chi0, ctx.horizon, count)
    scales = lp_norm([chi.rep for _, chi, _ in rows], ctx.alpha + 1.0)
    remainders = sup_norm([traj.x - base.x - tangent0.scale(f) for f, _, traj in rows])
    return RemainderTable(scales, remainders)


def curvature_remainder_bound(ctx: DerivativeContext, chi: HistoryElement) -> float:
    """Quadratic remainder bound available when Df is Lipschitz.

    Taylor with the integral form of the remainder gives half the Lipschitz
    constant times the squared L^2 size of the perturbation.
    """
    lip = ctx.problem.nl.df_lipschitz
    if lip is None:
        raise ValueError("nonlinearity does not certify a jacobian Lipschitz constant")
    return 0.5 * lip * lp_norm(chi.rep, 2.0) ** 2


def derivative_gap(
    ctx: DerivativeContext,
    phi0: HistoryElement,
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
    pb = ctx.problem
    ctx0 = DerivativeContext(Problem(pb.cfg, pb.nl, pb.r, phi0), ctx.horizon)
    bound = lp_norm(jacobian_gap(pb.nl.jac, pb.phi.rep, phi0.rep), ctx.q)
    probed = estimate_operator_norm(
        lambda chi: tangent_deviation(ctx, chi) - tangent_deviation(ctx0, chi),
        norm_in=lambda chi: lp_norm(chi.rep, ctx.alpha + 1.0),
        norm_out=sup_norm,
        span=(-pb.cfg.R, 0.0),
        n_components=pb.cfg.N,
        probes=probes,
        seed=seed,
        extra=extra,
        lift=HistoryElement,
    )
    return probed, bound
