"""The solution semiflow on the history space and its differentiable structure.

Evolving a history by time t means solving forward and reading off the
final length-R window, including its endpoint value.  Because the equation
only sees the almost-everywhere class of the history plus its value at 0,
the evolution descends to the quotient of the endpoint-augmented space, and
for C^1 right-hand sides each time-t map is differentiable there: its
derivative is the final window of the first-order response operator.  All
limit claims are certified along geometric schedules.

Every function takes the `Problem` whose phi is the base history; another
history is evolved with `dataclasses.replace(pb, phi=...)`.  Since
S(t + s) phi = S(s) S(t) phi, a battery reads each time-t window from one
solve, and all its tables from one `derivops.halving_solves` schedule,
whose solves share one partition: each gap is a coefficient difference,
and each input size is 2^-k times the direction's seminorm (homogeneity).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .certify import GapTable, RemainderTable
from .derivops import (
    DerivativeContext,
    estimate_operator_norm,
    halving_solves,
    jacobian_gap,
    tangent_deviation,
    tangent_trajectory,
)
from .funcrep import PiecewiseFunction, _snap_tol, lp_norm, restricted, sup_norm
from .histspace import (
    HistoryConfig,
    history_segment,
    prolongation_constant,
    prolongation_deviation,
    regulation_constant,
    seminorm,
)
from .solver import Problem, solve, step_edges

__all__ = [
    "ModulusTable",
    "SemiflowReport",
    "continuity_modulus",
    "evolve",
    "quotient_invariance",
    "semigroup_defect",
    "time_map_derivative_gap",
    "time_map_remainder",
    "verify_semiflow",
]


def evolve(pb: Problem, t: float) -> PiecewiseFunction:
    """The history window after running the equation from pb.phi for time t."""
    if t < 0:
        raise ValueError("evolution time must be nonnegative")
    if t == 0.0:
        return pb.phi
    return solve(pb, float(t)).history_at(t)


def semigroup_defect(pb: Problem, t: float, s: float) -> float:
    """Seminorm gap between evolving pb.phi by t + s and in two stages."""
    direct = evolve(pb, t + s)
    staged = evolve(replace(pb, phi=evolve(pb, t)), s)
    return seminorm(direct - staged, pb.cfg)


def quotient_invariance(pb: Problem, t: float, psi: PiecewiseFunction) -> float:
    """Evolution gap between pb.phi and another representative psi of its class.

    The inputs must agree almost everywhere and at 0, to `_snap_tol` of their
    seminorms; the returned gap is what makes the induced map on classes well defined.
    """
    gap, *sizes = seminorm([pb.phi - psi, pb.phi, psi], pb.cfg)
    if gap > _snap_tol(*sizes, unit=0.0):
        raise ValueError("histories are not representatives of the same class")
    moved_phi = evolve(pb, t)
    moved_psi = evolve(replace(pb, phi=psi), t)
    return seminorm(moved_phi - moved_psi, pb.cfg)


@dataclass(frozen=True, eq=False)
class ModulusTable:
    """Continuity data of one time-t map along a history schedule.

    gaps pairs the history seminorm gaps with the evolved seminorm gaps;
    bounds holds the two-term proof bound per row: the regulated sup gap of
    the integrated parts plus the prolongation-inflated history gap.
    """

    time: float
    gaps: GapTable
    bounds: np.ndarray


def continuity_modulus(pb: Problem, times, direction: PiecewiseFunction, count: int) -> tuple:
    """Evolution gaps along pb.phi + direction/2^k at each grid time, all read
    from one schedule solved to the last time (to r when every time is 0)."""
    if min(times) < 0:
        raise ValueError("grid times must be nonnegative")
    sizes, rows = halving_solves(pb, direction, float(max(times) or pb.r), count, lambda chi: seminorm(chi, pb.cfg))
    return tuple(_modulus_table(pb.cfg, float(t), sizes, rows) for t in times)


def _modulus_table(cfg: HistoryConfig, t: float, sizes, rows) -> ModulusTable:
    # The table at time t from a schedule solved to t or beyond: each gap is
    # cut to [-R, t], so the bound is its deviation's sup over [0, t] only.
    window = regulation_constant(-cfg.R, 0.0, cfg.p)
    inflate = prolongation_constant(t, cfg.p)
    gaps = restricted([gap for _, _, gap in rows], rows[0][2].domain[0], t)
    outs = seminorm(history_segment(gaps, t, cfg.R), cfg)
    ydiffs = [prolongation_deviation(gap, step) for gap, (_, step, _) in zip(gaps, rows)]
    bounds = window * sup_norm(ydiffs) + inflate * sizes
    return ModulusTable(t, GapTable(sizes, outs), bounds)


def time_map_remainder(pb: Problem, t: float, chi0: PiecewiseFunction, count: int) -> RemainderTable:
    """Linearization remainders of the time-t map at pb.phi in the evolved
    seminorm.

    Sizes are measured in the endpoint-augmented seminorm on both sides,
    which is the norm the induced quotient map is differentiable in.
    """
    ctx = DerivativeContext(pb, float(t))
    schedule = halving_solves(pb, chi0, ctx.horizon, count, lambda chi: seminorm(chi, pb.cfg))
    return _remainder_table(ctx, chi0, *schedule)


def _remainder_table(ctx: DerivativeContext, chi0: PiecewiseFunction, sizes, rows) -> RemainderTable:
    # time_map_remainder at t = ctx.horizon, from the gaps of halving_solves along chi0.
    cfg, t = ctx.problem.cfg, ctx.horizon
    tangent0 = tangent_trajectory(ctx, chi0)
    segs = history_segment([gap - tangent0.scale(f) for f, _, gap in rows], t, cfg.R)
    return RemainderTable(sizes, seminorm(segs, cfg))


def time_map_derivative_gap(
    pb: Problem,
    t: float,
    phi0: PiecewiseFunction,
    probes: int = 12,
    seed: int = 0,
    extra=(),
) -> tuple:
    """Gap between time-t map derivatives at the base histories pb.phi and phi0.

    Returns (probed, bound).  The analytic bound regulates the integral-part
    operator gap into the window seminorm: (R+1)^(1/p) times the L^q size of
    the Jacobian gap.  The prolongation parts of the two derivatives cancel
    exactly.
    """
    cfg = pb.cfg
    ctx = DerivativeContext(pb, float(t))
    step_edges(ctx.horizon, pb.r, one_step="time_map_derivative_gap")
    ctx0 = DerivativeContext(replace(pb, phi=phi0), float(t))
    holder_gap = lp_norm(jacobian_gap(pb.nl.jac, pb.phi, phi0), ctx.q)
    bound = regulation_constant(-cfg.R, 0.0, cfg.p) * holder_gap

    def window_gap(chi):
        gap_fn = tangent_deviation(ctx, chi) - tangent_deviation(ctx0, chi)
        return history_segment(gap_fn, t, cfg.R)

    probed = estimate_operator_norm(
        window_gap,
        norm_in=lambda chi: seminorm(chi, cfg),
        norm_out=lambda seg: seminorm(seg, cfg),
        span=(-cfg.R, 0.0),
        n_components=cfg.N,
        probes=probes,
        seed=seed,
        extra=extra,
    )
    return probed, bound


@dataclass(frozen=True, eq=False)
class SemiflowReport:
    """The axiom, continuity and smoothness evidence for one flow, and the solve of phi to 2r it read."""

    identity_defect: float
    composition_defects: np.ndarray
    stage_pairs: tuple
    modulus: tuple
    remainder: RemainderTable | None
    trajectory: PiecewiseFunction


def verify_semiflow(pb: Problem, direction: PiecewiseFunction, count: int = 12) -> SemiflowReport:
    """Run the standard evidence battery from pb.phi, in 20 solves at count 12.

    phi is solved once to 2r for every direct window S(t + s) phi, and each
    stage window S(t) phi once to r for its second stages, over t, s in
    {0, 0.3r, 0.5r, r}; each distinct t + s windows the solve once (9 windows).
    The identity defect checks that the solve starts from the stored phi(0).
    One halving schedule to r gives the continuity moduli at r/2 and r and
    (when the right-hand side supports it) the time-map remainders.
    """
    cfg, r = pb.cfg, float(pb.r)
    x = solve(pb, 2.0 * r).x
    stages = [0.0, 0.3 * r, 0.5 * r, r]
    windows = {u: history_segment(x, u, cfg.R) for u in {t + s for t in stages for s in stages}}
    identity = seminorm(windows[0.0] - pb.phi, cfg)
    staged = {t: solve(replace(pb, phi=windows[t]), r).x for t in stages}
    pairs = [(t, s) for t in stages for s in stages]
    gaps = [windows[t + s] - history_segment(staged[t], s, cfg.R) for t, s in pairs]
    sizes, rows = halving_solves(pb, direction, r, count, lambda chi: seminorm(chi, cfg))
    modulus = tuple(_modulus_table(cfg, t, sizes, rows) for t in (0.5 * r, r))
    try:
        ctx = DerivativeContext(pb, r)
    except ValueError:  # f is not differentiable on this space: no remainder table
        ctx = None
    remainder = None if ctx is None else _remainder_table(ctx, direction, sizes, rows)
    return SemiflowReport(identity, seminorm(gaps, cfg), tuple(pairs), modulus, remainder, x)
