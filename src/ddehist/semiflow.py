"""The solution semiflow on the history space and its differentiable structure.

Evolving a history by time t means solving forward and reading off the
final length-R window, including its endpoint value.  Because the equation
only sees the almost-everywhere class of the history plus its value at 0,
the evolution descends to the quotient of the endpoint-augmented space, and
for C^1 right-hand sides each time-t map is differentiable there: its
derivative is the final window of the first-order response operator.  All
limit claims are certified along geometric schedules.

Every function takes the `Problem` whose phi is the base history; another
history is evolved with `dataclasses.replace(pb, phi=...)`.  The tables
along a schedule measure the trajectory gaps x(phi + chi/2^k) - x(phi) of
`derivops.halving_solves`, each formed once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .certify import GapTable, RemainderTable, halving
from .derivops import (
    DerivativeContext,
    estimate_operator_norm,
    halving_solves,
    jacobian_gap,
    tangent_deviation,
    tangent_trajectory,
)
from .funcrep import lp_norm, sup_norm
from .histspace import (
    HistoryConfig,
    HistoryElement,
    history_segment,
    prolongation_constant,
    regulation_constant,
    seminorm,
    static_prolongation,
)
from .solver import Problem, solve

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


def evolve(pb: Problem, t: float) -> HistoryElement:
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


def quotient_invariance(pb: Problem, t: float, psi: HistoryElement) -> float:
    """Evolution gap between pb.phi and another representative psi of its class.

    The inputs must agree almost everywhere and at 0; the returned gap is
    what makes the induced map on classes well defined.
    """
    if seminorm(pb.phi - psi, pb.cfg) > 1e-9:
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


def continuity_modulus(pb: Problem, times, direction: HistoryElement, count: int) -> tuple:
    """Evolution gaps along pb.phi + direction/2^k for each grid time."""
    factors = halving(count)
    if seminorm(direction, pb.cfg) < 1e-13:
        raise ValueError("direction must be nonzero")
    tables = []
    for t in times:
        if t < 0:
            raise ValueError("grid times must be nonnegative")
        if t == 0.0:
            gaps = seminorm([direction.scale(f) for f in factors], pb.cfg)
            tables.append(ModulusTable(0.0, GapTable(gaps, gaps), gaps))
            continue
        rows = halving_solves(pb, direction, float(t), count)
        sizes = seminorm([step for _, step, _ in rows], pb.cfg)
        tables.append(_modulus_table(pb.cfg, float(t), sizes, rows))
    return tuple(tables)


def _modulus_table(cfg: HistoryConfig, t: float, sizes, rows) -> ModulusTable:
    # The continuity table at time t > 0 from the gaps of halving_solves.
    window = regulation_constant(-cfg.R, 0.0, cfg.p)
    inflate = prolongation_constant(t, cfg.p)
    outs = seminorm([history_segment(gap, t, cfg.R) for _, _, gap in rows], cfg)
    ydiffs = [gap - static_prolongation(step, t) for _, step, gap in rows]
    bounds = window * sup_norm(ydiffs) + inflate * sizes
    return ModulusTable(t, GapTable(sizes, outs), bounds)


def time_map_remainder(pb: Problem, t: float, chi0: HistoryElement, count: int) -> RemainderTable:
    """Linearization remainders of the time-t map at pb.phi in the evolved
    seminorm.

    Sizes are measured in the endpoint-augmented seminorm on both sides,
    which is the norm the induced quotient map is differentiable in.
    """
    ctx = DerivativeContext(pb, float(t))
    rows = halving_solves(pb, chi0, ctx.horizon, count)
    sizes = seminorm([chi for _, chi, _ in rows], pb.cfg)
    return _remainder_table(ctx, chi0, sizes, rows)


def _remainder_table(ctx: DerivativeContext, chi0: HistoryElement, sizes, rows) -> RemainderTable:
    # time_map_remainder at t = ctx.horizon, from the gaps of halving_solves along chi0.
    cfg, t = ctx.problem.cfg, ctx.horizon
    tangent0 = tangent_trajectory(ctx, chi0)
    segs = [history_segment(gap - tangent0.scale(f), t, cfg.R) for f, _, gap in rows]
    return RemainderTable(sizes, seminorm(segs, cfg))


def time_map_derivative_gap(
    pb: Problem,
    t: float,
    phi0: HistoryElement,
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
    ctx0 = DerivativeContext(replace(pb, phi=phi0), float(t))
    holder_gap = lp_norm(jacobian_gap(pb.nl.jac, pb.phi.rep, phi0.rep), ctx.q)
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
        lift=HistoryElement,
    )
    return probed, bound


@dataclass(frozen=True, eq=False)
class SemiflowReport:
    """Bundle of the axiom, continuity, and smoothness evidence for one flow."""

    identity_defect: float
    composition_defects: np.ndarray
    stage_pairs: tuple
    modulus: tuple
    remainder: RemainderTable | None


def verify_semiflow(pb: Problem, direction: HistoryElement, count: int = 12) -> SemiflowReport:
    """Run the standard evidence battery from pb.phi.

    Axiom defects over a stage grid including boundary-crossing sums, the
    continuity modulus at half and full delay, and (when the right-hand
    side supports it) the time-map linearization remainders.
    """
    cfg, r = pb.cfg, float(pb.r)
    identity = seminorm(evolve(pb, 0.0) - pb.phi, cfg)
    stages = [0.0, 0.3 * r, 0.5 * r, r]
    # semigroup_defect over the stage grid, with phi evolved once per
    # distinct time: those windows serve as the direct evolution and as the
    # first stage (the only one when t = 0).
    windows = {}

    def window(t):
        if t not in windows:
            windows[t] = evolve(pb, t)
        return windows[t]

    pairs, gaps = [], []
    for t in stages:
        for s in stages:
            pairs.append((t, s))
            staged = window(s) if t == 0.0 else evolve(replace(pb, phi=window(t)), s)
            gaps.append(window(t + s) - staged)
    modulus = continuity_modulus(pb, [0.5 * r], direction, count)
    # The t = r table and the remainders share one schedule, its gaps and
    # the input sizes of t = r/2.
    sizes = modulus[0].gaps.input_gaps
    full = halving_solves(pb, direction, r, count)
    modulus += (_modulus_table(cfg, r, sizes, full),)
    remainder = None
    differentiable = pb.nl.jac is not None and pb.nl.df_growth is not None
    if differentiable and cfg.p >= pb.nl.df_growth.alpha + 1 - 1e-12:
        ctx = DerivativeContext(pb, r)
        remainder = _remainder_table(ctx, direction, sizes, full)
    return SemiflowReport(identity, seminorm(gaps, cfg), tuple(pairs), modulus, remainder)
