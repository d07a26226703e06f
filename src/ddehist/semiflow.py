"""The solution semiflow on the history space and its differentiable structure.

Evolving a history by time t means solving forward and reading off the
final length-R window, including its endpoint value.  Because the equation
only sees the almost-everywhere class of the history plus its value at 0,
the evolution descends to the quotient of the endpoint-augmented space, and
for C^1 right-hand sides each time-t map is differentiable there: its
derivative is the final window of the first-order response operator.  All
limit claims are certified along geometric schedules.
"""

from __future__ import annotations

from dataclasses import dataclass

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
from .nonlinear import Nonlinearity
from .solver import Problem, solve

__all__ = [
    "ModulusTable",
    "Semiflow",
    "SemiflowReport",
    "continuity_modulus",
    "evolve",
    "quotient_invariance",
    "semigroup_defect",
    "time_map_derivative_gap",
    "time_map_remainder",
    "verify_semiflow",
]


@dataclass(frozen=True, eq=False)
class Semiflow:
    """The evolution family of one delay equation on one history space."""

    cfg: HistoryConfig
    nl: Nonlinearity
    r: float

    def __post_init__(self):
        if not 0.0 < self.r <= self.cfg.R + 1e-12 * max(1.0, self.cfg.R):
            raise ValueError("delay must satisfy 0 < r <= R")
        if self.nl.dim != self.cfg.N:
            raise ValueError("nonlinearity dimension does not match the space")

    def problem(self, phi: HistoryElement) -> Problem:
        return Problem(self.cfg, self.nl, self.r, phi)


def evolve(sf: Semiflow, t: float, phi: HistoryElement) -> HistoryElement:
    """The history window after running the equation for time t."""
    if t < 0:
        raise ValueError("evolution time must be nonnegative")
    if t == 0.0:
        return phi
    return solve(sf.problem(phi), float(t)).history_at(t)


def semigroup_defect(sf: Semiflow, t: float, s: float, phi: HistoryElement) -> float:
    """Seminorm gap between evolving by t + s and evolving in two stages."""
    direct = evolve(sf, t + s, phi)
    staged = evolve(sf, s, evolve(sf, t, phi))
    return seminorm(direct - staged, sf.cfg)


def quotient_invariance(sf: Semiflow, t: float, phi: HistoryElement, psi: HistoryElement) -> float:
    """Evolution gap between two representatives of the same class.

    The inputs must agree almost everywhere and at 0; the returned gap is
    what makes the induced map on classes well defined.
    """
    if seminorm(phi - psi, sf.cfg) > 1e-9:
        raise ValueError("histories are not representatives of the same class")
    moved_phi = evolve(sf, t, phi)
    moved_psi = evolve(sf, t, psi)
    return seminorm(moved_phi - moved_psi, sf.cfg)


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


def continuity_modulus(
    sf: Semiflow,
    times,
    phi: HistoryElement,
    direction: HistoryElement,
    count: int,
) -> tuple:
    """Evolution gaps along phi + direction/2^k for each grid time."""
    factors = halving(count)
    if seminorm(direction, sf.cfg) < 1e-13:
        raise ValueError("direction must be nonzero")
    tables = []
    for t in times:
        if t < 0:
            raise ValueError("grid times must be nonnegative")
        if t == 0.0:
            gaps = np.array([seminorm(direction.scale(f), sf.cfg) for f in factors])
            tables.append(ModulusTable(0.0, GapTable(gaps, gaps), gaps))
            continue
        solves = halving_solves(sf.problem(phi), direction, float(t), count)
        tables.append(_modulus_table(sf, float(t), *solves))
    return tuple(tables)


def _modulus_table(sf: Semiflow, t: float, base, rows) -> ModulusTable:
    # The continuity table at time t > 0 from the solves of halving_solves.
    base_seg = history_segment(base.x, t, sf.cfg.R)
    window = regulation_constant(-sf.cfg.R, 0.0, sf.cfg.p)
    inflate = prolongation_constant(t, sf.cfg.p)
    ins, outs, bounds = [], [], []
    for _, step, traj in rows:
        gap_in = seminorm(step, sf.cfg)
        seg = history_segment(traj.x, t, sf.cfg.R)
        outs.append(seminorm(seg - base_seg, sf.cfg))
        ydiff = (traj.x - base.x) - static_prolongation(step, t)
        bounds.append(window * sup_norm(ydiff) + inflate * gap_in)
        ins.append(gap_in)
    return ModulusTable(t, GapTable(np.array(ins), np.array(outs)), np.array(bounds))


def time_map_remainder(
    sf: Semiflow,
    t: float,
    phi: HistoryElement,
    chi0: HistoryElement,
    count: int,
) -> RemainderTable:
    """Linearization remainders of the time-t map in the evolved seminorm.

    Sizes are measured in the endpoint-augmented seminorm on both sides,
    which is the norm the induced quotient map is differentiable in.
    """
    ctx = DerivativeContext(sf.problem(phi), float(t))
    return _remainder_table(ctx, chi0, *halving_solves(ctx.problem, chi0, ctx.horizon, count))


def _remainder_table(ctx: DerivativeContext, chi0: HistoryElement, base, rows) -> RemainderTable:
    # time_map_remainder at t = ctx.horizon, from halving_solves along chi0.
    cfg, t = ctx.problem.cfg, ctx.horizon
    tangent0 = tangent_trajectory(ctx, chi0)
    scales = [seminorm(chi, cfg) for _, chi, _ in rows]
    remainders = [
        seminorm(history_segment(traj.x - base.x - tangent0.scale(f), t, cfg.R), cfg)
        for f, _, traj in rows
    ]
    return RemainderTable(np.array(scales), np.array(remainders))


def time_map_derivative_gap(
    sf: Semiflow,
    t: float,
    phi: HistoryElement,
    phi0: HistoryElement,
    probes: int = 12,
    seed: int = 0,
    extra=(),
) -> tuple:
    """Gap between time-t map derivatives at two base histories.

    Returns (probed, bound).  The analytic bound regulates the integral-part
    operator gap into the window seminorm: (R+1)^(1/p) times the L^q size of
    the Jacobian gap.  The prolongation parts of the two derivatives cancel
    exactly.
    """
    ctx = DerivativeContext(sf.problem(phi), float(t))
    ctx0 = DerivativeContext(sf.problem(phi0), float(t))
    holder_gap = lp_norm(jacobian_gap(sf.nl.jac, phi.rep, phi0.rep), ctx.q)
    bound = regulation_constant(-sf.cfg.R, 0.0, sf.cfg.p) * holder_gap

    def window_gap(chi):
        gap_fn = tangent_deviation(ctx, chi) - tangent_deviation(ctx0, chi)
        return history_segment(gap_fn, t, sf.cfg.R)

    probed = estimate_operator_norm(
        window_gap,
        norm_in=lambda chi: seminorm(chi, sf.cfg),
        norm_out=lambda seg: seminorm(seg, sf.cfg),
        span=(-sf.cfg.R, 0.0),
        n_components=sf.cfg.N,
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


def verify_semiflow(
    sf: Semiflow,
    phi: HistoryElement,
    direction: HistoryElement,
    count: int = 12,
) -> SemiflowReport:
    """Run the standard evidence battery for one problem.

    Axiom defects over a stage grid including boundary-crossing sums, the
    continuity modulus at half and full delay, and (when the right-hand
    side supports it) the time-map linearization remainders.
    """
    identity = seminorm(evolve(sf, 0.0, phi) - phi, sf.cfg)
    stages = [0.0, 0.3 * sf.r, 0.5 * sf.r, sf.r]
    # semigroup_defect over the stage grid, with phi evolved once per
    # distinct time: those windows serve as the direct evolution and as the
    # first stage (the only one when t = 0).
    windows = {}

    def window(t):
        if t not in windows:
            windows[t] = evolve(sf, t, phi)
        return windows[t]

    pairs, defects = [], []
    for t in stages:
        for s in stages:
            pairs.append((t, s))
            staged = window(s) if t == 0.0 else evolve(sf, s, window(t))
            defects.append(seminorm(window(t + s) - staged, sf.cfg))
    modulus = continuity_modulus(sf, [0.5 * sf.r], phi, direction, count)
    # The table at t = r and the remainders share one halving schedule.
    r = float(sf.r)
    full = halving_solves(sf.problem(phi), direction, r, count)
    modulus += (_modulus_table(sf, r, *full),)
    remainder = None
    differentiable = sf.nl.jac is not None and sf.nl.df_growth is not None
    if differentiable and sf.cfg.p >= sf.nl.df_growth.alpha + 1 - 1e-12:
        ctx = DerivativeContext(sf.problem(phi), r)
        remainder = _remainder_table(ctx, direction, *full)
    return SemiflowReport(identity, np.array(defects), tuple(pairs), modulus, remainder)
