"""History spaces: integrable functions on [-R, 0] with a distinguished value at 0.

The space is seminormed.  For an exponent p >= 1 the seminorm of a history is

    ( integral of |phi|^p over [-R, 0]  +  |phi(0)|^p )^(1/p)

where phi(0) is the stored endpoint value, not an almost-everywhere limit.
A history is any `PiecewiseFunction` on [-R, 0] with N components: a
representative plus that endpoint value.  `Problem` and `seminorm` check
both ends and N where a history enters.  `HistoryElement` is the
PiecewiseFunction that puts a right end within `funcrep._snap_tol` of 0
onto 0, and `HistoryElement.constant(values, R)` builds a constant history.
Identifying histories with seminorm-zero difference yields a product of an
L^p class and a point value; `to_pair` / `from_pair` realize that isometry.
The same endpoint-augmented norm on arbitrary intervals (`endpoint_lp_norm`)
measures solution segments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .funcrep import DomainError, PiecewiseFunction, _cut, _sealed, _snap_tol, _snapped, lp_norm

__all__ = [
    "HistoryConfig",
    "HistoryElement",
    "QuotientPair",
    "seminorm",
    "endpoint_lp_norm",
    "static_prolongation",
    "prolongation_deviation",
    "history_segment",
    "to_pair",
    "from_pair",
    "pair_norm",
    "prolongation_constant",
    "regulation_constant",
]


@dataclass(frozen=True)
class HistoryConfig:
    """Ambient space parameters: memory length R, exponent p, dimension N."""

    R: float
    p: float
    N: int = 1

    def __post_init__(self):
        if not self.R > 0:
            raise ValueError("R must be positive")
        if not self.p >= 1:
            raise ValueError("p must be at least 1")
        if self.N < 1:
            raise ValueError("N must be at least 1")


class HistoryElement(PiecewiseFunction):
    """A PiecewiseFunction built on [-R, 0]: a right end within `_snap_tol`
    of 0 is put on 0, and its endpoint value plays the role of phi(0)."""

    def __post_init__(self):
        super().__post_init__()
        a, b = self.domain
        if abs(b) > _snap_tol(a):
            raise DomainError("histories must end at 0")
        if b != 0.0:
            object.__setattr__(self, "breakpoints", np.append(self.breakpoints[:-1], 0.0))
            super().__post_init__()

    @classmethod
    def constant(cls, values, R: float) -> "HistoryElement":
        return super().constant(values, (-float(R), 0.0))


@dataclass(frozen=True, eq=False)
class QuotientPair:
    """An (almost-everywhere class, point value) pair, the quotient coordinates."""

    ae_class: PiecewiseFunction
    eta: np.ndarray

    def __post_init__(self):
        eta = np.asarray(self.eta, dtype=float).reshape(-1)
        if eta.size != self.ae_class.n_components:
            raise ValueError("eta has wrong component count")
        eta.flags.writeable = False
        object.__setattr__(self, "eta", eta)


def _check(phi: PiecewiseFunction, cfg: HistoryConfig) -> None:
    # The solver starts its steps at exactly 0, where the history ends.
    a, b = phi.domain
    if abs(a + cfg.R) > _snap_tol(cfg.R) or b != 0.0:
        raise DomainError(f"history on [{a}, {b}] is not on [-R, 0] with R={cfg.R}")
    if phi.n_components != cfg.N:
        raise ValueError("history component count does not match config")


def endpoint_lp_norm(
    x: PiecewiseFunction | Sequence[PiecewiseFunction], p: float
) -> float | np.ndarray:
    """L^p norm over the domain augmented by the value at the right endpoint:
    a float for one PiecewiseFunction, an array for a sequence of them,
    measured in one `lp_norm` pass."""
    single = isinstance(x, PiecewiseFunction)
    xs = [x] if single else x
    tips = np.array([np.linalg.norm(each.endpoint_value) for each in xs])
    norms = (lp_norm(xs, p) ** p + tips**p) ** (1.0 / p)
    return float(norms[0]) if single else norms


def seminorm(
    phi: PiecewiseFunction | Sequence[PiecewiseFunction], cfg: HistoryConfig
) -> float | np.ndarray:
    """The history seminorm at exponent cfg.p: a float for one history, an
    array for a sequence of them, in one pass."""
    for each in [phi] if isinstance(phi, PiecewiseFunction) else phi:
        _check(each, cfg)
    return endpoint_lp_norm(phi, cfg.p)


def static_prolongation(phi: PiecewiseFunction, T: float) -> PiecewiseFunction:
    """Extend a history to [-R, T] by freezing it at phi(0) on [0, T].

    The output always has a breakpoint at 0, and its endpoint value is
    phi(0); prolongation therefore commutes with the quotient coordinates.
    """
    if not T > 0:
        raise ValueError("prolongation horizon must be positive")
    breakpoints = np.append(phi.breakpoints, float(T))
    frozen = phi.endpoint_value[None, :]
    return PiecewiseFunction(breakpoints, [phi.coeffs, frozen], phi.endpoint_value)


def prolongation_deviation(x: PiecewiseFunction, phi: PiecewiseFunction) -> PiecewiseFunction:
    """x less the static prolongation of phi, its own history, on x's
    partition: zero on [-R, 0], then x - phi(0).  x has a breakpoint at 0,
    as every trajectory has."""
    ahead = x.breakpoints[:-1] >= 0.0
    coeffs = np.where(ahead[:, None, None], x.coeffs, 0.0)
    coeffs[ahead, 0] -= phi.endpoint_value
    return PiecewiseFunction(x.breakpoints, _sealed(coeffs), x.endpoint_value - phi.endpoint_value)


def history_segment(x: PiecewiseFunction | Sequence[PiecewiseFunction], t: float, R: float):
    """The history seen at time t: theta -> x(t + theta) on [-R, 0]; a list
    of them for a sequence of functions of one partition and degree, all
    cut in one pass (`funcrep._cut`), and a ValueError for two partitions.

    It is x.restrict(t - R, t).shift(-t) put on [-R, 0], bit for bit, in one
    construction.  Its value at 0 is x(t), so at a breakpoint of x it comes
    from the piece on the right, and at x's right end it is x's endpoint value.
    """
    single = isinstance(x, PiecewiseFunction)
    xs = [x] if single else x
    a, b = xs[0].domain
    tol = _snap_tol(a, b)
    if t - R < a - tol or t > b + tol:
        raise DomainError("segment window is not contained in the domain")
    partition, coeffs, values = _cut(xs, max(t - R, a), min(t, b))
    partition = _sealed(_snapped(partition - float(t), -R, 0.0))
    segments = [PiecewiseFunction(partition, c, v) for c, v in zip(coeffs, values)]
    return segments[0] if single else segments


def to_pair(phi: PiecewiseFunction) -> QuotientPair:
    """Quotient coordinates of a history: its a.e. class and its value at 0."""
    return QuotientPair(phi, phi.endpoint_value)


def from_pair(pair: QuotientPair) -> PiecewiseFunction:
    """The history whose representative is the class and whose phi(0) is eta."""
    return pair.ae_class.with_endpoint(pair.eta)


def pair_norm(pair: QuotientPair, p: float) -> float:
    """Product norm of the quotient coordinates; equals the seminorm exactly."""
    integral = lp_norm(pair.ae_class, p) ** p
    tip = float(np.linalg.norm(pair.eta))
    return (integral + tip**p) ** (1.0 / p)


def prolongation_constant(T: float, p: float) -> float:
    """Norm inflation factor of static prolongation to [-R, T]."""
    return (1.0 + T) ** (1.0 / p)


def regulation_constant(lo: float, hi: float, p: float) -> float:
    """Factor bounding the endpoint-augmented L^p norm by the sup norm on [lo, hi]."""
    return (hi - lo + 1.0) ** (1.0 / p)
