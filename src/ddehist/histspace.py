"""History spaces: integrable functions on [-R, 0] with a distinguished value at 0.

The space is seminormed.  For an exponent p >= 1 the seminorm of a history is

    ( integral of |phi|^p over [-R, 0]  +  |phi(0)|^p )^(1/p)

where phi(0) is the stored endpoint value, not an almost-everywhere limit.
Identifying histories with seminorm-zero difference yields a product of an
L^p class and a point value; `to_pair` / `from_pair` realize that isometry.
The same endpoint-augmented norm on arbitrary intervals (`endpoint_lp_norm`)
measures solution segments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .funcrep import DomainError, PiecewiseFunction, _sealed, lp_norm

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


@dataclass(frozen=True, eq=False)
class HistoryElement:
    """A representative on [-R, 0]; the endpoint value plays the role of phi(0)."""

    rep: PiecewiseFunction

    def __post_init__(self):
        a, b = self.rep.domain
        if abs(b) > 1e-9 * max(1.0, abs(a)):
            raise DomainError("histories must end at 0")
        if b != 0.0:
            object.__setattr__(self, "rep", self.rep._snap_domain(a, 0.0))

    @classmethod
    def constant(cls, values, R: float) -> "HistoryElement":
        return cls(PiecewiseFunction.constant(values, (-float(R), 0.0)))

    @classmethod
    def from_power(cls, breakpoints, pieces, endpoint_value=None) -> "HistoryElement":
        return cls(PiecewiseFunction.from_power(breakpoints, pieces, endpoint_value))

    @property
    def R(self) -> float:
        return -self.rep.domain[0]

    @property
    def n_components(self) -> int:
        return self.rep.n_components

    @property
    def value_at_zero(self) -> np.ndarray:
        return self.rep.endpoint_value

    def __call__(self, t):
        return self.rep(t)

    def __add__(self, other: "HistoryElement") -> "HistoryElement":
        return HistoryElement(self.rep + other.rep)

    def __sub__(self, other: "HistoryElement") -> "HistoryElement":
        return HistoryElement(self.rep - other.rep)

    def scale(self, factor: float) -> "HistoryElement":
        return HistoryElement(self.rep.scale(factor))

    def __mul__(self, factor):
        return self.scale(factor)

    __rmul__ = __mul__

    def __repr__(self):
        return f"HistoryElement(R={self.R:g}, components={self.n_components})"


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


def _check(phi: HistoryElement, cfg: HistoryConfig) -> None:
    if abs(phi.R - cfg.R) > 1e-9 * max(1.0, cfg.R):
        raise DomainError(f"history length {phi.R} does not match R={cfg.R}")
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
    phi: HistoryElement | Sequence[HistoryElement], cfg: HistoryConfig
) -> float | np.ndarray:
    """The history seminorm at exponent cfg.p: a float for one
    HistoryElement, an array for a sequence of them, in one pass."""
    single = isinstance(phi, HistoryElement)
    for each in [phi] if single else phi:
        _check(each, cfg)
    return endpoint_lp_norm(phi.rep if single else [each.rep for each in phi], cfg.p)


def static_prolongation(phi: HistoryElement, T: float) -> PiecewiseFunction:
    """Extend a history to [-R, T] by freezing it at phi(0) on [0, T].

    The output always has a breakpoint at 0, and its endpoint value is
    phi(0); prolongation therefore commutes with the quotient coordinates.
    """
    if not T > 0:
        raise ValueError("prolongation horizon must be positive")
    rep = phi.rep
    breakpoints = np.append(rep.breakpoints, float(T))
    frozen = rep.endpoint_value[None, :]
    return PiecewiseFunction(
        breakpoints, [rep.coeffs, frozen], rep.endpoint_value
    )


def prolongation_deviation(x: PiecewiseFunction, phi: HistoryElement) -> PiecewiseFunction:
    """x less the static prolongation of phi, its own history, on x's
    partition: zero on [-R, 0], then x - phi(0).  x has a breakpoint at 0,
    as every trajectory has."""
    ahead = x.breakpoints[:-1] >= 0.0
    coeffs = np.where(ahead[:, None, None], x.coeffs, 0.0)
    coeffs[ahead, 0] -= phi.value_at_zero
    return PiecewiseFunction(x.breakpoints, _sealed(coeffs), x.endpoint_value - phi.value_at_zero)


def history_segment(x: PiecewiseFunction, t: float, R: float) -> HistoryElement:
    """The history seen at time t: theta -> x(t + theta) on [-R, 0].

    The distinguished value is x(t) under the evaluation convention, so at a
    breakpoint of x the value comes from the piece on the right, and at the
    right end of x it is the stored endpoint value.
    """
    a, b = x.domain
    tol = 1e-9 * max(1.0, abs(a), abs(b))
    if t - R < a - tol or t > b + tol:
        raise DomainError("segment window is not contained in the domain")
    lo = max(t - R, a)
    hi = min(t, b)
    return HistoryElement(x.restrict(lo, hi).shift(-t)._snap_domain(-R, 0.0))


def to_pair(phi: HistoryElement) -> QuotientPair:
    """Quotient coordinates of a history: its a.e. class and its value at 0."""
    return QuotientPair(phi.rep, phi.value_at_zero)


def from_pair(pair: QuotientPair) -> HistoryElement:
    """The history whose representative is the class and whose phi(0) is eta."""
    return HistoryElement(pair.ae_class.with_endpoint(pair.eta))


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
