"""Right-hand-side nonlinearities with certified growth envelopes.

Each registry entry packages a pointwise map f, its Jacobian, and polynomial
growth certificates for both:

    |f(x)|  <= c1 |x|^alpha + c2         (value growth)
    ||Df(x)|| <= c1 |x|^alpha + c2       (Jacobian growth, spectral norm)

together with a global Lipschitz constant for Df when one is known.  The
constants are derived by hand when an entry is written and are meant to be
re-checked by sampling (`verify_growth`); they are upper bounds, not tight
envelopes.  All maps evaluate in batch: (k, dim) arrays in, (k, dim) or
(k, dim, dim) arrays out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = [
    "GrowthCertificate",
    "GrowthReport",
    "Nonlinearity",
    "spectral_norm",
    "holder_conjugate",
    "lipschitz_on_ball",
    "verify_growth",
    "jacobian_defect",
    "tangent_system",
    "REGISTRY",
    "make",
    "linear",
    "quadratic",
    "cubic",
    "saturating",
    "mackey_glass",
]


@dataclass(frozen=True)
class GrowthCertificate:
    """Certified envelope c1 * |x|**alpha + c2."""

    alpha: float
    c1: float
    c2: float

    def __post_init__(self):
        if not self.alpha >= 1:
            raise ValueError("alpha must be at least 1")
        if self.c1 < 0 or self.c2 < 0:
            raise ValueError("growth constants must be nonnegative")

    def envelope(self, radii: np.ndarray) -> np.ndarray:
        return self.c1 * np.asarray(radii, dtype=float) ** self.alpha + self.c2


@dataclass(frozen=True, eq=False)
class Nonlinearity:
    """A pointwise map with Jacobian and growth certificates.

    df_lipschitz, when set, is a certified global Lipschitz constant of the
    Jacobian in spectral norm; None means no global constant is claimed.
    """

    name: str
    dim: int
    fn: Callable[[np.ndarray], np.ndarray]
    jac: Callable[[np.ndarray], np.ndarray]
    f_growth: GrowthCertificate
    df_growth: GrowthCertificate
    df_lipschitz: Optional[float] = None
    params: dict = field(default_factory=dict)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return self.fn(x[None, :])[0]
        return self.fn(x)

    def jacobian(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return self.jac(x[None, :])[0]
        return self.jac(x)

    def __repr__(self):
        return f"Nonlinearity({self.name!r}, dim={self.dim})"


def spectral_norm(mats: np.ndarray) -> np.ndarray:
    """Largest singular value of a (batch of) matrices: the Euclidean norm
    of a row or column, batched SVD otherwise."""
    mats = np.asarray(mats, dtype=float)
    if mats.ndim < 2:
        raise ValueError("expected at least one matrix")
    n, m = mats.shape[-2], mats.shape[-1]
    if n == 1 or m == 1:
        return np.sqrt(np.sum(mats**2, axis=(-2, -1)))
    return np.linalg.svd(mats, compute_uv=False)[..., 0]


def holder_conjugate(s: float) -> float:
    """The exponent s' with 1/s + 1/s' = 1."""
    s = float(s)
    if not s > 1:
        raise ValueError("conjugate exponent needs s > 1")
    return s / (s - 1.0)


def lipschitz_on_ball(nl: Nonlinearity, radius: float) -> float:
    """Lipschitz constant of f on the closed ball of the given radius,
    obtained from the Jacobian growth certificate."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    return float(nl.df_growth.envelope(np.array(radius)))


@dataclass(frozen=True)
class GrowthReport:
    f_defect: float
    df_defect: float
    radius: float
    samples: int

    @property
    def passed(self) -> bool:
        return self.f_defect <= 1e-12 and self.df_defect <= 1e-12


def _ball_samples(rng, dim: int, radius: float, count: int) -> np.ndarray:
    directions = rng.standard_normal((count, dim))
    directions /= np.maximum(np.linalg.norm(directions, axis=1, keepdims=True), 1e-300)
    radii = radius * rng.uniform(0.0, 1.0, (count, 1)) ** (1.0 / dim)
    return directions * radii


def verify_growth(
    nl: Nonlinearity, radius: float = 10.0, samples: int = 2000, seed: int = 0
) -> GrowthReport:
    """Sample both growth certificates on a ball; positive defects are violations."""
    rng = np.random.default_rng(seed)
    x = _ball_samples(rng, nl.dim, radius, samples)
    radii = np.linalg.norm(x, axis=1)
    f_defect = float(np.max(np.linalg.norm(nl.fn(x), axis=1) - nl.f_growth.envelope(radii)))
    df_defect = float(np.max(spectral_norm(nl.jac(x)) - nl.df_growth.envelope(radii)))
    return GrowthReport(f_defect, df_defect, float(radius), int(samples))


def jacobian_defect(
    nl: Nonlinearity,
    radius: float = 10.0,
    samples: int = 200,
    seed: int = 0,
    step: float = 1e-6,
) -> float:
    """Largest relative disagreement between the Jacobian and central differences."""
    rng = np.random.default_rng(seed)
    x = _ball_samples(rng, nl.dim, radius, samples)
    jac = nl.jac(x)
    worst = 0.0
    for i in range(nl.dim):
        h = np.zeros(nl.dim)
        h[i] = step
        col = (nl.fn(x + h) - nl.fn(x - h)) / (2.0 * step)
        err = np.abs(col - jac[:, :, i]) / (1.0 + np.abs(jac[:, :, i]))
        worst = max(worst, float(err.max()))
    return worst


def tangent_system(nl: Nonlinearity) -> Nonlinearity:
    """F(x, y) = (f(x), Df(x) y) on R^(2N): (x, y) solves z' = F(z(t - r))
    when x solves the equation of f and y its linearization along x.  A
    right-hand side for the solver only, with no Jacobian or certificates."""
    n = nl.dim

    def fn(v):
        return np.hstack((nl.fn(v[:, :n]), np.einsum("kij,kj->ki", nl.jac(v[:, :n]), v[:, n:])))

    return Nonlinearity(f"{nl.name}-tangent", 2 * n, fn, None, None, None)


# ----------------------------------------------------------------- builders


def _diag_batch(values: np.ndarray) -> np.ndarray:
    k, n = values.shape
    out = np.zeros((k, n, n))
    idx = np.arange(n)
    out[:, idx, idx] = values
    return out


def linear(matrix) -> Nonlinearity:
    """f(x) = A x.  The Jacobian is constant, so Df is 0-Lipschitz."""
    mat = np.atleast_2d(np.asarray(matrix, dtype=float))
    if mat.shape[0] != mat.shape[1]:
        raise ValueError("linear entry needs a square matrix")
    gain = float(spectral_norm(mat))
    dim = mat.shape[0]
    return Nonlinearity(
        name="linear",
        dim=dim,
        fn=lambda v: v @ mat.T,
        jac=lambda v: np.broadcast_to(mat, (v.shape[0], dim, dim)).copy(),
        f_growth=GrowthCertificate(1.0, gain, 0.0),
        df_growth=GrowthCertificate(1.0, 0.0, gain),
        df_lipschitz=0.0,
        params={"matrix": mat.tolist()},
    )


def quadratic(dim: int = 1) -> Nonlinearity:
    """Componentwise x**2 / 2.

    By hand: |f(x)| = 0.5 sqrt(sum x_i^4) <= 0.5 |x|^2, Df = diag(x) so
    ||Df(x)|| = max |x_i| <= |x| and Df is 1-Lipschitz exactly.
    """
    return Nonlinearity(
        name="quadratic",
        dim=dim,
        fn=lambda v: 0.5 * v**2,
        jac=lambda v: _diag_batch(v),
        f_growth=GrowthCertificate(2.0, 0.5, 0.0),
        df_growth=GrowthCertificate(1.0, 1.0, 0.0),
        df_lipschitz=1.0,
        params={"dim": dim},
    )


def cubic(dim: int = 1) -> Nonlinearity:
    """Componentwise x**3.

    By hand: sqrt(sum x_i^6) <= |x|^3 (the l6 norm is below the l2 norm) and
    ||Df(x)|| = 3 max x_i^2 <= 3 |x|^2.  Df is not globally Lipschitz.
    """
    return Nonlinearity(
        name="cubic",
        dim=dim,
        fn=lambda v: v**3,
        jac=lambda v: _diag_batch(3.0 * v**2),
        f_growth=GrowthCertificate(3.0, 1.0, 0.0),
        df_growth=GrowthCertificate(2.0, 3.0, 0.0),
        df_lipschitz=None,
        params={"dim": dim},
    )


def saturating(dim: int = 1) -> Nonlinearity:
    """x / sqrt(1 + |x|^2), a bounded contraction-like map.

    By hand: with s = |x|^2 the Jacobian (1+s)^(-1/2) I - (1+s)^(-3/2) x x^T
    has eigenvalues (1+s)^(-1/2) and (1+s)^(-3/2), so its spectral norm is at
    most 1.  For dim 1 the second derivative peaks at |x| = 1/2 with value
    3/2 * (5/4)^(-5/2) < 0.9, giving a certified Lipschitz constant for Df.
    """

    def fn(v):
        s = np.sum(v**2, axis=-1, keepdims=True)
        return v / np.sqrt(1.0 + s)

    def jac(v):
        k, n = v.shape
        s = np.sum(v**2, axis=-1)
        g = 1.0 / np.sqrt(1.0 + s)
        eye = np.broadcast_to(np.eye(n), (k, n, n))
        outer = v[:, :, None] * v[:, None, :]
        return g[:, None, None] * eye - (g**3)[:, None, None] * outer

    return Nonlinearity(
        name="saturating",
        dim=dim,
        fn=fn,
        jac=jac,
        f_growth=GrowthCertificate(1.0, 1.0, 0.0),
        df_growth=GrowthCertificate(1.0, 0.0, 1.0),
        df_lipschitz=0.9 if dim == 1 else None,
        params={"dim": dim},
    )


def mackey_glass(beta: float = 2.0, k: int = 1) -> Nonlinearity:
    """Scalar feedback y -> beta * y / (1 + y^(2k)).

    By hand: 1 + y^(2k) >= 1 gives |f(y)| <= beta |y|, and
    |f'(y)| = beta |1 - (2k-1) y^(2k)| / (1 + y^(2k))^2 <= (2k-1) beta.
    For k = 1 the second derivative is -2 beta y (3 - y^2) / (1 + y^2)^3,
    maximized at y^2 = 3 - 2 sqrt(2) with value below 1.5 beta.
    """
    beta = float(beta)
    k = int(k)
    if beta <= 0 or k < 1:
        raise ValueError("mackey_glass needs beta > 0 and k >= 1")
    two_k = 2 * k

    def fn(v):
        return beta * v / (1.0 + v**two_k)

    def jac(v):
        denom = (1.0 + v**two_k) ** 2
        deriv = beta * (1.0 - (two_k - 1) * v**two_k) / denom
        return deriv[:, :, None]

    return Nonlinearity(
        name="mackey_glass",
        dim=1,
        fn=fn,
        jac=jac,
        f_growth=GrowthCertificate(1.0, beta, 0.0),
        df_growth=GrowthCertificate(1.0, 0.0, (two_k - 1) * beta),
        df_lipschitz=1.5 * beta if k == 1 else None,
        params={"beta": beta, "k": k},
    )


REGISTRY = {
    "linear": linear,
    "quadratic": quadratic,
    "cubic": cubic,
    "saturating": saturating,
    "mackey_glass": mackey_glass,
}


def make(name: str, **params) -> Nonlinearity:
    """Build a registry nonlinearity by name."""
    try:
        builder = REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown nonlinearity {name!r}; choices: {sorted(REGISTRY)}"
        ) from None
    return builder(**params)
