"""Delay differential equations on Lp-type history spaces.

Library and verification harness for the step-by-step solution of
x'(t) = f(x(t - r)) from integrable histories, the derivative operators that
govern smooth dependence on the history, composition operators between
Lebesgue spaces, and the induced semiflow.  Every analytic bound the library
relies on can be re-checked numerically through :mod:`ddehist.cli`.
"""

from .certify import (
    BoundPair,
    Certificate,
    GapTable,
    RemainderTable,
    certify_decay,
    halving,
)
from .composition import (
    CompositionContext,
    CompositionReport,
    DerivativeReport,
    MeasureDomain,
    apply_derivative,
    compose,
    continuity_probe,
    curvature_image_bound,
    smoothness_probe,
)
from .derivops import (
    DerivativeContext,
    curvature_remainder_bound,
    derivative_gap,
    estimate_operator_norm,
    remainder_function,
    remainder_schedule,
    tangent_deviation,
    tangent_deviation_bound,
    tangent_trajectory,
)
from .funcrep import (
    DomainError,
    LazyComposition,
    PiecewiseFunction,
    lp_norm,
    stack,
    sup_norm,
)
from .histspace import (
    HistoryConfig,
    HistoryElement,
    QuotientPair,
    endpoint_lp_norm,
    from_pair,
    history_segment,
    pair_norm,
    prolongation_constant,
    regulation_constant,
    seminorm,
    static_prolongation,
    to_pair,
)
from .nonlinear import (
    GrowthCertificate,
    Nonlinearity,
    holder_conjugate,
    lipschitz_on_ball,
    make,
    spectral_norm,
)
from .semiflow import (
    ModulusTable,
    Semiflow,
    SemiflowReport,
    continuity_modulus,
    evolve,
    quotient_invariance,
    semigroup_defect,
    time_map_derivative_gap,
    time_map_remainder,
    verify_semiflow,
)
from .solver import Problem, Trajectory, solve, step_edges

__all__ = [
    "BoundPair",
    "Certificate",
    "CompositionContext",
    "CompositionReport",
    "DerivativeContext",
    "DerivativeReport",
    "DomainError",
    "GapTable",
    "GrowthCertificate",
    "HistoryConfig",
    "HistoryElement",
    "LazyComposition",
    "MeasureDomain",
    "ModulusTable",
    "Nonlinearity",
    "PiecewiseFunction",
    "Problem",
    "QuotientPair",
    "RemainderTable",
    "Semiflow",
    "SemiflowReport",
    "Trajectory",
    "apply_derivative",
    "certify_decay",
    "compose",
    "continuity_modulus",
    "continuity_probe",
    "curvature_image_bound",
    "curvature_remainder_bound",
    "derivative_gap",
    "endpoint_lp_norm",
    "estimate_operator_norm",
    "evolve",
    "halving",
    "history_segment",
    "holder_conjugate",
    "lipschitz_on_ball",
    "lp_norm",
    "make",
    "pair_norm",
    "from_pair",
    "prolongation_constant",
    "quotient_invariance",
    "regulation_constant",
    "remainder_function",
    "remainder_schedule",
    "semigroup_defect",
    "seminorm",
    "smoothness_probe",
    "solve",
    "spectral_norm",
    "stack",
    "static_prolongation",
    "step_edges",
    "sup_norm",
    "tangent_deviation",
    "tangent_deviation_bound",
    "tangent_trajectory",
    "time_map_derivative_gap",
    "time_map_remainder",
    "to_pair",
    "verify_semiflow",
]

__version__ = "0.1.0"
