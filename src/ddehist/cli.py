"""Experiment driver: JSON configs in, CSV tables and claim summaries out.

A config holds a list of experiments.  Each experiment names a kind, builds
a problem from registry nonlinearities and piecewise history specs, runs
the matching certificate suite, and emits one CSV per table plus one
summary line per claim.  Identical config and seed give byte-identical
CSV files: floats are printed with 17 significant digits and LF endings,
and all randomness flows through per-experiment seeds.

Exit codes: 0 when every claim passes, 1 when a claim fails, 2 for
config errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import SimpleNamespace

import numpy as np

from .certify import certify_decay, halving
from .composition import (
    CompositionContext,
    MeasureDomain,
    apply_derivative,
    compose,
    continuity_probe,
    smoothness_probe,
)
from .corpus import bump_history, indicator_history, null_set_variant, random_history, random_piecewise
from .derivops import (
    DerivativeContext,
    ZERO_SIZE,
    curvature_remainder_bound,
    direction_size,
    estimate_operator_norm,
    halving_solves,
    map_gap,
    remainder_schedule,
    tangent_deviation,
    tangent_deviation_bound,
)
from .funcrep import PiecewiseFunction, aligned, lp_norm, sup_norm
from .histspace import HistoryConfig, endpoint_lp_norm, prolongation_deviation, seminorm
from .nonlinear import make
from .semiflow import quotient_invariance, verify_semiflow
from .solver import Problem, solve, step_edges

_NAME_RE = re.compile(r"^[A-Za-z0-9._-]+$")


class ConfigError(ValueError):
    """Raised for unusable configs; mapped to exit code 2."""


def _require(cond, message):
    if not cond:
        raise ConfigError(message)


@dataclass(frozen=True)
class Claim:
    """One verdict line: a measured quantity against its certified limit."""

    experiment: str
    name: str
    measured: float
    limit: float
    passed: bool
    relation: str = "<="

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return (
            f"{tag} {self.experiment} {self.name} "
            f"measured={self.measured:.6g} {self.relation} limit={self.limit:.6g}"
        )

    @classmethod
    def bound(cls, experiment, name, measured, limit, slack=0.0, relation="<="):
        """measured <= limit + slack, or measured >= limit - slack."""
        if relation == ">=":
            passed = measured >= limit - slack
        else:
            passed = measured <= limit + slack
        return cls(experiment, name, measured, limit, bool(passed), relation)

    @classmethod
    def decay(cls, experiment, name, *certs):
        """The verdict of one or more decay certificates: it passes when all
        pass, and reports the final ratio and limit of the one nearest its
        limit."""
        worst = max(certs, key=lambda c: c.final_over_reference / c.final_limit)
        passed = all(c.passed for c in certs)
        return cls(experiment, name, worst.final_over_reference, worst.final_limit, passed)


@dataclass(frozen=True)
class ExperimentResult:
    name: str
    tables: list
    claims: list


# -- the config schema: every config object is a table {key: Field}.  One
# walker reads them all, in table order, so a default can use the fields
# before it and random functions draw from spec.rng in field order.

_REQUIRED = object()
_POSITIVE = "(0, 1e6]"  # a time or a size
_BOUNDED = "[-1e6, 1e6]"  # a position or a value


@dataclass(frozen=True)
class Field:
    """One config field.  type is float, int, bool, str, object (any JSON
    value), list (a number or nested lists of numbers) or a table: an object,
    walked into a dict that make(values, spec, label), if given, checks and
    builds.  default is a value, a function of the spec, _REQUIRED, or None
    for a field left out when missing.  range, "[lo, hi]" or "(lo, hi]" as
    the messages and the README write it, bounds every finite number."""

    type: object
    default: object = _REQUIRED
    range: str = ""
    make: object = None


@lru_cache(maxsize=None)
def _bounds(text):
    """[lo, hi] of a range written "[lo, hi]" or "(lo, hi]"."""
    return json.loads(f"[{text[1:-1]}]")


def _read(field, value, label, spec):
    """value, checked against field's type and range, or walked and made."""
    kind = field.type
    if isinstance(kind, dict):
        _require(isinstance(value, dict), f"{label} must be an object")
        values = _walk(kind, value, spec, {}, label + " ", f"in {label}")
        return field.make(values, spec, label) if field.make else values
    if kind is list and isinstance(value, list):
        return [_read(field, v, label, spec) for v in value]
    if kind in (bool, str, object):
        _require(isinstance(value, kind), f"{label} must be {'true or false' if kind is bool else 'a string'}")
        return value
    # JSON true and false arrive as bool, which is an int subclass.
    if isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
        raise ConfigError(f"{label} must be {'an integer' if kind is int else 'a number'}")
    # An integer literal can exceed the float range, and json reads 1e400 as inf.
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{label} must be a finite number")
    lo, hi = _bounds(field.range)
    if not (lo < value if field.range[0] == "(" else lo <= value) or value > hi:
        raise ConfigError(f"{label} must lie in {field.range}")
    return value if kind is int else float(value)


def _walk(table, doc, spec, into, label, where):
    """Read doc's fields into the dict `into`: a given value, or else the
    default, read alike.  label prefixes the fields' names in messages;
    where names doc for its unknown keys."""
    if not doc.keys() <= table.keys():
        raise ConfigError(f"unknown field(s) {sorted(doc.keys() - table.keys())} {where}")
    for key, field in table.items():
        value = doc.get(key, field.default)
        if key not in doc and callable(value):
            value = value(spec)
        if value is _REQUIRED:
            raise ConfigError(f"missing required field {label}{key}")
        if value is not None or key in doc:
            into[key] = _read(field, value, label + key, spec)
    return into


_RANDOM = {
    "pieces": Field(int, 3, "[1, 64]"), "degree": Field(int, 3, "[0, 16]"),
    "scale": Field(float, 1.0, "[0, 1e6]"), "continuous": Field(bool, False),
}
_FUNCTION = {key: Field(list, None, _BOUNDED) for key in ("endpoint", "constant", "breakpoints", "pieces")}
_FUNCTION["random"] = Field(_RANDOM, None)


def _function_field(value, frame):
    """A piecewise function on frame(spec) = (lower, upper, component count)
    from exactly one of a `constant`, `breakpoints` with `pieces`, or
    `random`, and an optional `endpoint`; by default the constant `value`."""

    def make(f, spec, label) -> PiecewiseFunction:
        lo, hi, n_components = frame(spec)
        _require(
            len({"constant", "breakpoints", "random"} & f.keys()) == 1 and ("pieces" in f) == ("breakpoints" in f),
            f"{label} needs exactly one of 'constant', 'breakpoints' with 'pieces', or 'random'",
        )
        vectors = {key: np.array(f[key], ndmin=1) for key in ("endpoint", "constant") if key in f}
        for key, vector in vectors.items():
            _require(vector.shape == (n_components,), f"{label} {key} has wrong length")
        endpoint = vectors.get("endpoint")
        if "constant" in f:
            out = PiecewiseFunction.constant(vectors["constant"], (lo, hi))
        elif "breakpoints" in f:
            try:
                # The limits of a random function, which size the Gauss-Jacobi rules of its norms.
                _require(len(f["pieces"]) <= 64, "more than 64 pieces")
                _require(all(np.size(row) <= 17 for piece in f["pieces"] for row in piece), "a degree above 16")
                out = PiecewiseFunction.from_power(f["breakpoints"], f["pieces"], endpoint)
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                raise ConfigError(f"bad {label} pieces: {exc}") from exc
            a, b = out.domain
            tol = 1e-9 * max(1.0, abs(lo), abs(hi))
            _require(abs(a - lo) <= tol and abs(b - hi) <= tol, f"{label} breakpoints must span [{lo}, {hi}]")
            _require(out.n_components == n_components, f"{label} has wrong component count")
            if (a, b) != (lo, hi):
                out = out._snap_domain(lo, hi)
        else:
            opts = f["random"]
            out = random_piecewise(
                spec.rng, (lo, hi), opts["pieces"], opts["degree"], n_components, opts["scale"], opts["continuous"]
            )
        if endpoint is not None and "breakpoints" not in f:
            out = out.with_endpoint(endpoint)
        return out

    return Field(_FUNCTION, lambda s: {"constant": [value] * frame(s)[2]}, make=make)


_HISTORY = _function_field(1.0, lambda s: (-s.space.R, 0.0, s.space.N))
_ON_DOMAIN = lambda s: (s.domain.lower, s.domain.upper, s.nonlinearity.dim)


def _nonlinearity(values, spec, label):
    try:
        return make(values["name"], **values["params"])
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"bad nonlinearity: {exc}") from exc


def _domain(values, spec, label) -> MeasureDomain:
    # Random breakpoints lie at least 0.02 / 64 of the length apart, above the
    # 1e-12 max(1, |end|) breakpoint tolerance when the length is this long.
    lower, upper = values["lower"], values["upper"]
    long = upper - lower >= 1e-6 * max(1.0, abs(lower), abs(upper))
    _require(long, "domain must be at least 1e-6 max(1, |lower|, |upper|) long")
    return MeasureDomain(lower, upper)


def _discontinuity_count(spec):
    default = max(12, math.ceil(5.0 * spec.space.p))
    _require(
        default <= 20,
        f"at p = {spec.space.p:g} the default count would be {default}, "
        "above the limit of 20 halvings; set count explicitly",
    )
    return default


def _indicator_width(R: float, r: float, k: int) -> float:
    """Length of the k-th `discontinuity` indicator, [-r - 4^-k, -r + 4^-k]
    clipped to [-R, 0]."""
    h = 1.0 / 4**k
    return min(-r + h, 0.0) - max(-r - h, -R)


# -- builders: check the rules that join fields and make what the runner uses.
# Their errors (ConfigError, or a ValueError of a constructor or `step_edges`) get the name prefixed.


def _problem(spec, horizon: float) -> Problem:
    """spec's Problem, if a solve to horizon takes at most _MAX_STEPS steps
    and keeps the history breakpoints apart.  A step adds r to every cut,
    moving two cuts together by at most an ulp of max(1, R, horizon), the
    scale of `_scale_tol`: gaps above steps * 2^-52 of it stay open."""
    problem, steps = Problem(spec.space, spec.nonlinearity, spec.delay, spec.history), math.ceil(horizon / spec.delay)
    _require(steps <= _MAX_STEPS, f"horizon/delay is {steps} method-of-steps steps, above the limit of {_MAX_STEPS}")
    limit = steps * 2.0**-52 * max(1.0, spec.space.R, horizon)
    gap = float(np.diff(spec.history.breakpoints).min())
    _require(gap > limit, f"history breakpoints lie {gap:.3g} apart, not above {limit:.3g} for a solve to {horizon:g}")
    return problem


def _build_solve(spec):
    spec.problem = _problem(spec, spec.horizon)
    step_edges(spec.horizon, spec.delay)


def _build_dependence(spec):
    spec.problem = _problem(spec, spec.horizon)
    _require(spec.horizon <= spec.delay + 1e-12, "dependence probes need horizon <= delay")
    step_edges(spec.horizon, spec.delay)
    direction_size(spec.direction, lambda chi: seminorm(chi, spec.space))


def _build_lipschitz(spec):
    _require(spec.space.p == 1.0, "the dependence constant is stated for p = 1")
    growth = spec.nonlinearity.df_growth
    _require(
        growth is not None and growth.c1 == 0.0,
        "needs a globally Lipschitz map (constant Jacobian bound)",
    )
    _require(spec.horizon < spec.space.R, "horizon must satisfy 0 < T < R")
    _require(spec.horizon <= spec.delay <= spec.space.R + 1e-12, "delay must lie in [horizon, R]")
    _problem(spec, spec.horizon)
    step_edges(spec.horizon, spec.delay)


def _build_smooth(spec):
    spec.ctx = DerivativeContext(_problem(spec, spec.horizon), spec.horizon)
    spec.ctx.require_one_step("smooth.gain-bound")
    step_edges(spec.horizon, spec.delay)
    direction_size(spec.direction, lambda chi: lp_norm(chi, spec.ctx.alpha + 1.0))


def _build_composition(spec):
    spec.ctx = CompositionContext(spec.nonlinearity, spec.q, spec.domain)
    spec.ctx._accept(spec.base, "base")
    spec.ctx._accept(spec.direction, "direction")
    for p in (spec.ctx.continuity_p, spec.ctx.smoothness_p):  # the sizes of its two schedules
        direction_size(spec.direction, lambda h: lp_norm(h, p))


def _build_semiflow(spec):
    # A solve to 2r, then windows of it solved on by r: no more roundings than a solve to 4r.
    spec.problem = _problem(spec, 4.0 * spec.delay)
    direction_size(spec.direction, lambda chi: seminorm(chi, spec.space))


def _build_discontinuity(spec):
    _require(spec.delay <= spec.space.R + 1e-12, "delay must lie in (0, R]")
    n, dim = spec.space.N, spec.nonlinearity.dim
    _require(dim == n, f"nonlinearity dimension {dim} does not match the space's N = {n}")
    R, r, count = spec.space.R, spec.delay, spec.count
    width, tol = _indicator_width(R, r, count), 1e-12 * max(1.0, R)
    _require(
        width > tol,
        f"at count = {count} the last indicator around -r = {-r:g} on [-R, 0] = "
        f"[{-R:g}, 0] is {width:.3g} wide, not above the breakpoint tolerance {tol:.3g}; "
        "set a smaller count",
    )


# -- runners ----------------------------------------------------------------


def _linear_reference(matrix, phi: PiecewiseFunction, r: float, T: float, ts) -> np.ndarray:
    """x(ts) for ts in [0, T], where x' = A x(t - r) from phi, by the method of
    steps done exactly in the power basis.

    A reference for the solver, not a second solver: each piece of phi is
    converted to a power series in the local variable of its interval, and
    each later piece is the integral of A times an earlier piece shifted by
    r, so nothing is interpolated.
    """
    P, C = np.polynomial.Polynomial, np.polynomial.Chebyshev
    known = [
        (c, d, [C(col, domain=[c, d]).convert(kind=P, domain=[c, d]) for col in block.T])
        for c, d, block in zip(phi.breakpoints[:-1], phi.breakpoints[1:], phi.coeffs)
    ]
    value, m = phi.endpoint_value, len(known)
    for c, d, polys in known:  # the loop also walks the pieces it appends
        lo, hi = max(c + r, 0.0), min(d + r, T)
        if hi > lo:
            delayed = [P(q.coef, domain=q.domain + r) for q in polys]
            rates = [sum(a * q for a, q in zip(row, delayed)) for row in matrix]
            polys = [q.integ(lbnd=lo, k=v) for q, v in zip(rates, value)]
            value = np.array([q(hi) for q in polys])
            known.append((lo, hi, polys))
        if hi >= T:
            break
    which = np.array([lo for lo, _, _ in known[m:]]).searchsorted(ts, side="right") - 1
    out = np.empty((ts.size, value.size))
    for k in np.unique(which):
        out[which == k] = np.stack([q(ts[which == k]) for q in known[m + k][2]], axis=-1)
    return out


# A linear solve's integrands are polynomials, interpolated exactly while
# their degree is below the node count, so a correct solve meets the
# reference to rounding: at most 2.1e-14 on random linear problems over 25
# delays.  A delay read as 0.999 r gives 2.9e-4 on the ramp.
_ORACLE_LIMIT = 1e-10


def _run_solve(spec) -> ExperimentResult:
    traj = solve(spec.problem, spec.horizon)
    ts = np.linspace(-spec.space.R, spec.horizon, spec.grid)
    header = ["t"] + [f"x{j + 1}" for j in range(spec.space.N)]
    xs = traj.x(ts)
    cont = traj.continuity_defect()
    claims = [
        Claim.bound(spec.name, "solve.continuity-defect", cont, 1e-9),
        Claim.bound(spec.name, "solve.integration-defect", traj.integration_defect, 1e-6),
    ]
    if spec.nonlinearity.name == "linear":
        ahead = ts >= 0.0
        ref = _linear_reference(spec.nonlinearity.params["matrix"], spec.history, spec.delay, spec.horizon, ts[ahead])
        gap = float(np.abs(xs[ahead] - ref).max() / max(1.0, np.abs(ref).max()))
        claims.append(Claim.bound(spec.name, "solve.oracle-gap", gap, _ORACLE_LIMIT))
    return ExperimentResult(spec.name, [("trajectory", header, np.column_stack((ts, xs)))], claims)


def _run_dependence(spec) -> ExperimentResult:
    gap_in, rows = halving_solves(
        spec.problem, spec.direction, spec.horizon, spec.count, lambda chi: seminorm(chi, spec.space)
    )
    factors, steps, gaps = zip(*rows)
    gap_out = endpoint_lp_norm(gaps, spec.space.p)
    # Prolongation is linear: the deviations' gap is the gap less the step's prolongation.
    ygap = sup_norm([prolongation_deviation(gap, step) for step, gap in zip(steps, gaps)])
    base = aligned((steps[0], spec.history))[1]
    l1 = np.array([lp_norm(map_gap(spec.nonlinearity.fn, base, step), 1.0) for step in steps])
    claims = [
        Claim.decay(spec.name, "dependence.gap-decay", certify_decay(gap_out)),
        Claim.bound(spec.name, "dependence.deviation-l1-bound", float(np.max(ygap - l1)), 1e-8),
    ]
    header = ["scale", "input_gap", "output_gap", "deviation_gap_sup", "l1_bound"]
    return ExperimentResult(spec.name, [("gaps", header, list(zip(factors, gap_in, gap_out, ygap, l1)))], claims)


def _run_lipschitz(spec) -> ExperimentResult:
    lip = spec.nonlinearity.df_growth.c2
    T, R = spec.horizon, spec.space.R
    stated = lip * T / (T + R + 1.0) + (1.0 + T)
    corrected = (1.0 + T) * (1.0 + lip)
    rng = np.random.default_rng(spec.seed)
    pairs = []
    for i in range(spec.instances):
        phi1 = random_history(rng, spec.space, scale=spec.scale)
        if spec.adversarial and i % 3 == 2:
            # A short pulse just after -delay reaches the integrand early:
            # tiny input mass, output of one-step Lipschitz size, the regime
            # where the constant is tight.
            width = 0.01 * spec.space.R
            height = float(rng.uniform(0.5, 1.5))
            phi2 = phi1 + bump_history(spec.space, -spec.delay + width, width, height)
        else:
            phi2 = random_history(rng, spec.space, scale=spec.scale)
        pairs.append((phi1, phi2))
    gap_in = seminorm([phi1 - phi2 for phi1, phi2 in pairs], spec.space)
    kept = np.flatnonzero(gap_in >= ZERO_SIZE)
    xs = [solve(Problem(spec.space, spec.nonlinearity, spec.delay, phi), T).x for i in kept for phi in pairs[i]]
    gap_out = endpoint_lp_norm([x1 - x2 for x1, x2 in zip(xs[::2], xs[1::2])], spec.space.p)
    ratios = gap_out / gap_in[kept]
    worst = float(np.max(ratios)) if kept.size else math.nan  # no instance kept: both claims fail
    rows = list(zip(kept.tolist(), gap_in[kept], gap_out, ratios))
    claims = [
        Claim.bound(spec.name, "lipschitz.stated-constant", worst, stated, slack=1e-8),
        Claim.bound(spec.name, "lipschitz.corrected-constant", worst, corrected, slack=1e-8),
    ]
    header = ["instance", "input_gap", "output_gap", "ratio"]
    return ExperimentResult(spec.name, [("ratios", header, rows)], claims)


def _run_smooth(spec) -> ExperimentResult:
    ctx = spec.ctx
    table = remainder_schedule(ctx, spec.direction, spec.count)
    bound = tangent_deviation_bound(ctx)
    probed = estimate_operator_norm(
        lambda chi: tangent_deviation(ctx, chi),
        lambda chi: lp_norm(chi, ctx.alpha + 1.0),
        sup_norm,
        (-spec.space.R, 0.0),
        spec.space.N,
        seed=spec.seed,
        extra=[spec.direction],
    )
    claims = [
        Claim.decay(spec.name, "smooth.remainder-decay", table.certificate()),
        Claim.bound(spec.name, "smooth.gain-bound", probed, bound, slack=1e-8),
    ]
    if spec.nonlinearity.df_lipschitz is not None:
        bounds = halving(spec.count) ** 2 * curvature_remainder_bound(ctx, spec.direction)  # quadratic in chi
        claims.append(Claim.bound(spec.name, "smooth.curvature-bound", float(np.max(table.remainders - bounds)), 1e-8))
    header = ["scale", "remainder", "ratio"]
    return ExperimentResult(spec.name, [("remainder", header, table.as_rows())], claims)


def _run_composition(spec) -> ExperimentResult:
    ctx = spec.ctx
    report = compose(ctx, spec.base)
    gaps = continuity_probe(ctx, spec.base, spec.direction, spec.count)
    dreport = apply_derivative(ctx, spec.base, spec.direction)
    rtable = smoothness_probe(ctx, spec.base, spec.direction, spec.count)
    claims = [
        Claim.bound(
            spec.name, "composition.image-power-bound",
            report.norm**report.q, report.bound_power, slack=1e-8,
        ),
        Claim.decay(spec.name, "composition.gap-decay", gaps.certificate()),
        Claim.bound(
            spec.name, "composition.derivative-gain",
            dreport.norm, dreport.gain_bound * dreport.direction_size, slack=1e-8,
        ),
        Claim.decay(spec.name, "composition.remainder-decay", rtable.certificate()),
    ]
    tables = [
        ("continuity", ["input_gap", "output_gap"], gaps.as_rows()),
        ("smoothness", ["scale", "remainder", "ratio"], rtable.as_rows()),
    ]
    return ExperimentResult(spec.name, tables, claims)


def _run_semiflow(spec) -> ExperimentResult:
    report = verify_semiflow(spec.problem, spec.direction, spec.count)
    rng = np.random.default_rng(spec.seed)
    variant = null_set_variant(spec.history, rng)
    qgap = quotient_invariance(spec.problem, spec.delay, variant)
    worst_stage = float(np.max(report.composition_defects))
    claims = [
        Claim.bound(spec.name, "semiflow.identity-defect", report.identity_defect, 1e-12),
        Claim.bound(spec.name, "semiflow.stage-split-defect", worst_stage, 1e-9),
        Claim.bound(spec.name, "semiflow.quotient-invariance", qgap, 1e-10),
    ]
    axiom_rows = [
        (t, s, float(d))
        for (t, s), d in zip(report.stage_pairs, report.composition_defects)
    ]
    tables = [("axioms", ["t", "s", "defect"], axiom_rows)]
    worst_excess = -math.inf
    for i, mod in enumerate(report.modulus):
        excess = float(np.max(mod.gaps.output_gaps - mod.bounds))
        worst_excess = max(worst_excess, excess)
        rows = [
            (gin, gout, float(b))
            for (gin, gout), b in zip(mod.gaps.as_rows(), mod.bounds)
        ]
        tables.append(
            (f"modulus-{i + 1}", ["input_gap", "output_gap", "bound"], rows)
        )
    certs = [mod.gaps.certificate() for mod in report.modulus]
    claims.append(Claim.decay(spec.name, "semiflow.modulus-decay", *certs))
    claims.append(Claim.bound(spec.name, "semiflow.modulus-bound", worst_excess, 1e-8))
    if report.remainder is not None:
        claims.append(
            Claim.decay(spec.name, "semiflow.remainder-decay", report.remainder.certificate())
        )
        tables.append(
            ("remainder", ["scale", "remainder", "ratio"], report.remainder.as_rows())
        )
    return ExperimentResult(spec.name, tables, claims)


def _run_discontinuity(spec) -> ExperimentResult:
    cfg, r = spec.space, spec.delay
    ks = range(spec.count + 1)
    indicators = [indicator_history(cfg, -r - 1.0 / 4**k, -r + 1.0 / 4**k) for k in ks]
    # Each gap to the zero history is an indicator, of height 1 in all N
    # components: |phi_n| = sqrt(N) on its support.
    measured = seminorm(indicators, cfg)
    analytic = np.array([math.sqrt(cfg.N) * _indicator_width(cfg.R, r, k) ** (1.0 / cfg.p) for k in ks])
    f0 = spec.nonlinearity(np.zeros(cfg.N))
    output = np.array([np.linalg.norm(spec.nonlinearity(phi_n(-r)) - f0) for phi_n in indicators])
    rows = list(zip([4**k for k in ks], measured, analytic, output))
    analytic_err = float(np.max(np.abs(measured - analytic)))
    drift = float(np.max(np.abs(output - output[0])))
    floor = float(np.min(output))
    claims = [
        Claim.bound(spec.name, "discontinuity.input-gap-analytic", analytic_err, 1e-12),
        Claim.decay(spec.name, "discontinuity.input-gap-decay", certify_decay(measured)),
        Claim.bound(spec.name, "discontinuity.output-gap-constant", drift, 1e-12),
        Claim.bound(
            spec.name, "discontinuity.output-gap-positive", floor, 1e-9, relation=">="
        ),
    ]
    header = ["n", "input_gap", "analytic_gap", "output_gap"]
    return ExperimentResult(spec.name, [("gaps", header, rows)], claims)



# -- the kinds --------------------------------------------------------------


@dataclass(frozen=True)
class Kind:
    """One experiment kind: its table, read after the common fields; `build`,
    which checks the rules that join fields and stores the objects `run`
    uses on the spec; `run`."""

    fields: dict
    build: object
    run: object


class _Spec(SimpleNamespace):
    @cached_property
    def rng(self):  # the stream of the experiment's random functions
        return np.random.default_rng(self.seed)


_COMMON = {  # name and seed default to the experiment's position (`parse_experiment`)
    "name": Field(str, None),
    "kind": Field(str),
    "seed": Field(int, None, "[0, 18446744073709551615]"),
    "nonlinearity": Field({
        "name": Field(str),
        "params": Field({  # those of every registry map; `make` refuses another map's
            "matrix": Field(list, None, _BOUNDED), "dim": Field(int, None, "[1, 16]"),
            "beta": Field(float, None, _POSITIVE), "k": Field(int, None, "[1, 16]"),
        }, {}),
    }, make=_nonlinearity),
}
_SPACE = Field({
    "R": Field(float, _REQUIRED, "[1e-6, 1e6]"),
    "p": Field(float, _REQUIRED, "[1, 12]"),
    "N": Field(int, 1, "[1, 16]"),
}, make=lambda values, spec, label: HistoryConfig(**values))
_PROBLEM = {"space": _SPACE, "delay": Field(float, lambda s: s.space.R, _POSITIVE), "history": _HISTORY}
_HORIZON, _COUNT = Field(float, lambda s: s.delay, _POSITIVE), Field(int, 12, "[3, 40]")
_SCHEDULE = {**_PROBLEM, "direction": _HISTORY, "horizon": _HORIZON, "count": _COUNT}
_END = Field(float, _REQUIRED, _BOUNDED)  # of the composition domain
_MAX_STEPS = 10**4  # method-of-steps steps of one solve: 50 times the benchmark's longest, 200

_KIND_TABLE = {
    "solve": Kind(
        {**_PROBLEM, "horizon": Field(float, _REQUIRED, _POSITIVE), "grid": Field(int, 1001, "[2, 1000000]")},
        _build_solve, _run_solve,
    ),
    "dependence": Kind(_SCHEDULE, _build_dependence, _run_dependence),
    "lipschitz": Kind(
        {**_PROBLEM, "horizon": _HORIZON, "instances": Field(int, 20, "[1, 10000]"),
         "scale": Field(float, 1.0, _POSITIVE), "adversarial": Field(bool, True)},
        _build_lipschitz, _run_lipschitz,
    ),
    "smooth": Kind(_SCHEDULE, _build_smooth, _run_smooth),
    "composition": Kind(
        {"domain": Field({"lower": _END, "upper": _END}, {"lower": 0.0, "upper": 1.0}, make=_domain),
         "q": Field(float, 2.0, "[1, 4]"), "base": _function_field(0.0, _ON_DOMAIN),
         "direction": _function_field(1.0, _ON_DOMAIN), "count": _COUNT},
        _build_composition, _run_composition,
    ),
    # horizon is accepted and never read: configs/verify.json and
    # bench/odd-exponent.json set it.
    "semiflow": Kind(_SCHEDULE, _build_semiflow, _run_semiflow),
    "discontinuity": Kind(
        {"space": _SPACE, "delay": _PROBLEM["delay"], "count": Field(int, _discontinuity_count, "[3, 20]")},
        _build_discontinuity, _run_discontinuity,
    ),
}

# `ddehist demo` without a config: the cubic's jump at r = 0.5 on L^1.
_DEMO = {
    "name": "demo",
    "kind": "discontinuity",
    "nonlinearity": {"name": "cubic"},
    "space": {"R": 1.0, "p": 1.0, "N": 1},
    "delay": 0.5,
}
_CONFIG = {"out": Field(str, None), "experiments": Field(object, [])}


def parse_experiment(doc, index, global_seed) -> SimpleNamespace:
    """One experiment: its fields, walked into a spec, and the objects its
    kind's build made.  Every error past the kind and name names it."""
    _require(isinstance(doc, dict), "each experiment must be an object")
    kind, name = doc.get("kind"), doc.get("name", f"exp{index + 1:02d}")
    _require(
        isinstance(kind, str) and kind in _KIND_TABLE,
        f"unknown experiment kind {kind!r}; choices: {tuple(_KIND_TABLE)}",
    )
    _require(isinstance(name, str) and _NAME_RE.match(name), f"experiment name {name!r} is not filename-safe")
    spec = _Spec(name=name, seed=(global_seed + index) % 2**64)
    try:
        _walk({**_COMMON, **_KIND_TABLE[kind].fields}, doc, spec, spec.__dict__, "", f"for kind {kind!r}")
        _KIND_TABLE[kind].build(spec)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc
    return spec


def parse_config(doc, global_seed):
    _require(isinstance(doc, dict), "config root must be an object")
    root = _walk(_CONFIG, doc, None, {}, "", "in the config root")
    _require(root.get("out") != "", "out must not be empty")
    _require(isinstance(root["experiments"], list), "experiments must be a list")
    specs = [parse_experiment(entry, i, global_seed) for i, entry in enumerate(root["experiments"])]
    names = [s.name for s in specs]
    _require(len(set(names)) == len(names), "experiment names must be unique")
    return specs


def run_experiment(spec) -> ExperimentResult:
    return _KIND_TABLE[spec.kind].run(spec)


# -- output -----------------------------------------------------------------


def write_csv(path, header, rows):
    """Write a table, a sequence of rows or a 2-D array, in one formatting pass.

    Each column takes its format from the first row's cell: ``%d`` for
    integers, ``%.17g`` for floats (enough digits to round-trip a double).
    """
    text = ",".join(header) + "\n"
    if len(rows):
        row = ",".join("%d" if isinstance(v, (int, np.integer)) else "%.17g" for v in rows[0]) + "\n"
        cells = rows.ravel().tolist() if isinstance(rows, np.ndarray) else [v for r in rows for v in r]
        text += (row * len(rows)) % tuple(cells)
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(text)


# -- entry point ------------------------------------------------------------


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddehist",
        description="Run delay-equation experiments and certify their claims.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "solve": "run only the solve experiments from the config",
        "verify": "run every experiment in the config",
        "demo": "run the history-functional discontinuity demonstration",
    }
    for command, help_text in specs.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="path to a JSON experiment config")
        p.add_argument("--out", help="output directory for CSV artifacts")
        p.add_argument("--seed", type=int, default=0, help="global seed (u64)")
        # Kept so that `--jobs 1` still parses; experiments run in order in
        # the calling thread, and any other value is a usage error.
        p.add_argument("--jobs", type=int, default=1, help=argparse.SUPPRESS)
    return parser


def _config_error(message) -> int:
    print(f"config error: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if not 0 <= args.seed < 2**64:
        return _config_error("seed must fit in u64")
    if args.jobs != 1:
        return _config_error("experiments run one at a time; --jobs must be 1")
    if args.config is None and args.command != "demo":
        return _config_error("--config is required")

    doc = {"experiments": [_DEMO]}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError, RecursionError) as exc:
            return _config_error(exc)

    try:
        specs = parse_config(doc, args.seed)
    # A list nested about a thousand deep outruns the recursion of json or of the walker.
    except (ConfigError, RecursionError) as exc:
        return _config_error(exc)
    if args.command == "solve":
        specs = [s for s in specs if s.kind == "solve"]
    elif args.command == "demo":
        specs = [s for s in specs if s.kind == "discontinuity"]

    if not specs:
        print("no experiments to run")
        return 0

    out_dir = doc.get("out", os.path.join(".", "out")) if args.out is None else args.out
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        return _config_error(exc)

    results = [run_experiment(spec) for spec in specs]
    try:
        for result in results:
            for suffix, header, rows in result.tables:
                write_csv(os.path.join(out_dir, f"{result.name}-{suffix}.csv"), header, rows)
    except OSError as exc:
        return _config_error(exc)
    claims = [claim for result in results for claim in result.claims]
    for claim in claims:
        print(claim.line())
    failures = sum(not claim.passed for claim in claims)
    if failures:
        print(f"{failures} of {len(claims)} claims failed")
        return 1
    print(f"all {len(claims)} claims passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
