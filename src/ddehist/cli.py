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
    curvature_remainder_bound,
    estimate_operator_norm,
    halving_solves,
    map_gap,
    remainder_schedule,
    tangent_deviation,
    tangent_deviation_bound,
)
from .funcrep import PiecewiseFunction, lp_norm, sup_norm
from .histspace import HistoryConfig, HistoryElement, endpoint_lp_norm, seminorm, static_prolongation
from .nonlinear import make
from .semiflow import quotient_invariance, verify_semiflow
from .solver import Problem, solve

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


# -- field parsers: parse(doc, key, spec) returns doc[key] or its default,
# range-checked, to be stored as spec.<key>; spec holds the fields before it.


def _space(doc, key, spec) -> HistoryConfig:
    space = doc.get(key, {})
    _require(isinstance(space, dict), "space must be an object with R, p, N")
    try:
        return HistoryConfig(_float_field(space, "R"), _float_field(space, "p"), _int_field(space, "N", 1, 1, math.inf))
    except ValueError as exc:
        raise ConfigError(f"bad space: {exc}") from exc


def _nonlinearity(doc):
    _require(isinstance(doc, dict) and "name" in doc, "nonlinearity needs a name")
    params = doc.get("params", {})
    _require(isinstance(params, dict), "nonlinearity params must be an object")
    try:
        return make(doc["name"], **params)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad nonlinearity: {exc}") from exc


def _function(spec, domain, n_components, rng, label) -> PiecewiseFunction:
    """A piecewise function on `domain` from a constant/pieces/random spec."""
    _require(isinstance(spec, dict), f"{label} must be an object")
    lo, hi = float(domain[0]), float(domain[1])
    endpoint = _number_list(spec, "endpoint", n_components, label) if "endpoint" in spec else None
    if "constant" in spec:
        out = PiecewiseFunction.constant(_number_list(spec, "constant", n_components, label), (lo, hi))
    elif "breakpoints" in spec:
        try:
            out = PiecewiseFunction.from_power(spec["breakpoints"], spec["pieces"], endpoint)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise ConfigError(f"bad {label} pieces: {exc}") from exc
        a, b = out.domain
        tol = 1e-9 * max(1.0, abs(lo), abs(hi))
        _require(
            abs(a - lo) <= tol and abs(b - hi) <= tol,
            f"{label} breakpoints must span [{lo}, {hi}]",
        )
        _require(out.n_components == n_components, f"{label} has wrong component count")
    elif "random" in spec:
        opts = spec["random"]
        _require(isinstance(opts, dict), f"{label} random must be an object")
        out = random_piecewise(
            rng,
            (lo, hi),
            n_pieces=_int_field(opts, "pieces", 3, 1, 64),
            max_degree=_int_field(opts, "degree", 3, 0, 16),
            n_components=n_components,
            scale=_float_field(opts, "scale", 1.0, 0.0, 1e6),
            continuous=_bool_field(opts, "continuous", False),
        )
    else:
        raise ConfigError(f"{label} needs 'constant', 'breakpoints', or 'random'")
    if endpoint is not None and "breakpoints" not in spec:
        out = out.with_endpoint(endpoint)
    return out


def _number_list(spec, key, n_components, label) -> np.ndarray:
    """spec[key], a JSON number or a list of n_components of them."""
    raw, name = spec[key] if isinstance(spec[key], list) else [spec[key]], f"{label} {key}"
    _require(len(raw) == n_components, f"{name} has wrong length")
    return np.array([_float_field({name: value}, name) for value in raw])


def _history(doc, key, spec) -> HistoryElement:
    space = spec.space
    default = {"constant": [1.0] * space.N}
    return HistoryElement(_function(doc.get(key, default), (-space.R, 0.0), space.N, spec.rng, key))


def _int_field(doc, key, default, lo, hi):
    value = doc.get(key, default)
    # JSON true and false arrive as bool, which is an int subclass.
    _require(isinstance(value, int) and not isinstance(value, bool), f"{key} must be an integer")
    _require(lo <= value <= hi, f"{key} must lie in [{lo}, {hi}]")
    return value


def _bool_field(doc, key, default):
    value = doc.get(key, default)
    _require(isinstance(value, bool), f"{key} must be true or false")
    return value


def _float_field(doc, key, default=None, lo=-math.inf, hi=math.inf):
    value = doc.get(key, default)
    _require(value is not None, f"missing required field {key}")
    _require(isinstance(value, (int, float)) and not isinstance(value, bool), f"{key} must be a number")
    # An integer literal can exceed the float range, and json reads 1e400 as inf.
    _require(abs(value) <= sys.float_info.max, f"{key} must be a finite number")
    _require(lo <= value <= hi, f"{key} must lie in [{lo}, {hi}]")
    return float(value)


def _domain(doc, key, spec) -> MeasureDomain:
    dom = doc.get(key, {"lower": 0.0, "upper": 1.0})
    _require(isinstance(dom, dict), "domain must be an object with lower, upper")
    try:
        return MeasureDomain(_float_field(dom, "lower"), _float_field(dom, "upper"))
    except ValueError as exc:
        raise ConfigError(f"bad domain: {exc}") from exc


def _domain_function(value):
    """A piecewise function on spec.domain, by default the constant `value`."""

    def parse(doc, key, spec):
        dim, dom = spec.nl.dim, spec.domain
        default = {"constant": [value] * dim}
        return _function(doc.get(key, default), (dom.lower, dom.upper), dim, spec.rng, key)

    return parse


def _number(default=None):
    """A float field; its default is a value, a function of the spec, or
    None when the field is required."""
    return lambda doc, key, spec: _float_field(
        doc, key, default(spec) if callable(default) else default
    )


def _integer(default, lo, hi):
    return lambda doc, key, spec: _int_field(doc, key, default, lo, hi)


def _flag(default):
    return lambda doc, key, spec: _bool_field(doc, key, default)


def _discontinuity_count(doc, key, spec):
    default = max(12, math.ceil(5.0 * spec.space.p))
    _require(
        key in doc or default <= 20,
        f"{spec.name}: at p = {spec.space.p:g} the default count would be {default}, "
        "above the limit of 20 halvings; set count explicitly",
    )
    return _int_field(doc, key, default, 3, 20)


def _indicator_width(R: float, r: float, k: int) -> float:
    """Length of the k-th `discontinuity` indicator, [-r - 4^-k, -r + 4^-k]
    clipped to [-R, 0]."""
    h = 1.0 / 4**k
    return min(-r + h, 0.0) - max(-r - h, -R)


# -- builders: check the parsed fields and make what the runner uses.  Their
# errors, ConfigError or a constructor's ValueError, are prefixed with the name.


def _build_solve(spec):
    spec.problem = Problem(spec.space, spec.nl, spec.delay, spec.history)
    _require(spec.horizon > 0, "horizon must be positive")


def _build_dependence(spec):
    spec.problem = Problem(spec.space, spec.nl, spec.delay, spec.history)
    _require(0 < spec.horizon <= spec.delay + 1e-12, "dependence probes need horizon <= delay")
    _require(seminorm(spec.direction, spec.space) > 1e-13, "direction must be nonzero")


def _build_lipschitz(spec):
    _require(spec.space.p == 1.0, "the dependence constant is stated for p = 1")
    growth = spec.nl.df_growth
    _require(
        growth is not None and growth.c1 == 0.0,
        "needs a globally Lipschitz map (constant Jacobian bound)",
    )
    _require(0 < spec.horizon < spec.space.R, "horizon must satisfy 0 < T < R")
    _require(
        spec.horizon <= spec.delay <= spec.space.R + 1e-12, "delay must lie in [horizon, R]"
    )
    Problem(spec.space, spec.nl, spec.delay, spec.history)


def _build_smooth(spec):
    problem = Problem(spec.space, spec.nl, spec.delay, spec.history)
    spec.ctx = DerivativeContext(problem, spec.horizon)
    alpha = spec.nl.df_growth.alpha
    _require(lp_norm(spec.direction.rep, alpha + 1.0) > 1e-13, "direction must be nonzero")


def _build_composition(spec):
    spec.ctx = CompositionContext(spec.nl, spec.q, spec.domain)
    spec.ctx._accept(spec.base, "base")
    spec.ctx._accept(spec.direction, "direction")
    _require(lp_norm(spec.direction, 1.0) > 1e-13, "direction must be nonzero")


def _build_semiflow(spec):
    spec.problem = Problem(spec.space, spec.nl, spec.delay, spec.history)
    _require(seminorm(spec.direction, spec.space) > 1e-13, "direction must be nonzero")


def _build_discontinuity(spec):
    _require(0 < spec.delay <= spec.space.R + 1e-12, "delay must lie in (0, R]")
    R, r, count = spec.space.R, spec.delay, spec.count
    width, tol = _indicator_width(R, r, count), 1e-12 * max(1.0, R)
    _require(
        width > tol,
        f"at count = {count} the last indicator around -r = {-r:g} on [-R, 0] = "
        f"[{-R:g}, 0] is {width:.3g} wide, not above the breakpoint tolerance {tol:.3g}; "
        "set a smaller count",
    )


# -- runners ----------------------------------------------------------------


def _run_solve(spec) -> ExperimentResult:
    traj = solve(spec.problem, spec.horizon)
    ts = np.linspace(-spec.space.R, spec.horizon, spec.grid)
    header = ["t"] + [f"x{j + 1}" for j in range(spec.space.N)]
    rows = [(float(t), *map(float, x)) for t, x in zip(ts, traj.x(ts))]
    cont = traj.continuity_defect()
    claims = [
        Claim.bound(spec.name, "solve.continuity-defect", cont, 1e-9),
        Claim.bound(spec.name, "solve.integration-defect", traj.integration_defect, 1e-6),
    ]
    return ExperimentResult(spec.name, [("trajectory", header, rows)], claims)


def _run_dependence(spec) -> ExperimentResult:
    schedule = halving_solves(spec.problem, spec.direction, spec.horizon, spec.count)
    factors, steps, gaps = zip(*schedule)
    gap_in = seminorm(steps, spec.space)
    gap_out = endpoint_lp_norm(gaps, spec.space.p)
    # Prolongation is linear, so the gap of the deviations x - prolongation(phi)
    # is the gap less the prolongation of the step.
    ygap = sup_norm([gap - static_prolongation(step, spec.horizon) for step, gap in zip(steps, gaps)])
    moved = [spec.history + step for step in steps]
    l1 = [lp_norm(map_gap(spec.nl.fn, phi.rep, spec.history.rep), 1.0) for phi in moved]
    rows = list(zip(factors, gap_in, gap_out, ygap, l1))
    cert = certify_decay(np.array([row[2] for row in rows]))
    worst = max(ygap - l1 for *_, ygap, l1 in rows)
    claims = [
        Claim.decay(spec.name, "dependence.gap-decay", cert),
        Claim.bound(spec.name, "dependence.deviation-l1-bound", worst, 1e-8),
    ]
    header = ["scale", "input_gap", "output_gap", "deviation_gap_sup", "l1_bound"]
    return ExperimentResult(spec.name, [("gaps", header, rows)], claims)


def _run_lipschitz(spec) -> ExperimentResult:
    lip = spec.nl.df_growth.c2
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
    kept = np.flatnonzero(gap_in >= 1e-13)
    xs = [solve(Problem(spec.space, spec.nl, spec.delay, phi), T).x for i in kept for phi in pairs[i]]
    gap_out = endpoint_lp_norm([x1 - x2 for x1, x2 in zip(xs[::2], xs[1::2])], spec.space.p)
    ratios = gap_out / gap_in[kept]
    worst = float(np.max(ratios, initial=0.0))
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
    alpha = spec.nl.df_growth.alpha
    bound = tangent_deviation_bound(ctx)
    probed = estimate_operator_norm(
        lambda chi: tangent_deviation(ctx, chi),
        lambda chi: lp_norm(chi.rep, alpha + 1.0),
        sup_norm,
        (-spec.space.R, 0.0),
        spec.space.N,
        probes=spec.probes,
        seed=spec.seed,
        extra=[spec.direction],
        lift=HistoryElement,
    )
    claims = [
        Claim.decay(spec.name, "smooth.remainder-decay", table.certificate()),
        Claim.bound(spec.name, "smooth.gain-bound", probed, bound, slack=1e-8),
    ]
    if spec.nl.df_lipschitz is not None:
        worst = max(
            float(rem - curvature_remainder_bound(ctx, spec.direction.scale(f)))
            for f, rem in zip(halving(spec.count), table.remainders)
        )
        claims.append(Claim.bound(spec.name, "smooth.curvature-bound", worst, 1e-8))
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
    zero = HistoryElement.constant(np.zeros(cfg.N), cfg.R)
    ks = range(spec.count + 1)
    indicators = [indicator_history(cfg, -r - 1.0 / 4**k, -r + 1.0 / 4**k) for k in ks]
    measured = seminorm([phi_n - zero for phi_n in indicators], cfg)
    analytic = np.array([_indicator_width(cfg.R, r, k) ** (1.0 / cfg.p) for k in ks])
    output = np.array([np.linalg.norm(spec.nl(phi_n(-r)) - spec.nl(zero(-r))) for phi_n in indicators])
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
    """One experiment kind: its fields {name: parser}, parsed in this order
    (also the order in which random functions draw from spec.rng); `build`,
    which checks them and stores the objects `run` uses on the spec; `run`."""

    fields: dict
    build: object
    run: object


_COMMON = {"name", "kind", "seed", "nonlinearity"}  # read for every kind, first
_PROBLEM = {"space": _space, "delay": _number(lambda s: s.space.R), "history": _history}
_HORIZON = _number(lambda s: s.delay)
_COUNT = _integer(12, 3, 40)

_KIND_TABLE = {
    "solve": Kind(
        {**_PROBLEM, "horizon": _number(), "grid": _integer(1001, 2, 10**6)},
        _build_solve, _run_solve,
    ),
    "dependence": Kind(
        {**_PROBLEM, "direction": _history, "horizon": _HORIZON, "count": _COUNT},
        _build_dependence, _run_dependence,
    ),
    "lipschitz": Kind(
        {**_PROBLEM, "horizon": _HORIZON, "instances": _integer(20, 1, 10**4),
         "scale": _number(1.0), "adversarial": _flag(True)},
        _build_lipschitz, _run_lipschitz,
    ),
    "smooth": Kind(
        {**_PROBLEM, "direction": _history, "horizon": _HORIZON, "count": _COUNT,
         "probes": _integer(12, 1, 64)},
        _build_smooth, _run_smooth,
    ),
    "composition": Kind(
        {"domain": _domain, "q": _number(2.0), "base": _domain_function(0.0),
         "direction": _domain_function(1.0), "count": _COUNT},
        _build_composition, _run_composition,
    ),
    # horizon is accepted and never read: bench/odd-exponent.json still sets it.
    "semiflow": Kind(
        {**_PROBLEM, "direction": _history, "horizon": _HORIZON, "count": _COUNT},
        _build_semiflow, _run_semiflow,
    ),
    "discontinuity": Kind(
        {"space": _space, "delay": _PROBLEM["delay"], "count": _discontinuity_count},
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


def parse_experiment(doc, index, global_seed) -> SimpleNamespace:
    """One experiment: name, kind, seed, nl, rng, its kind's fields and the
    objects its kind's build made."""
    _require(isinstance(doc, dict), "each experiment must be an object")
    kind = doc.get("kind")
    _require(
        isinstance(kind, str) and kind in _KIND_TABLE,
        f"unknown experiment kind {kind!r}; choices: {tuple(_KIND_TABLE)}",
    )
    entry = _KIND_TABLE[kind]
    name = str(doc.get("name", f"exp{index + 1:02d}"))
    _require(_NAME_RE.match(name), f"experiment name {name!r} is not filename-safe")
    seed = _int_field(doc, "seed", (global_seed + index) % 2**64, 0, 2**64 - 1)
    unknown = sorted(set(doc) - _COMMON - set(entry.fields))
    _require(not unknown, f"{name}: unknown field(s) {unknown} for kind {kind!r}")
    spec = SimpleNamespace(
        name=name,
        kind=kind,
        seed=seed,
        rng=np.random.default_rng(seed),
        nl=_nonlinearity(doc.get("nonlinearity", {"name": "missing"})),
    )
    for key, parse in entry.fields.items():
        setattr(spec, key, parse(doc, key, spec))
    try:
        entry.build(spec)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc
    return spec


def parse_config(doc, global_seed):
    _require(isinstance(doc, dict), "config root must be an object")
    raw = doc.get("experiments", [])
    _require(isinstance(raw, list), "experiments must be a list")
    specs = [parse_experiment(entry, i, global_seed) for i, entry in enumerate(raw)]
    names = [s.name for s in specs]
    _require(len(set(names)) == len(names), "experiment names must be unique")
    return specs


def run_experiment(spec) -> ExperimentResult:
    return _KIND_TABLE[spec.kind].run(spec)


# -- output -----------------------------------------------------------------


def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.17g" % float(value)
    return str(value)


def write_csv(path, header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


# -- entry point ------------------------------------------------------------


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


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if not 0 <= args.seed < 2**64:
        print("config error: seed must fit in u64", file=sys.stderr)
        return 2
    if args.jobs != 1:
        print("config error: experiments run one at a time; --jobs must be 1", file=sys.stderr)
        return 2
    if args.config is None and args.command != "demo":
        print("config error: --config is required", file=sys.stderr)
        return 2

    doc = {"experiments": [_DEMO]}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2

    try:
        specs = parse_config(doc, args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.command == "solve":
        specs = [s for s in specs if s.kind == "solve"]
    elif args.command == "demo":
        specs = [s for s in specs if s.kind == "discontinuity"]

    if not specs:
        print("no experiments to run")
        return 0

    out_dir = args.out or (doc["out"] if isinstance(doc.get("out"), str) else os.path.join(".", "out"))
    os.makedirs(out_dir, exist_ok=True)

    results = [run_experiment(spec) for spec in specs]
    failures = 0
    for result in results:
        for suffix, header, rows in result.tables:
            write_csv(os.path.join(out_dir, f"{result.name}-{suffix}.csv"), header, rows)
        for claim in result.claims:
            print(claim.line())
            failures += 0 if claim.passed else 1
    total = sum(len(r.claims) for r in results)
    if failures:
        print(f"{failures} of {total} claims failed")
        return 1
    print(f"all {total} claims passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
