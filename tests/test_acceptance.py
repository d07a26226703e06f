"""Acceptance gate: the seven headline guarantees, one verdict line each.

Every criterion records a PASS/FAIL verdict line before asserting; the
conftest terminal-summary hook echoes the lines at the end of the run, so
each verdict survives in the log whether or not its assert tripped.

Criterion 3 reproduces a counterexample.  The one-step dependence constant
lip(f) T/(T+R+1) + (1+T) (p = 1, T <= delay) is run verbatim on a corpus
that includes short pulses just after -delay, and it is falsified there:
for f = lip * y and a unit pulse of width w the output/input ratio is
exactly 1 + lip (1 + T - w/2), far above it.  The criterion asserts that
falsification (each linear pulse instance matches that closed form) and
gates on the sound rows, among them the corrected constant
(1+T)(1+lip(f)).  The attribution of the verbatim constant to the source
paper rests on the README alone: the repository holds only the paper's
abstract.  See the README section on the one-step dependence constant for
the derivation.
"""
import math
import sys
import time

import numpy as np

from ddehist.composition import (
    CompositionContext,
    MeasureDomain,
    compose,
    continuity_probe,
    curvature_image_bound,
    smoothness_probe,
)
from ddehist.corpus import bump_history, indicator_history, null_set_variant, random_history, random_piecewise
from ddehist.derivops import (
    DerivativeContext,
    curvature_remainder_bound,
    remainder_schedule,
    tangent_deviation,
    tangent_deviation_bound,
    tangent_trajectory,
)
from ddehist.funcrep import LazyComposition, lp_norm, stack, sup_norm
from ddehist.histspace import (
    HistoryConfig,
    HistoryElement,
    endpoint_lp_norm,
    pair_norm,
    prolongation_constant,
    regulation_constant,
    seminorm,
    static_prolongation,
    to_pair,
)
from ddehist.nonlinear import linear, mackey_glass, quadratic, saturating
from ddehist.semiflow import continuity_modulus, quotient_invariance, semigroup_defect, time_map_remainder
from ddehist.solver import Problem, solve

from oracles import riemann_solve


VERDICT_LINES = []


def verdict(number, name, passed, detail):
    tag = "PASS" if passed else "FAIL"
    line = f"[{tag}] acceptance {number} {name}: {detail}"
    VERDICT_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)


def test_criterion_1_solver_matches_the_independent_oracle():
    start = time.monotonic()
    cfg = HistoryConfig(R=1.0, p=2.0, N=1)
    pb = Problem(cfg, linear([[1.0]]), 1.0, HistoryElement.constant([1.0], cfg.R))
    traj = solve(pb, 2.0)
    spot = abs(float(traj.x(2.0)[0]) - 3.5)
    ts, xs = riemann_solve(pb, 2.0, panels_per_step=500_000)
    gap = float(np.max(np.abs(traj.x(ts) - xs)))
    elapsed = time.monotonic() - start
    ok = spot <= 1e-7 and gap <= 1e-7 and elapsed <= 10.0
    verdict(
        1, "solver-oracle", ok,
        f"x(2) error {spot:.2e}, sup gap {gap:.2e} against a 1e6-panel midpoint rule, {elapsed:.1f}s",
    )
    assert ok


def _closed_form_corpus():
    """50 histories whose seminorm is integrable by hand, at p = 1 and p = 2."""
    entries = []
    for p in (1.0, 2.0):
        cfg = HistoryConfig(R=1.0, p=p, N=1)
        cfg2 = HistoryConfig(R=1.0, p=p, N=2)
        for v in (0.25, 0.5, 1.0, 2.0, 3.5):
            exact = (2.0 * v**p) ** (1.0 / p)
            entries.append((HistoryElement.constant([v], 1.0), cfg, exact))
        for a, b in ((1.0, 0.0), (0.3, 0.4), (1.0, 1.0), (2.0, 1.5), (0.6, 0.8)):
            s = math.hypot(a, b)
            exact = (2.0 * s**p) ** (1.0 / p)
            entries.append((HistoryElement.constant([a, b], 1.0), cfg2, exact))
        for lo, hi, h in (
            (-0.9, -0.1, 1.0),
            (-0.75, -0.25, 2.0),
            (-0.6, -0.5, 3.0),
            (-1.0, -0.4, 0.5),
            (-0.3, 0.0, 1.5),
        ):
            exact = ((hi - lo) * h**p) ** (1.0 / p)
            entries.append((indicator_history(cfg, lo, hi, h), cfg, exact))
        for m in range(1, 6):
            phi = HistoryElement.from_power([-1.0, 0.0], [[[0.0] * m + [1.0]]])
            exact = (1.0 / (m * p + 1.0)) ** (1.0 / p)
            entries.append((phi, cfg, exact))
        for c, h1, h2 in (
            (0.25, 1.0, 2.0),
            (0.5, 0.5, 1.5),
            (0.75, 2.0, 0.25),
            (0.4, 1.0, 1.0),
            (0.6, 3.0, 0.5),
        ):
            phi = HistoryElement.from_power([-1.0, -c, 0.0], [[[h1]], [[h2]]])
            exact = ((1.0 - c) * h1**p + c * h2**p + h2**p) ** (1.0 / p)
            entries.append((phi, cfg, exact))
    return entries


def test_criterion_2_seminorm_closed_forms_and_quotient_isometry():
    corpus = _closed_form_corpus()
    assert len(corpus) == 50
    worst_value = 0.0
    worst_pair = 0.0
    for phi, cfg, exact in corpus:
        measured = seminorm(phi, cfg)
        worst_value = max(worst_value, abs(measured - exact))
        worst_pair = max(worst_pair, abs(pair_norm(to_pair(phi), cfg.p) - measured))
    ok = worst_value <= 1e-10 and worst_pair <= 1e-10
    verdict(
        2, "seminorm-isometry", ok,
        f"50 closed forms, worst value error {worst_value:.2e}, worst isometry defect {worst_pair:.2e}",
    )
    assert ok


def _bound_row_prolongation(rng):
    worst = math.inf
    for i in range(20):
        p = (1.0, 1.5, 2.0, 3.0)[i % 4]
        cfg = HistoryConfig(R=1.0, p=p, N=1)
        T = float(rng.uniform(0.2, 3.0))
        phi = random_history(rng, cfg)
        lhs = endpoint_lp_norm(static_prolongation(phi, T), p)
        worst = min(worst, prolongation_constant(T, p) * seminorm(phi, cfg) - lhs)
    return worst


def _bound_row_regulation(rng):
    worst = math.inf
    for i in range(20):
        p = (1.0, 2.0)[i % 2]
        hi = float(rng.uniform(0.5, 2.0))
        f = random_piecewise(rng, (-1.0, hi), n_pieces=4)
        lhs = endpoint_lp_norm(f, p)
        worst = min(worst, regulation_constant(-1.0, hi, p) * sup_norm(f) - lhs)
    return worst


def _bound_row_holder_gain(rng):
    worst = math.inf
    makers = (quadratic, saturating, mackey_glass)
    cfg = HistoryConfig(R=1.0, p=2.0, N=1)
    horizon = 0.5
    for i in range(20):
        nl = makers[i % 3]()
        r = 0.5 + 0.5 * (i / 19.0)
        phi = random_history(rng, cfg, scale=0.8)
        chi = random_history(rng, cfg)
        ctx = DerivativeContext(Problem(cfg, nl, r, phi), horizon)
        lhs = sup_norm(tangent_deviation(ctx, chi))
        rhs = tangent_deviation_bound(ctx) * lp_norm(chi, 2.0)
        worst = min(worst, rhs - lhs)
    return worst


def _bound_row_response_norm(rng):
    # Valid regime for the additive constant: Jacobian gain at most one
    # (bounded-slope map) and memory length at most one.
    worst = math.inf
    cfg = HistoryConfig(R=1.0, p=2.0, N=1)
    for i in range(20):
        r = 0.5 + 0.5 * (i / 19.0)
        T = r
        phi = random_history(rng, cfg, scale=0.8)
        chi = random_history(rng, cfg)
        ctx = DerivativeContext(Problem(cfg, saturating(), r, phi), T)
        lhs = endpoint_lp_norm(tangent_trajectory(ctx, chi), 2.0)
        const = prolongation_constant(T, 2.0) + regulation_constant(-1.0, 0.0, 2.0)
        worst = min(worst, const * seminorm(chi, cfg) - lhs)
    return worst


def _lipschitz_rows(rng):
    """One-step dependence ratios at p = 1, T = 0.5 <= delay, R = 1.

    Returns the worst slack of the stated and of the corrected constant,
    and for every instance with f = 3y and a pulse difference the tuple
    (index, measured ratio, closed form, stated constant).  For linear f
    the output difference depends only on the input difference, here a
    unit pulse on [-r, -r + w]: it is the pulse itself on [-R, 0] and
    lip * min(t, w) on [0, T], so the ratio is 1 + lip (1 + T - w/2).
    """
    T, R = 0.5, 1.0
    cfg = HistoryConfig(R=R, p=1.0, N=1)
    worst_stated, worst_corrected = math.inf, math.inf
    linear_pulses = []
    for i in range(21):
        nl = linear([[3.0]]) if i % 2 == 0 else saturating()
        lip = nl.df_growth.c2
        r = 0.5 + 0.5 * ((i % 7) / 6.0)
        phi1 = random_history(rng, cfg, scale=0.6)
        pulse = i % 3 == 2
        if pulse:
            width = 0.01
            phi2 = phi1 + bump_history(cfg, -r + width, width, 1.0)
        else:
            phi2 = random_history(rng, cfg, scale=0.6)
        gap_in = seminorm(phi1 - phi2, cfg)
        if gap_in < 1e-13:
            continue
        x1 = solve(Problem(cfg, nl, r, phi1), T).x
        x2 = solve(Problem(cfg, nl, r, phi2), T).x
        ratio = endpoint_lp_norm(x1 - x2, 1.0) / gap_in
        stated = lip * T / (T + R + 1.0) + (1.0 + T)
        corrected = (1.0 + T) * (1.0 + lip)
        worst_stated = min(worst_stated, stated - ratio)
        worst_corrected = min(worst_corrected, corrected - ratio)
        if pulse and i % 2 == 0:
            closed_form = 1.0 + lip * (1.0 + T - width)
            linear_pulses.append((i, ratio, closed_form, stated))
    return worst_stated, worst_corrected, linear_pulses


def _bound_row_composition(rng):
    worst = math.inf
    makers = (quadratic, saturating, mackey_glass)
    domain = MeasureDomain(0.0, 1.0)
    for i in range(20):
        nl = makers[i % 3]()
        q = (1.0, 1.5, 2.0)[i % 3]
        g = random_piecewise(rng, (0.0, 1.0), n_pieces=3, scale=1.5)
        report = compose(CompositionContext(nl, q, domain), g)
        worst = min(worst, report.bound_power - report.norm**report.q)
    return worst


def test_criterion_3_bound_suite():
    start = time.monotonic()
    rng = np.random.default_rng(31)
    rows = {
        "prolongation": _bound_row_prolongation(rng),
        "regulation": _bound_row_regulation(rng),
        "holder-gain": _bound_row_holder_gain(rng),
        "response-norm": _bound_row_response_norm(rng),
    }
    stated, corrected, linear_pulses = _lipschitz_rows(rng)
    rows["dependence-corrected"] = corrected
    rows["composition-power"] = _bound_row_composition(rng)
    elapsed = time.monotonic() - start
    sound = all(slack >= -1e-8 for slack in rows.values())
    closed_form_error = max(abs(ratio - closed) for _, ratio, closed, _ in linear_pulses)
    reproduced = (
        [i for i, *_ in linear_pulses] == [2, 8, 14, 20]
        and closed_form_error <= 1e-10
        and all(ratio > bound for _, ratio, _, bound in linear_pulses)
    )
    ok = sound and reproduced and elapsed <= 120.0
    summary = ", ".join(f"{name} slack {slack:.2e}" for name, slack in rows.items())
    verdict(
        3, "bound-suite", ok,
        f"{summary}; dependence-stated slack {stated:.2e} (reproduced falsification: "
        f"{len(linear_pulses)} linear pulse ratios match 1 + lip(1 + T - w/2) "
        f"within {closed_form_error:.1e}); {elapsed:.1f}s",
    )
    assert sound, "a sound bound row, or the corrected constant (1+T)(1+lip f), lost its slack"
    assert reproduced, (
        "the linear pulse instances no longer reproduce the counterexample to "
        "the stated one-step dependence constant"
    )
    assert elapsed <= 120.0


def test_criterion_4_small_o_certificates():
    rng = np.random.default_rng(41)
    cfg = HistoryConfig(R=1.0, p=2.0, N=1)
    ok = True
    details = []

    instances = [
        (quadratic(), HistoryElement.constant([1.0], 1.0), HistoryElement.constant([1.0], 1.0), 1.0),
        (saturating(), random_history(rng, cfg, scale=0.6), random_history(rng, cfg), 0.8),
        (mackey_glass(), random_history(rng, cfg, scale=0.5), random_history(rng, cfg), 0.7),
    ]
    worst_tail = 0.0
    worst_curvature = -math.inf
    for nl, phi, chi, r in instances:
        ctx = DerivativeContext(Problem(cfg, nl, r, phi), r)
        table = remainder_schedule(ctx, chi, 12)
        cert = table.certificate()
        ok = ok and bool(cert.passed)
        worst_tail = max(worst_tail, cert.final_over_reference / cert.final_limit)
        for k in range(13):
            bound = curvature_remainder_bound(ctx, chi.scale(2.0**-k))
            worst_curvature = max(worst_curvature, float(table.remainders[k]) - bound)
        segment_cert = time_map_remainder(ctx.problem, r, chi, 12).certificate()
        ok = ok and bool(segment_cert.passed)
        worst_tail = max(worst_tail, segment_cert.final_over_reference / segment_cert.final_limit)
    ok = ok and worst_curvature <= 1e-8
    details.append(f"trajectory and window tails <= {worst_tail:.2e} of their limit")
    details.append(f"curvature excess {worst_curvature:.2e}")

    domain = MeasureDomain(0.0, 1.0)
    sctx = CompositionContext(quadratic(), 2.0, domain)
    g = random_piecewise(rng, (0.0, 1.0), n_pieces=3)
    h = random_piecewise(rng, (0.0, 1.0), n_pieces=3)
    ctable = smoothness_probe(sctx, g, h, 12)
    ccert = ctable.certificate()
    ok = ok and bool(ccert.passed)
    worst_image = -math.inf
    for k in range(13):
        bound = curvature_image_bound(sctx, h.scale(2.0**-k))
        worst_image = max(worst_image, float(ctable.remainders[k]) - bound)
    ok = ok and worst_image <= 1e-8
    details.append(
        f"composition tail {ccert.final_over_reference / ccert.final_limit:.2e} of its limit, "
        f"image curvature excess {worst_image:.2e}"
    )

    rotation = linear(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    cfg2 = HistoryConfig(R=1.0, p=2.0, N=2)
    ctx = DerivativeContext(Problem(cfg2, rotation, 1.0, random_history(rng, cfg2)), 1.0)
    linear_rem = float(np.max(remainder_schedule(ctx, random_history(rng, cfg2), 4).remainders))
    lctx = CompositionContext(linear([[2.0]]), 2.0, domain)
    linear_img = float(np.max(smoothness_probe(lctx, g, h, 4).remainders))
    ok = ok and linear_rem <= 1e-10 and linear_img <= 1e-10
    details.append(f"linear controls {linear_rem:.2e} / {linear_img:.2e}")

    verdict(4, "small-o-certificates", ok, "; ".join(details))
    assert ok


def test_criterion_5_semiflow_axioms_on_a_corpus():
    rng = np.random.default_rng(51)
    cfg = HistoryConfig(R=1.0, p=2.0, N=1)
    cfg2 = HistoryConfig(R=1.0, p=2.0, N=2)
    rotation = linear(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    problems = []
    for i in range(20):
        kind = i % 5
        r = (0.5, 0.7, 0.85, 1.0)[i % 4]
        if kind == 0:
            problems.append(Problem(cfg, saturating(), r, random_history(rng, cfg)))
        elif kind == 1:
            problems.append(Problem(cfg, mackey_glass(), r, random_history(rng, cfg, scale=0.8)))
        elif kind == 2:
            problems.append(Problem(cfg, linear([[-1.0]]), r, random_history(rng, cfg)))
        elif kind == 3:
            problems.append(Problem(cfg, quadratic(), r, random_history(rng, cfg, scale=0.4)))
        else:
            problems.append(Problem(cfg2, rotation, r, random_history(rng, cfg2)))
    worst_defect = 0.0
    worst_invariance = 0.0
    for pb in problems:
        r = pb.r
        for t, s in ((0.6 * r, 0.6 * r), (r, 0.3 * r), (0.0, 0.5 * r), (0.5 * r, 0.0)):
            worst_defect = max(worst_defect, semigroup_defect(pb, t, s))
        variant = null_set_variant(pb.phi, rng)
        worst_invariance = max(worst_invariance, quotient_invariance(pb, r, variant))
    ok = worst_defect <= 1e-9 and worst_invariance <= 1e-10
    verdict(
        5, "semiflow-axioms", ok,
        f"20 problems, worst stage-split defect {worst_defect:.2e}, "
        f"worst null-set invariance gap {worst_invariance:.2e}",
    )
    assert ok


def test_criterion_6_discontinuity_of_the_history_functional():
    from ddehist.nonlinear import cubic

    nl = cubic()
    worst_input = 0.0
    outputs = []
    interior_rows = 0
    for p in (1.0, 2.0):
        cfg = HistoryConfig(R=1.0, p=p, N=1)
        r = 0.5
        for k in range(13):
            n = 4**k
            phi_n = indicator_history(cfg, -r - 1.0 / n, -r + 1.0 / n)
            measured = seminorm(phi_n, cfg)
            out = float(abs(nl(phi_n(-r))[0] - nl(np.zeros(1))[0]))
            outputs.append(out)
            if n >= 4:
                worst_input = max(worst_input, abs(measured - (2.0 / n) ** (1.0 / p)))
                interior_rows += 1
    drift = float(np.max(np.abs(np.array(outputs) - outputs[0])))
    floor = float(np.min(outputs))
    ok = worst_input <= 1e-12 and drift == 0.0 and floor >= 1.0 - 1e-12 and interior_rows >= 20
    verdict(
        6, "history-functional-jump", ok,
        f"{interior_rows} interior rows match (2/n)^(1/p) within {worst_input:.2e}; "
        f"output gap constant at {floor:g}",
    )
    assert ok


def test_criterion_7_continuity_probes_with_direct_bounds():
    rng = np.random.default_rng(71)
    cfg = HistoryConfig(R=1.0, p=2.0, N=1)
    ok = True
    worst_tail = 0.0
    worst_excess = -math.inf

    for nl, scale, r in (
        (mackey_glass(), 0.6, 0.8),
        (saturating(), 0.8, 1.0),
        (quadratic(), 0.4, 0.6),
    ):
        phi = random_history(rng, cfg, scale=scale)
        chi = random_history(rng, cfg)
        base = solve(Problem(cfg, nl, r, phi), r)
        fn = nl.fn
        outs = []
        for k in range(13):
            step = chi.scale(2.0**-k)
            moved = phi + step
            traj = solve(Problem(cfg, nl, r, moved), r)
            outs.append(endpoint_lp_norm(traj.x - base.x, cfg.p))
            # The deviation gap: each trajectory less its history's static prolongation.
            deviation = traj.x - static_prolongation(moved, r)
            ygap = sup_norm(deviation - (base.x - static_prolongation(phi, r)))
            paired = stack((moved, phi))
            fgap = LazyComposition(paired, lambda v: fn(v[:, :1]) - fn(v[:, 1:]), 1)
            worst_excess = max(worst_excess, ygap - lp_norm(fgap, 1.0))
        from ddehist.certify import certify_decay

        cert = certify_decay(np.array(outs))
        ok = ok and bool(cert.passed)
        worst_tail = max(worst_tail, cert.final_over_reference / cert.final_limit)

    domain = MeasureDomain(0.0, 1.0)
    for nl in (quadratic(), saturating()):
        ctx = CompositionContext(nl, 2.0, domain)
        g = random_piecewise(rng, (0.0, 1.0), n_pieces=3)
        h = random_piecewise(rng, (0.0, 1.0), n_pieces=3)
        cert = continuity_probe(ctx, g, h, 12).certificate()
        ok = ok and bool(cert.passed)
        worst_tail = max(worst_tail, cert.final_over_reference / cert.final_limit)

    pb = Problem(cfg, saturating(), 0.8, random_history(rng, cfg, scale=0.5))
    tables = continuity_modulus(pb, [0.4, 0.8], random_history(rng, cfg), 12)
    for table in tables:
        cert = table.gaps.certificate()
        within = np.all(table.gaps.output_gaps <= table.bounds + 1e-8)
        ok = ok and bool(cert.passed) and bool(within)
        worst_tail = max(worst_tail, cert.final_over_reference / cert.final_limit)

    ok = ok and worst_excess <= 1e-8
    verdict(
        7, "continuity-probes", ok,
        f"all output tails <= {worst_tail:.2e} of their limit, "
        f"deviation-vs-integral excess {worst_excess:.2e}",
    )
    assert ok
