"""Derivative operator tests: frozen integrals, remainder decay, gain bounds.

Hand-derived values: with Df(y) = y, base history 1 on [-1, 0] and direction
1, the integral part is t on [0, 1]; the linearization remainder for a
constant direction of height h is exactly h^2 t / 2, with sup h^2/2 at t = 1.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from ddehist import cli, composition, derivops, funcrep, semiflow
from ddehist.composition import CompositionContext, MeasureDomain, continuity_probe, smoothness_probe
from ddehist.corpus import piecewise_constant, random_history, random_piecewise
from ddehist.derivops import (
    DerivativeContext,
    curvature_remainder_bound,
    derivative_gap,
    estimate_operator_norm,
    halving_solves,
    map_gap,
    remainder_function,
    remainder_schedule,
    tangent_deviation,
    tangent_deviation_bound,
    tangent_trajectory,
)
from ddehist.funcrep import PiecewiseFunction, lp_norm, sup_norm
from ddehist.histspace import (
    HistoryConfig,
    HistoryElement,
    endpoint_lp_norm,
    history_segment,
    prolongation_constant,
    prolongation_deviation,
    regulation_constant,
    seminorm,
)
from ddehist.nonlinear import Nonlinearity, linear, make, quadratic, saturating
from ddehist.semiflow import continuity_modulus, time_map_remainder, verify_semiflow
from ddehist.solver import Problem, solve

SCALAR = HistoryConfig(R=1.0, p=2.0, N=1)

FROZEN_RT3_INV = 0.5773502691896257  # (1/3)^(1/2)


def scalar_ctx(nl, phi_value=1.0, r=1.0, horizon=None, p=None):
    # A scalar problem on L^p with p = alpha + 1 unless given.
    cfg = HistoryConfig(R=1.0, p=p or nl.df_growth.alpha + 1.0, N=1)
    phi = HistoryElement.constant([phi_value], cfg.R)
    return DerivativeContext(Problem(cfg, nl, r, phi), horizon or r)


def unit_direction(value=1.0):
    return HistoryElement.constant([value], SCALAR.R)


def recording(results, fn):
    # fn, appending each result to results.
    def wrapper(*args):
        results.append(fn(*args))
        return results[-1]

    return wrapper


class TestTangentDeviation:
    def test_is_the_deviation_of_the_response_from_its_prolonged_history(self):
        ctx = scalar_ctx(saturating(), phi_value=0.3, r=0.8)
        chi = random_history(np.random.default_rng(4), SCALAR)
        dev = tangent_deviation(ctx, chi)
        expected = prolongation_deviation(tangent_trajectory(ctx, chi), chi)
        assert np.array_equal(dev.breakpoints, expected.breakpoints)
        assert np.array_equal(dev.coeffs, expected.coeffs)
        assert np.array_equal(dev.endpoint_value, expected.endpoint_value)

    def test_zero_direction_gives_zero(self):
        ctx = scalar_ctx(quadratic())
        out = tangent_deviation(ctx, unit_direction(0.0))
        assert sup_norm(out) < 1e-15

    def test_unit_jacobian_accumulates_time(self):
        # Df(y) = y along history 1 is the constant 1, so the integral part
        # is t on [0, 1] and zero before.
        ctx = scalar_ctx(quadratic())
        out = tangent_deviation(ctx, unit_direction())
        for t, expected in [(-0.5, 0.0), (0.0, 0.0), (0.3, 0.3), (0.77, 0.77), (1.0, 1.0)]:
            assert out(t)[0] == pytest.approx(expected, abs=1e-12)

    def test_linear_rhs_reduces_to_matrix_times_integral(self):
        cfg = HistoryConfig(R=1.0, p=2.0, N=2)
        rotation = linear(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        phi = HistoryElement.constant([0.3, -0.2], cfg.R)
        ctx = DerivativeContext(Problem(cfg, rotation, 1.0, phi), 1.0)
        chi = PiecewiseFunction.from_power([-1.0, 0.0], [[[0.0, 1.0], [1.0]]])
        out = tangent_deviation(ctx, chi)
        # integral of (s-1, 1) over [0, t] is (t^2/2 - t, t); the rotation
        # sends that to (t, t - t^2/2).
        assert out(1.0)[0] == pytest.approx(1.0, abs=1e-12)
        assert out(1.0)[1] == pytest.approx(0.5, abs=1e-12)
        assert out(0.5)[0] == pytest.approx(0.5, abs=1e-12)
        assert out(0.5)[1] == pytest.approx(0.375, abs=1e-12)

    def test_linear_in_the_direction(self):
        rng = np.random.default_rng(9)
        ctx = scalar_ctx(make("mackey_glass", beta=2.0), phi_value=0.7)
        chi1 = piecewise_constant(rng, (-1.0, 0.0))
        chi2 = random_history(rng, SCALAR, continuous=True)
        combo = chi1.scale(0.6) + chi2.scale(-1.7)
        direct = tangent_deviation(ctx, combo)
        assembled = tangent_deviation(ctx, chi1).scale(0.6) + tangent_deviation(
            ctx, chi2
        ).scale(-1.7)
        assert sup_norm(direct - assembled) < 1e-10


class TestTangentTrajectory:
    def test_decomposition_into_prolongation_plus_integral(self):
        ctx = scalar_ctx(quadratic())
        chi = unit_direction()
        out = tangent_trajectory(ctx, chi)
        # chi(0) + t on the solved part, chi itself before.
        assert out(-0.4)[0] == pytest.approx(1.0, abs=1e-12)
        assert out(0.3)[0] == pytest.approx(1.3, abs=1e-12)
        assert out(1.0)[0] == pytest.approx(2.0, abs=1e-12)

    def test_constant_rhs_leaves_only_the_prolongation(self):
        flat = Nonlinearity(
            name="flat",
            dim=1,
            fn=lambda v: np.ones_like(v),
            jac=lambda v: np.zeros(v.shape + (1,)),
            f_growth=quadratic().f_growth,
            df_growth=quadratic().df_growth,
            df_lipschitz=0.0,
        )
        ctx = scalar_ctx(flat)
        rng = np.random.default_rng(3)
        chi = random_history(rng, SCALAR, continuous=True)
        out = tangent_trajectory(ctx, chi)
        probes = np.linspace(0.0, 1.0, 17)
        np.testing.assert_allclose(
            out(probes)[:, 0], chi.endpoint_value[0], atol=1e-12
        )


def beyond_one_delay_case(name, seed):
    # A random scalar problem on L^(alpha + 1), its delay in [0.3, 1], and a
    # random direction.
    nl = make(name)
    cfg = HistoryConfig(R=1.0, p=nl.df_growth.alpha + 1.0, N=1)
    rng = np.random.default_rng(seed)
    r = float(rng.uniform(0.3, 1.0))
    pb = Problem(cfg, nl, r, random_history(rng, cfg, scale=0.5))
    return pb, random_history(rng, cfg)


class TestBeyondOneDelay:
    """The first-order response is a solve of the doubled equation, so it
    holds at any horizon; these cases run to two and three delays."""

    @pytest.mark.parametrize("delays", [2, 3])
    @pytest.mark.parametrize("name", ["quadratic", "cubic", "saturating", "mackey_glass"])
    def test_response_matches_central_differences(self, name, delays):
        # The quotient's own error is about 1e-10 at eps = 1e-6.
        eps = 1e-6
        for seed in range(2):
            pb, chi = beyond_one_delay_case(name, seed)
            T = delays * pb.r
            ts = np.linspace(-pb.cfg.R, T, 301)
            plus = solve(Problem(pb.cfg, pb.nl, pb.r, pb.phi + chi.scale(eps)), T).x(ts)
            minus = solve(Problem(pb.cfg, pb.nl, pb.r, pb.phi + chi.scale(-eps)), T).x(ts)
            quotient = (plus - minus) / (2.0 * eps)
            response = tangent_trajectory(DerivativeContext(pb, T), chi)(ts)
            assert np.abs(response - quotient).max() <= 1e-9 * np.abs(quotient).max()

    @pytest.mark.parametrize("delays", [2, 3])
    def test_linear_response_is_the_solve_from_the_direction(self, delays):
        cfg = HistoryConfig(R=1.0, p=2.0, N=2)
        rotation = linear(np.array([[0.0, 1.0], [-1.0, 0.5]]))
        rng = np.random.default_rng(4)
        phi, chi = random_history(rng, cfg), random_history(rng, cfg)
        T = delays * 0.7
        ts = np.linspace(-1.0, T, 301)
        response = tangent_trajectory(DerivativeContext(Problem(cfg, rotation, 0.7, phi), T), chi)
        direct = solve(Problem(cfg, rotation, 0.7, chi), T).x
        np.testing.assert_allclose(response(ts), direct(ts), rtol=0, atol=1e-12 * sup_norm(direct))

    @pytest.mark.parametrize("delays", [2, 3])
    @pytest.mark.parametrize("name", ["quadratic", "saturating"])
    def test_remainders_fall_at_order_one(self, name, delays):
        # Df is Lipschitz, so remainder / size halves with the size: a log2
        # fall of 1 per row once past the first, pre-asymptotic rows.
        for seed in range(3):
            pb, chi = beyond_one_delay_case(name, seed)
            table = remainder_schedule(DerivativeContext(pb, delays * pb.r), chi, 12)
            fall = np.log2(table.ratios[:-1] / table.ratios[1:])
            assert np.abs(fall[4:] - 1.0).max() < 0.1, fall
            assert abs(fall[-1] - 1.0) < 0.01, fall


def test_map_gap_moves_the_base_by_the_step():
    rng = np.random.default_rng(2)
    base = random_piecewise(rng, (-1.0, 0.0), n_pieces=3)
    step = random_piecewise(rng, (-1.0, 0.0), n_pieces=2)
    fn = make("mackey_glass").fn
    gap = map_gap(fn, base, step)
    ts = rng.uniform(-1.0, 0.0, 50)
    np.testing.assert_allclose(gap(ts), fn(base(ts) + step(ts)) - fn(base(ts)), rtol=1e-13, atol=1e-15)


class TestGainBound:
    def test_constant_history_frozen_value(self):
        # alpha = 1 for Df(y) = y, so q = 2 and the bound is the L^2 size
        # of the constant 1 on a unit interval.
        ctx = scalar_ctx(quadratic())
        assert tangent_deviation_bound(ctx) == pytest.approx(1.0, abs=1e-12)

    def test_identity_history_frozen_value(self):
        phi = PiecewiseFunction.identity((-1.0, 0.0))
        ctx = DerivativeContext(Problem(SCALAR, quadratic(), 1.0, phi), 1.0)
        assert tangent_deviation_bound(ctx) == pytest.approx(FROZEN_RT3_INV, abs=1e-12)

    def test_zero_jacobian_gives_zero(self):
        ctx = scalar_ctx(linear(np.array([[0.0]])))
        assert tangent_deviation_bound(ctx) == 0.0

    def test_sup_of_integral_part_respects_the_gain(self):
        # Hoelder chain on a mixed corpus, sweeping the delay across [T, R].
        rng = np.random.default_rng(21)
        count = 0
        for name in ["quadratic", "saturating", "mackey_glass"]:
            for r in [0.5, 0.75, 1.0]:
                nl = make(name)
                phi = random_history(rng, SCALAR, continuous=True, scale=0.8)
                pb = Problem(SCALAR, nl, r, phi)
                ctx = DerivativeContext(pb, 0.5)
                gain = tangent_deviation_bound(ctx)
                for _ in range(3):
                    chi = piecewise_constant(rng, (-1.0, 0.0))
                    lhs = sup_norm(tangent_deviation(ctx, chi))
                    rhs = gain * lp_norm(chi, ctx.alpha + 1.0)
                    assert lhs <= rhs + 1e-8
                    count += 1
        assert count >= 20


class TestOperatorNormEstimate:
    def test_zero_operator(self):
        probed = estimate_operator_norm(
            lambda chi: PiecewiseFunction.constant([0.0], (-1.0, 1.0)),
            norm_in=lambda chi: lp_norm(chi, 2.0),
            norm_out=sup_norm,
            span=(-SCALAR.R, 0.0),
            n_components=SCALAR.N,
        )
        assert probed == 0.0

    def test_constant_probe_attains_the_bound(self):
        ctx = scalar_ctx(quadratic())
        probed = estimate_operator_norm(
            lambda chi: tangent_deviation(ctx, chi),
            norm_in=lambda chi: lp_norm(chi, 2.0),
            norm_out=sup_norm,
            span=(-SCALAR.R, 0.0),
            n_components=SCALAR.N,
            probes=6,
            extra=[unit_direction()],
        )
        assert probed == pytest.approx(1.0, abs=1e-9)
        assert probed <= tangent_deviation_bound(ctx) + 1e-8

    def test_random_probes_stay_below_the_bound(self):
        for seed, name in [(0, "quadratic"), (1, "saturating"), (2, "mackey_glass")]:
            ctx = scalar_ctx(make(name), phi_value=0.6)
            probed = estimate_operator_norm(
                lambda chi: tangent_deviation(ctx, chi),
                norm_in=lambda chi: lp_norm(chi, ctx.alpha + 1.0),
                norm_out=sup_norm,
                span=(-SCALAR.R, 0.0),
            n_components=SCALAR.N,
                seed=seed,
            )
            assert probed <= tangent_deviation_bound(ctx) + 1e-8


def _random_operator(kind, rng):
    # A map of histories on [-1, 0]: linear, affine on another partition,
    # the zero map, or the window at r of the integral part of a tangent solve.
    if kind == "scale":
        c = float(rng.normal())
        return lambda chi: chi.scale(c)
    if kind == "affine":
        g = random_piecewise(rng, (-SCALAR.R, 0.0), 3, 2, 1)
        return lambda chi: chi + g
    if kind == "zero":
        return lambda chi: PiecewiseFunction.constant([0.0], (-SCALAR.R, 0.0))
    ctx = scalar_ctx(saturating(), phi_value=float(rng.normal()))
    return lambda chi: history_segment(tangent_deviation(ctx, chi), 1.0, SCALAR.R)


NORM_PAIRS = {
    "lp-sup": (lambda chi: lp_norm(chi, 2.0), sup_norm),
    "odd-lp": (lambda chi: lp_norm(chi, 1.5), lambda y: lp_norm(y, 3.0)),
    "seminorm": (lambda chi: seminorm(chi, SCALAR), lambda y: seminorm(y, SCALAR)),
}


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["scale", "affine", "zero", "tangent"]),
    pair=st.sampled_from(sorted(NORM_PAIRS)),
    probes=st.integers(0, 6),
    zero_extra=st.booleans(),
)
@example(seed=0, kind="zero", pair="lp-sup", probes=3, zero_extra=True)
@example(seed=1, kind="tangent", pair="seminorm", probes=4, zero_extra=True)
@example(seed=2, kind="scale", pair="odd-lp", probes=0, zero_extra=True)  # only a zero-size candidate
def test_operator_norm_matches_the_per_probe_loop_in_one_call_per_norm(seed, kind, pair, probes, zero_extra):
    rng = np.random.default_rng(seed)
    op = _random_operator(kind, rng)
    norm_in, norm_out = NORM_PAIRS[pair]
    extra = [unit_direction(0.0)] * zero_extra + [random_piecewise(rng, (-SCALAR.R, 0.0), 2, 3, 1)]
    if probes == 0 and zero_extra:
        extra = extra[:1]
    calls = []

    def counted(norm, name):
        def measure(fs):
            calls.append(name)
            return norm(fs)

        return measure

    args = ((-SCALAR.R, 0.0), SCALAR.N, probes, seed % 7, extra)
    probed = estimate_operator_norm(op, counted(norm_in, "in"), counted(norm_out, "out"), *args)
    assert probed == oracles.operator_norm_loop(op, norm_in, norm_out, *args)
    assert calls == ["in", "out"]
    if kind == "zero" or len(extra) + probes == zero_extra:
        assert probed == 0.0


class TestRemainder:
    def test_constant_direction_frozen_square(self):
        # Remainder h^2 t / 2 for Df(y) = y; sup at the horizon.
        ctx = scalar_ctx(quadratic())
        rem = sup_norm(remainder_function(ctx, unit_direction(0.25)))
        assert rem == pytest.approx(0.25**2 / 2.0, abs=1e-10)

    def test_zero_direction_gives_zero(self):
        ctx = scalar_ctx(quadratic())
        assert sup_norm(remainder_function(ctx, unit_direction(0.0))) < 1e-14

    def test_linear_rhs_has_no_remainder(self):
        cfg = HistoryConfig(R=1.0, p=2.0, N=2)
        rotation = linear(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        rng = np.random.default_rng(4)
        phi = random_history(rng, cfg, continuous=True)
        ctx = DerivativeContext(Problem(cfg, rotation, 1.0, phi), 1.0)
        chi = random_history(rng, cfg, continuous=True)
        assert sup_norm(remainder_function(ctx, chi)) < 1e-10

    def test_remainder_function_makes_two_solves(self, monkeypatch):
        # The base trajectory is the x block of the solve behind the response.
        solves = []
        monkeypatch.setattr(derivops, "solve", recording(solves, solve))
        remainder_function(scalar_ctx(quadratic()), unit_direction(0.25))
        assert len(solves) == 2

    def test_remainder_function_vanishes_on_history(self):
        ctx = scalar_ctx(quadratic())
        rem = remainder_function(ctx, unit_direction(0.5))
        np.testing.assert_allclose(
            rem(np.array([-1.0, -0.3, 0.0])), 0.0, atol=1e-12
        )

    def test_quotient_transfer_of_the_remainder(self):
        # The endpoint-augmented p-norm over the whole window is controlled
        # by the sup norm times (horizon + memory + 1)^(1/p).
        rng = np.random.default_rng(17)
        for name in ["quadratic", "mackey_glass"]:
            ctx = scalar_ctx(make(name), phi_value=0.5)
            chi = random_history(rng, SCALAR, continuous=True, scale=0.3)
            rem = remainder_function(ctx, chi)
            lhs = endpoint_lp_norm(rem, SCALAR.p)
            factor = regulation_constant(-SCALAR.R, ctx.horizon, SCALAR.p)
            assert lhs <= factor * sup_norm(rem) + 1e-8


class TestRemainderSchedule:
    def test_quadratic_rhs_halves_the_ratio_each_row(self):
        ctx = scalar_ctx(quadratic())
        table = remainder_schedule(ctx, unit_direction(), 8)
        np.testing.assert_allclose(table.scales, 0.5 ** np.arange(9), atol=1e-12)
        np.testing.assert_allclose(
            table.remainders, 0.5 * 0.25 ** np.arange(9), atol=1e-10
        )
        ratios = table.ratios
        np.testing.assert_allclose(ratios[1:] / ratios[:-1], 0.5, atol=1e-5)

    def test_certificate_passes_at_full_depth(self):
        ctx = scalar_ctx(quadratic())
        table = remainder_schedule(ctx, unit_direction(), 12)
        assert table.certificate().passed

    def test_lipschitz_jacobian_curvature_bound(self):
        # For Df(y) = y the Taylor bound is exact: lip = 1 and the remainder
        # equals half the squared L^2 size of the direction.
        ctx = scalar_ctx(quadratic())
        table = remainder_schedule(ctx, unit_direction(), 6)
        for k in range(7):
            chi = unit_direction().scale(2.0**-k)
            bound = curvature_remainder_bound(ctx, chi)
            assert table.remainders[k] <= bound + 1e-8

    def test_smooth_corpus_ratio_factor(self):
        ctx = scalar_ctx(make("mackey_glass", beta=2.0), phi_value=0.6)
        rng = np.random.default_rng(11)
        chi = random_history(rng, SCALAR, continuous=True, scale=0.5)
        ratios = remainder_schedule(ctx, chi, 8).ratios
        for k in range(3, 8):
            if ratios[k] < 1e-12:
                continue
            assert ratios[k + 1] / ratios[k] <= 0.75

    def test_linear_rhs_ratios_at_noise(self):
        ctx = scalar_ctx(linear(np.array([[0.8]])))
        table = remainder_schedule(ctx, unit_direction(), 4)
        assert np.all(table.ratios <= 1e-10)

    def test_shallow_schedule_rejected(self):
        ctx = scalar_ctx(quadratic())
        with pytest.raises(ValueError):
            remainder_schedule(ctx, unit_direction(), 2)


class TestHalvingSolves:
    def test_rows_carry_the_trajectory_gap_of_each_step(self):
        rng = np.random.default_rng(5)
        pb = Problem(SCALAR, saturating(), 0.8, random_history(rng, SCALAR, scale=0.5))
        chi = random_history(rng, SCALAR)
        sizes, rows = halving_solves(pb, chi, 0.6, 4, lambda h: seminorm(h, SCALAR))
        assert [factor for factor, _, _ in rows] == [1.0, 0.5, 0.25, 0.125, 0.0625]
        assert np.array_equal(sizes, [f * seminorm(chi, SCALAR) for f, _, _ in rows])
        # pb.phi + 0 chi is pb.phi on the schedule's partition, where its base is solved.
        base = solve(replace(pb, phi=pb.phi + chi.scale(0.0)), 0.6).x
        plain = solve(pb, 0.6).x
        ts = np.concatenate((np.linspace(-1.0, 0.0, 41), chi.breakpoints, pb.phi.breakpoints))
        for factor, step, gap in rows:
            # Each step is f chi on the one partition of phi and chi, the
            # moved history's, so the history sum skips the merge.
            history = pb.phi + step
            assert np.array_equal(step.breakpoints, history.breakpoints)
            assert np.array_equal(step.breakpoints, (pb.phi + chi).breakpoints)
            want = factor * chi(ts)
            assert np.abs(step(ts) - want).max() <= 1e-15 * np.abs(want).max()
            moved = solve(replace(pb, phi=history), 0.6).x
            for x in (moved, base):
                assert np.array_equal(gap.breakpoints, x.breakpoints)
            assert np.array_equal(gap.coeffs, moved.coeffs - base.coeffs)
            assert np.array_equal(gap.endpoint_value, moved.endpoint_value - base.endpoint_value)
            # The base solved from phi alone has a partition of its own and
            # differs by rounding of the O(1) trajectories: 2.0e-15 here.
            assert sup_norm(gap - (moved - plain)) <= 1e-13

    def test_remainder_tables_live_on_one_partition(self, monkeypatch):
        # Every solve behind remainder_schedule and time_map_remainder, the
        # doubled one of the response included, has one partition, so each
        # gap shares the response's breakpoints.
        ctx = scalar_ctx(saturating(), phi_value=0.3, r=0.8)
        chi = random_history(np.random.default_rng(9), SCALAR, scale=0.5)
        for module, run in [
            (derivops, lambda: remainder_schedule(ctx, chi, 4)),
            (semiflow, lambda: time_map_remainder(ctx.problem, ctx.horizon, chi, 4)),
        ]:
            solves, schedules, responses = [], [], []
            monkeypatch.setattr(derivops, "solve", recording(solves, solve))
            monkeypatch.setattr(module, "halving_solves", recording(schedules, module.halving_solves))
            monkeypatch.setattr(module, "tangent_trajectory", recording(responses, module.tangent_trajectory))
            run()
            ((_, rows),), (y,) = schedules, responses
            assert len(solves) == 7
            for traj in solves:
                assert np.array_equal(traj.x.breakpoints, y.breakpoints)
            for _, _, gap in rows:
                assert np.array_equal(gap.breakpoints, y.breakpoints)
            monkeypatch.undo()


def _schedules():
    # One run of each halving-schedule loop at a given count; each loop's
    # base and direction have partitions of their own.
    rng = np.random.default_rng(12)
    pb = Problem(SCALAR, saturating(), 0.8, random_history(rng, SCALAR, scale=0.5))
    chi = random_history(rng, SCALAR)
    ctx = CompositionContext(saturating(), 1.0, MeasureDomain(0.0, 1.0))
    g, h = random_piecewise(rng, (0.0, 1.0), n_pieces=3), random_piecewise(rng, (0.0, 1.0), n_pieces=2)
    exp = {
        "name": "dep", "kind": "dependence", "nonlinearity": {"name": "mackey_glass"},
        "space": {"R": 1.0, "p": 2.0, "N": 1}, "delay": 0.8, "horizon": 0.8,
        "history": {"random": {"scale": 0.5}}, "direction": {"random": {"scale": 1.0}},
    }
    return {
        "halving_solves": lambda count: halving_solves(pb, chi, 0.6, count, lambda h: seminorm(h, SCALAR)),
        "_run_dependence": lambda count: cli._run_dependence(
            cli.parse_config({"experiments": [dict(exp, count=count)]}, 7)[0]
        ),
        "continuity_probe": lambda count: continuity_probe(ctx, g, h, count),
        "smoothness_probe": lambda count: smoothness_probe(ctx, g, h, count),
    }


@pytest.mark.parametrize("name", sorted(_schedules()))
def test_a_schedule_merges_its_partitions_once(monkeypatch, name):
    # The base and the direction go onto one partition once per schedule,
    # so the rows add no merge: as many merges at count 4 as at count 12.
    merges = []
    monkeypatch.setattr(funcrep, "_merge_partitions", recording(merges, funcrep._merge_partitions))
    run, counts = _schedules()[name], []
    for count in (4, 12):
        merges.clear()
        run(count)
        counts.append(len(merges))
    assert counts[0] >= 1
    assert counts[0] == counts[1]


def _multiples_measured(monkeypatch, module, names, chi, run):
    # Run, recording every argument of the norms `names` of module; return
    # (f, batch size) for each measured function that is f chi on chi's
    # domain, with batch size 0 for a single function.  A function at
    # rounding level (|f| <= 1e-12), such as a semigroup defect, is no step.
    found = []

    def recorder(norm):
        def wrapper(fs, *args):
            batch = isinstance(fs, (list, tuple))
            for fn in fs if batch else [fs]:
                if isinstance(fn, PiecewiseFunction) and fn.domain == chi.domain:
                    ts = np.linspace(*chi.domain, 97)
                    got, want = fn(ts), chi(ts)
                    f = float(np.vdot(got, want) / np.vdot(want, want))
                    if abs(f) > 1e-12 and np.abs(got - f * want).max() <= 1e-15 * np.abs(want).max():
                        found.append((f, len(fs) if batch else 0))
            return norm(fs, *args)

        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, recorder(getattr(module, name)))
    run()
    monkeypatch.undo()
    return found


def _directions():
    # Each schedule that sizes its rows: the module whose norms it calls,
    # those norms, its direction, and one run at count 12.
    rng = np.random.default_rng(12)
    pb = Problem(SCALAR, saturating(), 0.8, random_history(rng, SCALAR, scale=0.5))
    chi = random_history(rng, SCALAR)
    ctx = CompositionContext(saturating(), 1.0, MeasureDomain(0.0, 1.0))
    g, h = random_piecewise(rng, (0.0, 1.0), n_pieces=3), random_piecewise(rng, (0.0, 1.0), n_pieces=2)
    exp = {
        "name": "dep", "kind": "dependence", "nonlinearity": {"name": "mackey_glass"},
        "space": {"R": 1.0, "p": 2.0, "N": 1}, "delay": 0.8, "horizon": 0.8, "count": 12,
        "history": {"random": {"scale": 0.5}}, "direction": {"random": {"scale": 1.0}},
    }
    spec = cli.parse_config({"experiments": [exp]}, 7)[0]
    norms = ["seminorm", "endpoint_lp_norm", "lp_norm", "sup_norm"]
    flow_norms = ["seminorm", "lp_norm", "sup_norm"]  # those semiflow imports
    return {
        "remainder_schedule": (
            derivops, ["lp_norm", "sup_norm"], chi, lambda: remainder_schedule(DerivativeContext(pb, 0.6), chi, 12)
        ),
        "continuity_probe": (composition, ["lp_norm"], h, lambda: continuity_probe(ctx, g, h, 12)),
        "smoothness_probe": (composition, ["lp_norm"], h, lambda: smoothness_probe(ctx, g, h, 12)),
        "_run_dependence": (cli, norms, spec.direction, lambda: cli._run_dependence(spec)),
        "continuity_modulus": (semiflow, flow_norms, chi, lambda: continuity_modulus(pb, [0.4, 0.8], chi, 12)),
        "time_map_remainder": (semiflow, flow_norms, chi, lambda: time_map_remainder(pb, 0.6, chi, 12)),
        "verify_semiflow": (semiflow, flow_norms, chi, lambda: verify_semiflow(pb, chi, 12)),
    }


@pytest.mark.parametrize("name", sorted(_directions()))
def test_a_schedule_measures_its_direction_once(monkeypatch, name):
    # Every norm is homogeneous: a table's input sizes are 2^-k times the
    # size of its direction, so no norm receives the count + 1 steps.
    module, names, direction, run = _directions()[name]
    assert _multiples_measured(monkeypatch, module, names, direction, run) == [(1.0, 0)]


def _entry_points():
    # Each halving-schedule entry point: the norm it sizes its direction in,
    # a direction, and a run along a given multiple of that direction.
    rng = np.random.default_rng(12)
    pb = Problem(SCALAR, saturating(), 0.8, random_history(rng, SCALAR, scale=0.5))
    chi = random_history(rng, SCALAR)
    ctx = CompositionContext(saturating(), 1.0, MeasureDomain(0.0, 1.0))
    g, h = random_piecewise(rng, (0.0, 1.0), n_pieces=3), random_piecewise(rng, (0.0, 1.0), n_pieces=2)
    window = lambda d: seminorm(d, SCALAR)
    return {
        "halving_solves": (window, chi, lambda d: halving_solves(pb, d, 0.6, 4, window)),
        "remainder_schedule": (
            lambda d: lp_norm(d, 2.0), chi, lambda d: remainder_schedule(DerivativeContext(pb, 0.6), d, 4)
        ),
        "continuity_probe": (lambda d: lp_norm(d, ctx.continuity_p), h, lambda d: continuity_probe(ctx, g, d, 4)),
        "smoothness_probe": (lambda d: lp_norm(d, ctx.smoothness_p), h, lambda d: smoothness_probe(ctx, g, d, 4)),
        "continuity_modulus": (window, chi, lambda d: continuity_modulus(pb, [0.4], d, 4)),
        "time_map_remainder": (window, chi, lambda d: time_map_remainder(pb, 0.6, d, 4)),
        "verify_semiflow": (window, chi, lambda d: verify_semiflow(pb, d, 4)),
    }


@pytest.mark.parametrize("name", sorted(_entry_points()))
def test_every_schedule_applies_one_zero_direction_rule(name):
    # Size 1e-15 in the schedule's own norm is below ZERO_SIZE: every entry
    # point raises alike.  Size 1e-12 is above it and runs.
    norm, chi, run = _entry_points()[name]
    with pytest.raises(ValueError, match="^direction must be nonzero$"):
        run(chi.scale(1e-15 / norm(chi)))
    run(chi.scale(1e-12 / norm(chi)))


class TestGateauxConsistency:
    def test_difference_quotients_approach_the_integral_part(self):
        ctx = scalar_ctx(quadratic())
        pb = ctx.problem
        chi = unit_direction(0.8)
        base = solve(pb, 1.0).x
        tangent = tangent_trajectory(ctx, chi)
        h = 2.0**-12
        moved = solve(Problem(SCALAR, quadratic(), 1.0, pb.phi + chi.scale(h)), 1.0).x
        quotient = (moved - base).scale(1.0 / h)
        assert sup_norm(quotient - tangent) <= 1e-4


class TestDerivativeGap:
    def test_same_base_point_gives_zero(self):
        ctx = scalar_ctx(quadratic())
        probed, bound = derivative_gap(ctx, ctx.problem.phi, probes=4)
        assert bound < 1e-12
        assert probed < 1e-10

    def test_frozen_constant_histories(self):
        # Df(y) = y, bases 1 and 0: the Jacobian gap along the pair is the
        # constant 1, whose L^2 size on a unit interval is 1, and the
        # constant direction attains it.
        ctx = scalar_ctx(quadratic(), phi_value=1.0)
        probed, bound = derivative_gap(
            ctx, HistoryElement.constant([0.0], SCALAR.R), extra=[unit_direction()]
        )
        assert bound == pytest.approx(1.0, abs=1e-12)
        assert probed == pytest.approx(1.0, abs=1e-9)

    def test_linear_rhs_gap_vanishes(self):
        ctx = scalar_ctx(linear(np.array([[0.5]])))
        probed, bound = derivative_gap(ctx, unit_direction(-2.0), probes=4)
        assert bound < 1e-12
        assert probed < 1e-10

    def test_gap_shrinks_along_a_history_schedule(self):
        ctx = scalar_ctx(make("mackey_glass", beta=2.0), phi_value=0.5)
        rng = np.random.default_rng(6)
        bump = random_history(rng, SCALAR, continuous=True, scale=0.4)
        pairs = [
            derivative_gap(ctx, ctx.problem.phi + bump.scale(2.0**-k), probes=3, seed=k)
            for k in range(5)
        ]
        bounds = [bound for _, bound in pairs]
        assert all(b2 < b1 for b1, b2 in zip(bounds[:-1], bounds[1:]))
        assert bounds[-1] < 0.2 * bounds[0]
        # The seeded probe draws are part of the contract: this value was
        # recorded before the probe loop moved into estimate_operator_norm.
        # Rounding moves it by a few ulp; a different draw by far more.
        assert pairs[0][0] == pytest.approx(0.6793185665778031, rel=1e-12)


class TestSegmentBound:
    def test_time_slices_of_the_response_in_the_quotient_norm(self):
        # Valid regime: unit memory and Jacobian gain at most one, which the
        # saturating map guarantees for every base history.
        rng = np.random.default_rng(33)
        T = 1.0
        grew = 0
        for _ in range(7):
            phi = random_history(rng, SCALAR, continuous=True)
            pb = Problem(SCALAR, saturating(), 1.0, phi)
            ctx = DerivativeContext(pb, T)
            assert tangent_deviation_bound(ctx) <= 1.0 + 1e-9
            chi = piecewise_constant(rng, (-1.0, 0.0))
            response = tangent_trajectory(ctx, chi)
            factor = prolongation_constant(T, SCALAR.p) + regulation_constant(
                -SCALAR.R, 0.0, SCALAR.p
            )
            for t in [0.0, 0.5, 1.0]:
                piece = history_segment(response, t, SCALAR.R)
                lhs = seminorm(piece, SCALAR)
                assert lhs <= factor * seminorm(chi, SCALAR) + 1e-8
                grew += 1
        assert grew >= 20


class TestValidation:
    def test_one_step_bounds_reject_a_horizon_beyond_the_delay(self):
        # Tangents work at any horizon; the Hoelder bounds hold within one delay.
        ctx = scalar_ctx(quadratic(), horizon=1.5)
        with pytest.raises(ValueError, match="one-step bound"):
            tangent_deviation_bound(ctx)
        with pytest.raises(ValueError, match="one-step bound"):
            derivative_gap(ctx, unit_direction(0.0), probes=1)

    def test_nonpositive_horizon_rejected(self):
        with pytest.raises(ValueError):
            scalar_ctx(quadratic(), horizon=-0.5)

    def test_small_exponent_rejected(self):
        with pytest.raises(ValueError):
            scalar_ctx(quadratic(), p=1.5)

    def test_missing_jacobian_rejected(self):
        bare = Nonlinearity(
            name="bare",
            dim=1,
            fn=lambda v: v,
            jac=None,
            f_growth=quadratic().f_growth,
            df_growth=quadratic().df_growth,
        )
        with pytest.raises(ValueError):
            scalar_ctx(bare)

    def test_missing_lipschitz_certificate_rejected(self):
        ctx = scalar_ctx(make("cubic"), phi_value=0.4)
        with pytest.raises(ValueError):
            curvature_remainder_bound(ctx, unit_direction())


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 5_000))
# Ratios that rise from row 0 to a peak at row 1 before halving, with
# final/initial above 1e-3.
@example(seed=539)
@example(seed=1884)
def test_random_directions_certify_decay(seed):
    rng = np.random.default_rng(seed)
    ctx = scalar_ctx(saturating(), phi_value=0.5, r=1.0, horizon=0.8)
    chi = random_history(rng, SCALAR, continuous=True, scale=0.7)
    table = remainder_schedule(ctx, chi, 12)
    assert table.certificate().passed
