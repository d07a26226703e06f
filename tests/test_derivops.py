"""Derivative operator tests: frozen integrals, remainder decay, gain bounds.

Hand-derived values: with Df(y) = y, base history 1 on [-1, 0] and direction
1, the integral part is t on [0, 1]; the linearization remainder for a
constant direction of height h is exactly h^2 t / 2, with sup h^2/2 at t = 1.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddehist.corpus import piecewise_constant, random_history
from ddehist.derivops import (
    DerivativeContext,
    curvature_remainder_bound,
    derivative_gap,
    estimate_operator_norm,
    halving_solves,
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
    regulation_constant,
    seminorm,
)
from ddehist.nonlinear import Nonlinearity, linear, make, quadratic, saturating
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


class TestTangentDeviation:
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
        chi = HistoryElement(
            PiecewiseFunction.from_power([-1.0, 0.0], [[[0.0, 1.0], [1.0]]])
        )
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
        chi1 = HistoryElement(piecewise_constant(rng, (-1.0, 0.0)))
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
            out(probes)[:, 0], chi.value_at_zero[0], atol=1e-12
        )


class TestGainBound:
    def test_constant_history_frozen_value(self):
        # alpha = 1 for Df(y) = y, so q = 2 and the bound is the L^2 size
        # of the constant 1 on a unit interval.
        ctx = scalar_ctx(quadratic())
        assert tangent_deviation_bound(ctx) == pytest.approx(1.0, abs=1e-12)

    def test_identity_history_frozen_value(self):
        phi = HistoryElement(PiecewiseFunction.identity((-1.0, 0.0)))
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
                    chi = HistoryElement(piecewise_constant(rng, (-1.0, 0.0)))
                    lhs = sup_norm(tangent_deviation(ctx, chi))
                    rhs = gain * lp_norm(chi.rep, ctx.alpha + 1.0)
                    assert lhs <= rhs + 1e-8
                    count += 1
        assert count >= 20


class TestOperatorNormEstimate:
    def test_zero_operator(self):
        probed = estimate_operator_norm(
            lambda chi: PiecewiseFunction.zero(1, (-1.0, 1.0)),
            norm_in=lambda chi: lp_norm(chi.rep, 2.0),
            norm_out=sup_norm,
            span=(-SCALAR.R, 0.0),
            n_components=SCALAR.N,
            lift=HistoryElement,
        )
        assert probed == 0.0

    def test_constant_probe_attains_the_bound(self):
        ctx = scalar_ctx(quadratic())
        probed = estimate_operator_norm(
            lambda chi: tangent_deviation(ctx, chi),
            norm_in=lambda chi: lp_norm(chi.rep, 2.0),
            norm_out=sup_norm,
            span=(-SCALAR.R, 0.0),
            n_components=SCALAR.N,
            lift=HistoryElement,
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
                norm_in=lambda chi: lp_norm(chi.rep, ctx.alpha + 1.0),
                norm_out=sup_norm,
                span=(-SCALAR.R, 0.0),
            n_components=SCALAR.N,
            lift=HistoryElement,
                seed=seed,
            )
            assert probed <= tangent_deviation_bound(ctx) + 1e-8


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
        base = solve(pb, 0.6).x
        rows = halving_solves(pb, chi, 0.6, 4)
        assert [factor for factor, _, _ in rows] == [1.0, 0.5, 0.25, 0.125, 0.0625]
        for factor, step, gap in rows:
            assert np.array_equal(step.rep.coeffs, chi.rep.coeffs * factor)
            moved = solve(Problem(SCALAR, saturating(), 0.8, pb.phi + step), 0.6).x
            expected = moved - base
            assert np.array_equal(gap.breakpoints, expected.breakpoints)
            assert np.array_equal(gap.coeffs, expected.coeffs)


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
            chi = HistoryElement(piecewise_constant(rng, (-1.0, 0.0)))
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
    def test_horizon_beyond_delay_rejected(self):
        with pytest.raises(ValueError):
            scalar_ctx(quadratic(), horizon=1.5)

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
