"""Composition operator tests: frozen norms, probe schedules, gain bounds.

The squaring map y -> y^2 is used for most frozen values because every
integral involved is a textbook polynomial: composing with the identity on
[0, 1] gives 1/3, the derivative at the constant 1 is the constant 2, and
the linearization remainder of a constant direction is its exact square.
"""

from fractions import Fraction

import numpy as np
import pytest

from ddehist.composition import (
    CompositionContext,
    MeasureDomain,
    apply_derivative,
    compose,
    continuity_probe,
    curvature_image_bound,
    derivative_gap,
    smoothness_probe,
)
from ddehist.corpus import random_piecewise
from ddehist.funcrep import PiecewiseFunction, lp_norm
from ddehist.nonlinear import (
    GrowthCertificate,
    Nonlinearity,
    holder_conjugate,
    linear,
    make,
    saturating,
)

UNIT = MeasureDomain(0.0, 1.0)


def square_map():
    return Nonlinearity(
        name="square",
        dim=1,
        fn=lambda v: v**2,
        jac=lambda v: (2.0 * v)[..., None],
        f_growth=GrowthCertificate(2.0, 1.0, 0.0),
        df_growth=GrowthCertificate(1.0, 2.0, 0.0),
        df_lipschitz=2.0,
    )


def const(value, domain=(0.0, 1.0)):
    return PiecewiseFunction.constant([value], domain)


def ramp(domain=(0.0, 1.0)):
    return PiecewiseFunction.identity(domain)


class TestCompose:
    def test_square_of_the_ramp_frozen_third(self):
        ctx = CompositionContext(square_map(), 1.0, "continuity", UNIT)
        report = compose(ctx, ramp())
        assert report.norm == pytest.approx(1.0 / 3.0, abs=1e-12)
        # C1 = 1, C2 = 0, alpha q = 2: the bound is the squared L^2 size of
        # the ramp, also exactly 1/3, so the comparison is tight.
        assert report.bound_power == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert report.passed

    def test_affine_map_of_zero_is_its_offset(self):
        affine = Nonlinearity(
            name="affine",
            dim=1,
            fn=lambda v: 2.0 * v + 1.0,
            jac=lambda v: np.full(v.shape + (1,), 2.0),
            f_growth=GrowthCertificate(1.0, 2.0, 1.0),
            df_growth=GrowthCertificate(1.0, 0.0, 2.0),
            df_lipschitz=0.0,
        )
        ctx = CompositionContext(affine, 1.0, "continuity", UNIT)
        report = compose(ctx, const(0.0))
        assert report.norm == pytest.approx(1.0, abs=1e-12)
        assert report.bound_power == pytest.approx(1.0, abs=1e-12)
        assert report.passed
        probes = np.linspace(0.05, 0.95, 7)
        np.testing.assert_allclose(report.image(probes), 1.0, atol=1e-14)

    def test_identity_map_preserves_norms(self):
        rng = np.random.default_rng(2)
        g = random_piecewise(rng, (0.0, 1.0), n_pieces=3, continuous=True)
        ctx = CompositionContext(linear(np.array([[1.0]])), 2.0, "continuity", UNIT)
        report = compose(ctx, g)
        assert report.norm == pytest.approx(lp_norm(g, 2.0), abs=1e-12)
        assert report.passed

    def test_wrong_domain_rejected(self):
        ctx = CompositionContext(square_map(), 1.0, "continuity", UNIT)
        with pytest.raises(ValueError):
            compose(ctx, const(1.0, domain=(0.0, 2.0)))

    def test_well_definedness_bound_over_a_corpus(self):
        rng = np.random.default_rng(14)
        maps = [square_map(), make("cubic"), saturating(), make("mackey_glass")]
        checked = 0
        for nl in maps:
            for q in [1.0, 2.0]:
                ctx = CompositionContext(nl, q, "continuity", UNIT)
                for _ in range(3):
                    g = random_piecewise(rng, (0.0, 1.0), n_pieces=4, scale=2.0)
                    report = compose(ctx, g)
                    assert report.norm**q <= report.bound_power + 1e-8
                    checked += 1
        assert checked == 24


class TestContinuityProbe:
    def test_square_around_zero_frozen_gaps(self):
        ctx = CompositionContext(square_map(), 1.0, "continuity", UNIT)
        table = continuity_probe(ctx, const(0.0), const(1.0), 8)
        np.testing.assert_allclose(table.input_gaps, 0.5 ** np.arange(9), atol=1e-12)
        np.testing.assert_allclose(table.output_gaps, 0.25 ** np.arange(9), atol=1e-12)

    def test_certificate_passes_at_full_depth(self):
        rng = np.random.default_rng(8)
        ctx = CompositionContext(square_map(), 1.0, "continuity", UNIT)
        g = random_piecewise(rng, (0.0, 1.0), n_pieces=3)
        h = random_piecewise(rng, (0.0, 1.0), n_pieces=2)
        assert continuity_probe(ctx, g, h, 12).certificate().passed

    def test_lipschitz_map_gap_bound(self):
        # The saturating map contracts distances, so each output gap is at
        # most the matching input gap (both are L^1 sizes here).
        rng = np.random.default_rng(13)
        ctx = CompositionContext(saturating(), 1.0, "continuity", UNIT)
        g = random_piecewise(rng, (0.0, 1.0), n_pieces=3)
        h = random_piecewise(rng, (0.0, 1.0), n_pieces=3)
        table = continuity_probe(ctx, g, h, 6)
        for ins, outs in zip(table.input_gaps, table.output_gaps):
            assert outs <= ins + 1e-8

    def test_zero_direction_rejected(self):
        ctx = CompositionContext(square_map(), 1.0, "continuity", UNIT)
        with pytest.raises(ValueError):
            continuity_probe(ctx, const(0.5), const(0.0), 6)


class TestApplyDerivative:
    def test_frozen_constant_multiplier(self):
        ctx = CompositionContext(square_map(), 1.0, "smoothness", UNIT)
        report = apply_derivative(ctx, const(1.0), const(1.0))
        probes = np.linspace(0.1, 0.9, 5)
        np.testing.assert_allclose(report.image(probes), 2.0, atol=1e-14)
        assert report.norm == pytest.approx(2.0, abs=1e-12)
        # p = (alpha+1) q = 2, p / alpha = 2: constant 2 has every size 2.
        assert report.gain_bound == pytest.approx(2.0, abs=1e-12)
        assert report.passed

    def test_zero_direction_zero_image(self):
        ctx = CompositionContext(square_map(), 1.0, "smoothness", UNIT)
        report = apply_derivative(ctx, const(0.7), const(0.0))
        assert report.norm < 1e-14

    def test_linear_map_ignores_the_base_point(self):
        ctx = CompositionContext(linear(np.array([[3.0]])), 1.0, "smoothness", UNIT)
        h = ramp()
        at_zero = apply_derivative(ctx, const(0.0), h)
        at_seven = apply_derivative(ctx, const(7.0), h)
        probes = np.linspace(0.05, 0.95, 9)
        np.testing.assert_allclose(at_zero.image(probes), at_seven.image(probes))
        np.testing.assert_allclose(at_zero.image(probes)[:, 0], 3.0 * probes)

    def test_linearity_in_the_direction(self):
        rng = np.random.default_rng(4)
        ctx = CompositionContext(make("mackey_glass"), 1.0, "smoothness", UNIT)
        g = random_piecewise(rng, (0.0, 1.0), n_pieces=3)
        h1 = random_piecewise(rng, (0.0, 1.0), n_pieces=2)
        h2 = random_piecewise(rng, (0.0, 1.0), n_pieces=2)
        combo = h1.scale(0.6) + h2.scale(-1.7)
        probes = np.linspace(0.02, 0.98, 37)
        direct = apply_derivative(ctx, g, combo).image(probes)
        parts = (
            0.6 * apply_derivative(ctx, g, h1).image(probes)
            - 1.7 * apply_derivative(ctx, g, h2).image(probes)
        )
        np.testing.assert_allclose(direct, parts, atol=1e-10)

    def test_gain_bound_on_a_corpus(self):
        rng = np.random.default_rng(19)
        for nl in [square_map(), saturating(), make("mackey_glass")]:
            ctx = CompositionContext(nl, 1.5, "smoothness", UNIT)
            for _ in range(4):
                g = random_piecewise(rng, (0.0, 1.0), n_pieces=3)
                h = random_piecewise(rng, (0.0, 1.0), n_pieces=3)
                report = apply_derivative(ctx, g, h)
                assert report.norm <= report.gain_bound * report.direction_size + 1e-8

    def test_continuity_mode_rejected(self):
        ctx = CompositionContext(square_map(), 1.0, "continuity", UNIT)
        with pytest.raises(ValueError):
            apply_derivative(ctx, const(1.0), const(1.0))


class TestSmoothnessProbe:
    def test_square_at_zero_frozen_remainders(self):
        # T(h) - T(0) - 0 = h^2: remainders 2^-2k against sizes 2^-k.
        ctx = CompositionContext(square_map(), 1.0, "smoothness", UNIT)
        table = smoothness_probe(ctx, const(0.0), const(1.0), 8)
        np.testing.assert_allclose(table.scales, 0.5 ** np.arange(9), atol=1e-12)
        np.testing.assert_allclose(table.remainders, 0.25 ** np.arange(9), atol=1e-12)
        np.testing.assert_allclose(table.ratios, 0.5 ** np.arange(9), atol=1e-11)

    def test_certificate_and_curvature_bound(self):
        ctx = CompositionContext(square_map(), 1.0, "smoothness", UNIT)
        rng = np.random.default_rng(3)
        g = random_piecewise(rng, (0.0, 1.0), n_pieces=3)
        h = random_piecewise(rng, (0.0, 1.0), n_pieces=2)
        table = smoothness_probe(ctx, g, h, 12)
        assert table.certificate().passed
        for k in [0, 3, 6]:
            bound = curvature_image_bound(ctx, h.scale(2.0**-k))
            assert table.remainders[k] <= bound + 1e-8

    def test_linear_map_has_no_remainder(self):
        ctx = CompositionContext(linear(np.array([[2.0]])), 1.0, "smoothness", UNIT)
        rng = np.random.default_rng(6)
        g = random_piecewise(rng, (0.0, 1.0), n_pieces=3)
        h = random_piecewise(rng, (0.0, 1.0), n_pieces=3)
        table = smoothness_probe(ctx, g, h, 4)
        assert np.all(table.remainders <= 1e-10)

    def test_smooth_map_ratio_factor(self):
        ctx = CompositionContext(make("mackey_glass"), 1.0, "smoothness", UNIT)
        rng = np.random.default_rng(9)
        g = random_piecewise(rng, (0.0, 1.0), n_pieces=2, scale=0.5)
        h = random_piecewise(rng, (0.0, 1.0), n_pieces=2, scale=0.5)
        ratios = smoothness_probe(ctx, g, h, 8).ratios
        for k in range(3, 8):
            if ratios[k] < 1e-12:
                continue
            assert ratios[k + 1] / ratios[k] <= 0.75


class TestDerivativeGap:
    def test_frozen_constant_bases(self):
        # Jacobian gap between bases 1 and 0 is the constant 2; the constant
        # direction attains it.
        ctx = CompositionContext(square_map(), 1.0, "smoothness", UNIT)
        pair = derivative_gap(ctx, const(1.0), const(0.0), extra=[const(1.0)])
        assert pair.bound == pytest.approx(2.0, abs=1e-12)
        assert pair.probed == pytest.approx(2.0, abs=1e-9)
        assert pair.passed

    def test_identical_bases_give_zero(self):
        ctx = CompositionContext(square_map(), 1.0, "smoothness", UNIT)
        pair = derivative_gap(ctx, const(0.4), const(0.4), probes=4)
        assert pair.bound < 1e-12
        assert pair.probed < 1e-10

    def test_linear_map_gap_vanishes(self):
        ctx = CompositionContext(linear(np.array([[1.5]])), 1.0, "smoothness", UNIT)
        pair = derivative_gap(ctx, const(0.0), const(5.0), probes=4)
        assert pair.bound < 1e-12
        assert pair.probed < 1e-10

    def test_bound_shrinks_along_a_base_schedule(self):
        ctx = CompositionContext(make("mackey_glass"), 1.0, "smoothness", UNIT)
        rng = np.random.default_rng(12)
        g = random_piecewise(rng, (0.0, 1.0), n_pieces=2, scale=0.5)
        bump = random_piecewise(rng, (0.0, 1.0), n_pieces=2, scale=0.5)
        pairs = [
            derivative_gap(ctx, g, g + bump.scale(2.0**-k), probes=2, seed=k)
            for k in range(5)
        ]
        bounds = [pair.bound for pair in pairs]
        assert all(b2 < b1 for b1, b2 in zip(bounds[:-1], bounds[1:]))
        # Seeded probe draws, recorded before the probe loop moved into
        # derivops.estimate_operator_norm.  Rounding moves the value by a few
        # ulp; a different draw moves it by far more than 1e-12.
        assert pairs[0].probed == pytest.approx(0.22724079802524733, rel=1e-12)


class TestExponents:
    def test_continuity_identity_with_conjugate_exponents(self):
        # With q the conjugate of alpha + 1, the source exponent alpha * q
        # collapses to alpha + 1 exactly, checked in rational arithmetic.
        for alpha in [1, 2, 3, 5]:
            q = Fraction(alpha + 1, alpha)
            assert alpha * q == alpha + 1
            assert float(q) == pytest.approx(holder_conjugate(alpha + 1.0), abs=1e-15)

    def test_mode_and_exponent_validation(self):
        with pytest.raises(ValueError):
            CompositionContext(square_map(), 1.0, "sideways", UNIT)
        with pytest.raises(ValueError):
            CompositionContext(square_map(), 0.5, "continuity", UNIT)
        with pytest.raises(ValueError):
            MeasureDomain(1.0, 1.0)

    def test_context_exponents(self):
        cont = CompositionContext(square_map(), 2.0, "continuity", UNIT)
        assert cont.alpha == 2.0
        assert cont.p == 4.0
        smooth = CompositionContext(square_map(), 2.0, "smoothness", UNIT)
        assert smooth.alpha == 1.0
        assert smooth.p == 4.0
