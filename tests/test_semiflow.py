"""Semiflow tests: axioms, class invariance, continuity, time-map smoothness.

Hand-derived values: for f(y) = y with history 1 and delay 1 the solution is
1 + t on [0, 1] and 3/2 + t^2/2 on [1, 2], so the time-1 window is
theta -> 2 + theta.  For f(y) = y^2/2 under the same data the linearization
remainder of the time-1 map at scale 2^-k is 4^-k (1 + theta)/2 on the window,
whose seminorm is 4^-k / sqrt(3).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddehist.corpus import null_set_variant, random_history
from ddehist.histspace import HistoryConfig, HistoryElement, seminorm
from ddehist.nonlinear import linear, mackey_glass, quadratic, saturating
from ddehist.semiflow import (
    Semiflow,
    continuity_modulus,
    evolve,
    quotient_invariance,
    semigroup_defect,
    time_map_derivative_gap,
    time_map_remainder,
    verify_semiflow,
)
from ddehist.solver import solve

SCALAR = HistoryConfig(R=1.0, p=2.0, N=1)

FROZEN_RT3_INV = 0.5773502691896257  # (1/3)^(1/2)


def scalar_flow(nl, r=1.0):
    return Semiflow(SCALAR, nl, r)


def unit_history(value=1.0):
    return HistoryElement.constant([value], SCALAR.R)


def within_bounds(table):
    # Every evolved gap at most its two-term proof bound.
    return bool(np.all(table.gaps.output_gaps <= table.bounds + 1e-8))


def small_corpus(seed=5, size=4, scale=0.4):
    rng = np.random.default_rng(seed)
    return [random_history(rng, SCALAR, scale=scale) for _ in range(size)]


class TestEvolve:
    def test_time_zero_returns_the_history_itself(self):
        sf = scalar_flow(saturating())
        phi = unit_history()
        assert evolve(sf, 0.0, phi) is phi

    def test_frozen_window_for_identity_feedback(self):
        # x(t) = 1 + t on [0, 1], so the time-1 window is theta -> 2 + theta.
        sf = scalar_flow(linear(np.array([[1.0]])))
        moved = evolve(sf, 1.0, unit_history())
        for theta in [-1.0, -0.5, -0.25, 0.0]:
            assert moved(theta)[0] == pytest.approx(2.0 + theta, abs=1e-12)

    def test_partial_window_mixes_history_and_solution(self):
        # At t = 1/2 the window shows history on [-1, -1/2) and 1 + (t + theta)
        # after.
        sf = scalar_flow(linear(np.array([[1.0]])))
        moved = evolve(sf, 0.5, unit_history())
        assert moved(-0.75)[0] == pytest.approx(1.0, abs=1e-12)
        assert moved(-0.25)[0] == pytest.approx(1.25, abs=1e-12)
        assert moved(0.0)[0] == pytest.approx(1.5, abs=1e-12)

    def test_zero_feedback_freezes_the_endpoint(self):
        rng = np.random.default_rng(0)
        sf = scalar_flow(linear(np.array([[0.0]])))
        phi = random_history(rng, SCALAR)
        moved = evolve(sf, SCALAR.R, phi)
        head = float(phi(0.0)[0])
        for theta in [-1.0, -0.4, 0.0]:
            assert moved(theta)[0] == pytest.approx(head, abs=1e-12)

    def test_negative_time_rejected(self):
        sf = scalar_flow(saturating())
        with pytest.raises(ValueError):
            evolve(sf, -0.1, unit_history())

    def test_delay_and_dimension_validated(self):
        with pytest.raises(ValueError):
            Semiflow(SCALAR, saturating(), 1.5)
        with pytest.raises(ValueError):
            Semiflow(SCALAR, saturating(dim=2), 1.0)

    def test_long_runs_succeed(self):
        sf = scalar_flow(mackey_glass(), r=0.5)
        for phi in small_corpus(seed=11, size=3, scale=1.5):
            traj = solve(sf.problem(phi), 5.0)
            assert traj.horizon == pytest.approx(5.0)
            assert traj.continuity_defect() < 1e-8


class TestSemigroup:
    def test_frozen_identity_feedback_stage_split(self):
        sf = scalar_flow(linear(np.array([[1.0]])))
        assert semigroup_defect(sf, 0.5, 0.5, unit_history()) < 1e-9
        assert semigroup_defect(sf, 1.0, 1.0, unit_history()) < 1e-9

    def test_zero_stages_cost_nothing(self):
        sf = scalar_flow(saturating())
        phi = unit_history(0.7)
        assert semigroup_defect(sf, 0.0, 0.0, phi) == 0.0
        assert semigroup_defect(sf, 0.0, 0.8, phi) < 1e-12

    def test_axioms_on_mixed_corpus(self):
        # Stage pairs cross the delay boundary both in t, in s, and in t + s.
        flows = [
            scalar_flow(saturating()),
            scalar_flow(mackey_glass(), r=0.7),
            scalar_flow(quadratic(), r=0.8),
            scalar_flow(linear(np.array([[-1.0]])), r=0.6),
        ]
        checked = 0
        for sf, phi in zip(flows, small_corpus()):
            for t, s in [(0.3, sf.r / 2), (sf.r / 2, sf.r / 2), (sf.r, sf.r / 2), (0.0, sf.r)]:
                assert semigroup_defect(sf, t, s, phi) < 1e-9
                checked += 1
        assert checked == 16

    @settings(max_examples=8, deadline=None)
    @given(
        t=st.floats(0.1, 1.2),
        s=st.floats(0.1, 1.2),
        seed=st.integers(0, 500),
    )
    def test_stage_split_is_free_for_bounded_feedback(self, t, s, seed):
        sf = scalar_flow(saturating(), r=0.9)
        rng = np.random.default_rng(seed)
        phi = random_history(rng, SCALAR, scale=0.8)
        assert semigroup_defect(sf, t, s, phi) < 1e-9


class TestQuotientInvariance:
    def test_null_set_edits_do_not_move_the_flow(self):
        rng = np.random.default_rng(3)
        sf = scalar_flow(quadratic(), r=0.8)
        phi = random_history(rng, SCALAR, scale=0.5)
        psi = null_set_variant(phi, rng)
        assert quotient_invariance(sf, 1.3, phi, psi) < 1e-10

    def test_endpoint_only_history_variants_agree(self):
        rng = np.random.default_rng(4)
        phi = HistoryElement(
            HistoryElement.constant([0.0], SCALAR.R).rep.with_endpoint([1.0])
        )
        psi = null_set_variant(phi, rng)
        sf = scalar_flow(linear(np.array([[1.0]])))
        assert quotient_invariance(sf, 2.0, phi, psi) < 1e-10

    def test_distinct_classes_are_rejected(self):
        sf = scalar_flow(saturating())
        with pytest.raises(ValueError):
            quotient_invariance(sf, 0.5, unit_history(0.0), unit_history(1.0))


class TestContinuityModulus:
    def test_frozen_linear_gaps_and_bounds(self):
        # For f(y) = y the gap at time 1 is 2^-k times the seminorm of the
        # window theta -> 2 + theta, which is (19/3)^(1/2).
        sf = scalar_flow(linear(np.array([[1.0]])))
        tables = continuity_modulus(sf, [1.0], unit_history(), unit_history(), 6)
        (table,) = tables
        frozen = math.sqrt(19.0 / 3.0)
        for k, row in enumerate(table.gaps.as_rows()):
            gap_in, gap_out = row
            assert gap_in == pytest.approx(2.0**-k * math.sqrt(2.0), rel=1e-12)
            assert gap_out == pytest.approx(2.0**-k * frozen, rel=1e-10)
        assert within_bounds(table)

    def test_time_zero_rows_echo_the_input_gap(self):
        sf = scalar_flow(saturating())
        tables = continuity_modulus(sf, [0.0], unit_history(0.3), unit_history(), 4)
        (table,) = tables
        ins, outs = table.gaps.input_gaps, table.gaps.output_gaps
        assert np.allclose(ins, outs)
        assert within_bounds(table)

    def test_certificates_and_bounds_across_times(self):
        rng = np.random.default_rng(9)
        sf = scalar_flow(mackey_glass(), r=0.7)
        phi = random_history(rng, SCALAR, scale=0.6)
        step = random_history(rng, SCALAR, scale=1.0)
        tables = continuity_modulus(sf, [0.35, 0.7, 1.5], phi, step, 12)
        assert len(tables) == 3
        for table in tables:
            cert = table.gaps.certificate()
            assert cert.passed, cert.reason
            assert within_bounds(table)

    def test_bad_inputs_rejected(self):
        sf = scalar_flow(saturating())
        with pytest.raises(ValueError):
            continuity_modulus(sf, [0.5], unit_history(), unit_history(), 2)
        with pytest.raises(ValueError):
            continuity_modulus(sf, [0.5], unit_history(), unit_history(0.0), 6)
        with pytest.raises(ValueError):
            continuity_modulus(sf, [-0.5], unit_history(), unit_history(), 6)


class TestTimeMapRemainder:
    def test_frozen_quadratic_decay(self):
        # Remainder window is 4^-k (1 + theta)/2, seminorm 4^-k / sqrt(3);
        # the direction scales are 2^-k sqrt(2).
        sf = scalar_flow(quadratic())
        table = time_map_remainder(sf, 1.0, unit_history(), unit_history(), 12)
        for k, (scale, rem, ratio) in enumerate(table.as_rows()):
            assert scale == pytest.approx(2.0**-k * math.sqrt(2.0), rel=1e-12)
            assert rem == pytest.approx(4.0**-k * FROZEN_RT3_INV, abs=1e-10)
            assert ratio == pytest.approx(
                2.0**-k * FROZEN_RT3_INV / math.sqrt(2.0), rel=1e-6
            )
        cert = table.certificate()
        assert cert.passed, cert.reason

    def test_linear_maps_have_no_remainder(self):
        sf = scalar_flow(linear(np.array([[1.0]])))
        table = time_map_remainder(sf, 1.0, unit_history(), unit_history(), 4)
        assert np.all(table.remainders < 1e-10)

    def test_certificate_on_random_data(self):
        rng = np.random.default_rng(21)
        sf = scalar_flow(mackey_glass(), r=0.9)
        phi = random_history(rng, SCALAR, scale=0.5)
        chi = random_history(rng, SCALAR, scale=0.8)
        table = time_map_remainder(sf, 0.9, phi, chi, 12)
        cert = table.certificate()
        assert cert.passed, cert.reason

    def test_zero_direction_rejected_by_the_table(self):
        sf = scalar_flow(quadratic())
        with pytest.raises(ValueError):
            time_map_remainder(sf, 1.0, unit_history(), unit_history(0.0), 5)

    def test_horizon_beyond_one_delay_rejected(self):
        sf = scalar_flow(quadratic())
        with pytest.raises(ValueError):
            time_map_remainder(sf, 1.5, unit_history(), unit_history(), 5)


class TestTimeMapDerivativeGap:
    def test_same_base_gives_zero_on_both_sides(self):
        sf = scalar_flow(quadratic())
        probed, bound = time_map_derivative_gap(sf, 1.0, unit_history(), unit_history())
        assert probed < 1e-12
        assert bound < 1e-12

    def test_frozen_unit_jacobian_gap(self):
        # Df gaps between histories 1 and 0 are constantly 1, so the bound is
        # (R+1)^(1/2) = sqrt(2); the constant-direction probe attains
        # sqrt(2/3).
        sf = scalar_flow(quadratic())
        probed, bound = time_map_derivative_gap(
            sf, 1.0, unit_history(), unit_history(0.0), extra=[unit_history()]
        )
        assert bound == pytest.approx(math.sqrt(2.0), rel=1e-10)
        assert probed >= math.sqrt(2.0 / 3.0) - 1e-9
        assert probed <= bound + 1e-8

    def test_linear_maps_share_their_derivative(self):
        sf = scalar_flow(linear(np.array([[-1.0]])))
        probed, bound = time_map_derivative_gap(sf, 1.0, unit_history(), unit_history(-2.0))
        assert probed < 1e-12
        assert bound < 1e-12

    def test_bound_dominates_on_random_pairs(self):
        # The probed values pin the seeded probe draws; they were recorded
        # before the probe loop moved into derivops.estimate_operator_norm.
        # Rounding moves them by a few ulp; a different draw by far more.
        rng = np.random.default_rng(17)
        cases = [(saturating(), 1.0, 0.08233570091020043), (mackey_glass(), 0.8, 0.38549910627328793)]
        for nl, r, recorded in cases:
            sf = scalar_flow(nl, r)
            phi = random_history(rng, SCALAR, scale=0.7)
            phi0 = random_history(rng, SCALAR, scale=0.7)
            probed, bound = time_map_derivative_gap(sf, r, phi, phi0, probes=8, seed=2)
            assert probed <= bound + 1e-8, (probed, bound)
            assert probed == pytest.approx(recorded, rel=1e-12)


class TestVerifyBattery:
    def test_full_report_for_a_smooth_flow(self):
        sf = scalar_flow(saturating(), r=0.8)
        report = verify_semiflow(sf, unit_history(0.4), unit_history())
        assert report.identity_defect == 0.0
        assert max(report.composition_defects) < 1e-9
        assert len(report.modulus) == 2
        for table in report.modulus:
            assert within_bounds(table)
        assert report.remainder is not None
        assert report.remainder.certificate().passed

    def test_stage_grid_evolves_phi_once_per_distinct_time(self, monkeypatch):
        # The stage grid {0, 0.3r, 0.5r, r} reaches phi's windows at the 8
        # nonzero times 0.3r, 0.5r, 0.6r, 0.8r, r, 1.3r, 1.5r and 2r.
        from ddehist import semiflow

        sf = scalar_flow(saturating(), r=0.8)
        phi = unit_history(0.4)
        horizons = []

        def counting_solve(problem, T):
            if problem.phi is phi:
                horizons.append(T)
            return solve(problem, T)

        monkeypatch.setattr(semiflow, "solve", counting_solve)
        verify_semiflow(sf, phi, unit_history(), count=3)
        assert len(horizons) == len(set(horizons)) == 8

    def test_time_r_schedule_is_solved_once(self, monkeypatch):
        # 8 stage windows and 9 second stages, then two halving schedules
        # of 1 + 13 solves at t = r/2 and t = r: the remainder table reuses
        # the one at t = r.
        from ddehist import derivops, semiflow

        sf = scalar_flow(saturating(), r=0.8)
        calls = []

        def counting_solve(problem, T):
            calls.append(T)
            return solve(problem, T)

        monkeypatch.setattr(semiflow, "solve", counting_solve)
        monkeypatch.setattr(derivops, "solve", counting_solve)
        report = verify_semiflow(sf, unit_history(0.4), unit_history(), count=12)
        assert report.remainder is not None
        assert len(calls) == 45

    def test_report_survives_a_rough_right_hand_side(self):
        # Cubic growth needs p >= 3, so the smoothness table is skipped on
        # this space; the axioms and modulus still run.
        from ddehist.nonlinear import cubic

        sf = scalar_flow(cubic(), r=0.5)
        report = verify_semiflow(sf, unit_history(0.2), unit_history(0.5), count=6)
        assert max(report.composition_defects) < 1e-9
        assert report.remainder is None
