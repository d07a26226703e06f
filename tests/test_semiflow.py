"""Tests of the solution semiflow: axioms, class invariance, continuity, time-map smoothness.

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
    continuity_modulus,
    evolve,
    quotient_invariance,
    semigroup_defect,
    time_map_derivative_gap,
    time_map_remainder,
    verify_semiflow,
)
from ddehist.solver import Problem, solve

SCALAR = HistoryConfig(R=1.0, p=2.0, N=1)

FROZEN_RT3_INV = 0.5773502691896257  # (1/3)^(1/2)


def unit_history(value=1.0):
    return HistoryElement.constant([value], SCALAR.R)


def scalar_problem(nl, phi=None, r=1.0):
    return Problem(SCALAR, nl, r, unit_history() if phi is None else phi)


def within_bounds(table):
    # Every evolved gap at most its two-term proof bound.
    return bool(np.all(table.gaps.output_gaps <= table.bounds + 1e-8))


def small_corpus(seed=5, size=4, scale=0.4):
    rng = np.random.default_rng(seed)
    return [random_history(rng, SCALAR, scale=scale) for _ in range(size)]


class TestEvolve:
    def test_time_zero_returns_the_history_itself(self):
        phi = unit_history()
        assert evolve(scalar_problem(saturating(), phi), 0.0) is phi

    def test_frozen_window_for_identity_feedback(self):
        # x(t) = 1 + t on [0, 1], so the time-1 window is theta -> 2 + theta.
        moved = evolve(scalar_problem(linear(np.array([[1.0]]))), 1.0)
        for theta in [-1.0, -0.5, -0.25, 0.0]:
            assert moved(theta)[0] == pytest.approx(2.0 + theta, abs=1e-12)

    def test_partial_window_mixes_history_and_solution(self):
        # At t = 1/2 the window shows history on [-1, -1/2) and 1 + (t + theta)
        # after.
        moved = evolve(scalar_problem(linear(np.array([[1.0]]))), 0.5)
        assert moved(-0.75)[0] == pytest.approx(1.0, abs=1e-12)
        assert moved(-0.25)[0] == pytest.approx(1.25, abs=1e-12)
        assert moved(0.0)[0] == pytest.approx(1.5, abs=1e-12)

    def test_zero_feedback_freezes_the_endpoint(self):
        rng = np.random.default_rng(0)
        phi = random_history(rng, SCALAR)
        moved = evolve(scalar_problem(linear(np.array([[0.0]])), phi), SCALAR.R)
        head = float(phi(0.0)[0])
        for theta in [-1.0, -0.4, 0.0]:
            assert moved(theta)[0] == pytest.approx(head, abs=1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            evolve(scalar_problem(saturating()), -0.1)

    def test_delay_and_dimension_validated(self):
        with pytest.raises(ValueError):
            scalar_problem(saturating(), r=1.5)
        with pytest.raises(ValueError):
            scalar_problem(saturating(dim=2))

    def test_long_runs_succeed(self):
        for phi in small_corpus(seed=11, size=3, scale=1.5):
            traj = solve(scalar_problem(mackey_glass(), phi, r=0.5), 5.0)
            assert traj.horizon == pytest.approx(5.0)
            assert traj.continuity_defect() < 1e-8


class TestSemigroup:
    def test_frozen_identity_feedback_stage_split(self):
        pb = scalar_problem(linear(np.array([[1.0]])))
        assert semigroup_defect(pb, 0.5, 0.5) < 1e-9
        assert semigroup_defect(pb, 1.0, 1.0) < 1e-9

    def test_zero_stages_cost_nothing(self):
        pb = scalar_problem(saturating(), unit_history(0.7))
        assert semigroup_defect(pb, 0.0, 0.0) == 0.0
        assert semigroup_defect(pb, 0.0, 0.8) < 1e-12

    def test_axioms_on_mixed_corpus(self):
        # Stage pairs cross the delay boundary both in t, in s, and in t + s.
        flows = [
            (saturating(), 1.0),
            (mackey_glass(), 0.7),
            (quadratic(), 0.8),
            (linear(np.array([[-1.0]])), 0.6),
        ]
        checked = 0
        for (nl, r), phi in zip(flows, small_corpus()):
            pb = scalar_problem(nl, phi, r)
            for t, s in [(0.3, r / 2), (r / 2, r / 2), (r, r / 2), (0.0, r)]:
                assert semigroup_defect(pb, t, s) < 1e-9
                checked += 1
        assert checked == 16

    @settings(max_examples=8, deadline=None)
    @given(
        t=st.floats(0.1, 1.2),
        s=st.floats(0.1, 1.2),
        seed=st.integers(0, 500),
    )
    def test_stage_split_is_free_for_bounded_feedback(self, t, s, seed):
        rng = np.random.default_rng(seed)
        pb = scalar_problem(saturating(), random_history(rng, SCALAR, scale=0.8), r=0.9)
        assert semigroup_defect(pb, t, s) < 1e-9


class TestQuotientInvariance:
    def test_null_set_edits_do_not_move_the_flow(self):
        rng = np.random.default_rng(3)
        phi = random_history(rng, SCALAR, scale=0.5)
        psi = null_set_variant(phi, rng)
        assert quotient_invariance(scalar_problem(quadratic(), phi, r=0.8), 1.3, psi) < 1e-10

    def test_endpoint_only_history_variants_agree(self):
        rng = np.random.default_rng(4)
        phi = HistoryElement(
            HistoryElement.constant([0.0], SCALAR.R).rep.with_endpoint([1.0])
        )
        psi = null_set_variant(phi, rng)
        assert quotient_invariance(scalar_problem(linear(np.array([[1.0]])), phi), 2.0, psi) < 1e-10

    def test_distinct_classes_are_rejected(self):
        pb = scalar_problem(saturating(), unit_history(0.0))
        with pytest.raises(ValueError):
            quotient_invariance(pb, 0.5, unit_history(1.0))


class TestContinuityModulus:
    def test_frozen_linear_gaps_and_bounds(self):
        # For f(y) = y the gap at time 1 is 2^-k times the seminorm of the
        # window theta -> 2 + theta, which is (19/3)^(1/2).
        pb = scalar_problem(linear(np.array([[1.0]])))
        tables = continuity_modulus(pb, [1.0], unit_history(), 6)
        (table,) = tables
        frozen = math.sqrt(19.0 / 3.0)
        for k, row in enumerate(table.gaps.as_rows()):
            gap_in, gap_out = row
            assert gap_in == pytest.approx(2.0**-k * math.sqrt(2.0), rel=1e-12)
            assert gap_out == pytest.approx(2.0**-k * frozen, rel=1e-10)
        assert within_bounds(table)

    def test_time_zero_rows_echo_the_input_gap(self):
        pb = scalar_problem(saturating(), unit_history(0.3))
        tables = continuity_modulus(pb, [0.0], unit_history(), 4)
        (table,) = tables
        ins, outs = table.gaps.input_gaps, table.gaps.output_gaps
        assert np.allclose(ins, outs)
        assert within_bounds(table)

    def test_certificates_and_bounds_across_times(self):
        rng = np.random.default_rng(9)
        phi = random_history(rng, SCALAR, scale=0.6)
        step = random_history(rng, SCALAR, scale=1.0)
        pb = scalar_problem(mackey_glass(), phi, r=0.7)
        tables = continuity_modulus(pb, [0.35, 0.7, 1.5], step, 12)
        assert len(tables) == 3
        for table in tables:
            cert = table.gaps.certificate()
            assert cert.passed, cert.reason
            assert within_bounds(table)

    def test_bad_inputs_rejected(self):
        pb = scalar_problem(saturating())
        with pytest.raises(ValueError):
            continuity_modulus(pb, [0.5], unit_history(), 2)
        with pytest.raises(ValueError):
            continuity_modulus(pb, [0.5], unit_history(0.0), 6)
        with pytest.raises(ValueError):
            continuity_modulus(pb, [-0.5], unit_history(), 6)


class TestTimeMapRemainder:
    def test_frozen_quadratic_decay(self):
        # Remainder window is 4^-k (1 + theta)/2, seminorm 4^-k / sqrt(3);
        # the direction scales are 2^-k sqrt(2).
        table = time_map_remainder(scalar_problem(quadratic()), 1.0, unit_history(), 12)
        for k, (scale, rem, ratio) in enumerate(table.as_rows()):
            assert scale == pytest.approx(2.0**-k * math.sqrt(2.0), rel=1e-12)
            assert rem == pytest.approx(4.0**-k * FROZEN_RT3_INV, abs=1e-10)
            assert ratio == pytest.approx(
                2.0**-k * FROZEN_RT3_INV / math.sqrt(2.0), rel=1e-6
            )
        cert = table.certificate()
        assert cert.passed, cert.reason

    def test_linear_maps_have_no_remainder(self):
        table = time_map_remainder(scalar_problem(linear(np.array([[1.0]]))), 1.0, unit_history(), 4)
        assert np.all(table.remainders < 1e-10)

    def test_certificate_on_random_data(self):
        rng = np.random.default_rng(21)
        phi = random_history(rng, SCALAR, scale=0.5)
        chi = random_history(rng, SCALAR, scale=0.8)
        table = time_map_remainder(scalar_problem(mackey_glass(), phi, r=0.9), 0.9, chi, 12)
        cert = table.certificate()
        assert cert.passed, cert.reason

    def test_zero_direction_rejected_by_the_table(self):
        with pytest.raises(ValueError):
            time_map_remainder(scalar_problem(quadratic()), 1.0, unit_history(0.0), 5)

    def test_horizon_beyond_one_delay_rejected(self):
        with pytest.raises(ValueError):
            time_map_remainder(scalar_problem(quadratic()), 1.5, unit_history(), 5)


class TestTimeMapDerivativeGap:
    def test_same_base_gives_zero_on_both_sides(self):
        probed, bound = time_map_derivative_gap(scalar_problem(quadratic()), 1.0, unit_history())
        assert probed < 1e-12
        assert bound < 1e-12

    def test_frozen_unit_jacobian_gap(self):
        # Df gaps between histories 1 and 0 are constantly 1, so the bound is
        # (R+1)^(1/2) = sqrt(2); the constant-direction probe attains
        # sqrt(2/3).
        probed, bound = time_map_derivative_gap(
            scalar_problem(quadratic()), 1.0, unit_history(0.0), extra=[unit_history()]
        )
        assert bound == pytest.approx(math.sqrt(2.0), rel=1e-10)
        assert probed >= math.sqrt(2.0 / 3.0) - 1e-9
        assert probed <= bound + 1e-8

    def test_linear_maps_share_their_derivative(self):
        pb = scalar_problem(linear(np.array([[-1.0]])))
        probed, bound = time_map_derivative_gap(pb, 1.0, unit_history(-2.0))
        assert probed < 1e-12
        assert bound < 1e-12

    def test_bound_dominates_on_random_pairs(self):
        # The probed values pin the seeded probe draws; they were recorded
        # before the probe loop moved into derivops.estimate_operator_norm.
        # Rounding moves them by a few ulp; a different draw by far more.
        rng = np.random.default_rng(17)
        cases = [(saturating(), 1.0, 0.08233570091020043), (mackey_glass(), 0.8, 0.38549910627328793)]
        for nl, r, recorded in cases:
            phi = random_history(rng, SCALAR, scale=0.7)
            phi0 = random_history(rng, SCALAR, scale=0.7)
            pb = scalar_problem(nl, phi, r)
            probed, bound = time_map_derivative_gap(pb, r, phi0, probes=8, seed=2)
            assert probed <= bound + 1e-8, (probed, bound)
            assert probed == pytest.approx(recorded, rel=1e-12)


class TestVerifyBattery:
    def test_full_report_for_a_smooth_flow(self):
        pb = scalar_problem(saturating(), unit_history(0.4), r=0.8)
        report = verify_semiflow(pb, unit_history())
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

        phi = unit_history(0.4)
        horizons = []

        def counting_solve(problem, T):
            if problem.phi is phi:
                horizons.append(T)
            return solve(problem, T)

        monkeypatch.setattr(semiflow, "solve", counting_solve)
        verify_semiflow(scalar_problem(saturating(), phi, r=0.8), unit_history(), count=3)
        assert len(horizons) == len(set(horizons)) == 8

    def test_time_r_schedule_is_solved_once(self, monkeypatch):
        # 8 stage windows and 9 second stages, then two halving schedules
        # of 1 + 13 solves at t = r/2 and t = r: the remainder table reuses
        # the one at t = r.
        from ddehist import derivops, semiflow

        pb = scalar_problem(saturating(), unit_history(0.4), r=0.8)
        calls = []

        def counting_solve(problem, T):
            calls.append(T)
            return solve(problem, T)

        monkeypatch.setattr(semiflow, "solve", counting_solve)
        monkeypatch.setattr(derivops, "solve", counting_solve)
        report = verify_semiflow(pb, unit_history(), count=12)
        assert report.remainder is not None
        assert len(calls) == 45

    def test_schedule_inputs_are_measured_once(self, monkeypatch):
        # 1 identity defect and 16 stage defects; the zero-direction check
        # and the 13 inputs chi/2^k, shared by the tables at t = r/2 and
        # t = r and the remainders; 13 output gaps per table and 13
        # remainders.  The two checks measure one history each, and each
        # of the five tables of histories is measured in one batched pass.
        from ddehist import semiflow

        pb = scalar_problem(saturating(), unit_history(0.4), r=0.8)
        passes = []

        def counting_seminorm(phi, cfg):
            passes.append(("single", 1) if isinstance(phi, HistoryElement) else ("batch", len(phi)))
            return seminorm(phi, cfg)

        monkeypatch.setattr(semiflow, "seminorm", counting_seminorm)
        report = verify_semiflow(pb, unit_history(), count=12)
        assert report.remainder is not None
        assert sum(n for _, n in passes) == 1 + 16 + 1 + 13 + 3 * 13
        assert sorted(passes) == [("batch", 13)] * 4 + [("batch", 16)] + [("single", 1)] * 2
        with pytest.raises(ValueError, match="direction must be nonzero"):
            verify_semiflow(pb, unit_history(0.0), count=12)

    def test_report_survives_a_rough_right_hand_side(self):
        # Cubic growth needs p >= 3, so the smoothness table is skipped on
        # this space; the axioms and modulus still run.
        from ddehist.nonlinear import cubic

        pb = scalar_problem(cubic(), unit_history(0.2), r=0.5)
        report = verify_semiflow(pb, unit_history(0.5), count=6)
        assert max(report.composition_defects) < 1e-9
        assert report.remainder is None
