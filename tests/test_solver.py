"""Solver tests: frozen closed forms, an independent integrator, invariances.

Expected values marked by hand were derived by integrating the stepwise
equation symbolically; the midpoint oracle in oracles.py provides an
independent numerical check for cases without a closed form.
"""

import math

import numpy as np
import pytest
from numpy.polynomial import chebyshev as C
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ddehist import solver
from ddehist.corpus import null_set_variant, random_history
from ddehist.funcrep import PiecewiseFunction, sup_norm
from ddehist.histspace import HistoryConfig, HistoryElement, seminorm, static_prolongation
from ddehist.nonlinear import linear, make, quadratic, saturating
from ddehist.solver import Problem, Trajectory, solve, step_edges

SCALAR = HistoryConfig(R=1.0, p=2.0, N=1)


def unit_history(value=1.0):
    return HistoryElement.constant([value], SCALAR.R)


def growth_problem():
    return Problem(SCALAR, linear(np.array([[1.0]])), 1.0, unit_history())


class TestStepEdges:
    def test_exact_multiple(self):
        np.testing.assert_allclose(step_edges(2.0, 0.5), [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_truncated_tail(self):
        np.testing.assert_allclose(step_edges(1.7, 0.5), [0.0, 0.5, 1.0, 1.5, 1.7])

    def test_horizon_below_delay(self):
        np.testing.assert_allclose(step_edges(0.3, 0.5), [0.0, 0.3])


class TestClosedForms:
    def test_growth_first_step_is_linear(self):
        # x' = x(t-1), history 1: on [0,1] the rate is 1, so x(t) = 1 + t.
        traj = solve(growth_problem(), 1.0)
        t = np.array([0.0, 0.25, 0.5, 0.9])
        np.testing.assert_allclose(traj.x(t)[:, 0], 1.0 + t, atol=1e-12)
        assert traj.x(1.0)[0] == pytest.approx(2.0, abs=1e-12)

    def test_growth_second_step_is_quadratic(self):
        # On [1,2] the rate is 1 + (t-1), so x(t) = 2 + (t-1) + (t-1)^2/2.
        traj = solve(growth_problem(), 2.0)
        assert traj.x(1.5)[0] == pytest.approx(2.625, abs=1e-12)
        assert traj.x(2.0)[0] == pytest.approx(3.5, abs=1e-12)

    def test_decay_touches_zero_then_goes_negative(self):
        # x' = -x(t-1), history 1: x(t) = 1 - t on [0,1], and on [1,2]
        # x(t) = t^2/2 - 2t + 3/2, giving x(2) = -1/2.
        pb = Problem(SCALAR, linear(np.array([[-1.0]])), 1.0, unit_history())
        traj = solve(pb, 2.0)
        assert traj.x(1.0)[0] == pytest.approx(0.0, abs=1e-12)
        assert traj.x(2.0)[0] == pytest.approx(-0.5, abs=1e-12)

    def test_endpoint_value_drives_nothing_but_the_start(self):
        # History vanishing a.e. with value 1 at 0: the rate on [0,1] is
        # f(0) = 0, so x stays at 1; on [1,2] the rate is x(t-1) = 1.
        phi = HistoryElement.constant([0.0], SCALAR.R).rep.with_endpoint([1.0])
        pb = Problem(SCALAR, linear(np.array([[1.0]])), 1.0, HistoryElement(phi))
        traj = solve(pb, 2.0)
        assert traj.x(0.5)[0] == pytest.approx(1.0, abs=1e-12)
        assert traj.x(1.0)[0] == pytest.approx(1.0, abs=1e-12)
        assert traj.x(2.0)[0] == pytest.approx(2.0, abs=1e-12)


class TestLongHorizon:
    def test_growth_matches_its_closed_form_over_twelve_steps(self):
        # x' = x(t-1), history 1: on [k-1, k] the solution is the polynomial
        # sum_{j <= k} (t - j + 1)^j / j!, of degree k < 16 nodes, so every
        # interpolant is exact and only rounding remains.
        traj = solve(growth_problem(), 12.0)
        t = np.linspace(-1.0, 12.0, 1301)
        step = np.maximum(np.ceil(t), 0.0)
        exact = sum(
            np.where(j <= step, np.abs(t - j + 1.0) ** j / math.factorial(j), 0.0)
            for j in range(13)
        )
        np.testing.assert_allclose(traj.x(t)[:, 0], exact, rtol=1e-12, atol=0.0)

    def test_system_with_long_memory_and_truncated_step_matches_midpoint_rule(self):
        # R > r, so the first step reads only part of the history, and the
        # horizon 2.0 = 3 x 0.6 + 0.2 ends in a truncated step.
        cfg = HistoryConfig(R=1.5, p=2.0, N=2)
        phi = random_history(np.random.default_rng(23), cfg, max_degree=2, continuous=True, scale=0.8)
        pb = Problem(cfg, saturating(2), 0.6, phi)
        traj = solve(pb, 2.0)
        np.testing.assert_allclose(traj.step_boundaries, [0.0, 0.6, 1.2, 1.8, 2.0], atol=1e-12)
        ts, xs = oracles.riemann_solve(pb, 2.0, panels_per_step=20000)
        idx = np.linspace(0, ts.size - 1, 200).astype(int)
        assert np.abs(traj.x(ts[idx]) - xs[idx]).max() < 1e-6

    def test_a_solve_builds_the_same_number_of_functions_at_any_horizon(self, monkeypatch):
        built = []
        original = PiecewiseFunction.__post_init__

        def counting(self):
            built.append(self)
            original(self)

        pb = Problem(SCALAR, saturating(), 1.0, unit_history(0.8))
        counts = []
        for horizon in (5.0, 50.0):
            built.clear()
            with monkeypatch.context() as patch:
                patch.setattr(PiecewiseFunction, "__post_init__", counting)
                solve(pb, horizon)
            counts.append(len(built))
        assert counts[0] == counts[1]


class TestOracleAgreement:
    def test_saturating_feedback_matches_midpoint_rule(self):
        pb = Problem(SCALAR, saturating(), 1.0, unit_history(0.8))
        traj = solve(pb, 2.5)
        ts, xs = oracles.riemann_solve(pb, 2.5, panels_per_step=20000)
        idx = np.linspace(0, ts.size - 1, 200).astype(int)
        gap = np.abs(traj.x(ts[idx]) - xs[idx]).max()
        assert gap < 1e-6

    def test_mackey_glass_with_truncated_step(self):
        pb = Problem(SCALAR, make("mackey_glass", beta=2.0), 0.7, unit_history(0.5))
        traj = solve(pb, 1.8)
        ts, xs = oracles.riemann_solve(pb, 1.8, panels_per_step=20000)
        idx = np.linspace(0, ts.size - 1, 150).astype(int)
        gap = np.abs(traj.x(ts[idx]) - xs[idx]).max()
        assert gap < 1e-6
        np.testing.assert_allclose(
            traj.step_boundaries, [0.0, 0.7, 1.4, 1.8], atol=1e-12
        )


class TestTrajectoryDiagnostics:
    def test_integration_defect_reflects_node_count(self, monkeypatch):
        pb = Problem(SCALAR, make("mackey_glass", beta=2.0), 1.0, unit_history(0.5))
        fine = solve(pb, 2.0)
        monkeypatch.setattr(solver, "_NODES_PER_PIECE", 3)
        coarse = solve(pb, 2.0)
        assert fine.integration_defect < 1e-9
        assert coarse.integration_defect > fine.integration_defect

    def test_integration_defect_matches_a_per_piece_reference(self, monkeypatch):
        # The largest |x' - f(x(t - r))| over 5 Chebyshev points of every
        # piece in [0, T], recomputed one piece at a time.  The defect is a
        # difference of O(1) terms, so the comparison is relative to it where
        # it is large and absolute near rounding.
        phi = random_history(np.random.default_rng(4), SCALAR, max_degree=3, scale=0.5)
        monkeypatch.setattr(solver, "_NODES_PER_PIECE", 3)
        for nl in (saturating(), make("mackey_glass", beta=4.0, k=5)):
            traj = solve(Problem(SCALAR, nl, 1.0, phi), 3.0)
            x, probe = traj.x, C.chebpts1(5)
            worst = 0.0
            for i in range(x.n_pieces):
                c, d = x.piece_interval(i)
                if c < 0.0:
                    continue
                half = 0.5 * (d - c)
                slope = C.chebval(probe, C.chebder(x.coeffs[i], axis=0)).T / half
                rhs = nl.fn(x(0.5 * (c + d) + half * probe - 1.0))
                worst = max(worst, float(np.abs(slope - rhs).max()))
            assert worst > 1e-6
            assert traj.integration_defect == pytest.approx(worst, rel=1e-14, abs=1e-15)

    def test_continuity_defect_reports_jumps_after_zero_only(self):
        # The history jumps at -0.5 and at 0, where the solution starts from
        # phi(0) = 1: neither seam is checked.
        phi = PiecewiseFunction.from_power([-1.0, -0.5, 0.0], [[[0.3]], [[0.0]]], [1.0])
        pb = Problem(SCALAR, linear(np.array([[1.0]])), 1.0, HistoryElement(phi))
        traj = solve(pb, 2.0)
        assert traj.continuity_defect() < 1e-12
        x = traj.x
        raised = tuple(
            block + np.eye(block.shape[0], 1) * 0.25 * (x.breakpoints[i] >= 1.0)
            for i, block in enumerate(x.coeffs)
        )
        jump = PiecewiseFunction(x.breakpoints, raised, x.endpoint_value + 0.25)
        planted = Trajectory(pb, 2.0, jump, traj.step_boundaries, traj.integration_defect)
        assert planted.continuity_defect() == pytest.approx(0.25, abs=1e-12)
        loose_end = Trajectory(pb, 2.0, x.with_endpoint(x.endpoint_value + 0.5), traj.step_boundaries, 0.0)
        assert loose_end.continuity_defect() == pytest.approx(0.5, abs=1e-12)

    def test_continuity_defect_small_everywhere(self):
        for name, value in [("saturating", 0.8), ("quadratic", 0.4)]:
            pb = Problem(SCALAR, make(name), 0.6, unit_history(value))
            assert solve(pb, 2.0).continuity_defect() < 1e-10

    def test_deviation_vanishes_on_history_and_tracks_growth(self):
        traj = solve(growth_problem(), 2.0)
        y = traj.x - static_prolongation(traj.problem.phi, 2.0)
        assert y.domain == (-1.0, 2.0)
        np.testing.assert_allclose(y(np.array([-1.0, -0.4, 0.0])), 0.0, atol=1e-12)
        assert y(0.5)[0] == pytest.approx(0.5, abs=1e-12)
        assert y(2.0)[0] == pytest.approx(2.5, abs=1e-12)

    def test_history_at_zero_recovers_the_history(self):
        traj = solve(growth_problem(), 2.0)
        seg = traj.history_at(0.0)
        probes = np.array([-0.9, -0.3])
        np.testing.assert_allclose(seg.rep(probes), 1.0, atol=1e-12)
        np.testing.assert_allclose(seg.value_at_zero, [1.0], atol=1e-12)

    def test_history_at_interior_time_shifts_the_window(self):
        traj = solve(growth_problem(), 2.0)
        seg = traj.history_at(1.5)
        assert seg.rep.domain == (-1.0, 0.0)
        assert seg.rep(-0.25)[0] == pytest.approx(traj.x(1.25)[0], abs=1e-12)
        np.testing.assert_allclose(seg.value_at_zero, traj.x(1.5), atol=1e-12)


class TestStructuralProperties:
    def test_solution_map_is_additive_for_linear_rhs(self):
        cfg = HistoryConfig(R=1.0, p=2.0, N=2)
        rotation = linear(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        rng = np.random.default_rng(71)
        phi1 = random_history(rng, cfg, max_degree=2, continuous=True)
        phi2 = random_history(rng, cfg, max_degree=2, continuous=True)
        both = HistoryElement(phi1.rep + phi2.rep)
        t_end = 3.0
        x1 = solve(Problem(cfg, rotation, 1.0, phi1), t_end).x
        x2 = solve(Problem(cfg, rotation, 1.0, phi2), t_end).x
        x12 = solve(Problem(cfg, rotation, 1.0, both), t_end).x
        probes = np.linspace(-1.0, t_end, 41)
        np.testing.assert_allclose(x12(probes), x1(probes) + x2(probes), atol=1e-9)

    def test_null_set_variant_gives_the_same_trajectory(self):
        # Refining the history partition changes the representative but not
        # the a.e. class; the trajectory must not notice.
        rng = np.random.default_rng(5)
        phi = random_history(rng, SCALAR, max_degree=2, continuous=True)
        variant = null_set_variant(phi, rng)
        f = quadratic()
        a = solve(Problem(SCALAR, f, 1.0, phi), 2.0)
        b = solve(Problem(SCALAR, f, 1.0, variant), 2.0)
        probes = np.linspace(-1.0, 2.0, 64)
        np.testing.assert_allclose(a.x(probes), b.x(probes), atol=1e-12)
        assert sup_norm(a.x - b.x) < 1e-11

    def test_solving_to_the_delay_stops_after_one_step(self):
        pb = growth_problem()
        traj = solve(pb, pb.r)
        assert traj.horizon == 1.0
        assert traj.x.domain == (-1.0, 1.0)


class TestValidation:
    def test_delay_beyond_memory_rejected(self):
        with pytest.raises(ValueError):
            Problem(SCALAR, linear(np.array([[1.0]])), 1.5, unit_history())

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Problem(SCALAR, linear(np.eye(2)), 1.0, unit_history())

    def test_nonpositive_horizon_rejected(self):
        with pytest.raises(ValueError):
            solve(growth_problem(), 0.0)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    delay=st.sampled_from([0.5, 1.0]),
)
def test_random_problems_stay_consistent(seed, delay):
    rng = np.random.default_rng(seed)
    phi = random_history(rng, SCALAR, max_degree=2, continuous=True, scale=0.8)
    pb = Problem(SCALAR, saturating(), delay, phi)
    traj = solve(pb, 1.3)
    assert traj.x.domain == (-1.0, 1.3)
    assert traj.continuity_defect() < 1e-9
    assert traj.integration_defect < 1e-6
    assert seminorm(traj.history_at(0.0) - phi, SCALAR) < 1e-10
