"""Solver tests: frozen closed forms, an independent integrator, invariances.

Expected values marked by hand were derived by integrating the stepwise
equation symbolically; the midpoint oracle in oracles.py provides an
independent numerical check for cases without a closed form.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from numpy.polynomial import chebyshev as C
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from ddehist import solver
from ddehist.corpus import null_set_variant, random_history
from ddehist.funcrep import PiecewiseFunction, sup_norm
from ddehist.histspace import HistoryConfig, HistoryElement, seminorm, static_prolongation
from ddehist.nonlinear import linear, make, quadratic, saturating, tangent_system
from ddehist.solver import Problem, Trajectory, solve, step_edges

SCALAR = HistoryConfig(R=1.0, p=2.0, N=1)


def unit_history(value=1.0):
    return HistoryElement.constant([value], SCALAR.R)


def growth_problem():
    return Problem(SCALAR, linear(np.array([[1.0]])), 1.0, unit_history())


def solve_reads(pb, T):
    """Solve, and record every `_delayed_rhs` call as (arguments, result) and
    the step start of every mapped-point `_cheb_values` read made inside
    one."""
    calls, mapped, inside = [], [], []
    real_rhs, real_values = solver._delayed_rhs, solver._cheb_values

    def recording_rhs(*args):
        inside.append(float(args[3][0]))
        out = real_rhs(*args)
        inside.pop()
        calls.append((args, out))
        return out

    def recording_values(*args):
        if inside:
            mapped.append(inside[-1])
        return real_values(*args)

    with mock.patch.object(solver, "_delayed_rhs", recording_rhs):
        with mock.patch.object(solver, "_cheb_values", recording_values):
            traj = solve(pb, T)
    return traj, calls, mapped


class TestStepEdges:
    def test_exact_multiple(self):
        np.testing.assert_allclose(step_edges(2.0, 0.5), [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_truncated_tail(self):
        np.testing.assert_allclose(step_edges(1.7, 0.5), [0.0, 0.5, 1.0, 1.5, 1.7])

    def test_horizon_below_delay(self):
        np.testing.assert_allclose(step_edges(0.3, 0.5), [0.0, 0.3])

    @pytest.mark.parametrize("T", [1e-300, 1e-13, 1e-12])
    def test_a_horizon_within_the_tolerance_of_zero_is_refused(self, T):
        # No step fits: step_edges refuses the horizon, and so does solve.
        with pytest.raises(ValueError, match=f"horizon {T:g} is within 1e-12 of 0"):
            solve(growth_problem(), T)

    def test_the_shortest_horizons_that_solve(self):
        np.testing.assert_array_equal(step_edges(2e-12, 1.0), [0.0, 2e-12])
        # A delay below the tolerance still steps up to the horizon.
        np.testing.assert_array_equal(step_edges(1e-12, 5e-13), [0.0, 5e-13, 1e-12])
        assert solve(growth_problem(), 2e-12).x.domain == (-1.0, 2e-12)

    @settings(max_examples=300, deadline=None)
    @given(log_r=st.floats(-13.0, 6.0), whole=st.integers(0, 9999), part=st.floats(0.0, 1.0))
    @example(log_r=math.log10(2e-12), whole=1, part=0.45)  # a tail 0.45 r, under the tolerance
    @example(log_r=math.log10(5e-13), whole=1, part=0.9)
    @example(log_r=math.log10(999999.9999995), whole=1, part=5e-13)
    @example(log_r=math.log10(0.1), whole=3, part=0.0)
    def test_steps_cover_the_horizon_and_none_outruns_the_delay(self, log_r, whole, part):
        # T = (whole + part) r from 1e-13 to 1e6: at most 10^4 steps, each
        # at multiples of r and no longer than r beyond rounding, 8 ulps of T.
        r = 10.0**log_r
        T = (whole + part) * r
        assume(1e-13 <= T <= 1e6)
        if T <= 1e-12 and T < r:
            with pytest.raises(ValueError, match="too short for one method-of-steps cut"):
                step_edges(T, r)
            return
        edges = step_edges(T, r)
        steps = np.diff(edges)
        assert edges[0] == 0.0 and edges[-1] == T and steps.min() > 0.0
        assert steps.size <= whole + 1 and steps.max() <= r + 2.0**-49 * T
        np.testing.assert_array_equal(edges[:-1], np.arange(steps.size) * r)


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
        phi = HistoryElement.constant([0.0], SCALAR.R).with_endpoint([1.0])
        pb = Problem(SCALAR, linear(np.array([[1.0]])), 1.0, phi)
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
        pb = Problem(SCALAR, linear(np.array([[1.0]])), 1.0, phi)
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
        np.testing.assert_allclose(seg(probes), 1.0, atol=1e-12)
        np.testing.assert_allclose(seg.endpoint_value, [1.0], atol=1e-12)

    def test_history_at_interior_time_shifts_the_window(self):
        traj = solve(growth_problem(), 2.0)
        seg = traj.history_at(1.5)
        assert seg.domain == (-1.0, 0.0)
        assert seg(-0.25)[0] == pytest.approx(traj.x(1.25)[0], abs=1e-12)
        np.testing.assert_allclose(seg.endpoint_value, traj.x(1.5), atol=1e-12)


class TestStructuralProperties:
    def test_solution_map_is_additive_for_linear_rhs(self):
        cfg = HistoryConfig(R=1.0, p=2.0, N=2)
        rotation = linear(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        rng = np.random.default_rng(71)
        phi1 = random_history(rng, cfg, max_degree=2, continuous=True)
        phi2 = random_history(rng, cfg, max_degree=2, continuous=True)
        both = phi1 + phi2
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


OFF_PIECE = PiecewiseFunction.from_power(
    [-1.0, -0.7 + 3e-13, -0.2, 0.0], [[[0.1]], [[0.5, 2.0, -3.0]], [[-0.4, 1.0]]], [0.2]
)


class TestWholePieceReads:
    """A delayed cut that is a whole piece is read through the cached
    Vandermonde product; only the other cuts map points into their piece."""

    HISTORY = PiecewiseFunction.from_power(
        [-1.0, -0.55, -0.2, 0.0], [[[0.3, -0.4]], [[-0.2, 0.1, 0.5]], [[0.6, 0.0, 0.0, -0.3]]], [0.25]
    )

    @pytest.mark.parametrize("T", [50.0, 200.0])
    def test_no_points_are_mapped_when_the_delay_is_the_memory(self, T):
        _, calls, mapped = solve_reads(Problem(SCALAR, saturating(), 1.0, self.HISTORY), T)
        assert len(calls) == T
        assert mapped == []

    def test_a_delay_equal_to_the_memory_searches_for_no_piece_after_the_first_step(self):
        # Every delayed window is the previous one up to rounding, so each
        # step reads it whole, with no piece search.
        pb = Problem(SCALAR, saturating(), 1.0, self.HISTORY)
        with mock.patch.object(solver, "_piece_index", wraps=solver._piece_index) as search:
            traj = solve(pb, 50.0)
        assert traj.step_boundaries.size == 51
        assert search.call_count <= 1

    def test_a_shorter_delay_maps_points_on_the_first_and_the_truncated_last_step(self):
        traj, calls, mapped = solve_reads(Problem(SCALAR, saturating(), 0.7, self.HISTORY), 20.0)
        edges = traj.step_boundaries
        assert len(calls) == edges.size - 1 == 29
        assert edges[-1] - edges[-2] < 0.7
        assert mapped == [0.0, edges[-2]]

    def test_a_cut_a_real_amount_off_its_piece_is_mapped_into_it(self):
        # The breakpoint -0.7 + 3e-13, shifted by r = 0.7, falls within the
        # step's end tolerance of 0 and is not a cut, so the first delayed
        # cut [-0.7, -0.2] starts 3e-13 left of its piece: not a whole piece.
        pb = Problem(SCALAR, saturating(), 0.7, OFF_PIECE)
        _, calls, mapped = solve_reads(pb, 1.4)
        assert mapped == [0.0]
        u = solver._step_matrices(solver._NODES_PER_PIECE)[0]
        for args, got in calls:
            want = oracles.delayed_rhs(*args[:4], u)
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


SYSTEMS = {
    "saturating": (1, saturating),
    "mackey_glass": (1, lambda: make("mackey_glass")),
    "saturating-2": (2, lambda: saturating(2)),
    "quadratic-tangent": (2, lambda: tangent_system(quadratic())),
}


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    pieces=st.integers(1, 4),
    system=st.sampled_from(sorted(SYSTEMS)),
    R=st.sampled_from([0.5, 1.0, 1.5]),
    fraction=st.floats(0.05, 1.0),
    steps=st.floats(0.1, 6.0),
)
# R = r over six whole steps: every cut is a whole piece.
@example(seed=3, pieces=3, system="saturating", R=1.0, fraction=1.0, steps=6.0)
# r < R and a truncated last step: whole and mapped cuts in one step.
@example(seed=7, pieces=4, system="quadratic-tangent", R=1.5, fraction=0.4, steps=4.5)
def test_delayed_read_matches_the_mapped_point_reference(seed, pieces, system, R, fraction, steps):
    dim, build = SYSTEMS[system]
    cfg = HistoryConfig(R=R, p=2.0, N=dim)
    phi = random_history(np.random.default_rng(seed), cfg, n_pieces=pieces, max_degree=3, scale=0.8)
    pb = Problem(cfg, build(), fraction * R, phi)
    u = solver._step_matrices(solver._NODES_PER_PIECE)[0]
    for args, got in solve_reads(pb, steps * pb.r)[1]:
        want = oracles.delayed_rhs(*args[:4], u)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def bit_history(kind, seed, pieces, cfg):
    """A random history on [-R, 0]; one whose coefficient block is strided,
    as the x block of a doubled solve is, and of degree up to 16, where a
    strided block takes a BLAS path with other bits at degrees such as 5, 9
    and 13; or OFF_PIECE stretched to [-R, 0] with one copy per component."""
    if kind == "off-piece":
        return PiecewiseFunction(
            cfg.R * OFF_PIECE.breakpoints,
            np.repeat(OFF_PIECE.coeffs, cfg.N, axis=2),
            np.repeat(OFF_PIECE.endpoint_value, cfg.N),
        )
    rng = np.random.default_rng(seed)
    if kind == "random":
        return random_history(rng, cfg, n_pieces=pieces, max_degree=3, scale=0.8)
    wide = random_history(rng, HistoryConfig(R=cfg.R, p=cfg.p, N=cfg.N + 1), n_pieces=pieces, max_degree=16, scale=0.8)
    return PiecewiseFunction(wide.breakpoints, wide.coeffs[:, :, 1:], wide.endpoint_value[1:])


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    pieces=st.integers(1, 4),
    system=st.sampled_from(sorted(SYSTEMS)),
    R=st.sampled_from([0.5, 1.0, 1.5]),
    fraction=st.floats(0.05, 1.0),
    steps=st.floats(0.1, 12.0),
    history=st.sampled_from(["random", "strided", "off-piece"]),
)
# R = r over six whole steps: every step reads its whole window, the first
# a strided block of degree 13.
@example(seed=3, pieces=3, system="saturating", R=1.0, fraction=1.0, steps=6.0, history="strided")
# r < R and a truncated last step: the first and last steps map points.
@example(seed=7, pieces=4, system="quadratic-tangent", R=1.5, fraction=0.4, steps=4.5, history="random")
# TestWholePieceReads' history, whose first delayed cut is 3e-13 off its piece.
@example(seed=0, pieces=3, system="saturating", R=1.0, fraction=0.7, steps=2.0, history="off-piece")
# An overflowing solve: the step whose defect is first NaN also has finite cuts
# far above the defect so far, and the whole step is passed over.
@example(seed=16, pieces=3, system="quadratic-tangent", R=1.5, fraction=1.0, steps=12.0, history="random")
def test_solve_matches_the_per_cut_reference_bit_for_bit(seed, pieces, system, R, fraction, steps, history):
    dim, build = SYSTEMS[system]
    cfg = HistoryConfig(R=R, p=2.0, N=dim)
    pb = Problem(cfg, build(), fraction * R, bit_history(history, seed, pieces, cfg))
    # A quadratic tangent system can overflow within 12 steps; its NaNs must match too.
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = solve(pb, steps * pb.r), oracles.reference_solve(pb, steps * pb.r)
    assert isinstance(got.integration_defect, float)
    for a, b in [
        (got.x.breakpoints, want.x.breakpoints),
        (got.x.coeffs, want.x.coeffs),
        (got.x.endpoint_value, want.x.endpoint_value),
        (got.step_boundaries, want.step_boundaries),
        (np.float64(got.integration_defect), np.float64(want.integration_defect)),
    ]:
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_a_long_solve_holds_little_beside_its_trajectory():
    # The defect is taken in blocks of held steps: holding every step's
    # values to the end reads about 6 times the coefficients here.
    phi = PiecewiseFunction.from_power(
        [-1.0, -0.59375, -0.21875, 0.0],
        [[[0.3, -0.4, 0.2, 0.1]], [[-0.45, 0.1, 0.5, -0.2]], [[0.4, 0.0, -0.3, 0.25]]],
        [-0.15],
    )
    pb = Problem(SCALAR, make("mackey_glass"), 1.0, phi)
    solve(pb, 2.0)  # builds the cached step matrices
    tracemalloc.start()
    try:
        traj = solve(pb, 2000.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * traj.x.coeffs.nbytes
