"""Representation-layer tests.

Expected numbers in this file are frozen from closed-form antidifferentiation
done by hand (polynomial integrals on an interval), independently of the
quadrature code under test.
"""

import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from numpy.polynomial import chebyshev

import oracles
from ddehist import funcrep
from ddehist.funcrep import (
    DomainError,
    LazyComposition,
    PiecewiseFunction,
    lp_norm,
    stack,
    sup_norm,
)
from ddehist.histspace import HistoryConfig, endpoint_lp_norm, seminorm

RT3_INV = 0.5773502691896258  # (1/3)**0.5, by hand: integral of theta^2 on [-1,0]


def theta_identity():
    return PiecewiseFunction.identity((-1.0, 0.0))


# ---------------------------------------------------------------- evaluation


def test_evaluate_uses_right_piece_at_interior_breakpoints():
    f = PiecewiseFunction.from_power(
        [0.0, 1.0, 2.0], [[[0.0]], [[5.0]]], endpoint_value=[5.0]
    )
    assert f(0.5) == pytest.approx(0.0)
    assert f(1.0) == pytest.approx(5.0)  # right piece wins at the seam
    assert f(1.5) == pytest.approx(5.0)


def test_evaluate_endpoint_value_can_differ_from_limit():
    f = PiecewiseFunction.from_power([-1.0, 0.0], [[[0.0]]], endpoint_value=[7.0])
    assert f(-0.5) == pytest.approx(0.0)
    assert f(0.0) == pytest.approx(7.0)


def test_evaluate_vectorized_matches_scalar():
    f = PiecewiseFunction.from_power(
        [-1.0, -0.4, 0.0], [[[1.0, 2.0], [0.5]], [[0.0, 0.0, 3.0], [1.0]]]
    )
    ts = np.linspace(-1.0, 0.0, 37)
    batch = f(ts)
    for k, t in enumerate(ts):
        assert np.allclose(batch[k], f(t))


def test_evaluate_outside_domain_raises():
    f = theta_identity()
    with pytest.raises(DomainError):
        f(0.5)
    with pytest.raises(DomainError):
        f(np.array([-0.5, -2.0]))


# ---------------------------------------------------------------- lp norms


def test_lp_norm_linear_history_p2():
    assert lp_norm(theta_identity(), 2.0) == pytest.approx(RT3_INV, abs=1e-12)


def test_lp_norm_piecewise_constant_exact_integer_p():
    f = PiecewiseFunction.from_power(
        [0.0, 0.25, 1.0], [[[3.0]], [[-2.0]]], endpoint_value=[-2.0]
    )
    # by hand: 27*(1/4) + 8*(3/4) = 6.75 + 6 = 12.75
    assert lp_norm(f, 3.0) == pytest.approx(12.75 ** (1.0 / 3.0), abs=1e-14)
    assert lp_norm(f, 1.0) == pytest.approx(3.0 * 0.25 + 2.0 * 0.75, abs=1e-14)


def test_lp_norm_ignores_endpoint_and_breakpoint_values():
    base = PiecewiseFunction.from_power([0.0, 1.0], [[[1.0, 1.0]]])
    spiked = base.with_endpoint([50.0]).refine([0.3, 0.7])
    assert lp_norm(spiked, 2.0) == pytest.approx(lp_norm(base, 2.0), abs=1e-12)


def test_lp_norm_vector_components_euclidean():
    # |f| = sqrt(9+16) = 5 everywhere
    f = PiecewiseFunction.constant([3.0, 4.0], (0.0, 2.0))
    assert lp_norm(f, 1.0) == pytest.approx(10.0, abs=1e-13)


def _near_root_bump():
    # t^2 + 1e-3 on [-1, 1]: no real zero, but complex zeros +-0.0316i, just
    # outside the splitting band, put a sharp bend into |f|^1.5 at t = 0.
    a = 1e-3
    f = PiecewiseFunction.from_power([-1.0, 1.0], [[[a, 0.0, 1.0]]])

    def antiderivative(t):  # of (t^2 + a)^(3/2), by hand
        root = np.sqrt(t * t + a)
        return t * (2.0 * t * t + 5.0 * a) * root / 8.0 + 3.0 * a * a / 8.0 * np.log(t + root)

    return f, (antiderivative(1.0) - antiderivative(-1.0)) ** (1.0 / 1.5)


def test_lp_norm_bisects_until_converged():
    f, expected = _near_root_bump()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert lp_norm(f, 1.5) == pytest.approx(expected, rel=1e-13)


def test_lp_norm_warns_when_bisection_stops_short(monkeypatch):
    monkeypatch.setattr(funcrep, "_JACOBI_MAX_ROUNDS", 1)
    f, expected = _near_root_bump()
    with pytest.warns(RuntimeWarning, match="still disagree after 1 rounds of bisection"):
        value = lp_norm(f, 1.5)
    assert value == pytest.approx(expected, rel=1e-3)


def test_lp_norm_requires_p_at_least_one():
    with pytest.raises(ValueError):
        lp_norm(theta_identity(), 0.5)


# ---------------------------------------------------------------- sup norm


def test_sup_norm_interior_maximum():
    f = PiecewiseFunction.from_power([0.0, 1.0], [[[0.0, 1.0, -1.0]]])
    assert sup_norm(f) == pytest.approx(0.25, abs=1e-12)


def test_sup_norm_sees_endpoint_value():
    f = PiecewiseFunction.from_power([0.0, 1.0], [[[0.0]]], endpoint_value=[2.0])
    assert sup_norm(f) == pytest.approx(2.0)


def test_sup_norm_multi_piece():
    f = PiecewiseFunction.from_power(
        [-1.0, 0.0, 1.0], [[[0.5]], [[0.0, -3.0]]], endpoint_value=[-3.0]
    )
    assert sup_norm(f) == pytest.approx(3.0, abs=1e-12)


CUBIC = [0.0, -1.0, 0.0, 1.0]  # t^3 - t, largest on [-1, 0.5] at -1/sqrt(3)
CUBIC_PEAK = 2.0 / (3.0 * np.sqrt(3.0))


@pytest.mark.parametrize(
    "components, endpoint, expected",
    [
        ([CUBIC], None, CUBIC_PEAK),
        ([CUBIC, [0.3]], None, float(np.hypot(CUBIC_PEAK, 0.3))),
        ([CUBIC], [-0.5], 0.5),
    ],
    ids=["interior-critical-point", "two-components", "endpoint-value"],
)
def test_sup_norm_is_exact_in_closed_form(components, endpoint, expected):
    # A sampled grid reads an interior maximum low; the critical points of
    # sum_j f_j^2 hit it.
    f = PiecewiseFunction.from_power([-1.0, 0.5], [components], endpoint_value=endpoint)
    assert sup_norm(f) == pytest.approx(expected, rel=1e-15, abs=0.0)


# ---------------------------------------------------------------- shift


def test_shift_translates_domain_and_preserves_norms():
    f = theta_identity()
    g = f.shift(0.5)
    assert g.domain == (-0.5, 0.5)
    assert g(0.0) == pytest.approx(-0.5)
    assert lp_norm(g, 2.0) == pytest.approx(lp_norm(f, 2.0), abs=1e-13)
    assert lp_norm(g, 1.0) == pytest.approx(lp_norm(f, 1.0), abs=1e-13)


# ---------------------------------------------------------------- restrict


def test_restrict_matches_pointwise():
    f = PiecewiseFunction.from_power(
        [-2.0, -1.0, 0.0], [[[1.0, 1.0]], [[0.0, 0.0, 2.0]]]
    )
    g = f.restrict(-1.5, -0.25)
    for t in np.linspace(-1.5, -0.25, 23)[:-1]:
        assert np.allclose(g(t), f(t), atol=1e-13)
    assert np.allclose(g(-0.25), f(-0.25), atol=1e-13)


def test_restrict_endpoint_at_seam_takes_right_piece():
    f = PiecewiseFunction.from_power(
        [0.0, 1.0, 2.0], [[[0.0]], [[9.0]]], endpoint_value=[9.0]
    )
    g = f.restrict(0.0, 1.0)
    # the distinguished value at the new right end comes from evaluation,
    # which at the seam reads the piece on the right
    assert g(1.0) == pytest.approx(9.0)
    assert g(0.5) == pytest.approx(0.0)


def test_restrict_retains_old_endpoint_when_full_width():
    f = PiecewiseFunction.from_power([0.0, 1.0], [[[1.0, 1.0]]], endpoint_value=[-4.0])
    g = f.restrict(0.0, 1.0)
    assert g(1.0) == pytest.approx(-4.0)


@pytest.mark.parametrize("n_components", [1, 2])
@pytest.mark.parametrize("degree", [0, 1, 16])
def test_restrict_endpoint_has_the_bits_of_evaluation(degree, n_components):
    # restrict reads its endpoint value at one point, not through __call__;
    # the two must agree bit for bit, also on a strided coefficient block.
    rng = np.random.default_rng(degree)
    bp = np.cumsum(np.concatenate(([-2.0], rng.uniform(0.1, 1.0, 4))))
    block = rng.normal(size=(4, degree + 3, n_components + 1))
    strided = block[:, : degree + 1, :n_components]
    dense = np.ascontiguousarray(strided)
    strided.flags.writeable = dense.flags.writeable = False
    for coeffs in (dense, strided):
        f = PiecewiseFunction(bp, coeffs, rng.normal(size=n_components))
        assert f.coeffs is coeffs
        for hi in np.concatenate((rng.uniform(bp[0] + 0.05, bp[-1], 40), bp[1:])):
            assert np.array_equal(f.restrict(bp[0], hi).endpoint_value, f(hi))


# ---------------------------------------------------------------- algebra


def test_add_merges_partitions():
    f = PiecewiseFunction.from_power([0.0, 0.5, 1.0], [[[1.0]], [[2.0]]])
    g = PiecewiseFunction.from_power([0.0, 0.25, 1.0], [[[0.0, 1.0]], [[3.0]]])
    h = f + g
    for t in np.linspace(0.0, 1.0, 41):
        assert np.allclose(h(t), f(t) + g(t), atol=1e-13)


def test_scale_and_neg():
    f = theta_identity()
    assert (2.5 * f)(-0.4) == pytest.approx(-1.0)
    assert (-f)(-0.4) == pytest.approx(0.4)


def test_add_rejects_mismatched_domains():
    f = theta_identity()
    g = PiecewiseFunction.identity((0.0, 1.0))
    with pytest.raises(DomainError):
        f + g


# ---------------------------------------------------------------- lazy composition


def test_lazy_composition_evaluates_through_map():
    base = PiecewiseFunction.identity((0.0, 1.0)).with_endpoint([3.0])
    comp = LazyComposition(base, lambda v: v**2, 1)
    assert comp(0.5) == pytest.approx(0.25)
    assert comp(1.0) == pytest.approx(9.0)  # endpoint goes through the map


def test_lazy_composition_lp_norm_without_materializing():
    base = PiecewiseFunction.identity((0.0, 1.0))
    comp = LazyComposition(base, lambda v: v**2, 1)
    # by hand: integral of t^4 on [0,1] is 1/5
    assert lp_norm(comp, 2.0) == pytest.approx(0.2**0.5, abs=1e-12)


# ---------------------------------------------------------------- stack


def test_stack_concatenates_components():
    f = PiecewiseFunction.from_power([0.0, 0.5, 1.0], [[[1.0]], [[2.0]]])
    g = PiecewiseFunction.identity((0.0, 1.0))
    s = stack([f, g])
    assert s.n_components == 2
    for t in np.linspace(0.0, 1.0, 17):
        assert np.allclose(s(t), np.concatenate([f(t), g(t)]), atol=1e-13)


# -------------------------------------------------------- property checks


@st.composite
def small_piecewise(draw, n_components=1):
    n_pieces = draw(st.integers(1, 3))
    cuts = draw(
        st.lists(
            st.floats(-0.9, -0.1),
            min_size=n_pieces - 1,
            max_size=n_pieces - 1,
            unique=True,
        )
    )
    bp = np.concatenate(([-1.0], np.sort(cuts), [0.0]))
    if np.min(np.diff(bp)) < 1e-3:
        bp = np.linspace(-1.0, 0.0, n_pieces + 1)
    coeff = st.floats(-2.0, 2.0)
    pieces = [
        [
            draw(st.lists(coeff, min_size=1, max_size=3))
            for _ in range(n_components)
        ]
        for _ in range(n_pieces)
    ]
    endpoint = [draw(coeff) for _ in range(n_components)]
    return PiecewiseFunction.from_power(bp, pieces, endpoint_value=endpoint)


# f changes sign inside its single piece (local Chebyshev coefficients);
# g = 0 carries a breakpoint at -0.75, so f + g is f on a refined partition.
SIGN_CHANGE = PiecewiseFunction(np.array([-1.0, 0.0]), (np.array([[-0.625], [-1.0], [0.125]]),), [0.0])
ZERO_REFINED = PiecewiseFunction(np.array([-1.0, -0.75, 0.0]), (np.zeros((1, 1)), np.zeros((1, 1))), [0.0])
# -1, and -(0.5 + 2^-23) + 0.5 T_1, whose zero lies 2.4e-7 past the right end
# of its piece (hypothesis seed 135).
MINUS_ONE = PiecewiseFunction(np.array([-1.0, 0.0]), (np.array([[-1.0]]),), [0.0])
ZERO_PAST_END = PiecewiseFunction(np.array([-1.0, 0.0]), (np.array([[-0.5 - 2.0**-23], [0.5]]),), [0.0])


@settings(max_examples=60, deadline=None)
@given(f=small_piecewise(), g=small_piecewise(), p=st.sampled_from([1.0, 1.5, 2.0, 3.0]))
@example(f=SIGN_CHANGE, g=ZERO_REFINED, p=1.0)
@example(f=SIGN_CHANGE, g=ZERO_REFINED, p=1.5)
@example(f=SIGN_CHANGE, g=ZERO_REFINED, p=3.0)
@example(f=MINUS_ONE, g=ZERO_PAST_END, p=1.0)
def test_lp_norm_triangle_inequality(f, g, p):
    # f + g lives on the merged partition of f and g, so the two sides are
    # integrated over different pieces.  The inequality holds to rounding
    # only because each norm is exact up to rounding whatever the
    # partition; a fixed-node rule on the pieces would not be enough, since
    # its error changes when a breakpoint is added.
    assert lp_norm(f + g, p) <= lp_norm(f, p) + lp_norm(g, p) + 1e-10


@pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
@pytest.mark.parametrize("c0", [-0.50000012, -0.49999988])
def test_lp_norm_zero_next_to_a_piece_end(c0, p):
    # g = c0 + 0.5 T_1 on [-1, 0] vanishes at local x0 = -2 c0, 2.4e-7 past
    # or before the right end.  A zero outside the piece must not get a
    # Jacobi weight, and one inside must not be moved onto the end.
    g = PiecewiseFunction(np.array([-1.0, 0.0]), (np.array([[c0], [0.5]]),), [0.0])
    x0 = -2.0 * c0
    inner = (x0 + 1.0) ** (p + 1.0) + np.sign(1.0 - x0) * abs(1.0 - x0) ** (p + 1.0)
    exact = (0.5 ** (p + 1.0) * inner / (p + 1.0)) ** (1.0 / p)
    assert lp_norm(g, p) == pytest.approx(exact, abs=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_cheb_roots_match_chebroots_bit_for_bit(seed):
    # Rows of degree 0..29, some with trailing 1e-15 coefficients that the
    # cut drops, and all-zero rows, which have no roots to report.
    rng = np.random.default_rng(seed)
    series = rng.standard_normal((90, 30))
    for i, d in enumerate(rng.integers(0, 30, 90)):
        series[i, d + 1 :] = 1e-15 if i % 3 == 0 else 0.0
    series[::11] = 0.0
    roots = funcrep._cheb_roots(series)
    for i, row in enumerate(series):
        mag = np.abs(row)
        kept = np.flatnonzero(mag > 1e-14 * mag.sum())
        d = int(kept[-1]) if kept.size else 0
        if d == 0:
            assert i not in roots
        else:
            np.testing.assert_array_equal(roots[i], np.polynomial.chebyshev.chebroots(row[: d + 1]))


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_lp_norm_refinement_invariance_on_sign_changes(p):
    # Splitting at the interior zero (1 - sqrt 7)/2 or elsewhere must not move the
    # norm; the reference integrates |f|^p with the independent oracle.
    from oracles import midpoint_integral

    exact = midpoint_integral(lambda t: np.abs(SIGN_CHANGE(t)[:, 0]) ** p, -1.0, 0.0) ** (1.0 / p)
    for points in ([-0.75], [-0.9, -0.5, -0.1], [0.5 * (1.0 - 7.0**0.5)]):
        refined = SIGN_CHANGE.refine(points)
        assert abs(lp_norm(refined, p) - lp_norm(SIGN_CHANGE, p)) <= 1e-12
    assert lp_norm(SIGN_CHANGE, p) == pytest.approx(exact, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(f=small_piecewise(), c=st.floats(-4.0, 4.0), p=st.sampled_from([1.0, 2.0]))
def test_lp_norm_absolute_homogeneity(f, c, p):
    assert lp_norm(f.scale(c), p) == pytest.approx(abs(c) * lp_norm(f, p), abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(f=small_piecewise(), dt=st.floats(-5.0, 5.0), p=st.sampled_from([1.0, 2.0]))
def test_lp_norm_shift_invariance(f, dt, p):
    assert lp_norm(f.shift(dt), p) == pytest.approx(lp_norm(f, p), abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(f=small_piecewise())
def test_refinement_does_not_change_values(f):
    g = f.refine([-0.77, -0.31])
    ts = np.linspace(-1.0, 0.0, 29)
    assert np.allclose(g(ts), f(ts), atol=1e-11)


# ------------------------------------ array form against per-piece references
#
# The operations below work on the one padded coefficient array of each
# function, all pieces at once.  tests/oracles.py keeps the per-piece chebval
# loops they replaced; both must agree to 1e-13 of the function's size on
# random functions with ragged piece degrees and several components.

DOMAIN = (-1.5, 0.5)


@st.composite
def ragged_piecewise(draw, n_components):
    """(f, blocks): f on DOMAIN with per-piece degrees 0..5, and the ragged
    Chebyshev blocks it was built from."""
    a, b = DOMAIN
    n_pieces = draw(st.integers(1, 5))
    cuts = np.sort(
        draw(st.lists(st.floats(0.02, 0.98), min_size=n_pieces - 1, max_size=n_pieces - 1))
    )
    bp = np.concatenate(([a], a + (b - a) * cuts, [b]))
    if np.min(np.diff(bp)) < 1e-3:
        bp = np.linspace(a, b, n_pieces + 1)
    value = st.lists(st.floats(-2.0, 2.0), min_size=n_components, max_size=n_components)
    blocks = [np.array(draw(st.lists(value, min_size=1, max_size=6))) for _ in range(n_pieces)]
    endpoint = draw(value)
    return PiecewiseFunction(bp, blocks, endpoint), blocks


def size_bound(f):
    # |f| <= sum_k |c_k| on each piece, since |T_k| <= 1.
    pieces = np.abs(f.coeffs).sum(axis=(1, 2)).max()
    return 1.0 + float(pieces) + float(np.abs(f.endpoint_value).sum())


def reference(f, blocks, t):
    return oracles.piecewise_values(f.breakpoints, blocks, f.endpoint_value, t)


def sample_points(draw_points, *functions):
    # Drawn points plus every breakpoint, which includes the right end.
    return np.concatenate([draw_points] + [g.breakpoints for g in functions])


def off_slivers(ts, *functions):
    # Breakpoints of different functions within the merge tolerance of each
    # other become one breakpoint of a sum or stack, and on the sliver
    # between them no single partition holds both operands' values, so
    # points at distance (0, 2 tol] from a breakpoint are left out.
    gaps = np.abs(ts[:, None] - np.concatenate([g.breakpoints for g in functions]))
    return ts[np.all((gaps == 0.0) | (gaps > 2.0 * funcrep._scale_tol(*DOMAIN)), axis=1)]


points = st.lists(st.floats(*DOMAIN), min_size=1, max_size=12).map(np.array)
pairs = st.integers(1, 3).flatmap(lambda n: st.tuples(ragged_piecewise(n), ragged_piecewise(n)))
singles = st.integers(1, 3).flatmap(ragged_piecewise)


@settings(max_examples=40, deadline=None)
@given(fb=singles)
def test_coefficients_are_one_read_only_padded_array(fb):
    f, blocks = fb
    g = f + f.scale(0.5)
    for h in (f, g, f.restrict(-1.0, 0.0), stack((f, g))):
        assert isinstance(h.coeffs, np.ndarray) and h.coeffs.ndim == 3
        assert h.coeffs.shape[0] == len(h.coeffs) == h.n_pieces
        assert not h.coeffs.flags.writeable
        with pytest.raises(ValueError):
            h.coeffs[0, 0, 0] = 1.0
    assert f.coeffs.shape == (len(blocks), max(b.shape[0] for b in blocks), blocks[0].shape[1])
    for block, padded in zip(blocks, f.coeffs):
        assert np.array_equal(padded[: block.shape[0]], block)
        assert not padded[block.shape[0] :].any()


def test_derived_values_share_their_fresh_coefficient_arrays(monkeypatch):
    # Sums, differences, scalings, stacks, solves and prolongation
    # deviations build a fresh coefficient array, read-only before the
    # constructor sees it, so the constructor keeps it and copies nothing.
    from ddehist.histspace import prolongation_deviation
    from ddehist.nonlinear import saturating
    from ddehist.solver import Problem, solve

    phi = PiecewiseFunction.from_power([-1.0, -0.4, 0.0], [[[0.2, 1.0]], [[-0.3, 0.0, 2.0]]], [0.5])
    chi = PiecewiseFunction.from_power([-1.0, -0.7, 0.0], [[[1.0]], [[0.0, -1.0]]], [0.1])
    pb = Problem(HistoryConfig(R=1.0, p=2.0, N=1), saturating(), 1.0, phi)
    copies, frozen = [], funcrep._frozen

    def recording(arr):
        out = frozen(arr)
        if out is not arr and np.ndim(arr) == 3:
            copies.append(arr.shape)
        return out

    monkeypatch.setattr(funcrep, "_frozen", recording)
    f, g = phi, chi
    derived = [f + g, f - g, f.scale(3.0), stack((f, g)), solve(pb, 2.5).x]
    derived.append(prolongation_deviation(derived[-1], phi))
    assert copies == []
    assert all(not h.coeffs.flags.writeable for h in derived)


@settings(max_examples=50, deadline=None)
@given(fb=singles, ts=points)
def test_evaluation_matches_the_per_piece_reference(fb, ts):
    f, blocks = fb
    ts = sample_points(ts, f)
    tol = 1e-13 * size_bound(f)
    assert np.abs(f(ts) - reference(f, blocks, ts)).max() <= tol
    for t in (ts[0], DOMAIN[1]):
        assert np.abs(f(t) - reference(f, blocks, t)[0]).max() <= tol


@settings(max_examples=50, deadline=None)
@given(fb=singles, ends=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), ts=points)
def test_restrict_matches_the_per_piece_reference(fb, ends, ts):
    f, blocks = fb
    a, b = DOMAIN
    lo, hi = sorted(a + (b - a) * np.array(ends))
    assume(hi - lo > 1e-3)
    # An end within the breakpoint tolerance of a breakpoint absorbs it.
    gaps = np.abs(f.breakpoints[:, None] - np.array([lo, hi]))
    assume(np.all((gaps == 0.0) | (gaps > 1e-9)))
    g = f.restrict(lo, hi)
    ts = sample_points(np.clip(ts, lo, hi), g)
    assert np.abs(g(ts) - reference(f, blocks, ts)).max() <= 1e-13 * size_bound(f)


STEP_BLOCKS = [np.zeros((1, 1))] * 3 + [np.ones((1, 1))]
# A step at 0, refined 4.7e-170 to its left: the inserted point must not
# replace the breakpoint at 0, or the step moves onto [-4.7e-170, 0).
STEP_AT_ZERO = (
    PiecewiseFunction(np.array([-1.5, -1.0, -0.5, 0.0, 0.5]), STEP_BLOCKS, [0.0]),
    STEP_BLOCKS,
)


@settings(max_examples=50, deadline=None)
@given(fb=singles, extra=points, ts=points)
@example(fb=STEP_AT_ZERO, extra=np.array([-4.68854878e-170]), ts=np.array([0.0]))
def test_refine_matches_the_per_piece_reference(fb, extra, ts):
    f, blocks = fb
    g = f.refine(extra)
    ts = sample_points(np.concatenate((ts, extra)), g)
    assert np.abs(g(ts) - reference(f, blocks, ts)).max() <= 1e-13 * size_bound(f)


# A breakpoint at 0.46 and one a rounding step to its left, within the merge
# tolerance: the merged partition keeps the left one, and on the sliver
# [0.45999999999999996, 0.46) the sum takes g's right piece (a hypothesis
# falsifier when every breakpoint was a sample point).
SLIVER_BLOCKS = [np.zeros((1, 1)), np.ones((1, 1))]
SLIVER_PAIR = (
    (PiecewiseFunction(np.array([-1.5, 0.45999999999999996, 0.5]), SLIVER_BLOCKS, [1.0]), SLIVER_BLOCKS),
    (PiecewiseFunction(np.array([-1.5, 0.46, 0.5]), SLIVER_BLOCKS, [1.0]), SLIVER_BLOCKS),
)


@settings(max_examples=50, deadline=None)
@given(pair=pairs, ts=points)
@example(pair=SLIVER_PAIR, ts=np.array([0.45999999999999996, 0.45999999999999998]))
def test_sum_difference_and_stack_match_the_per_piece_reference(pair, ts):
    (f, f_blocks), (g, g_blocks) = pair
    ts = off_slivers(sample_points(ts, f, g), f, g)
    ref_f, ref_g = reference(f, f_blocks, ts), reference(g, g_blocks, ts)
    tol = 1e-13 * (size_bound(f) + size_bound(g))
    assert np.abs((f + g)(ts) - (ref_f + ref_g)).max() <= tol
    assert np.abs((f - g)(ts) - (ref_f - ref_g)).max() <= tol
    assert np.abs(stack((f, g))(ts) - np.hstack((ref_f, ref_g))).max() <= tol
    assert np.abs(stack((f,))(ts) - ref_f).max() <= tol


def on_partition_of(f, g):
    """g's pieces, cycled, on the breakpoints of f."""
    return PiecewiseFunction(
        f.breakpoints, [g.coeffs[i % g.n_pieces] for i in range(f.n_pieces)], g.endpoint_value
    )


def padded_to(coeffs, width):
    return np.pad(coeffs, ((0, 0), (0, width - coeffs.shape[1]), (0, 0)))


ZERO_BLOCKS = [np.zeros((1, 1))]
ZERO = (PiecewiseFunction(np.array(DOMAIN), ZERO_BLOCKS, [0.0]), ZERO_BLOCKS)
# Degrees 0 and 5 on two pieces: the difference pads the lower one.
RAGGED_BLOCKS = [np.ones((1, 1)), np.full((6, 1), 0.5)]
RAGGED = (PiecewiseFunction(np.array([-1.5, -0.2, 0.5]), RAGGED_BLOCKS, [3.0]), RAGGED_BLOCKS)


@settings(max_examples=50, deadline=None)
@given(pair=pairs, at=st.floats(0.0, 1.0))
# One piece of degree 0 (a falsifier of a draft that padded to the degree,
# not to the coefficient count), and padding to the larger degree.
@example(pair=(ZERO, ZERO), at=0.5)
@example(pair=(RAGGED, ZERO), at=0.0)
@example(pair=(ZERO, RAGGED), at=0.65)
def test_one_partition_combines_piece_by_piece(pair, at):
    # Functions on one partition skip the merge: a sum, difference or stack
    # is the coefficient sum, difference or concatenation, bit for bit.
    (f, _), (g, _) = pair
    g = on_partition_of(f, g)
    bp = f.breakpoints
    # The merge that is skipped would return the partition itself.
    assert np.array_equal(funcrep._merge_partitions(bp, bp, funcrep._scale_tol(*DOMAIN)), bp)
    width = max(f.degree, g.degree) + 1
    mine, theirs = padded_to(f.coeffs, width), padded_to(g.coeffs, width)
    ends = f.endpoint_value, g.endpoint_value
    for h, coeffs, end in [
        (f + g, mine + theirs, ends[0] + ends[1]),
        (f - g, mine - theirs, ends[0] - ends[1]),
        (stack((f, g)), np.concatenate((mine, theirs), axis=2), np.concatenate(ends)),
    ]:
        assert np.array_equal(h.breakpoints, bp)
        assert np.array_equal(h.coeffs, coeffs)
        assert np.array_equal(h.endpoint_value, end)
    # A partition with one more point, away from the others, still merges.
    t = DOMAIN[0] + (DOMAIN[1] - DOMAIN[0]) * at
    assume(np.abs(bp - t).min() > 1e-6)
    finer = g.refine([t])
    ts = sample_points(np.array([t]), finer)
    tol = 1e-13 * (size_bound(f) + size_bound(g))
    for h, same in [(f - finer, f - g), (stack((f, finer)), stack((f, g)))]:
        assert np.array_equal(h.breakpoints, finer.breakpoints)
        assert np.abs(h(ts) - same(ts)).max() <= tol


def _bend(v):
    return np.column_stack((np.tanh(v).sum(axis=1), v[:, 0] * v[:, -1]))


@settings(max_examples=40, deadline=None)
@given(fb=singles)
def test_sup_norm_matches_the_per_piece_reference(fb):
    f, _ = fb
    tol = 1e-13 * size_bound(f)
    assert abs(sup_norm(f) - oracles.critical_point_sup_norm(f)) <= tol
    assert sup_norm(f) >= oracles.sampled_sup_norm(f) - tol


# (t + 1/2)^2, a double zero inside its piece, and 2t + 1 and t + 1/2, a
# zero on the right end of one piece and on the left end of the next.
DOUBLE_ZERO = PiecewiseFunction.from_power([-1.5, 0.5], [[[0.25, 1.0, 1.0]]])
ZERO_AT_ENDS = PiecewiseFunction.from_power([-1.5, -0.5, 0.5], [[[1.0, 2.0]], [[0.5, 1.0]]])


@settings(max_examples=60, deadline=None)
@given(
    f=st.integers(1, 2).flatmap(ragged_piecewise).map(lambda fb: fb[0]),
    p=st.sampled_from([1.0, 1.5, 2.5, 3.0]),
)
@example(f=DOUBLE_ZERO, p=2.5)
@example(f=DOUBLE_ZERO, p=3.0)
@example(f=ZERO_AT_ENDS, p=1.5)
@example(f=ZERO_AT_ENDS, p=1.0)
@example(f=_near_root_bump()[0], p=1.5)
def test_split_lp_norm_matches_the_per_group_reference(f, p):
    # One |f|^p evaluation per bisection level, at both rule sizes on every
    # sub-interval, against one per endpoint-zero group and rule size.
    expected = oracles.split_power_integral(f, p) ** (1.0 / p)
    assert abs(lp_norm(f, p) - expected) <= 1e-14 * expected


@st.composite
def rooted_blocks(draw):
    """(n, deg + 1, N) Chebyshev blocks whose pieces have chosen real roots,
    some on or next to the ends of [-1, 1] or beyond them, some repeated,
    and complex pairs near the real axis; a second component, when there is
    one, is a multiple of the first, so the zeros are common."""
    spots = st.one_of(
        st.sampled_from([-1.0, -1.0 - 1e-13, -1.0 - 1e-7, 0.0, 0.5, 1.0 - 1e-13, 1.0, 1.05]),
        st.floats(-1.2, 1.2),
    )
    near = st.tuples(st.floats(-1.2, 1.2), st.sampled_from([1e-8, 1e-5, 3e-3, 1e-2, 0.05]))
    pieces = []
    for _ in range(draw(st.integers(1, 4))):
        roots = draw(st.lists(spots, max_size=4))
        roots += [x + sign * 1j * y for x, y in draw(st.lists(near, max_size=1)) for sign in (1, -1)]
        series = np.real(chebyshev.chebfromroots(roots)) * draw(st.floats(0.1, 10.0))
        pieces.append(series + draw(st.sampled_from([0.0, 0.0, 1e-3, 2.0])) * (np.arange(series.size) == 0))
    first = np.array([np.pad(c, (0, 7 - c.size)) for c in pieces])[:, :, None]
    scales = [1.0] + draw(st.lists(st.floats(-2.0, 2.0), max_size=1))
    return np.concatenate([first * c for c in scales], axis=2)


@settings(max_examples=200, deadline=None)
@given(coeffs=st.one_of(rooted_blocks(), singles.map(lambda fb: fb[0].coeffs)))
@example(coeffs=DOUBLE_ZERO.coeffs)
@example(coeffs=ZERO_AT_ENDS.coeffs)
@example(coeffs=_near_root_bump()[0].coeffs)
# Every piece zero-free by the coefficient test: nothing is searched.
@example(coeffs=PiecewiseFunction.from_power([-1.0, 0.0, 1.0], [[[3.0, 0.5]], [[-2.0, 1.0]]]).coeffs)
# N = 2, t^2 - 1/4 and -1/2 times it: four roots of sum_j f_j^2 make the
# two zeros of |f| at -1/2 and 1/2.
@example(coeffs=np.array([[[0.25, -0.125], [0.0, 0.0], [0.5, -0.25]]]))
# Searched pieces whose roots all miss [-1, 1]: t^2 + 0.05 (complex, far
# from the axis) and t^2 - 1.1025 (real, at -1.05 and 1.05).
@example(coeffs=np.array([[[0.55], [0.0], [0.5]], [[-0.6025], [0.0], [0.5]]]))
def test_zero_split_equals_the_per_piece_reference(coeffs):
    # One array pass over every root against the loop over pieces it
    # replaced: the same sub-intervals and multiplicities, array for array.
    split, reference = funcrep._modulus_intervals(coeffs), oracles.modulus_intervals(coeffs)
    for got, want in zip(split, reference):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


@pytest.mark.parametrize("rounds", [0, 1, 3])
def test_split_lp_norm_stopped_short_matches_the_per_group_reference(monkeypatch, rounds):
    # Stopped before it converges, the estimate is the 2n-node sum, which
    # differs from the n-node sum by far more than 1e-14.
    monkeypatch.setattr(funcrep, "_JACOBI_MAX_ROUNDS", rounds)
    f, _ = _near_root_bump()
    with pytest.warns(RuntimeWarning, match="still disagree"):
        value = lp_norm(f, 1.5)
    expected = oracles.split_power_integral(f, 1.5) ** (1.0 / 1.5)
    assert abs(value - expected) <= 1e-14 * expected


def test_split_lp_norm_stopped_short_warns_once_across_degrees(monkeypatch):
    # The bump and a copy padded to one degree more are measured in two
    # degree groups; both stop short, and one warning names both.
    monkeypatch.setattr(funcrep, "_JACOBI_MAX_ROUNDS", 0)
    f, _ = _near_root_bump()
    padded = PiecewiseFunction(f.breakpoints, np.pad(f.coeffs, ((0, 0), (0, 1), (0, 0))), f.endpoint_value)
    with pytest.warns(RuntimeWarning) as record:
        values = lp_norm([f, padded], 1.5)
    assert len(record) == 1
    assert "of 2 function(s) still disagree" in str(record[0].message)
    assert values[0] == pytest.approx(values[1], rel=1e-14)


@settings(max_examples=40, deadline=None)
@given(fb=singles, p=st.sampled_from([1.0, 1.5, 2.0, 3.0]))
def test_lazy_lp_norm_matches_the_per_piece_reference(fb, p):
    f, _ = fb
    for lazy in (LazyComposition(f, _bend, 2), LazyComposition(f, np.abs, f.n_components)):
        assert abs(lp_norm(lazy, p) - oracles.lazy_lp_norm(lazy, p)) <= 1e-13 * size_bound(f) ** 2


# ------------------------------------------- batched norms against the loop
#
# lp_norm and sup_norm measure a sequence of functions in one pass over all
# their pieces; tests/oracles.py keeps the one-function-at-a-time loops.

batches = st.integers(1, 2).flatmap(
    lambda n: st.lists(ragged_piecewise(n).map(lambda fb: fb[0]), min_size=1, max_size=5)
)


# A linear and a quartic function with two components: padded to degree 4
# in one array, the linear one's norm at p = 1 moved by 2.2e-16.
MIXED_DEGREES = [
    PiecewiseFunction([-1.0, 1.0], [[[-0.18, -0.1], [1.14, 0.58]]], [0.0, 0.0]),
    PiecewiseFunction(
        [-1.0, 1.0],
        [[[-0.75, 0.68], [0.77, -0.11], [-0.26, -0.19], [-1.69, 0.19], [0.23, -0.87]]],
        [0.0, 0.0],
    ),
]


@settings(max_examples=60, deadline=None)
@given(fs=batches, p=st.sampled_from([1.0, 1.5, 2.0, 2.5, 3.0]))
@example(fs=[DOUBLE_ZERO, ZERO_AT_ENDS, _near_root_bump()[0]], p=1.5)
# The bump converges by its own rounding floor, not by the large constant's.
@example(fs=[_near_root_bump()[0].scale(1e-6), PiecewiseFunction.constant([1e3], (-1.0, 1.0))], p=1.5)
@example(fs=MIXED_DEGREES, p=1.0)
def test_lp_norms_match_the_per_function_loop(fs, p):
    assert np.array_equal(lp_norm(fs, p), oracles.lp_norm_loop(fs, p))


# A zero-padded top coefficient: evaluated at the critical points in one
# matrix product per row, this function alone and in a batch differed by
# 2.2e-16.
PADDED_CUBIC = PiecewiseFunction(
    [-1.5, 0.5], [[[-0.6857914060960411], [0.7463680260423833], [0.6955230562159032], [0.0]]], [0.0]
)


@settings(max_examples=60, deadline=None)
@given(fs=batches)
@example(fs=[PADDED_CUBIC, PADDED_CUBIC])
def test_sup_norms_equal_the_per_function_loop(fs):
    assert np.array_equal(sup_norm(fs), oracles.sup_norm_loop(fs))


@settings(max_examples=40, deadline=None)
@given(fb=singles, p=st.sampled_from([1.0, 1.5, 2.0, 3.0]))
def test_lp_norm_of_one_function_is_a_float_equal_to_its_batch_of_one(fb, p):
    f, _ = fb
    value = lp_norm(f, p)
    assert type(value) is float
    assert np.array_equal(lp_norm([f], p), [value])


@settings(max_examples=40, deadline=None)
@given(fb=singles)
def test_sup_norm_of_one_function_is_a_float_equal_to_its_batch_of_one(fb):
    f, _ = fb
    value = sup_norm(f)
    assert type(value) is float
    assert np.array_equal(sup_norm([f]), [value])


def test_empty_batches_have_no_norms():
    shapes = {
        lp_norm([], 1.5).shape,
        sup_norm([]).shape,
        endpoint_lp_norm([], 1.5).shape,
        seminorm([], HistoryConfig(R=1.0, p=1.5)).shape,
    }
    assert shapes == {(0,)}


@pytest.mark.parametrize("block", [1, 2**30])
def test_block_size_does_not_change_the_jacobi_integrals(monkeypatch, block):
    f = _near_root_bump()[0] + PiecewiseFunction.from_power([-1.0, -0.2, 0.3, 1.0], [[[0.1, 1.0]]] * 3)
    intervals = funcrep._modulus_intervals(f.coeffs)
    expected = funcrep._jacobi_integrals(f.coeffs, *intervals, 1.5, (16, 32))
    monkeypatch.setattr(funcrep, "_BLOCK_DOUBLES", block)
    assert np.array_equal(funcrep._jacobi_integrals(f.coeffs, *intervals, 1.5, (16, 32)), expected)


def test_a_batch_warns_when_one_function_stops_short(monkeypatch):
    monkeypatch.setattr(funcrep, "_JACOBI_MAX_ROUNDS", 1)
    f, expected = _near_root_bump()
    g = PiecewiseFunction.from_power([-1.0, 1.0], [[[1.0, 0.5]]])
    alone = lp_norm(g, 1.5)
    with pytest.warns(RuntimeWarning, match="sub-intervals of 1 function"):
        values = lp_norm([g, f], 1.5)
    assert values[0] == pytest.approx(alone, rel=1e-14)
    assert values[1] == pytest.approx(expected, rel=1e-3)


# -------------------------------------------------- fixed-node Vandermonde


def _node_sets():
    from ddehist import solver

    # The even-p rule sizes at p = 2, 4, 6 and 12 up to degree 16, the lazy
    # rule's 16 nodes, the ends, the modulus series' points and the solver's.
    for n in (16, 17, 33, 49, 97):
        yield funcrep._gauss_nodes, n
    yield funcrep._unit_ends, 2
    for m in (1, 9, 21, 33):
        yield funcrep._cheb_nodes, m
    yield solver._step_nodes, funcrep._NODES_PER_PIECE


@pytest.mark.parametrize("deg", range(17))
def test_each_cached_vandermonde_product_has_the_bits_of_cheb_values(deg):
    rng = np.random.default_rng(deg)
    for nodes, n in _node_sets():
        u = nodes(n)
        matrix = funcrep._vandermonde(nodes, n, deg)
        assert not matrix.flags.writeable
        # The solver's matrix was numpy's chebvander of its points.
        assert np.array_equal(matrix, chebyshev.chebvander(u, deg))
        for n_components in (1, 2, 3):
            coeffs = rng.normal(size=(7, deg + 1, n_components))
            assert np.array_equal(matrix @ coeffs, funcrep._cheb_values(coeffs, u))
            if nodes is funcrep._gauss_nodes:
                # The even-p path read whole pieces at one row of points per piece.
                rows = (0.5 * (np.ones(7) + -np.ones(7)))[:, None] + (0.5 * (np.ones(7) - -np.ones(7)))[:, None] * u
                assert np.array_equal(matrix @ coeffs, funcrep._cheb_values(coeffs, rows))
