"""History-space tests.

Frozen expectations come from hand integration of polynomials and step
functions; the bound constants are checked on seeded corpora.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from ddehist.corpus import (
    bump_history,
    indicator_history,
    null_set_variant,
    random_history,
    random_piecewise,
)
from ddehist.funcrep import DomainError, PiecewiseFunction, lp_norm, restricted, sup_norm
from ddehist.histspace import (
    HistoryConfig,
    HistoryElement,
    QuotientPair,
    endpoint_lp_norm,
    from_pair,
    history_segment,
    pair_norm,
    prolongation_constant,
    prolongation_deviation,
    regulation_constant,
    seminorm,
    static_prolongation,
    to_pair,
)
from ddehist.nonlinear import saturating
from ddehist.solver import Problem, solve

RT3_INV = 0.5773502691896258  # (1/3)**0.5 by hand


def cfg1(p=1.0):
    return HistoryConfig(R=1.0, p=p, N=1)


# ---------------------------------------------------------------- seminorm


def test_seminorm_constant_history_p1():
    phi = HistoryElement.constant([1.0], R=1.0)
    # integral 1 + endpoint 1
    assert seminorm(phi, cfg1(1.0)) == pytest.approx(2.0, abs=1e-12)


def test_seminorm_identity_history_p2():
    phi = HistoryElement.from_power([-1.0, 0.0], [[[0.0, 1.0]]], endpoint_value=[0.0])
    assert seminorm(phi, cfg1(2.0)) == pytest.approx(RT3_INV, abs=1e-12)


def test_seminorm_pure_endpoint_mass():
    phi = HistoryElement.from_power([-1.0, 0.0], [[[0.0]]], endpoint_value=[1.0])
    for p in (1.0, 2.0, 3.0):
        assert seminorm(phi, cfg1(p)) == pytest.approx(1.0, abs=1e-13)


def test_seminorm_null_set_invariance():
    rng = np.random.default_rng(11)
    cfg = HistoryConfig(R=1.0, p=2.0, N=2)
    phi = random_history(rng, cfg, n_pieces=3, max_degree=3)
    psi = null_set_variant(phi, rng)
    assert seminorm(psi, cfg) == pytest.approx(seminorm(phi, cfg), abs=1e-11)
    gap = seminorm(phi - psi, cfg)
    assert gap <= 1e-10


def test_seminorm_checks_config():
    phi = HistoryElement.constant([1.0], R=2.0)
    with pytest.raises(DomainError):
        seminorm(phi, cfg1())


@pytest.mark.parametrize("domain", [(-1.0, 0.5), (-1.0, -1e-6), (-2.0, 0.0), (-1.0, 1e-12)])
def test_functions_off_the_history_interval_are_not_histories(domain):
    # Any PiecewiseFunction on [-R, 0] is a history.  Its right end must be
    # 0 exactly, where the solver starts its first step.
    f = PiecewiseFunction.constant([1.0], domain)
    with pytest.raises(DomainError, match="not on \\[-R, 0\\]"):
        seminorm(f, cfg1())
    with pytest.raises(DomainError, match="not on \\[-R, 0\\]"):
        Problem(cfg1(), saturating(), 1.0, f)


def test_a_function_on_the_history_interval_is_a_history():
    f = PiecewiseFunction.from_power([-1.0 - 1e-12, -0.5, 0.0], [[[1.0]], [[0.0, 2.0]]], [3.0])
    assert seminorm(f, cfg1(2.0)) == pytest.approx((0.5 + 1e-12 + 1.0 / 6.0 + 9.0) ** 0.5, abs=1e-12)
    assert solve(Problem(cfg1(), saturating(), 1.0, f), 1.0).x.domain == (-1.0 - 1e-12, 1.0)


@pytest.mark.parametrize("end", [1e-12, -1e-12])
def test_history_element_puts_a_near_zero_right_end_on_zero(end):
    near = HistoryElement([-1.0, -0.5, end], [[[1.0]], [[2.0]]], [3.0])
    exact = PiecewiseFunction([-1.0, -0.5, 0.0], [[[1.0]], [[2.0]]], [3.0])
    assert near.breakpoints[-1] == 0.0 and not near.breakpoints.flags.writeable
    assert np.array_equal(near.breakpoints, exact.breakpoints)
    assert seminorm(near, cfg1(3.0)) == seminorm(exact, cfg1(3.0))


@pytest.mark.parametrize("end", [1e-6, -1e-6, 0.5])
def test_history_element_refuses_a_right_end_further_from_zero(end):
    with pytest.raises(DomainError, match="histories must end at 0"):
        HistoryElement([-1.0, end], [[[1.0]]], [1.0])


# ---------------------------------------------------------------- bar norm


def test_endpoint_lp_norm_constant():
    x = PiecewiseFunction.constant([1.0], (0.0, 1.0))
    assert endpoint_lp_norm(x, 1.0) == pytest.approx(2.0, abs=1e-13)
    assert endpoint_lp_norm(x, 2.0) == pytest.approx(2.0**0.5, abs=1e-13)


def test_endpoint_lp_norm_pure_tip():
    x = PiecewiseFunction.from_power([0.0, 1.0], [[[0.0]]], endpoint_value=[1.0])
    assert endpoint_lp_norm(x, 2.0) == pytest.approx(1.0, abs=1e-13)


# ------------------------------------------------------- static prolongation


def test_static_prolongation_freezes_endpoint():
    phi = HistoryElement.from_power([-1.0, 0.0], [[[0.0]]], endpoint_value=[1.0])
    bar = static_prolongation(phi, 2.0)
    assert bar.domain == (-1.0, 2.0)
    assert bar(1.3) == pytest.approx(1.0)
    assert bar(-0.5) == pytest.approx(0.0)
    assert bar(2.0) == pytest.approx(1.0)
    assert 0.0 in bar.breakpoints


def test_static_prolongation_equality_case():
    # phi = 0 a.e. with phi(0) = 1, T = 2, p = 1: the bound (1+T) is attained
    phi = HistoryElement.from_power([-1.0, 0.0], [[[0.0]]], endpoint_value=[1.0])
    bar = static_prolongation(phi, 2.0)
    cfg = cfg1(1.0)
    assert endpoint_lp_norm(bar, 1.0) == pytest.approx(3.0, abs=1e-12)
    assert endpoint_lp_norm(bar, 1.0) == pytest.approx(
        prolongation_constant(2.0, 1.0) * seminorm(phi, cfg), abs=1e-12
    )


@pytest.mark.parametrize("p", [1.0, 2.0, 3.5])
@pytest.mark.parametrize("T", [0.5, 1.0, 4.0])
def test_static_prolongation_bound_on_corpus(p, T):
    rng = np.random.default_rng(int(10 * p + T))
    cfg = HistoryConfig(R=1.5, p=p, N=2)
    for _ in range(20):
        phi = random_history(rng, cfg, n_pieces=int(rng.integers(1, 5)))
        bar = static_prolongation(phi, T)
        bound = prolongation_constant(T, p) * seminorm(phi, cfg)
        assert endpoint_lp_norm(bar, p) <= bound + 1e-8


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(1, 2),
    r=st.sampled_from([0.4, 1.0, 1.5]),
    T=st.sampled_from([0.3, 1.0, 2.5]),
)
def test_prolongation_deviation_is_the_trajectory_less_its_prolonged_history(seed, n, r, T):
    rng = np.random.default_rng(seed)
    cfg = HistoryConfig(R=1.5, p=2.0, N=n)
    phi = random_history(rng, cfg, n_pieces=int(rng.integers(1, 5)), scale=2.0)
    x = solve(Problem(cfg, saturating(n), r, phi), T).x
    dev = prolongation_deviation(x, phi)
    # On x's partition, exactly zero on the history.
    assert np.array_equal(dev.breakpoints, x.breakpoints)
    assert not dev.coeffs[: int(x.breakpoints.searchsorted(0.0))].any()
    ts = np.concatenate((np.linspace(-1.5, T, 61), x.breakpoints))
    assert not dev(ts[ts < 0.0]).any()
    reference = x - static_prolongation(phi, T)
    assert sup_norm(dev - reference) <= 1e-15 * sup_norm(x)


# ---------------------------------------------------------------- regulation


@pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
def test_regulation_bound_continuous_corpus(p):
    rng = np.random.default_rng(int(p))
    for _ in range(20):
        lo = float(rng.uniform(-2.0, 0.0))
        hi = lo + float(rng.uniform(0.5, 3.0))
        x = random_piecewise(
            rng, (lo, hi), n_pieces=3, max_degree=3, n_components=2, continuous=True
        )
        assert endpoint_lp_norm(x, p) <= regulation_constant(lo, hi, p) * sup_norm(x) + 1e-8


def test_regulation_equality_for_constants():
    x = PiecewiseFunction.constant([2.0], (0.0, 1.5))
    assert endpoint_lp_norm(x, 1.0) == pytest.approx(
        regulation_constant(0.0, 1.5, 1.0) * sup_norm(x), abs=1e-12
    )


# ---------------------------------------------------------------- segments


def glued_trajectory():
    # x = 1 on [-1, 0), x(t) = 1 + t on [0, 1]; continuous at 0
    return PiecewiseFunction.from_power(
        [-1.0, 0.0, 1.0], [[[1.0]], [[1.0, 1.0]]], endpoint_value=[2.0]
    )


def test_history_segment_at_terminal_time():
    seg = history_segment(glued_trajectory(), 1.0, R=1.0)
    # theta -> 2 + theta
    for theta in np.linspace(-1.0, 0.0, 9):
        assert np.allclose(seg(theta), 2.0 + theta, atol=1e-12)
    assert seg.endpoint_value == pytest.approx(2.0)


def test_history_segment_at_zero_recovers_history():
    x = glued_trajectory()
    seg = history_segment(x, 0.0, R=1.0)
    assert seg.endpoint_value == pytest.approx(1.0)
    for theta in np.linspace(-1.0, 0.0, 9)[:-1]:
        assert np.allclose(seg(theta), 1.0, atol=1e-12)


def test_history_segment_window_check():
    with pytest.raises(DomainError):
        history_segment(glued_trajectory(), 0.5, R=2.0)


@st.composite
def windowed(draw):
    """(x, t, R): a function x on [-1, 2] with N = 1 or 2, and a window
    [t - R, t] inside its domain."""
    n, pieces = draw(st.sampled_from([1, 2])), draw(st.integers(1, 6))
    cuts = draw(st.lists(st.floats(-0.99, 1.99), min_size=pieces - 1, max_size=pieces - 1, unique=True))
    bp = np.concatenate(([-1.0], np.sort(cuts), [2.0]))
    if np.diff(bp).min() < 1e-3:
        bp = np.linspace(-1.0, 2.0, pieces + 1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coeffs = rng.normal(size=(pieces, draw(st.sampled_from([1, 2, 4, 17])), n))
    R = draw(st.floats(0.05, 3.0))
    t = draw(st.floats(R - 1.0, 2.0))
    return PiecewiseFunction(bp, coeffs, rng.normal(size=n)), t, R


SEAMED = PiecewiseFunction(
    np.array([-1.0, -0.25, 0.5, 2.0]), np.arange(24.0).reshape(3, 4, 2) / 7.0, [0.5, -0.5]
)


@settings(max_examples=80, deadline=None)
@given(case=windowed())
@example(case=(SEAMED, 0.5, 1.0))  # t on a breakpoint
@example(case=(SEAMED, -0.25 + 1.5, 1.5))  # t - R on one
@example(case=(SEAMED, 2.0, 1.0))  # t at the domain end
@example(case=(SEAMED, 0.5 - 5e-10, 1.5))  # t - R 5e-10 before the domain start
def test_history_segment_is_the_restricted_shifted_snapped_window(case):
    # One construction, with the bits of the three-step reference.
    x, t, R = case
    a, b = x.domain
    ref = x.restrict(max(t - R, a), min(t, b)).shift(-t)._snap_domain(-R, 0.0)
    seg = history_segment(x, t, R)
    assert seg.domain == (-R, 0.0)
    assert np.array_equal(seg.breakpoints, ref.breakpoints)
    assert np.array_equal(seg.coeffs, ref.coeffs)
    assert np.array_equal(seg.endpoint_value, ref.endpoint_value)


@st.composite
def cut_together(draw):
    """(xs, t, R): one or two functions on one partition of [-1, 2], of one
    degree 0..16 and N = 1 or 2, their coefficients contiguous or a strided
    view as a solve's blocks are, and a window [t - R, t] in the domain."""
    n, deg, pieces = draw(st.sampled_from([1, 2])), draw(st.integers(0, 16)), draw(st.integers(1, 6))
    cuts = draw(st.lists(st.floats(-0.99, 1.99), min_size=pieces - 1, max_size=pieces - 1, unique=True))
    bp = np.concatenate(([-1.0], np.sort(cuts), [2.0]))
    if np.diff(bp).min() < 1e-3:
        bp = np.linspace(-1.0, 2.0, pieces + 1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    strided = draw(st.booleans())
    xs = []
    for _ in range(draw(st.integers(1, 2))):
        block = rng.normal(size=(pieces, deg + 1, 2 * n if strided else n))
        block.flags.writeable = False  # so a view is kept, not copied
        xs.append(PiecewiseFunction(bp, block[:, :, :n], rng.normal(size=n)))
    R = draw(st.floats(0.05, 3.0))
    return xs, draw(st.floats(R - 1.0, 2.0)), R


def seamed(deg, strided=False):
    block = np.arange(3.0 * (deg + 1) * 4).reshape(3, deg + 1, 4) / 7.0
    block.flags.writeable = False
    views = [block[:, :, k : k + 2] for k in (0, 2)]
    return [PiecewiseFunction([-1.0, -0.25, 0.5, 2.0], v if strided else v.copy(), [0.5, -0.5]) for v in views]


@settings(max_examples=120, deadline=None)
@given(case=cut_together())
@example(case=(seamed(16), 0.5, 1.0))  # t on a breakpoint
@example(case=(seamed(13, strided=True), 0.5, 1.0))
@example(case=(seamed(0), 2.0, 1.0))  # t at the domain end
@example(case=(seamed(7, strided=True), 2.0, 2.5))
@example(case=(seamed(16), 0.5 - 5e-10, 1.5))  # t - R 5e-10 before the domain start
def test_a_sequence_is_cut_with_the_bits_of_each_function_alone(case):
    # One pass over the sequence: each function gets the bits it gets alone
    # and the bits of a cut made one function at a time.
    xs, t, R = case
    a, b = xs[0].domain
    lo, hi = max(t - R, a), min(t, b)
    segments, pieces = history_segment(xs, t, R), restricted(xs, lo, hi)
    assert len(segments) == len(pieces) == len(xs)
    for x, seg, piece in zip(xs, segments, pieces):
        partition, coeffs, value = oracles.restrict_one(x, lo, hi)
        alone = history_segment(x, t, R)
        for got in (seg, alone):
            assert got.domain == (-R, 0.0)
            assert np.array_equal(got.breakpoints[1:-1], partition[1:-1] - t)
            assert np.array_equal(got.coeffs, coeffs)
            assert np.array_equal(got.endpoint_value, value)
        for got in (piece, x.restrict(lo, hi)):
            assert np.array_equal(got.breakpoints, partition)
            assert np.array_equal(got.coeffs, coeffs)
            assert np.array_equal(got.endpoint_value, value)


def test_a_sequence_on_two_partitions_is_not_cut():
    x = seamed(3)[0]
    moved = PiecewiseFunction([-1.0, 0.0, 0.5, 2.0], x.coeffs, x.endpoint_value)
    lower = PiecewiseFunction(x.breakpoints, x.coeffs[:, :2], x.endpoint_value)
    for other in (moved, lower):
        with pytest.raises(ValueError, match="one partition and degree"):
            history_segment([x, other], 1.0, 1.0)
        with pytest.raises(ValueError, match="one partition and degree"):
            restricted([x, other], 0.0, 1.0)


# ---------------------------------------------------------------- quotient


def test_pair_round_trip_is_exact():
    rng = np.random.default_rng(3)
    cfg = HistoryConfig(R=1.0, p=2.0, N=2)
    phi = random_history(rng, cfg)
    back = from_pair(to_pair(phi))
    assert np.array_equal(back.breakpoints, phi.breakpoints)
    assert all(
        np.array_equal(a, b) for a, b in zip(back.coeffs, phi.coeffs)
    )
    assert np.array_equal(back.endpoint_value, phi.endpoint_value)


def test_pair_norm_isometry_examples():
    cfg = cfg1(1.0)
    phi = HistoryElement.from_power([-1.0, 0.0], [[[0.0]]], endpoint_value=[1.0])
    assert pair_norm(to_pair(phi), 1.0) == pytest.approx(seminorm(phi, cfg), abs=1e-13)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    p=st.sampled_from([1.0, 2.0, 3.0]),
)
def test_pair_norm_isometry_random(seed, p):
    rng = np.random.default_rng(seed)
    cfg = HistoryConfig(R=1.0, p=p, N=int(rng.integers(1, 4)))
    phi = random_history(rng, cfg, n_pieces=int(rng.integers(1, 5)))
    assert pair_norm(to_pair(phi), p) == pytest.approx(seminorm(phi, cfg), abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), p=st.sampled_from([1.0, 1.5, 2.0, 3.0]))
def test_seminorms_of_one_history_are_floats_equal_to_their_batch_of_one(seed, p):
    rng = np.random.default_rng(seed)
    cfg = HistoryConfig(R=1.0, p=p, N=int(rng.integers(1, 4)))
    phi = random_history(rng, cfg, n_pieces=int(rng.integers(1, 5)))
    value = seminorm(phi, cfg)
    assert type(value) is float
    assert np.array_equal(seminorm([phi], cfg), [value])
    value = endpoint_lp_norm(phi, p)
    assert type(value) is float
    assert np.array_equal(endpoint_lp_norm([phi], p), [value])


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    k=st.integers(0, 40),
    p=st.sampled_from([1.0, 1.5, 2.0, 2.5, 3.0, 4.0]),
    n=st.integers(1, 2),
)
# The largest rounding gaps of a 60-seed survey, about 3e-15 relative.
@example(seed=17, k=39, p=1.5, n=2)
@example(seed=3, k=39, p=2.5, n=1)
def test_norms_are_homogeneous_along_the_halving_schedule(seed, k, p, n):
    # A schedule sizes its row k as 2^-k times the size of its direction.
    rng = np.random.default_rng(seed)
    cfg = HistoryConfig(R=1.0, p=p, N=n)
    chi = random_history(rng, cfg, n_pieces=int(rng.integers(1, 5)))
    factor = 2.0**-k
    for norm in (lambda x: lp_norm(x, p), lambda x: endpoint_lp_norm(x, p), lambda x: seminorm(x, cfg)):
        assert norm(chi.scale(factor)) == pytest.approx(factor * norm(chi), rel=1e-14, abs=0.0)


def test_pair_norm_forgets_ae_endpoint():
    # two pairs with the same class and eta but different stored endpoint
    # values on the representative are the same point of the quotient
    base = PiecewiseFunction.from_power([-1.0, 0.0], [[[0.5, 1.0]]])
    pair_a = QuotientPair(base, np.array([3.0]))
    pair_b = QuotientPair(base.with_endpoint([99.0]), np.array([3.0]))
    assert pair_norm(pair_a, 2.0) == pytest.approx(pair_norm(pair_b, 2.0), abs=1e-14)
    assert from_pair(pair_a).endpoint_value == pytest.approx(3.0)
    assert from_pair(pair_b).endpoint_value == pytest.approx(3.0)


# ---------------------------------------------------------------- indicators


def test_indicator_history_geometry():
    cfg = HistoryConfig(R=1.0, p=1.0, N=1)
    phi = bump_history(cfg, center=-0.5, halfwidth=0.01)
    assert phi(-0.5) == pytest.approx(1.0)
    assert phi(-0.95) == pytest.approx(0.0)
    assert phi(0.0) == pytest.approx(0.0)
    assert seminorm(phi, cfg) == pytest.approx(0.02, abs=1e-14)


def test_indicator_history_truncates_at_boundary():
    cfg = HistoryConfig(R=1.0, p=1.0, N=1)
    phi = indicator_history(cfg, -1.2, -0.9)
    assert seminorm(phi, cfg) == pytest.approx(0.1, abs=1e-14)
    assert phi(-1.0) == pytest.approx(1.0)


# ------------------------------------------------------------- prolongability


def test_segment_map_is_continuous_in_time():
    # globally continuous trajectory with gentle slopes: the seminorm gap of
    # nearby segments decays like the time offset
    x = PiecewiseFunction.from_power(
        [-1.0, 0.0, 2.0],
        [[[0.3, 0.3]], [[0.3, 0.3, -0.125]]],
        endpoint_value=[0.3 + 0.6 - 0.5],
    )
    cfg = HistoryConfig(R=1.0, p=2.0, N=1)
    t0 = 0.5
    base = history_segment(x, t0, R=1.0)
    gaps = []
    for k in range(21):
        seg = history_segment(x, t0 + 2.0**-k, R=1.0)
        gaps.append(seminorm(seg - base, cfg))
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[20] <= 1e-6
