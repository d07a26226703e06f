"""Registry and certificate tests.

Growth constants were derived by hand when the entries were written; the
tests re-check them by dense sampling and check the Jacobians against
central finite differences.
"""

import numpy as np
import pytest

from ddehist.nonlinear import (
    GrowthCertificate,
    cubic,
    holder_conjugate,
    jacobian_defect,
    linear,
    lipschitz_on_ball,
    make,
    mackey_glass,
    quadratic,
    saturating,
    spectral_norm,
    tangent_system,
    verify_growth,
)

ALL_ENTRIES = [
    linear([[0.8]]),
    linear([[0.3, -0.5], [0.2, 0.1]]),
    quadratic(1),
    quadratic(3),
    cubic(1),
    cubic(2),
    saturating(1),
    saturating(3),
    mackey_glass(2.0, 1),
    mackey_glass(4.0, 2),
]


@pytest.mark.parametrize("nl", ALL_ENTRIES, ids=lambda n: f"{n.name}-{n.dim}")
def test_growth_certificates_hold_on_samples(nl):
    report = verify_growth(nl, radius=10.0, samples=2000, seed=5)
    assert report.f_defect <= 1e-12
    assert report.df_defect <= 1e-12


@pytest.mark.parametrize("nl", ALL_ENTRIES, ids=lambda n: f"{n.name}-{n.dim}")
def test_jacobian_matches_finite_differences(nl):
    assert jacobian_defect(nl, radius=10.0, samples=200, seed=1) <= 1e-5


@pytest.mark.parametrize(
    "nl",
    [n for n in ALL_ENTRIES if n.df_lipschitz is not None],
    ids=lambda n: f"{n.name}-{n.dim}",
)
def test_df_lipschitz_constants_hold_on_samples(nl):
    rng = np.random.default_rng(9)
    x = rng.uniform(-10, 10, (500, nl.dim))
    y = rng.uniform(-10, 10, (500, nl.dim))
    gaps = spectral_norm(nl.jac(x) - nl.jac(y))
    dists = np.linalg.norm(x - y, axis=1)
    mask = dists > 1e-12
    assert np.all(gaps[mask] <= nl.df_lipschitz * dists[mask] + 1e-10)


def test_mislabeled_certificate_is_caught():
    # negative control: cubic growth labeled as quadratic must show a defect
    bad = cubic(1)
    bad = type(bad)(
        name=bad.name,
        dim=bad.dim,
        fn=bad.fn,
        jac=bad.jac,
        f_growth=GrowthCertificate(2.0, 1.0, 0.0),
        df_growth=bad.df_growth,
    )
    report = verify_growth(bad, radius=10.0, samples=2000, seed=5)
    assert report.f_defect > 0.0


def test_lipschitz_on_ball_cubic():
    # 3 * 2^2 = 12
    assert lipschitz_on_ball(cubic(1), 2.0) == pytest.approx(12.0)
    # spot check: |f(2) - f(1.9)| = 1.141 <= 12 * 0.1
    assert abs(2.0**3 - 1.9**3) <= 12.0 * 0.1 + 1e-12


def test_holder_conjugate_values():
    assert holder_conjugate(2.0) == pytest.approx(2.0)
    assert holder_conjugate(3.0) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        holder_conjugate(1.0)


def test_holder_conjugate_relation():
    for s in (1.5, 2.0, 4.0, 10.0):
        q = holder_conjugate(s)
        assert 1.0 / s + 1.0 / q == pytest.approx(1.0)


def test_spectral_norm_against_svd():
    rng = np.random.default_rng(2)
    for n in (1, 2, 3, 5):
        mats = rng.standard_normal((40, n, n))
        want = np.linalg.svd(mats, compute_uv=False)[:, 0]
        got = spectral_norm(mats)
        assert np.allclose(got, want, atol=1e-12)
        assert np.all(np.linalg.norm(mats, axis=(-2, -1)) >= got - 1e-12)


def test_registry_make():
    nl = make("mackey_glass", beta=3.0, k=2)
    assert nl.params == {"beta": 3.0, "k": 2}
    with pytest.raises(KeyError):
        make("unknown")


def test_linear_gain_is_spectral():
    nl = linear([[3.0, 4.0], [0.0, 0.0]])
    assert nl.f_growth.c1 == pytest.approx(5.0)


def test_batch_and_single_evaluation_agree():
    nl = saturating(2)
    x = np.array([0.3, -1.2])
    single = nl(x)
    batch = nl(np.stack([x, 2 * x]))
    assert np.allclose(batch[0], single)
    assert nl.jacobian(x).shape == (2, 2)


def test_tangent_system_pairs_the_map_with_its_linearization():
    nl = saturating(2)
    doubled = tangent_system(nl)
    v = np.random.default_rng(0).standard_normal((7, 4))
    out = doubled.fn(v)
    assert doubled.dim == 4 and doubled.jac is None and doubled.df_growth is None
    np.testing.assert_array_equal(out[:, :2], nl.fn(v[:, :2]))
    np.testing.assert_allclose(out[:, 2:], np.einsum("kij,kj->ki", nl.jac(v[:, :2]), v[:, 2:]))
