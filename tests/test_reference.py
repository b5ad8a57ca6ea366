"""Reference measures: spectra, transforms, exact samplers, CM norms."""

import numpy as np
import pytest

from klgauss import (
    BridgeReference,
    PeriodicReference,
    ScalarReference,
    dirichlet_precision,
    fourier_eigenvalues,
    fourier_mode,
)


def bridge_kernel(t):
    return 2.0 * (np.minimum.outer(t, t) - np.outer(t, t))


def test_fourier_eigenvalues_pairing():
    lam2 = fourier_eigenvalues(6, 0.5)
    k = np.array([1, 1, 2, 2, 3, 3])
    assert np.allclose(lam2, 0.5 / (2 * np.pi * k) ** 2)
    # sine/cosine partners share their wavenumber's eigenvalue exactly
    assert lam2[0] == lam2[1] and lam2[2] == lam2[3] and lam2[4] == lam2[5]


def test_fourier_eigenvalues_validation():
    with pytest.raises(ValueError):
        fourier_eigenvalues(0, 1.0)
    with pytest.raises(ValueError):
        fourier_eigenvalues(4, 0.0)
    with pytest.raises(ValueError):
        fourier_mode(0, np.zeros(3))


def test_fourier_modes_orthonormal_on_grid():
    n = 64
    x = np.arange(n) / n
    count = 2 * ((n - 1) // 2)
    modes = np.array([fourier_mode(m, x) for m in range(1, count + 1)])
    gram = (1.0 / n) * modes @ modes.T
    assert np.abs(gram - np.eye(count)).max() < 1e-12


def test_dirichlet_precision_inverse_is_scaled_bridge_kernel():
    # discrete Green's function identity: the stencil inverse equals h times
    # the continuum kernel exactly, not just to discretization order
    n = 37
    h = 1.0 / (n + 1)
    t = np.arange(1, n + 1) * h
    inv = np.linalg.inv(dirichlet_precision(n))
    assert np.abs(inv - h * bridge_kernel(t)).max() < 1e-10
    with pytest.raises(ValueError):
        dirichlet_precision(1)


def test_scalar_reference_ops():
    ref = ScalarReference()
    v = np.array([1.5])
    assert ref.inner(v, v) == pytest.approx(2.25)
    assert ref.inner(v, ref.precision_apply(v)) == pytest.approx(2.25)
    assert ref.apply_cov(v)[0] == pytest.approx(1.5)
    assert ref.precision_apply(v)[0] == pytest.approx(1.5)
    draws = ref.sample_centered(np.random.default_rng(0), 40_000)
    assert draws.shape == (40_000, 1)
    assert abs(draws.mean()) < 0.02
    assert abs(draws.var() - 1.0) < 0.02


def test_periodic_truncation_default_and_cap():
    ref = PeriodicReference(128, 1.0)
    assert ref.n_modes == 126
    assert PeriodicReference(8, 1.0).n_modes == 6
    with pytest.raises(ValueError):
        PeriodicReference(8, 1.0, n_modes=7)
    with pytest.raises(ValueError):
        PeriodicReference(3, 1.0)


def test_periodic_coeff_synth_roundtrip():
    ref = PeriodicReference(128, 1.0)
    rng = np.random.default_rng(3)
    v = rng.standard_normal(ref.n_modes)
    assert np.abs(ref.coeffs(ref.synth(v)) - v).max() < 1e-12
    u = ref.synth(v)  # synth . coeffs is the identity on the retained span
    assert np.abs(ref.synth(ref.coeffs(u)) - u).max() < 1e-12


def test_periodic_synth_matches_closed_form_modes():
    ref = PeriodicReference(64, 1.0)
    for m in (1, 2, 5, 8, ref.n_modes):
        e = np.zeros(ref.n_modes)
        e[m - 1] = 1.0
        assert np.abs(ref.synth(e) - fourier_mode(m, ref.x)).max() < 1e-12


def test_periodic_cov_precision_inverse_pair():
    ref = PeriodicReference(32, 0.7)
    u = ref.synth(np.random.default_rng(1).standard_normal(ref.n_modes))
    assert np.abs(ref.apply_cov(ref.precision_apply(u)) - u).max() < 1e-10
    assert np.allclose(ref.coeffs(ref.apply_cov(u)), ref.coeffs(u) * ref.lam2)


def test_periodic_sample_covariance():
    ref = PeriodicReference(16, 1.0)
    draws = ref.sample_centered(np.random.default_rng(7), 200_000)
    c = ref.coeffs(draws)
    cov = c.T @ c / len(c)
    assert np.abs(np.diag(cov) / ref.lam2 - 1.0).max() < 0.05
    off = cov - np.diag(np.diag(cov))
    assert np.abs(off).max() < 0.02 * ref.lam2[0]


def test_periodic_cm_norm_whitens_samples():
    ref = PeriodicReference(16, 0.5)
    draws = ref.sample_centered(np.random.default_rng(11), 100_000)
    whitened = ref.inner(draws, ref.precision_apply(draws))  # |u|^2 in the Cameron-Martin norm
    assert whitened.mean() == pytest.approx(ref.n_modes, rel=0.02)


def test_bridge_sample_covariance_matches_kernel():
    ref = BridgeReference(15)
    draws = ref.sample_centered(np.random.default_rng(5), 200_000)
    emp = draws.T @ draws / len(draws)
    kern = bridge_kernel(ref.t)
    assert np.linalg.norm(emp - kern) / np.linalg.norm(kern) < 0.02
    assert abs(draws.mean()) < 0.01


def test_bridge_cov_action_is_weighted_kernel():
    ref = BridgeReference(21)
    v = np.random.default_rng(2).standard_normal(21)
    assert np.abs(ref.apply_cov(ref.precision_apply(v)) - v).max() < 1e-9
    assert np.abs(ref.apply_cov(v) - ref.h * bridge_kernel(ref.t) @ v).max() < 1e-10


def test_bridge_cm_norm_whitens_samples():
    ref = BridgeReference(12)
    draws = ref.sample_centered(np.random.default_rng(9), 100_000)
    assert ref.inner(draws, ref.precision_apply(draws)).mean() == pytest.approx(12.0, rel=0.02)


def dense_from_banded(banded):
    return np.diag(banded[1]) + np.diag(banded[0, 1:], 1) + np.diag(banded[0, 1:], -1)


def test_bridge_path_precision_includes_quad_weight():
    ref = BridgeReference(9)
    eps = 0.5
    p = dense_from_banded(ref.path_precision_banded(3.0, eps))
    dense = dirichlet_precision(9)
    assert np.abs(p - ref.h * (dense + (3.0 / (2 * eps**2)) * np.eye(9))).max() < 1e-12
    b = np.arange(1.0, 10.0)
    p = dense_from_banded(ref.path_precision_banded(b, eps))
    assert np.abs(p - ref.h * (dense + np.diag(b / (2 * eps**2)))).max() < 1e-12


@pytest.mark.parametrize("shape", [(13,), (4, 13)])
def test_bridge_stencil_ops_match_dense_precision(shape):
    ref = BridgeReference(13)
    dense = dirichlet_precision(13)
    v = np.random.default_rng(6).standard_normal(shape)
    rows = np.atleast_2d(v)
    solve = np.linalg.solve(dense, rows.T).T.reshape(shape)
    assert ref.apply_cov(v).shape == shape
    assert np.abs(ref.apply_cov(v) - solve).max() < 1e-12
    assert np.abs(ref.precision_apply(v) - (rows @ dense).reshape(shape)).max() < 1e-9
    quad = ref.h * np.einsum("bi,ij,bj->b", rows, dense, rows)
    assert np.allclose(ref.inner(v, ref.precision_apply(v)), quad.reshape(shape[:-1]),
                       rtol=1e-12, atol=0)


def test_bridge_mean0_handling():
    t = np.arange(1, 10) / 10.0
    ref = BridgeReference(9, mean0=t)
    assert np.allclose(ref.mean0, t)
    assert np.allclose(BridgeReference(9).mean0, 0.0)
    with pytest.raises(ValueError):
        BridgeReference(9, mean0=np.zeros(5))
    with pytest.raises(ValueError):
        BridgeReference(1)


def padded_synth(ref, v):
    """The zero-padded complex synthesis ``synth`` used to be, kept as its oracle."""
    k_hi = ref.n_modes // 2 + ref.n_modes % 2
    full = np.zeros(v.shape[:-1] + (2 * k_hi,), dtype=float)
    full[..., : ref.n_modes] = v
    sin, cos = full[..., 0::2], full[..., 1::2]
    spec = np.zeros(v.shape[:-1] + (ref.n // 2 + 1,), dtype=complex)
    spec[..., 1 : k_hi + 1] = ref.n * (cos - 1j * sin) / np.sqrt(2.0)
    return np.fft.irfft(spec, n=ref.n, axis=-1)


@pytest.mark.parametrize("n", [16, 17, 128, 129])
@pytest.mark.parametrize("truncated", [False, True])
@pytest.mark.parametrize("rows", [(), (1,), (100,)])
def test_synth_is_bit_identical_to_padded_oracle(n, truncated, rows):
    full_modes = 2 * ((n - 1) // 2)
    ref = PeriodicReference(n, 1.5, n_modes=full_modes - 3 if truncated else None)
    v = np.random.default_rng(n).standard_normal(rows + (ref.n_modes,))
    got = ref.synth(v)
    assert got.shape == rows + (n,)
    assert got.tobytes() == padded_synth(ref, v).tobytes()
