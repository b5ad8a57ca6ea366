"""Exact Gaussian samplers and the change-of-measure expectation op."""

import numpy as np
import pytest

from klgauss import (
    BridgeReference,
    DegenerateWeightsError,
    NotACovarianceError,
    PeriodicReference,
    dirichlet_precision,
    indexed_sample,
    require_spd,
    reweighted_expectation,
    sample_finite_rank,
    sample_ou_bridge,
    sample_tridiagonal_precision,
)


def ou_kernel(t, strength, eps):
    """Covariance of the pinned path measure with constant potential.

    Green's function of -(1/2) d^2/dt^2 + strength/(2 eps^2) with zero
    boundary values: 2 sinh(a t_<) sinh(a (1 - t_>)) / (a sinh a),
    a = sqrt(strength)/eps.
    """
    a = np.sqrt(strength) / eps
    lo = np.minimum.outer(t, t)
    hi = np.maximum.outer(t, t)
    return 2.0 * np.sinh(a * lo) * np.sinh(a * (1.0 - hi)) / (a * np.sinh(a))


def rel_frobenius(emp, exact):
    return np.linalg.norm(emp - exact) / np.linalg.norm(exact)


def dense_path_precision(n, potential, eps):
    """Dense ``h (S + diag(b/(2 eps^2)))`` built from the dense stencil oracle."""
    h = 1.0 / (n + 1)
    b = np.broadcast_to(np.asarray(potential, dtype=float), (n,))
    return h * (dirichlet_precision(n) + np.diag(b / (2.0 * eps**2)))


def test_require_spd_rejects_indefinite():
    with pytest.raises(NotACovarianceError):
        require_spd(np.array([2.0, -0.5]), "test matrix")


def test_finite_rank_leading_block_covariance():
    ref = PeriodicReference(32, 1.0)
    b = np.array([[0.5, 0.1], [0.1, 0.3]])
    draws = sample_finite_rank(b, ref, np.random.default_rng(4), 200_000)
    c = ref.coeffs(draws)
    lead = c[:, :2].T @ c[:, :2] / len(c)
    assert rel_frobenius(lead, b @ b) < 0.02
    # tail modes keep the reference amplitudes
    tail_var = np.var(c[:, 2:], axis=0)
    assert np.abs(tail_var / ref.lam2[2:] - 1.0).max() < 0.05
    # leading block is independent of the tail
    cross = c[:, :2].T @ c[:, 2:] / len(c)
    assert np.abs(cross).max() < 5e-4


def test_finite_rank_validation():
    ref = PeriodicReference(8, 1.0)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_finite_rank(np.ones((2, 3)), ref, rng, 4)
    with pytest.raises(ValueError):
        sample_finite_rank(np.eye(7), ref, rng, 4)
    with pytest.raises(NotACovarianceError):
        sample_finite_rank(np.diag([1.0, -1.0]), ref, rng, 4)


def test_ou_bridge_covariance_matches_green_function():
    n, strength, eps = 24, 4.0, 0.4
    t = np.arange(1, n + 1) / (n + 1)
    draws = sample_ou_bridge(strength, eps, n, np.random.default_rng(8), 150_000)
    assert draws.shape == (150_000, n)
    assert rel_frobenius(draws.T @ draws / len(draws), ou_kernel(t, strength, eps)) < 0.03


def test_ou_bridge_agrees_with_banded_sampler():
    # same constant-potential measure through two unrelated constructions
    n, strength, eps = 20, 2.5, 0.3
    ref = BridgeReference(n)
    prec = dense_path_precision(n, strength, eps)
    a = sample_ou_bridge(strength, eps, n, np.random.default_rng(21), 120_000)
    b = sample_tridiagonal_precision(ref.path_precision_banded(strength, eps),
                                     np.random.default_rng(22), 120_000)
    ca = a.T @ a / len(a)
    cb = b.T @ b / len(b)
    assert rel_frobenius(ca, np.linalg.inv(prec)) < 0.03
    assert rel_frobenius(ca, cb) < 0.05


def test_ou_bridge_recursion_matches_loop():
    # the filtered recursion against the plain per-node loop it replaces
    strength, eps, n, size = 3.0, 0.2, 30, 7
    got = sample_ou_bridge(strength, eps, n, np.random.default_rng(13), size)
    h = 1.0 / (n + 1)
    a = np.sqrt(strength) / eps
    rho = np.exp(-a * h)
    rng = np.random.default_rng(13)
    noise = np.sqrt((1.0 - rho**2) / a) * rng.standard_normal((size, n + 1))
    z = np.empty_like(noise)
    z[:, 0] = noise[:, 0]
    for k in range(1, n + 1):
        z[:, k] = rho * z[:, k - 1] + noise[:, k]
    t = np.arange(1, n + 1) * h
    profile = np.sinh(a * t) / np.sinh(a)
    assert np.allclose(got, z[:, :n] - np.outer(z[:, n], profile), rtol=0, atol=1e-13)


def test_ou_bridge_stable_for_stiff_potential():
    # a = sqrt(strength)/eps ~ 1000; naive sinh ratios would overflow
    draws = sample_ou_bridge(100.0, 0.01, 16, np.random.default_rng(1), 200)
    assert np.all(np.isfinite(draws))
    assert np.abs(draws).max() < 1.0


def test_ou_bridge_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(NotACovarianceError):
        sample_ou_bridge(-1.0, 0.1, 8, rng, 2)
    with pytest.raises(ValueError):
        sample_ou_bridge(1.0, 0.0, 8, rng, 2)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_tridiagonal_sampler_covariance_and_validation(seed):
    # draws are U^{-1} xi for xi = standard_normal((size, n)); regressing them on
    # xi recovers U^{-1}, so the covariance is checked exactly, not by sampling
    rng = np.random.default_rng(seed)
    n, eps = int(rng.integers(2, 30)), float(rng.uniform(0.05, 1.0))
    b = rng.uniform(0.01, 10.0, n)
    banded = BridgeReference(n).path_precision_banded(b, eps)
    size = 4 * n
    draws = sample_tridiagonal_precision(banded, np.random.default_rng(seed + 10), size)
    xi = np.random.default_rng(seed + 10).standard_normal((size, n))
    u_inv_t = np.linalg.lstsq(xi, draws, rcond=None)[0]
    exact = np.linalg.inv(dense_path_precision(n, b, eps))
    assert draws.shape == (size, n)
    assert rel_frobenius(u_inv_t.T @ u_inv_t, exact) < 1e-10
    not_spd = np.array([[0.0, -2.0, -2.0], [1.0, 1.0, 1.0]])
    with pytest.raises(NotACovarianceError):
        sample_tridiagonal_precision(not_spd, rng, 4)


def test_reweighted_expectation_constant_potential_is_plain_mean():
    res = reweighted_expectation(
        lambda z: z[:, 3] ** 2, np.full(16, 2.0), 0.3,
        np.random.default_rng(12), 5_000,
    )
    assert res.ess == pytest.approx(5_000.0, rel=1e-12)
    assert np.allclose(res.weights, res.weights[0])
    assert res.frozen_potential == 2.0


def test_reweighted_expectation_matches_exact_marginal():
    n, eps = 16, 0.35
    ref = BridgeReference(n)
    b = 1.0 + 0.8 * np.sin(2 * np.pi * ref.t)  # gently varying potential
    exact = np.linalg.inv(dense_path_precision(n, b, eps))
    res = reweighted_expectation(
        lambda z: z[:, n // 2] ** 2, b, eps, np.random.default_rng(9), 400_000,
    )
    assert res.value == pytest.approx(exact[n // 2, n // 2], rel=0.03)
    assert res.ess > 0.5 * 400_000  # mild tilt keeps the weights healthy


def test_reweighted_expectation_degenerate_weights():
    n = 16
    b = np.ones(n)
    b[n // 2] = 4000.0  # violent spike: frozen measure is far from the target
    with pytest.raises(DegenerateWeightsError):
        reweighted_expectation(
            lambda z: z[:, 0], b, 0.05, np.random.default_rng(2), 2_000,
            min_ess_fraction=0.5,
        )


def test_indexed_sample_reproduces_batch_entry():
    def sampler(rng, size):
        return rng.standard_normal((size, 3)).cumsum(axis=0)

    got = indexed_sample(sampler, seed=77, index=5)
    batch = sampler(np.random.default_rng(77), 6)
    assert np.array_equal(got.values, batch[5])
    assert got.seed == 77 and got.index == 5
    with pytest.raises(ValueError):
        indexed_sample(sampler, 0, -1)
