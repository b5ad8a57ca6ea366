"""Covariance parameterizations: quadratic forms, derivatives, potentials."""

import numpy as np
import pytest

from klgauss import (
    BridgeReference,
    ConstantPotential,
    FiniteRank,
    GaussianSpec,
    NotACovarianceError,
    PeriodicReference,
    ScalarReference,
    ScalarVariance,
    GaussianPotential,
    VariablePotential,
    dirichlet_precision,
    project_spd,
    sample_centered,
)


def dense_path_precision(ref, potential, eps):
    """Dense ``h (S + diag(b/(2 eps^2)))`` built from the dense stencil oracle."""
    b = np.broadcast_to(np.asarray(potential, dtype=float), (ref.dim,))
    return ref.h * (dirichlet_precision(ref.dim) + np.diag(b / (2.0 * eps**2)))


def scalar_spec(m=0.1, sigma=0.4):
    return GaussianSpec(np.array([m]), ScalarVariance(sigma), ScalarReference())


def bridge_spec(n=12, eps=0.3, variable=True, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(1, n + 1) / (n + 1)
    ref = BridgeReference(n, mean0=t)
    mean = t + 0.1 * np.sin(np.pi * t)
    if variable:
        cov = VariablePotential(1.0 + 0.5 * rng.random(n), eps)
    else:
        cov = ConstantPotential(2.0, eps)
    return GaussianSpec(mean, cov, ref)


def finite_rank_spec(n=32, rank=3, seed=1):
    rng = np.random.default_rng(seed)
    ref = PeriodicReference(n, 1.0)
    a = rng.standard_normal((rank, rank))
    factor = 0.05 * (a + a.T) + 0.3 * np.eye(rank)
    coeffs = np.zeros(ref.n_modes)
    coeffs[: rank + 2] = rng.standard_normal(rank + 2)
    return GaussianSpec(ref.synth(coeffs), FiniteRank(factor), ref)


def test_parameter_validation():
    with pytest.raises(NotACovarianceError):
        ScalarVariance(0.0)
    with pytest.raises(ValueError):
        FiniteRank(np.ones((2, 3)))
    with pytest.raises(ValueError):
        FiniteRank(np.array([[1.0, 0.5], [0.2, 1.0]]))  # not symmetric
    with pytest.raises(NotACovarianceError):
        FiniteRank(np.diag([1.0, -1.0]))  # symmetric but indefinite
    with pytest.raises(NotACovarianceError):
        ConstantPotential(-1.0, 0.1)
    with pytest.raises(ValueError):
        ConstantPotential(1.0, 0.0)
    with pytest.raises(NotACovarianceError):
        VariablePotential(np.array([1.0, -0.5, 1.0]), 0.1)
    with pytest.raises(ValueError):
        VariablePotential(np.ones((2, 2)), 0.1)


def test_spec_pairing_validation():
    ref = ScalarReference()
    with pytest.raises(ValueError):
        GaussianSpec(np.zeros(2), ScalarVariance(1.0), ref)  # bad mean shape
    with pytest.raises(ValueError):
        GaussianSpec(np.zeros(1), ConstantPotential(1.0, 0.1), ref)
    per = PeriodicReference(8, 1.0)
    with pytest.raises(ValueError):
        GaussianSpec(np.zeros(8), ScalarVariance(1.0), per)
    with pytest.raises(ValueError):
        GaussianSpec(np.zeros(8), FiniteRank(np.eye(7)), per)  # rank > modes
    br = BridgeReference(5)
    with pytest.raises(ValueError):
        GaussianSpec(np.zeros(5), VariablePotential(np.ones(4), 0.1), br)


def test_gamma_quad_scalar_closed_form():
    spec = scalar_spec(sigma=0.5)
    u = np.array([[0.7], [-1.2]])
    assert np.allclose(spec.cov.quad(spec.ref, u), (1 / 0.25 - 1.0) * u[:, 0] ** 2)


def test_gamma_quad_finite_rank_dense_identity():
    spec = finite_rank_spec()
    ref, cov = spec.ref, spec.cov
    rng = np.random.default_rng(3)
    u = ref.sample_centered(rng, 5)
    v = ref.coeffs(u)[:, : cov.rank]
    b2inv = np.linalg.inv(cov.factor @ cov.factor)
    gm = b2inv - np.diag(1.0 / ref.lam2[: cov.rank])
    want = np.einsum("bi,ij,bj->b", v, gm, v)
    assert np.allclose(spec.cov.quad(spec.ref, u), want)
    # modes beyond the rank keep reference statistics: no contribution
    tail = np.zeros(ref.n_modes)
    tail[cov.rank + 1] = 2.0
    assert spec.cov.quad(spec.ref, ref.synth(tail)) == pytest.approx(0.0, abs=1e-12)


def test_gamma_quad_bridge_dense_identity():
    for variable in (False, True):
        spec = bridge_spec(variable=variable)
        ref, cov = spec.ref, spec.cov
        u = np.random.default_rng(4).standard_normal((6, ref.dim))
        prec_fit = dense_path_precision(
            ref, cov.values if variable else cov.strength, cov.eps)
        prec_ref = ref.h * dirichlet_precision(ref.dim)
        want = np.einsum("bi,ij,bj->b", u, prec_fit - prec_ref, u)
        assert np.allclose(spec.cov.quad(spec.ref, u), want)


def central_fd(f, eta):
    return (f(eta) - f(-eta)) / (2 * eta)


def test_cov_derivative_scalar_matches_fd():
    spec = scalar_spec(sigma=0.4)
    ref = spec.ref
    u = np.array([[0.8], [-0.3]])
    deriv = spec.cov.quad_derivative(ref, spec.cov.gamma_coords(ref, u))
    fd = central_fd(lambda e: -0.5 * ScalarVariance(0.4 + e).quad(ref, u), 1e-6)
    assert np.allclose(deriv, fd, rtol=1e-7)


def test_cov_derivative_finite_rank_matches_fd():
    spec = finite_rank_spec()
    ref, cov = spec.ref, spec.cov
    rng = np.random.default_rng(9)
    u = ref.sample_centered(rng, 4)
    s = rng.standard_normal((cov.rank,) * 2)
    s = 0.5 * (s + s.T)
    deriv = cov.quad_derivative(ref, cov.gamma_coords(ref, u))  # (B, K, K)
    fd = central_fd(lambda e: -0.5 * FiniteRank(cov.factor + e * s).quad(ref, u), 1e-7)
    assert np.allclose(np.einsum("bij,ij->b", deriv, s), fd, rtol=1e-5)


def test_cov_derivative_bridge_matches_fd():
    const = bridge_spec(variable=False)
    ref, cov = const.ref, const.cov
    u = np.random.default_rng(2).standard_normal((3, ref.dim))
    deriv = cov.quad_derivative(ref, cov.gamma_coords(ref, u))
    fd = central_fd(lambda e: -0.5 * ConstantPotential(2.0 + e, cov.eps).quad(ref, u), 1e-6)
    assert np.allclose(deriv, fd, rtol=1e-6)

    var = bridge_spec(variable=True)
    ref, cov = var.ref, var.cov
    u = np.random.default_rng(6).standard_normal((3, ref.dim))
    deriv = cov.quad_derivative(ref, cov.gamma_coords(ref, u))  # (B, n): L2 gradient field in b
    s = np.random.default_rng(7).random(ref.dim)
    fd = central_fd(
        lambda e: -0.5 * VariablePotential(cov.values + e * s, cov.eps).quad(ref, u), 1e-7)
    paired = ref.h * deriv @ s  # quadrature-weighted pairing
    assert np.allclose(paired, fd, rtol=1e-5)


def dense_log_density_diff(u, mean, prec, mean0, prec0):
    """Exponent of N(mean, prec^-1) minus exponent of N(mean0, prec0^-1)."""
    w = u - mean
    w0 = u - mean0
    return (-0.5 * np.einsum("...i,ij,...j->...", w, prec, w)
            + 0.5 * np.einsum("...i,ij,...j->...", w0, prec0, w0))


def test_phi_nu_is_negative_log_density_ratio():
    # scalar family, exact one-dimensional densities
    spec = scalar_spec(m=0.2, sigma=0.7)
    u = np.array([[0.5], [-1.1], [0.0]])
    want = dense_log_density_diff(
        u, spec.mean, np.array([[1 / 0.49]]), np.zeros(1), np.eye(1))
    assert np.allclose(GaussianPotential(spec)(u), -want)

    # bridge family with a shifted reference mean and variable potential
    spec = bridge_spec(variable=True)
    ref = spec.ref
    u = np.random.default_rng(10).standard_normal((5, ref.dim))
    want = dense_log_density_diff(
        u, spec.mean, dense_path_precision(ref, spec.cov.values, spec.cov.eps),
        ref.mean0, ref.h * dirichlet_precision(ref.dim))
    assert np.allclose(GaussianPotential(spec)(u), -want)


def test_descent_direction_identity_families():
    spec = scalar_spec()
    assert spec.cov.precondition(spec.ref, 0.7) == pytest.approx(0.7)
    spec = bridge_spec(variable=False)
    assert spec.cov.precondition(spec.ref, -1.3) == pytest.approx(-1.3)


def test_descent_direction_finite_rank_scaling():
    spec = finite_rank_spec()
    term = np.random.default_rng(0).standard_normal((3, 3))
    got = spec.cov.precondition(spec.ref, term)
    assert np.allclose(got, spec.ref.lam[spec.ref.n_modes - 1] * term)


def test_descent_direction_variable_smoother():
    spec = bridge_spec(variable=True)
    n, h = spec.ref.dim, spec.ref.h
    term = np.random.default_rng(1).standard_normal(n)
    got = spec.cov.precondition(spec.ref, term)
    # got - values solves smoothing * L x = term with the documented stencil
    lap = np.zeros((n, n))
    idx = np.arange(n)
    lap[idx, idx] = 2.0
    lap[0, 0] = 1.0
    lap[idx[:-1], idx[:-1] + 1] = -1.0
    lap[idx[:-1] + 1, idx[:-1]] = -1.0
    lap *= spec.cov.smoothing / h**2
    assert np.allclose(lap @ (got - spec.cov.values), term)


def test_sample_centered_dispatch_covariances():
    spec = scalar_spec(sigma=0.3)
    draws = sample_centered(spec, np.random.default_rng(0), 100_000)
    assert draws.shape == (100_000, 1)
    assert draws.var() == pytest.approx(0.09, rel=0.02)

    spec = bridge_spec(n=10, variable=True)
    draws = sample_centered(spec, np.random.default_rng(1), 150_000)
    exact = np.linalg.inv(dense_path_precision(spec.ref, spec.cov.values, spec.cov.eps))
    emp = draws.T @ draws / len(draws)
    assert np.linalg.norm(emp - exact) / np.linalg.norm(exact) < 0.03


def test_finite_rank_draw_returns_leading_coefficients():
    spec = finite_rank_spec()
    ref, cov = spec.ref, spec.cov
    u, a = cov.draw(ref, np.random.default_rng(12), 50)
    assert u.shape == (50, ref.dim) and a.shape == (50, cov.rank)
    want = ref.coeffs(u)[:, : cov.rank]
    assert np.abs(a - want).max() <= 1e-12 * np.abs(want).max()
    # the draw itself is the sampler's
    again = sample_centered(spec, np.random.default_rng(12), 50)
    assert np.array_equal(u, again)


@pytest.mark.parametrize("lo, hi", [(0.2, 1.5), (0.05, 0.8), (0.31, 0.33)])
def test_finite_rank_project_matches_family_of_project_spd(lo, hi):
    # B^{-2} magnifies round-off in the eigenpairs by cond(B)^2, so the bounds
    # keep it below 300 for a 1e-12 comparison
    rng = np.random.default_rng(13)
    for _ in range(10):
        raw = 0.6 * rng.standard_normal((3, 3))
        family, _ = FiniteRank(np.eye(3)).project(raw, lo, hi)
        want = FiniteRank(project_spd(raw, lo, hi))
        assert np.abs(family.factor - want.factor).max() <= 1e-12
        assert np.abs(family._eig[0] - want._eig[0]).max() <= 1e-12
        assert np.abs(family._inv_sq - want._inv_sq).max() <= 1e-12 * np.abs(want._inv_sq).max()


def test_project_returns_the_family_at_the_projection():
    cov, active = ScalarVariance(0.5).project(1.7, 0.1, 1.0)
    assert cov == ScalarVariance(1.0) and active
    var = VariablePotential(np.ones(4), 0.3, smoothing=0.05)
    cov, active = var.project(np.array([0.5, 2.0, 3.0, 1.0]), 0.8, 2.5)
    assert isinstance(cov, VariablePotential) and active
    assert np.array_equal(cov.values, [0.8, 2.0, 2.5, 1.0])
    assert (cov.eps, cov.smoothing) == (0.3, 0.05)
    cov, active = FiniteRank(np.eye(2)).project(np.diag([0.5, 0.7]), 0.1, 1.0)
    assert np.array_equal(cov.factor, np.diag([0.5, 0.7])) and not active


def test_finite_rank_projection_below_zero_is_not_a_covariance():
    with pytest.raises(NotACovarianceError):
        FiniteRank(np.eye(2)).project(np.diag([-0.5, 0.7]), -1.0, 1.0)
