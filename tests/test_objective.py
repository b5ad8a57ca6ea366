"""Divergence estimator, gradients, and the scalar closed forms."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from klgauss import (
    BridgeReference,
    ConstantPotential,
    DarcyProblem,
    DiffusionProblem,
    FiniteRank,
    GaussianSpec,
    PeriodicReference,
    ScalarDoubleWell,
    ScalarReference,
    ScalarVariance,
    VariablePotential,
    estimate_dkl,
    estimate_gradients,
    reduced_discrepancy,
    sample_centered,
    scalar_acceptance_asymptote,
    scalar_dkl_analytic,
    scalar_sigma_opt,
)


def spec_at(m, sigma):
    return GaussianSpec(np.array([m]), ScalarVariance(sigma), ScalarReference())


def test_reduced_discrepancy_definition():
    spec = spec_at(0.2, 0.6)
    problem = ScalarDoubleWell(0.1)
    u = np.array([[0.3], [-0.9]])
    want = problem.phi(u + spec.mean) - 0.5 * spec.cov.quad(spec.ref, u)
    assert np.allclose(reduced_discrepancy(spec, problem, u), want)


def test_estimate_requires_batch_or_sizes():
    spec = spec_at(0.0, 1.0)
    with pytest.raises(ValueError):
        estimate_dkl(spec, ScalarDoubleWell(0.1))


def test_estimate_matches_closed_form_when_tilt_is_mild():
    # sigma near 1 keeps the log-partition summands light-tailed, so the
    # estimator is effectively unbiased and should land on the closed form
    m, sigma, eps = 0.2, 0.9, 0.5
    spec = spec_at(m, sigma)
    est = estimate_dkl(spec, ScalarDoubleWell(eps), 400_000, np.random.default_rng(42))
    want = scalar_dkl_analytic(m, sigma, eps)
    assert est.value == pytest.approx(want, rel=0.02)
    assert est.n_samples == 400_000
    # the reported pieces add up to the reported value
    assert est.value == pytest.approx(est.discrepancy + est.mean_shift + est.log_partition)


def test_estimate_stderr_tracks_observed_spread():
    spec = spec_at(0.1, 0.8)
    problem = ScalarDoubleWell(0.3)
    rng = np.random.default_rng(7)
    vals, errs = [], []
    for _ in range(60):
        est = estimate_dkl(spec, problem, 2_000, rng)
        vals.append(est.value)
        errs.append(est.stderr)
    observed = np.std(vals)
    typical = np.mean(errs)
    assert 0.3 * observed < typical < 3.0 * observed


def test_base_reweights_by_the_density_ratio():
    # a batch drawn under base's covariance is weighted toward spec's by the
    # normalized density ratio of the two centred fits
    ref = ScalarReference()
    spec = GaussianSpec(np.zeros(1), ScalarVariance(0.5), ref)
    base = GaussianSpec(np.zeros(1), ScalarVariance(0.8), ref)
    problem = ScalarDoubleWell(0.2)
    u = np.array([[0.4], [1.3]])
    ratio = np.exp((-0.5 / 0.25 + 0.5 / 0.64) * u[:, 0] ** 2)
    est = estimate_dkl(spec, problem, batch=u, base=base)
    want = ratio @ reduced_discrepancy(spec, problem, u) / ratio.sum()
    assert est.discrepancy == pytest.approx(want, rel=1e-12)
    other = GaussianSpec(np.zeros(1), ScalarVariance(0.8), ScalarReference())
    with pytest.raises(ValueError, match="same reference"):
        estimate_dkl(spec, problem, batch=u, base=other)


def test_base_equal_spec_reduces_to_plain_estimate():
    spec = spec_at(0.1, 0.5)
    problem = ScalarDoubleWell(0.2)
    batch = sample_centered(spec, np.random.default_rng(3), 5_000)
    plain = estimate_dkl(spec, problem, batch=batch)
    rewt = estimate_dkl(spec, problem, batch=batch, base=spec)
    assert rewt.value == pytest.approx(plain.value, rel=1e-12)


def test_gradients_are_exact_derivatives_on_frozen_batch():
    # the covariance gradient is the derivative of the reweighted estimator
    # and the mean gradient that of the plain estimator, to FD truncation
    spec = spec_at(0.15, 0.35)
    problem = ScalarDoubleWell(0.05)
    batch = sample_centered(spec, np.random.default_rng(11), 3_000)
    grads = estimate_gradients(spec, problem, batch)
    eta = 1e-6

    up = estimate_dkl(replace(spec, mean=spec.mean + eta), problem, batch=batch)
    dn = estimate_dkl(replace(spec, mean=spec.mean - eta), problem, batch=batch)
    fd_mean = (up.value - dn.value) / (2 * eta)
    assert fd_mean == pytest.approx(float(grads.mean[0]), rel=1e-7)

    up = estimate_dkl(replace(spec, cov=ScalarVariance(0.35 + eta)), problem,
                      batch=batch, base=spec)
    dn = estimate_dkl(replace(spec, cov=ScalarVariance(0.35 - eta)), problem,
                      batch=batch, base=spec)
    fd_cov = (up.value - dn.value) / (2 * eta)
    assert fd_cov == pytest.approx(float(grads.cov), rel=1e-6)


def test_gradient_estimator_is_unbiased_for_sigma():
    # Monte Carlo average of the covariance gradient against the
    # closed-form derivative of the analytic divergence
    m, sigma, eps = 0.1, 0.3, 0.05
    spec = spec_at(m, sigma)
    problem = ScalarDoubleWell(eps)
    rng = np.random.default_rng(19)
    batch = sample_centered(spec, rng, 400_000)
    grads = estimate_gradients(spec, problem, batch)
    got = grads.cov
    eta = 1e-6
    want = (scalar_dkl_analytic(m, sigma + eta, eps)
            - scalar_dkl_analytic(m, sigma - eta, eps)) / (2 * eta)
    assert got == pytest.approx(want, rel=0.03)

    got_m = grads.mean[0]
    want_m = (scalar_dkl_analytic(m + eta, sigma, eps)
              - scalar_dkl_analytic(m - eta, sigma, eps)) / (2 * eta)
    assert got_m == pytest.approx(want_m, rel=0.03)


def test_sigma_opt_closed_form_and_stationarity():
    assert scalar_sigma_opt(1.0 / 16.0) ** 2 == pytest.approx(1.0 / 24.0, abs=1e-15)
    for eps in (0.01, 0.05, 0.3, 2.0):
        s2 = scalar_sigma_opt(eps) ** 2
        # stationarity of the divergence at m = 0: 12 s^4 + s^2 = eps
        assert 12 * s2**2 + s2 == pytest.approx(eps, rel=1e-14)
        # and the divergence really is locally smallest there
        s = np.sqrt(s2)
        base = scalar_dkl_analytic(0.0, s, eps)
        assert scalar_dkl_analytic(0.0, s * 1.01, eps) > base
        assert scalar_dkl_analytic(0.0, s * 0.99, eps) > base


def test_analytic_divergence_against_quadrature_oracle():
    # independent check: integrate nu log(nu/mu) directly
    for m, sigma, eps in ((0.0, 0.3, 0.05), (0.2, 0.5, 0.3)):
        z, _ = quad(lambda x: np.exp(-(x**4 + x**2 / 2) / eps), -np.inf, np.inf)

        def integrand(x):
            log_nu = -0.5 * ((x - m) / sigma) ** 2 - np.log(
                sigma * np.sqrt(2 * np.pi))
            log_mu = -(x**4 + x**2 / 2) / eps - np.log(z)
            return np.exp(log_nu) * (log_nu - log_mu)

        oracle, err = quad(integrand, m - 12 * sigma, m + 12 * sigma)
        assert err < 1e-9
        got = scalar_dkl_analytic(m, sigma, eps, absolute=True)
        assert got == pytest.approx(oracle, rel=1e-9)
        # relative and absolute forms differ by exactly the target's mass terms
        gap = got - scalar_dkl_analytic(m, sigma, eps)
        assert gap == pytest.approx(np.log(z) - 0.5 * np.log(2 * np.pi), rel=1e-9)


def test_acceptance_asymptote_values():
    assert scalar_acceptance_asymptote(1.0) == pytest.approx(1.0)
    assert scalar_acceptance_asymptote(0.01) == pytest.approx(0.1269, abs=2e-4)
    eps = np.array([0.01, 0.04, 0.25, 1.0])
    vals = [scalar_acceptance_asymptote(e) for e in eps]
    assert np.all(np.diff(vals) > 0)


def _every_family():
    """One (spec, problem) pair per covariance family, means off the reference's."""
    rng = np.random.default_rng(14)
    ref = PeriodicReference(32, 1.0)
    darcy = GaussianSpec(ref.synth(0.3 * rng.standard_normal(ref.n_modes)),
                         FiniteRank(np.array([[0.3, 0.05], [0.05, 0.2]])), ref)
    n, eps = 15, 0.2
    t = np.arange(1, n + 1) / (n + 1)
    bridge = BridgeReference(n, mean0=t)
    mean = t + 0.1 * np.sin(np.pi * t)
    diffusion = DiffusionProblem(eps, n)
    return {
        "scalar": (spec_at(0.2, 0.4), ScalarDoubleWell(0.05)),
        "finite-rank": (darcy, DarcyProblem(32, 0.2, np.array([0.3, 0.9, 1.2, 1.6]))),
        "constant": (GaussianSpec(mean, ConstantPotential(2.0, eps), bridge), diffusion),
        "variable": (GaussianSpec(mean, VariablePotential(1.0 + rng.random(n), eps), bridge),
                     diffusion),
    }


@pytest.mark.parametrize("family", ["scalar", "finite-rank", "constant", "variable"])
def test_gradients_from_drawn_coordinates_equal_those_from_the_batch(family):
    spec, problem = _every_family()[family]
    batch, coords = spec.cov.draw(spec.ref, np.random.default_rng(15), 40)
    given = estimate_gradients(spec, problem, batch, coords)
    computed = estimate_gradients(spec, problem, batch)
    pairs = [(given.mean, computed.mean), (given.cov, computed.cov),
             (given.estimate.value, computed.estimate.value),
             (given.estimate.stderr, computed.estimate.stderr)]
    for got, want in pairs:
        got, want = np.asarray(got), np.asarray(want)
        if family == "finite-rank":  # the drawn coefficients, not a transform of the batch
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        else:
            assert np.array_equal(got, want)
