"""Target problems: potentials, gradients, forward maps, data synthesis."""

import numpy as np
import pytest
from scipy.integrate import quad

from klgauss import (
    BridgeReference,
    DarcyProblem,
    DiffusionProblem,
    PeriodicReference,
    ScalarDoubleWell,
    darcy_true_field,
    sample_double_well,
    synthesize_darcy_data,
)


def g_inner(h, a, b):
    return h * np.sum(a * b, axis=-1)


def test_scalar_double_well_potential_and_gradient():
    eps = 0.05
    prob = ScalarDoubleWell(eps)
    assert prob.dim == 1
    x = np.array([[0.3], [-0.7], [0.0]])
    v = x[:, 0] ** 4 + x[:, 0] ** 2 / 2
    assert np.allclose(prob.phi(x), v / eps - x[:, 0] ** 2 / 2)
    eta = 1e-7
    fd = (prob.phi(x + eta) - prob.phi(x - eta)) / (2 * eta)
    assert np.allclose(prob.grad_phi(x)[:, 0], fd, rtol=1e-6, atol=1e-6)
    with pytest.raises(ValueError):
        ScalarDoubleWell(0.0)


def test_double_well_sampler_matches_quadrature_moments():
    eps = 0.05
    z, _ = quad(lambda x: np.exp(-(x**4 + x**2 / 2) / eps), -np.inf, np.inf)
    m2 = quad(lambda x: x**2 * np.exp(-(x**4 + x**2 / 2) / eps), -np.inf, np.inf)[0] / z
    m4 = quad(lambda x: x**4 * np.exp(-(x**4 + x**2 / 2) / eps), -np.inf, np.inf)[0] / z
    draws = sample_double_well(eps, np.random.default_rng(14), 400_000)
    assert draws.shape == (400_000,)
    assert abs(draws.mean()) < 4 * np.sqrt(m2 / len(draws))
    assert np.mean(draws**2) == pytest.approx(m2, rel=0.01)
    assert np.mean(draws**4) == pytest.approx(m4, rel=0.02)


def test_darcy_true_field_shape():
    u = darcy_true_field(128)
    x = np.arange(128) / 128
    assert np.allclose(u, 2.0 * np.sin(2 * np.pi * x))


def test_darcy_constant_field_gives_linear_pressure():
    prob = DarcyProblem(64, 0.1, np.zeros(4))
    for c in (0.0, 0.7, -1.3):
        p = prob.observe(np.full(64, c))
        want = prob.pressures[0] + (
            prob.pressures[1] - prob.pressures[0]) * prob.obs_points
        assert np.abs(p - want).max() < 1e-12


def test_darcy_pressure_against_dense_quadrature():
    # trapezoid flow on the 2^7 grid: honest midpoint error is 1.12e-4 for
    # the reference log-conductivity, so the frozen bound is 1.5e-4
    n = 128
    prob = DarcyProblem(n, 0.1, np.zeros(1), obs_points=(0.5,))
    got = prob.observe(darcy_true_field(n))[0]
    total = quad(lambda s: np.exp(-2 * np.sin(2 * np.pi * s)), 0, 1, limit=200)[0]
    half = quad(lambda s: np.exp(-2 * np.sin(2 * np.pi * s)), 0, 0.5, limit=200)[0]
    oracle = 2.0 * half / total
    assert abs(got - oracle) < 1.5e-4


def test_darcy_observation_interpolates_nodes():
    n = 32
    prob = DarcyProblem(n, 0.1, np.zeros(2), obs_points=(8 / 32, 0.3))
    u = np.random.default_rng(3).standard_normal(n)
    p_nodes = prob.forward(u)
    obs = prob.observe(u)
    assert obs[0] == pytest.approx(p_nodes[8], abs=1e-14)
    lo, hi = p_nodes[9], p_nodes[10]  # 0.3 * 32 = 9.6
    assert obs[1] == pytest.approx(0.4 * lo + 0.6 * hi, abs=1e-12)


def test_darcy_phi_is_scaled_misfit():
    n = 16
    rng = np.random.default_rng(5)
    data = rng.standard_normal(4)
    prob = DarcyProblem(n, 0.25, data)
    u = rng.standard_normal((3, n))
    r = prob.observe(u) - data
    assert np.allclose(prob.phi(u), np.sum(r**2, axis=-1) / (2 * 0.25**2))


def test_darcy_gradient_matches_directional_fd():
    # observation points chosen to hit the interior, first-cell, and
    # wrap-around branches of the observation profile
    n = 64
    rng = np.random.default_rng(8)
    data = 0.5 * rng.standard_normal(3) + np.array([0.1, 1.0, 1.9])
    prob = DarcyProblem(n, 0.1, data, obs_points=(0.003, 0.55, 0.997))
    u = darcy_true_field(n) + 0.3 * rng.standard_normal(n)
    g = prob.grad_phi(u)
    eta = 1e-6
    for seed in range(3):
        s = np.random.default_rng(seed).standard_normal(n)
        fd = (prob.phi(u + eta * s) - prob.phi(u - eta * s)) / (2 * eta)
        paired = g_inner(prob.h, g, s)
        assert paired == pytest.approx(fd, rel=1e-4)


def test_darcy_batched_gradient_matches_loop():
    n = 32
    rng = np.random.default_rng(9)
    prob = DarcyProblem(n, 0.2, rng.standard_normal(4))
    batch = rng.standard_normal((5, n))
    g = prob.grad_phi(batch)
    assert g.shape == (5, n)
    for i in range(5):
        assert np.allclose(g[i], prob.grad_phi(batch[i]))


def darcy_branches(n, data):
    # observation points in the first cell, on a node, inside, in the last cell
    return DarcyProblem(n, 0.1, data, obs_points=(0.3 / n, 0.5, 0.55, 1 - 0.3 / n))


def running_integral_observe(prob, fields):
    """Oracle: build the trapezoid running integral at every node, then interpolate."""
    e = np.exp(-np.asarray(fields, dtype=float))
    total = prob.h * e.sum(axis=-1)
    seg = 0.5 * prob.h * (e[..., :-1] + e[..., 1:])
    nodes = np.zeros(e.shape[:-1] + (prob.n + 1,))
    nodes[..., 1:prob.n] = np.cumsum(seg, axis=-1)
    nodes[..., prob.n] = total
    idx = np.minimum((prob.obs_points * prob.n).astype(int), prob.n - 1)
    frac = prob.obs_points * prob.n - idx
    j_obs = (1.0 - frac) * nodes[..., idx] + frac * nodes[..., idx + 1]
    lo, hi = prob.pressures
    return lo + (hi - lo) * j_obs / total[..., None]


@pytest.mark.parametrize("n", [16, 128])
@pytest.mark.parametrize("scale", [0.5, 2.0])
def test_darcy_matches_running_integral_oracle(n, scale):
    rng = np.random.default_rng(n + int(10 * scale))
    prob = darcy_branches(n, np.array([0.05, 1.0, 1.1, 1.95]) + 0.1 * rng.standard_normal(4))
    u = scale * rng.standard_normal((20, n))
    want = running_integral_observe(prob, u)
    assert np.abs(prob.observe(u) - want).max() <= 1e-13 * np.abs(want).max()
    r = want - prob.data
    want_phi = np.sum(r * r, axis=-1) / (2 * prob.noise**2)
    assert np.abs(prob.phi(u) - want_phi).max() <= 1e-13 * np.abs(want_phi).max()

    g = prob.grad_phi(u[0])
    eta = 1e-6
    for seed in range(3):
        s = np.random.default_rng(seed).standard_normal(n)
        fd = (prob.phi(u[0] + eta * s) - prob.phi(u[0] - eta * s)) / (2 * eta)
        assert g_inner(prob.h, g, s) == pytest.approx(fd, rel=1e-4)


@pytest.mark.parametrize("kind", ["darcy", "diffusion", "scalar"])
def test_phi_rows_do_not_depend_on_batch(kind):
    # a chain scores windows of 1 to many rows; a row's potential must carry
    # the same bits whichever window it falls in
    rng = np.random.default_rng(21)
    if kind == "darcy":
        cases = [(darcy_branches(n, rng.standard_normal(4)), n) for n in (16, 128)]
    elif kind == "diffusion":
        cases = [(DiffusionProblem(0.05, 99), 99)]
    else:
        cases = [(ScalarDoubleWell(0.01), 1)]
    for prob, dim in cases:
        u = rng.standard_normal((100, dim))
        single = [prob.phi(row) for row in u]
        for size in (1, 2, 7, 100):
            for start in range(0, 100 - size + 1, size):
                batch = prob.phi(u[start:start + size])
                for i, value in enumerate(batch):
                    assert np.array_equal(value, single[start + i]), (dim, size, start + i)


def test_synthesize_darcy_data():
    n = 128
    u, y = synthesize_darcy_data(n, 0.1, np.random.default_rng(0))
    assert np.allclose(u, darcy_true_field(n))
    clean = DarcyProblem(n, 0.1, y).observe(u)
    rough = y - clean
    assert rough.shape == (4,)
    assert 0 < np.abs(rough).max() < 0.5  # noise at scale 0.1
    u2, y2 = synthesize_darcy_data(n, 0.1, np.random.default_rng(0))
    assert np.array_equal(y, y2)


def test_darcy_validation():
    with pytest.raises(ValueError):
        DarcyProblem(16, 0.1, np.zeros(3), obs_points=(0.2, 0.5))  # shape clash
    with pytest.raises(ValueError):
        DarcyProblem(16, 0.1, np.zeros(1), obs_points=(1.2,))


def test_diffusion_potential_quadrature():
    eps, n = 0.05, 99
    prob = DiffusionProblem(eps, n)
    h = 1.0 / (n + 1)
    # flat zero path: integrand is 1 inside, 1 at the pinned left end,
    # 0 at the right end where the path is pinned to one
    assert prob.phi(np.zeros(n)) == pytest.approx((n + 0.5) * h / (4 * eps**2))
    # straight line from 0 to 1: integral of (1-t^2)^2 is 8/15
    t = np.arange(1, n + 1) * h
    want = (8.0 / 15.0) / (4.0 * eps**2)
    assert prob.phi(t) == pytest.approx(want, rel=1e-3)


def test_diffusion_gradient_matches_directional_fd():
    eps, n = 0.05, 49
    prob = DiffusionProblem(eps, n)
    rng = np.random.default_rng(4)
    w = np.linspace(0, 1, n + 2)[1:-1] + 0.2 * rng.standard_normal(n)
    g = prob.grad_phi(w)
    eta = 1e-6
    for seed in range(3):
        s = np.random.default_rng(seed + 10).standard_normal(n)
        fd = (prob.phi(w + eta * s) - prob.phi(w - eta * s)) / (2 * eta)
        assert g_inner(1.0 / (n + 1), g, s) == pytest.approx(fd, rel=1e-6)


def test_diffusion_gradient_closed_form():
    prob = DiffusionProblem(0.1, 8)
    w = np.array([[0.2, -0.4, 0.8, 1.1, 0.0, 0.5, -1.0, 0.3]])
    assert np.allclose(prob.grad_phi(w), w * (w**2 - 1.0) / 0.1**2)
