"""End-to-end acceptance battery.

Each test covers one numbered criterion and prints a single
``criterion NN: PASS/FAIL`` line (through the terminal reporter, so it shows
up even under output capture) before asserting. Tolerances and sizes are
fixed; runtime-limited criteria time themselves.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from klgauss import (
    BridgeReference,
    ChainConfig,
    ConstantPotential,
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
    fit_chain,
    iact,
    project_spd,
    reference_chain,
    rm_minimize,
    run_chain,
    sample_centered,
    scalar_sigma_opt,
    synthesize_darcy_data,
    DarcyProblem,
    dirichlet_precision,
)
from klgauss.cli import Setup, load_config
from oracles import (
    acceptance_lower_bound,
    expected_acceptance,
    reduced_discrepancy,
    sample_double_well,
    sample_ou_bridge,
)
from test_mcmc import residual_potential


_EMIT = print


@pytest.fixture(autouse=True)
def _route_reports(terminal_line):
    global _EMIT
    _EMIT = terminal_line


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    _EMIT(f"criterion {num:2d}: {status} - {detail}")
    return ok


def rel_fro(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def sample_cov(draws):
    c = draws - draws.mean(axis=0)
    return c.T @ c / len(draws)


def dense_path_precision(n, potential, eps):
    """Dense ``h (S + diag(b/(2 eps^2)))`` built from the dense stencil oracle."""
    h = 1.0 / (n + 1)
    b = np.broadcast_to(np.asarray(potential, dtype=float), (n,))
    return h * (dirichlet_precision(n) + np.diag(b / (2.0 * eps**2)))


# ---------------------------------------------------------------------------
# shared expensive fits


@pytest.fixture(scope="module")
def scalar_fit():
    setup = Setup(load_config("scalar"), 0)
    t0 = time.perf_counter()
    spec, trace = rm_minimize(setup.spec0, setup.problem, setup.rm_config,
                              np.random.default_rng([0, 1]))
    return setup, spec, trace, time.perf_counter() - t0


@pytest.fixture(scope="module")
def darcy_fits():
    out = {}
    for noise, preset in ((0.1, "darcy-noise0.1"), (0.01, "darcy-noise0.01")):
        cfg = load_config(preset)
        cfg.setdefault("chain", {})["thin"] = 10  # finer IACT resolution
        setup = Setup(cfg, 0)
        spec, _ = rm_minimize(setup.spec0, setup.problem, setup.rm_config,
                              np.random.default_rng([0, 1]))
        out[noise] = (setup, spec)
    return out


@pytest.fixture(scope="module")
def diffusion_fits():
    out = {}
    for preset in ("diffusion-constant", "diffusion-variable"):
        setup = Setup(load_config(preset), 0)
        spec, trace = rm_minimize(setup.spec0, setup.problem, setup.rm_config,
                                  np.random.default_rng([0, 1]))
        out[preset] = (setup, spec, trace)
    return out


# ---------------------------------------------------------------------------
# criteria


def test_c01_scalar_rm_desk_scale(scalar_fit):
    setup, spec, trace, elapsed = scalar_fit
    m, sigma = float(spec.mean[0]), spec.cov.sigma
    ok = abs(m) <= 0.02 and abs(sigma - 0.0950) <= 0.005 and elapsed <= 30.0
    assert report(
        1, ok,
        f"10^4-iteration scalar fit: m = {m:+.4f} (|m| <= 0.02), "
        f"sigma = {sigma:.4f} (target 0.0950 +/- 0.005), {elapsed:.1f} s (<= 30)")


def test_c02_sigma_opt_closed_form(scalar_fit):
    _, spec, _, _ = scalar_fit
    exact_err = abs(scalar_sigma_opt(1.0 / 16.0) ** 2 - 1.0 / 24.0)
    target = (np.sqrt(1.48) - 1.0) / 24.0
    rm_err = abs(spec.cov.sigma**2 - target)
    ok = exact_err <= 1e-15 and rm_err <= 1e-3
    assert report(
        2, ok,
        f"sigma_opt(1/16)^2 - 1/24 = {exact_err:.2e} (<= 1e-15); "
        f"|sigma_hat^2 - (sqrt(1.48)-1)/24| = {rm_err:.2e} (<= 1e-3)")


def test_c03_scalar_chain_acceptance(scalar_fit):
    setup, spec, _, _ = scalar_fit
    config = ChainConfig(steps=1_000_000, beta=1.0, thin=1000, burn_frac=0.1)
    t0 = time.perf_counter()
    ref = reference_chain(setup.problem, setup.ref, config,
                          np.random.default_rng([0, 2]))
    opt = fit_chain(setup.problem, spec, config, np.random.default_rng([0, 3]))
    elapsed = time.perf_counter() - t0
    ratio = opt.acceptance_rate / ref.acceptance_rate
    ok = (ref.acceptance_rate <= 0.15 and ratio >= 5.0 and elapsed <= 120.0)
    assert report(
        3, ok,
        f"10^6-step chains: reference acceptance {ref.acceptance_rate:.4f} "
        f"(<= 0.15), optimized {opt.acceptance_rate:.4f} "
        f"({ratio:.1f}x, >= 5x), {elapsed:.1f} s (<= 120)")


def test_c04_acceptance_lower_bound():
    cases = [(0.0, scalar_sigma_opt(0.01), 0.01), (0.1, 0.2, 0.05),
             (0.25, 0.5, 0.25), (0.0, 1.0, 1.0)]
    gammas = (0.25, 0.5, 1.0)
    rng = np.random.default_rng(44)
    worst = np.inf
    checks = 0
    for m, sigma, eps in cases:
        spec = GaussianSpec(np.array([m]), ScalarVariance(sigma),
                            ScalarReference())
        psi = residual_potential(ScalarDoubleWell(eps), spec)
        u = spec.mean + sample_centered(spec, rng, 200_000)
        v = spec.mean + sample_centered(spec, rng, 200_000)
        t = psi(u) - psi(v)
        emp = expected_acceptance(t)
        for gamma in gammas:
            worst = min(worst, emp - acceptance_lower_bound(t, gamma))
            checks += 1
    ok = worst >= 0.0
    assert report(
        4, ok,
        f"E[1 ^ e^T] >= exp(-g)(1 - E|T|/g) held in {checks}/12 checks "
        f"(4 fits x g in 0.25,0.5,1); smallest margin {worst:+.4f}")


def test_c05_rejection_sampler_moments():
    # The reference moments come from quadrature of the exact target density
    # exp(-(x^4 + x^2/2)/eps): E[u^2]/eps = 0.9065 and E[u^4]/(3 eps^2) =
    # 0.7789 at eps = 0.01. Each Monte Carlo mean may miss its reference by at
    # most 5 standard errors, the SE being the sample standard deviation of
    # the per-draw statistic over sqrt(N): about 0.006 for the second moment
    # and 0.011 for the fourth at 10^6 draws. Plain N(0, eps) draws give 1.0
    # for both ratios, and N(0, sigma_opt^2) draws give a fourth-moment ratio
    # of 0.814, both many standard errors out.
    eps = 0.01

    def moment(k):
        return quad(lambda x: x**k * np.exp(-(x**4 + x**2 / 2.0) / eps),
                    -np.inf, np.inf)[0]

    r2_quad = moment(2) / moment(0) / eps
    r4_quad = moment(4) / moment(0) / (3.0 * eps**2)
    draws = sample_double_well(eps, np.random.default_rng(5), 1_000_000)
    u2 = draws**2 / eps
    u4 = draws**4 / (3.0 * eps**2)
    r2, r4 = float(u2.mean()), float(u4.mean())
    z2 = (r2 - r2_quad) / (u2.std(ddof=1) / np.sqrt(draws.size))
    z4 = (r4 - r4_quad) / (u4.std(ddof=1) / np.sqrt(draws.size))
    ok2 = 0.9 <= r2 <= 1.0 and abs(z2) <= 5.0
    ok4 = abs(z4) <= 5.0
    assert report(
        5, ok2 and ok4,
        f"10^6 rejection draws at eps=0.01: E[u^2]/eps = {r2:.4f} "
        f"(quadrature {r2_quad:.4f}, {z2:+.1f} SE, window [0.9, 1.0]), "
        f"E[u^4]/(3 eps^2) = {r4:.4f} (quadrature {r4_quad:.4f}, "
        f"{z4:+.1f} SE); each within 5 SE")


def central_fd(f, x0, step):
    return (f(x0 + step) - f(x0 - step)) / (2.0 * step)


def test_c06_gradient_suite():
    errors = {}
    rng = np.random.default_rng(6)

    # scalar double-well potential gradient
    prob = ScalarDoubleWell(0.01)
    x = rng.uniform(-0.4, 0.4, size=(40, 1))
    s = np.ones_like(x)
    fd = central_fd(lambda t: prob.phi(x + t * s), 0.0, 1e-6)
    paired = (prob.grad_phi(x) * s).sum(axis=-1)
    errors["scalar"] = (np.abs(fd - paired) / np.abs(paired)).max()

    # diffusion path potential gradient (h-weighted pairing)
    n = 25
    dprob = DiffusionProblem(0.05, n)
    h = 1.0 / (n + 1)
    w = np.linspace(0.1, 0.9, n)[None]
    s = np.sin(np.pi * np.arange(1, n + 1) / (n + 1))[None]
    fd = central_fd(lambda t: dprob.phi(w + t * s), 0.0, 1e-6)
    paired = h * (dprob.grad_phi(w) * s).sum(axis=-1)
    errors["diffusion"] = float(np.abs(fd - paired)[0] / np.abs(paired)[0])

    # Darcy misfit gradient (quadrature-weighted pairing)
    n = 64
    field, data = synthesize_darcy_data(n, 0.1, np.random.default_rng(66))
    darcy = DarcyProblem(n, 0.1, data)
    x = np.arange(n) / n
    u = 0.4 * np.sin(2 * np.pi * x)[None] + 0.2
    s = np.cos(4 * np.pi * x)[None] + 0.5
    fd = central_fd(lambda t: darcy.phi(u + t * s), 0.0, 1e-5)
    paired = (darcy.grad_phi(u) * s).sum(axis=-1) / n
    errors["darcy"] = float(np.abs(fd - paired)[0] / np.abs(paired)[0])

    # finite-rank covariance-parameter derivative of the reduced discrepancy
    ref = PeriodicReference(16, 1.0)
    factor = np.array([[0.5, 0.1], [0.1, 0.3]])
    fspec = GaussianSpec(np.zeros(16), FiniteRank(factor), ref)
    fdarcy_field, fdarcy_data = synthesize_darcy_data(16, 0.1,
                                                      np.random.default_rng(67))
    fprob = DarcyProblem(16, 0.1, fdarcy_data)
    batch = sample_centered(fspec, rng, 6)
    direction = np.array([[0.3, -0.2], [-0.2, 0.1]])

    def disc_at(t):
        return reduced_discrepancy(
            replace(fspec, cov=FiniteRank(factor + t * direction)), fprob, batch)

    fd = central_fd(disc_at, 0.0, 1e-6)
    deriv = fspec.cov.quad_derivative(ref, fspec.cov.gamma_coords(ref, batch))
    paired = np.einsum("bij,ij->b", deriv, direction)
    errors["finite-rank"] = (np.abs(fd - paired) / np.abs(paired)).max()

    fd_ok = (errors["darcy"] <= 1e-4 and errors["scalar"] <= 1e-6
             and errors["diffusion"] <= 1e-6 and errors["finite-rank"] <= 1e-6)

    # common-random-number checks of the stochastic divergence gradients
    sspec = GaussianSpec(np.array([0.1]), ScalarVariance(0.3), ScalarReference())
    sprob = ScalarDoubleWell(0.05)
    sbatch = sample_centered(sspec, rng, 4000)
    fd_m = central_fd(
        lambda t: estimate_dkl(replace(sspec, mean=sspec.mean + t), sprob,
                               batch=sbatch).value, 0.0, 1e-5)
    an_m = float(estimate_gradients(sspec, sprob, sbatch).mean[0])
    crn = {"mean": abs(fd_m - an_m) / abs(an_m)}
    fd_c = central_fd(
        lambda t: estimate_dkl(replace(sspec, cov=ScalarVariance(0.3 + t)), sprob,
                               batch=sbatch, base=sspec).value, 0.0, 1e-6)
    an_c = float(estimate_gradients(sspec, sprob, sbatch).cov)
    crn["cov"] = abs(fd_c - an_c) / abs(an_c)

    bref = BridgeReference(15)
    bspec = GaussianSpec(bref.mean0.copy(), ConstantPotential(2.0, 0.05), bref)
    bprob = DiffusionProblem(0.05, 15)
    bbatch = sample_centered(bspec, rng, 4000)
    fd_b = central_fd(
        lambda t: estimate_dkl(replace(bspec, cov=ConstantPotential(2.0 + t, 0.05)),
                               bprob, batch=bbatch, base=bspec).value, 0.0, 1e-5)
    an_b = float(estimate_gradients(bspec, bprob, bbatch).cov)
    crn["strength"] = abs(fd_b - an_b) / abs(an_b)

    crn_ok = max(crn.values()) <= 1e-3
    ok = fd_ok and crn_ok
    assert report(
        6, ok,
        "relative FD errors: darcy {darcy:.1e} (<=1e-4), scalar {scalar:.1e}, "
        "diffusion {diffusion:.1e}, finite-rank {finite-rank:.1e} (<=1e-6); "
        "CRN divergence gradients max {crn:.1e} (<=1e-3)".format(
            crn=max(crn.values()), **errors))


def test_c07_sampler_covariance():
    n_draws = 100_000
    results = {}

    # finite-rank spectral sampler vs analytic mode-space covariance
    ref = PeriodicReference(16, 1.0)
    factor = np.array([[0.4, 0.15], [0.15, 0.25]])
    spec = GaussianSpec(np.zeros(16), FiniteRank(factor), ref)
    draws = sample_centered(spec, np.random.default_rng(71), n_draws)
    modes = ref.synth(np.eye(ref.n_modes))  # row k: field of unit mode k
    coeff_cov = np.diag(np.concatenate([[0.0, 0.0], ref.lam[2:] ** 2]))
    coeff_cov[:2, :2] = factor @ factor
    exact = modes.T @ coeff_cov @ modes
    results["finite-rank"] = rel_fro(sample_cov(draws), exact)

    # OU bridge recursion vs dense precision solve (constant potential)
    bref = BridgeReference(24)
    strength, eps = 4.0, 0.4
    ou_draws = sample_ou_bridge(strength, eps, 24, np.random.default_rng(72), n_draws)
    exact_const = np.linalg.inv(dense_path_precision(24, strength, eps))
    results["ou-bridge"] = rel_fro(sample_cov(ou_draws), exact_const)

    # banded Cholesky sampler vs dense precision solve (variable potential)
    b = 1.0 + 0.8 * np.sin(2 * np.pi * bref.t)
    vp_spec = GaussianSpec(bref.mean0.copy(), VariablePotential(b, 0.35), bref)
    vp_draws = sample_centered(vp_spec, np.random.default_rng(73), n_draws)
    exact_var = np.linalg.inv(dense_path_precision(24, b, 0.35))
    results["banded"] = rel_fro(sample_cov(vp_draws), exact_var)

    # the banded sampler and the OU recursion must agree on a constant potential
    cp_spec = GaussianSpec(bref.mean0.copy(), ConstantPotential(strength, eps), bref)
    cp_draws = sample_centered(cp_spec, np.random.default_rng(74), n_draws)
    results["ou-vs-banded"] = rel_fro(sample_cov(cp_draws), sample_cov(ou_draws))

    ok = max(results.values()) <= 0.05
    assert report(
        7, ok,
        "relative Frobenius errors at 10^5 draws: " + ", ".join(
            f"{k} {v:.3f}" for k, v in results.items()) + " (all <= 0.05)")


def test_c08_pcn_invariance():
    ref = BridgeReference(32)
    beta = 0.6
    config = ChainConfig(steps=100_000, beta=beta, thin=100, burn_frac=0.1)
    diag = run_chain(lambda u: np.zeros(u.shape[0]), ref.mean0,
                     ref.sample_centered, config, np.random.default_rng(8))
    kernel_diag = 2.0 * (ref.t - ref.t**2)
    # each node is an exact AR(1) with lag-1 correlation sqrt(1 - beta^2)
    rho = np.sqrt(1.0 - beta**2)
    tau = (1.0 + rho) / (1.0 - rho)
    n_post = config.steps - diag.burn
    se = np.sqrt(kernel_diag * tau / n_post)
    mean_z = np.abs(diag.node_mean) / (3.0 * se)
    var_err = np.abs(diag.node_var / kernel_diag - 1.0)
    ok = (diag.acceptance_rate == 1.0 and mean_z.max() <= 1.0
          and var_err.max() <= 0.05)
    assert report(
        8, ok,
        f"zero-potential pCN, 10^5 steps: worst node mean {mean_z.max():.2f} "
        f"of its 3-SE budget, worst variance error {var_err.max():.1%} (<= 5%)")


def test_c09_darcy_desk_scale(darcy_fits):
    rates, taus = {}, {}
    for noise, (setup, spec) in darcy_fits.items():
        ref = reference_chain(setup.problem, setup.ref, setup.chain_config,
                              np.random.default_rng([0, 2]))
        opt = fit_chain(setup.problem, spec, setup.chain_config,
                        np.random.default_rng([0, 3]))
        rates[noise] = (ref.acceptance_rate, opt.acceptance_rate)
        taus[noise] = (iact(ref.probe_post_burn, setup.chain_config.max_lag),
                       iact(opt.probe_post_burn, setup.chain_config.max_lag))
    ratio = rates[0.1][1] / rates[0.1][0]
    ok = (ratio >= 2.0 and taus[0.1][1] < taus[0.1][0]
          and taus[0.01][1] < taus[0.01][0])
    assert report(
        9, ok,
        f"grid 128, rank 2, beta 0.6, 10^5 steps: acceptance "
        f"{rates[0.1][0]:.3f} -> {rates[0.1][1]:.3f} ({ratio:.1f}x, >= 2x) "
        f"at noise 0.1; probe IACT ref/opt {taus[0.1][0]:.1f}/{taus[0.1][1]:.1f} "
        f"at 0.1 and {taus[0.01][0]:.1f}/{taus[0.01][1]:.1f} at 0.01")


def test_c10_diffusion_desk_scale(diffusion_fits):
    details = []
    ok = True
    for preset, (setup, spec, trace) in diffusion_fits.items():
        init = estimate_dkl(setup.spec0, setup.problem, 4000,
                            np.random.default_rng([0, 8]))
        final = estimate_dkl(spec, setup.problem, 4000,
                             np.random.default_rng([0, 9]))
        drop_se = (init.value - final.value) / np.hypot(init.stderr, final.stderr)
        ref = reference_chain(setup.problem, setup.ref, setup.chain_config,
                              np.random.default_rng([0, 2]))
        opt = fit_chain(setup.problem, spec, setup.chain_config,
                        np.random.default_rng([0, 3]))
        ok = (ok and np.isfinite(final.value) and drop_se >= 3.0
              and opt.acceptance_rate > ref.acceptance_rate)
        name = preset.split("-")[1]
        details.append(
            f"{name}: divergence {init.value:.1f} -> {final.value:.1f} "
            f"({drop_se:.0f} SE), acceptance {ref.acceptance_rate:.3f} -> "
            f"{opt.acceptance_rate:.3f}")
    assert report(10, ok, "; ".join(details))


def test_c11_spd_projection_oracle():
    lo, hi = 0.2, 1.5
    lam = np.linspace(lo, hi, 61)
    theta = np.linspace(0.0, np.pi / 2, 90, endpoint=False)
    l1, l2, th = np.meshgrid(lam, lam, theta, indexing="ij")
    c, s = np.cos(th), np.sin(th)
    cand11 = (c**2 * l1 + s**2 * l2).ravel()
    cand22 = (s**2 * l1 + c**2 * l2).ravel()
    cand12 = (c * s * (l1 - l2)).ravel()

    rng = np.random.default_rng(11)
    worst_gap, worst_eig = 0.0, 0.0
    for _ in range(100):
        a = rng.standard_normal((2, 2))
        a = (a + a.T) / 2.0
        proj = project_spd(a, lo, hi)
        d_proj = np.linalg.norm(proj - a)
        d2 = ((cand11 - a[0, 0]) ** 2 + (cand22 - a[1, 1]) ** 2
              + 2.0 * (cand12 - a[0, 1]) ** 2)
        d_oracle = np.sqrt(d2.min())
        assert d_proj <= d_oracle + 1e-9  # analytic beats every grid point
        worst_gap = max(worst_gap, d_oracle - d_proj)
        eigs = np.linalg.eigvalsh(proj)
        worst_eig = max(worst_eig, lo - eigs.min(), eigs.max() - hi)
    resolution = np.hypot(lam[1] - lam[0], (hi - lo) * theta[1])
    ok = worst_gap <= resolution and worst_eig <= 1e-12
    assert report(
        11, ok,
        f"100 random symmetric 2x2: worst oracle-vs-analytic gap "
        f"{worst_gap:.4f} (grid resolution {resolution:.4f}), eigenvalue "
        f"bound violation {worst_eig:.1e}")
