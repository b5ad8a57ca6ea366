"""pCN chains: stream discipline, invariance, diagnostics."""

from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from klgauss import (
    BridgeReference,
    ChainConfig,
    ConstantPotential,
    DarcyProblem,
    DiffusionProblem,
    FiniteRank,
    GaussianPotential,
    GaussianSpec,
    NonFiniteObjectiveError,
    PeriodicReference,
    ScalarDoubleWell,
    ScalarReference,
    ScalarVariance,
    VariablePotential,
    autocovariance,
    fit_chain,
    iact,
    reference_chain,
    run_chain,
    sample_centered,
    synthesize_darcy_data,
)
from oracles import acceptance_lower_bound, expected_acceptance


def residual_potential(problem, spec):
    """Target potential minus the fit's Gaussian potential, evaluated whole:
    the oracle for the Gaussian terms that ``run_chain`` carries."""
    gaussian_part = GaussianPotential(spec)

    def pot(fields):
        return problem.phi(fields) - gaussian_part(fields)

    return pot


def naive_chain(potential, mean, sampler, config, rng):
    """Line-by-line reference implementation with the same stream layout."""
    mean = np.asarray(mean, dtype=float)
    noise_rng, accept_rng = rng.spawn(2)
    xi = sampler(noise_rng, config.steps)
    log_u = np.log(accept_rng.random(config.steps))
    contract = np.sqrt(1.0 - config.beta**2)
    state = mean.copy()
    pot_state = float(potential(state[None])[0])
    burn = int(config.burn_frac * config.steps)
    accepted = nonfinite = 0
    kept = []
    probe, probe_steps, acc_cum = [], [], []
    probe_index = (config.probe_index if config.probe_index is not None
                   else mean.size // 2)
    for k in range(config.steps):
        prop = mean + contract * (state - mean) + config.beta * xi[k]
        pot_prop = float(potential(prop[None])[0])
        nonfinite += not np.isfinite(pot_prop)
        if np.isfinite(pot_prop) and log_u[k] < pot_state - pot_prop:
            state = prop
            pot_state = pot_prop
            accepted += 1
        if k + 1 > burn:
            kept.append(state.copy())
        if (k + 1) % config.thin == 0:
            probe_steps.append(k + 1)
            probe.append(state[probe_index])
            acc_cum.append(accepted)
    kept = np.array(kept)
    return {
        "acceptance": accepted / config.steps,
        "final": state,
        "node_mean": kept.mean(axis=0),
        "node_var": kept.var(axis=0),
        "probe": np.array(probe),
        "probe_steps": np.array(probe_steps),
        "accepts_cum": np.array(acc_cum),
        "nonfinite": nonfinite,
    }


def informed_case(family, dim=32):
    """A target problem and a fit of the given family, off the reference.

    Each fit has a mean away from the reference mean and a covariance
    parameter away from the reference, so that both the shift and the Gamma
    parts of the Gaussian potential are nonzero, and acceptance sits well
    inside (0, 1) at beta = 0.6 and 1.
    """
    if family == "scalar-variance":
        return (ScalarDoubleWell(0.05),
                GaussianSpec(np.array([0.1]), ScalarVariance(0.3), ScalarReference()))
    if family == "finite-rank":
        ref = PeriodicReference(dim, 1.0)
        u_true, data = synthesize_darcy_data(dim, 0.1, np.random.default_rng(0))
        factor = 0.6 * np.diag(ref.lam[:2]) + 0.01 * np.array([[0.0, 1.0], [1.0, 0.0]])
        spec = GaussianSpec(ref.synth(ref.coeffs(0.5 * u_true)), FiniteRank(factor), ref)
        return DarcyProblem(dim, 0.1, data), spec
    t = np.arange(1, dim + 1) / (dim + 1)
    ref = BridgeReference(dim, mean0=t)
    if family == "constant-potential":
        cov = ConstantPotential(2.0, 0.3)
    else:
        cov = VariablePotential(1.0 + 0.5 * np.random.default_rng(2).random(dim), 0.3)
    return DiffusionProblem(0.3, dim), GaussianSpec(t + 0.1 * np.sin(np.pi * t), cov, ref)


FAMILIES = ["scalar-variance", "finite-rank", "constant-potential", "variable-potential"]


def gaussian_sampler(dim):
    def sampler(rng, size):
        return rng.standard_normal((size, dim))

    return sampler


def soft_potential(fields):
    return 0.5 * np.sum(fields**2, axis=-1)


def gentle_potential(fields):
    return 0.01 * np.sum(fields**2, axis=-1)


def test_chain_config_validation():
    with pytest.raises(ValueError):
        ChainConfig(steps=0, beta=0.5)
    with pytest.raises(ValueError):
        ChainConfig(steps=10, beta=0.0)
    with pytest.raises(ValueError):
        ChainConfig(steps=10, beta=1.2)
    with pytest.raises(ValueError):
        ChainConfig(steps=10, beta=0.5, thin=0)
    with pytest.raises(ValueError):
        ChainConfig(steps=10, beta=0.5, burn_frac=1.0)
    with pytest.raises(ValueError):
        ChainConfig(steps=10, beta=0.5, max_lag=0)


@pytest.mark.parametrize("beta", [1.0, 0.7])
def test_run_chain_matches_naive_implementation(beta):
    dim = 3
    config = ChainConfig(steps=500, beta=beta, thin=50, burn_frac=0.1)
    got = run_chain(soft_potential, np.full(dim, 0.2), gaussian_sampler(dim),
                    config, np.random.default_rng(33))
    want = naive_chain(soft_potential, np.full(dim, 0.2), gaussian_sampler(dim),
                       config, np.random.default_rng(33))
    assert got.acceptance_rate == pytest.approx(want["acceptance"])
    assert np.allclose(got.final_state, want["final"])
    assert np.allclose(got.node_mean, want["node_mean"])
    assert np.allclose(got.node_var, want["node_var"], atol=1e-12)
    assert np.array_equal(got.probe_steps, want["probe_steps"])
    assert np.allclose(got.probe, want["probe"])
    assert np.array_equal(got.accepts_cum, want["accepts_cum"])
    assert got.burn == 50


def test_run_chain_spans_batch_boundaries():
    # more steps than one internal chunk: the stream must stitch seamlessly
    from klgauss.mcmc import _CHUNK

    steps = _CHUNK + 57
    config = ChainConfig(steps=steps, beta=1.0, thin=1000)
    got = run_chain(soft_potential, np.zeros(2), gaussian_sampler(2), config,
                    np.random.default_rng(8))
    want = naive_chain(soft_potential, np.zeros(2), gaussian_sampler(2), config,
                       np.random.default_rng(8))
    assert got.acceptance_rate == pytest.approx(want["acceptance"])
    assert np.allclose(got.final_state, want["final"])
    assert np.allclose(got.node_mean, want["node_mean"])


@pytest.mark.parametrize("beta", [0.6, 1.0])
def test_run_chain_independent_of_block_budget(beta, monkeypatch):
    # the innovation block size follows an element budget; it must not move the
    # chain, nor may the informed chain's carried Gaussian terms across blocks
    import klgauss.mcmc as mcmc

    dim = 32
    ref = BridgeReference(dim)
    config = ChainConfig(steps=2500, beta=beta, thin=10, burn_frac=0.1)
    chains = {
        "reference": partial(run_chain, soft_potential, ref.mean0, ref.sample_centered),
        "accept-heavy": partial(run_chain, gentle_potential, ref.mean0, ref.sample_centered),
        "finite-rank": partial(fit_chain, *informed_case("finite-rank", dim)),
        "variable-potential": partial(fit_chain, *informed_case("variable-potential", dim)),
    }

    def run():
        return {name: chain(config, np.random.default_rng(19))
                for name, chain in chains.items()}

    big = run()  # 2500 steps in one block
    monkeypatch.setattr(mcmc, "_BLOCK_ELEMENTS", 97 * dim)
    small = run()  # 25 full blocks of 97 rows and a partial one
    for name in chains:
        for field in ("steps", "burn", "acceptance_rate", "nonfinite_proposals"):
            assert getattr(small[name], field) == getattr(big[name], field), name
        for field in ("probe_steps", "probe", "accepts_cum", "node_mean", "node_var",
                      "final_state"):
            assert np.array_equal(getattr(small[name], field), getattr(big[name], field)), name
        assert 0.0 < big[name].acceptance_rate < 1.0, name
    assert big["accept-heavy"].acceptance_rate > 0.9


@pytest.mark.parametrize("beta", [0.6, 1.0])
@pytest.mark.parametrize("family", FAMILIES)
def test_fit_chain_matches_naive_residual_chain(family, beta):
    # the informed chain carries the Gaussian part of its potential instead of
    # evaluating it per proposal; it must make the oracle's every decision
    problem, spec = informed_case(family)
    config = ChainConfig(steps=1500, beta=beta, thin=10, burn_frac=0.1)
    got = fit_chain(problem, spec, config, np.random.default_rng(21))
    want = naive_chain(residual_potential(problem, spec), spec.mean,
                       partial(sample_centered, spec), config, np.random.default_rng(21))
    assert round(got.acceptance_rate * config.steps) == round(want["acceptance"] * config.steps)
    assert 0.0 < got.acceptance_rate < 1.0
    assert np.array_equal(got.accepts_cum, want["accepts_cum"])
    assert np.array_equal(got.probe, want["probe"])
    assert np.array_equal(got.final_state, want["final"])
    oracle = residual_potential(problem, spec)(got.final_state[None])[0]
    assert got.final_potential == pytest.approx(oracle, rel=1e-9, abs=1e-12)


def steep_potential(fields):
    return 10.0 * np.sum((fields - 0.2) ** 2, axis=-1)


@pytest.mark.parametrize("chain", ["run_chain", "fit_chain"])
def test_long_rejection_runs_match_naive_chain(chain, monkeypatch):
    # below 5% acceptance the beta < 1 windows double over long rejection runs
    # and meet the ends of 37-row innovation blocks; the chain must still make
    # every one of the oracle's decisions
    import klgauss.mcmc as mcmc

    if chain == "run_chain":
        dim = 4
        args = (steep_potential, np.zeros(dim), gaussian_sampler(dim))
        run, oracle_args = partial(run_chain, *args), args
        config = ChainConfig(steps=3000, beta=0.7, thin=7, burn_frac=0.1)
    else:
        dim = 32
        _, spec = informed_case("variable-potential", dim)
        problem = DiffusionProblem(0.08, dim)  # sharper than the fit: few accepts
        run = partial(fit_chain, problem, spec)
        oracle_args = (residual_potential(problem, spec), spec.mean,
                       partial(sample_centered, spec))
        config = ChainConfig(steps=3000, beta=0.8, thin=7, burn_frac=0.1)
    monkeypatch.setattr(mcmc, "_BLOCK_ELEMENTS", 37 * dim)
    got = run(config, np.random.default_rng(31))
    want = naive_chain(*oracle_args, config, np.random.default_rng(31))
    assert 0.0 < got.acceptance_rate < 0.05
    assert got.acceptance_rate == want["acceptance"]
    assert np.array_equal(got.probe_steps, want["probe_steps"])
    assert np.array_equal(got.probe, want["probe"])
    assert np.array_equal(got.accepts_cum, want["accepts_cum"])
    assert np.array_equal(got.final_state, want["final"])
    assert np.allclose(got.node_mean, want["node_mean"])
    assert np.allclose(got.node_var, want["node_var"], atol=1e-12)


@pytest.mark.parametrize("beta", [0.6, 1.0])
def test_accept_heavy_chain_matches_naive_chain(beta, monkeypatch):
    # above 90% acceptance almost every step holds a new state; a held-state
    # budget of five rows adds the node moments every five accepts, so groups
    # end inside innovation blocks and across their ends, and the burn ends
    # inside a run of equal states
    import klgauss.mcmc as mcmc

    dim, steps = 3, 3000
    args = (gentle_potential, np.full(dim, 0.2), gaussian_sampler(dim))
    monkeypatch.setattr(mcmc, "_BLOCK_ELEMENTS", 37 * dim)
    monkeypatch.setattr(mcmc, "_HELD_ELEMENTS", 5 * dim)
    every_step = naive_chain(*args, ChainConfig(steps, beta, thin=1),
                             np.random.default_rng(43))
    accepts = every_step["accepts_cum"]  # after steps 1, 2, ...
    # the first rejection after 10% of the steps: the burn ends just before it
    burn = int(np.flatnonzero(np.diff(accepts[steps // 10:]) == 0)[0]) + steps // 10 + 1
    config = ChainConfig(steps, beta, thin=1, burn_frac=(burn + 0.5) / steps)
    got = run_chain(*args, config, np.random.default_rng(43))
    want = naive_chain(*args, config, np.random.default_rng(43))
    assert got.burn == burn and accepts[burn] == accepts[burn - 1]  # step burn + 1 stays
    assert got.acceptance_rate == want["acceptance"] > 0.9
    assert np.array_equal(got.probe_steps, want["probe_steps"])
    assert np.array_equal(got.probe, want["probe"])
    assert np.array_equal(got.accepts_cum, want["accepts_cum"])
    assert np.array_equal(got.final_state, want["final"])
    assert np.allclose(got.node_mean, want["node_mean"])
    assert np.allclose(got.node_var, want["node_var"], atol=1e-12)


def accept_heavy_case(family, dim=32):
    """Like :func:`informed_case`, with a target the fit matches closely enough
    that the beta = 0.6 informed chain accepts over 80% of its proposals."""
    if family == "finite-rank":
        ref = PeriodicReference(dim, 1.0)
        u_true, data = synthesize_darcy_data(dim, 0.3, np.random.default_rng(0))
        factor = 0.8 * np.diag(ref.lam[:2]) + 0.01 * np.array([[0.0, 1.0], [1.0, 0.0]])
        spec = GaussianSpec(ref.synth(ref.coeffs(0.2 * u_true)), FiniteRank(factor), ref)
        return DarcyProblem(dim, 0.3, data), spec
    t = np.arange(1, dim + 1) / (dim + 1)
    cov = VariablePotential(1.0 + 0.5 * np.random.default_rng(2).random(dim), 0.5)
    return (DiffusionProblem(0.5, dim),
            GaussianSpec(t + 0.1 * np.sin(np.pi * t), cov, BridgeReference(dim, mean0=t)))


@pytest.mark.parametrize("family", ["finite-rank", "variable-potential"])
def test_accept_heavy_informed_chain_matches_naive_chain(family, monkeypatch):
    # above 80% acceptance the beta < 1 windows run ahead on accepts, each row
    # proposed from the row before it; 37-row innovation blocks cut them, a
    # held-state budget of five rows flushes inside them, and the carried
    # Gaussian terms follow every accept
    import klgauss.mcmc as mcmc

    dim = 32
    problem, spec = accept_heavy_case(family, dim)
    monkeypatch.setattr(mcmc, "_BLOCK_ELEMENTS", 37 * dim)
    monkeypatch.setattr(mcmc, "_HELD_ELEMENTS", 5 * dim)
    config = ChainConfig(steps=2000, beta=0.6, thin=7, burn_frac=0.1)
    got = fit_chain(problem, spec, config, np.random.default_rng(53))
    want = naive_chain(residual_potential(problem, spec), spec.mean,
                       partial(sample_centered, spec), config, np.random.default_rng(53))
    assert got.acceptance_rate == want["acceptance"] > 0.8
    assert np.array_equal(got.probe_steps, want["probe_steps"])
    assert np.array_equal(got.probe, want["probe"])
    assert np.array_equal(got.accepts_cum, want["accepts_cum"])
    assert np.array_equal(got.final_state, want["final"])
    assert np.allclose(got.node_mean, want["node_mean"])
    assert np.allclose(got.node_var, want["node_var"], atol=1e-12)
    oracle = residual_potential(problem, spec)(got.final_state[None])[0]
    assert got.final_potential == pytest.approx(oracle, rel=1e-9)
    # runs of accepts are scored a window, not a row, at a time
    assert got.potential_calls <= config.steps / 2
    assert got.potential_rows <= 1.75 * config.steps


def test_nonfinite_proposal_ends_a_window_of_accepts(monkeypatch):
    # a non-finite proposal right after an accept falls in a window that runs
    # ahead on accepts; it is a reject, counted once, and the rows built on it
    # are thrown away unscanned
    import klgauss.mcmc as mcmc

    dim = 32
    inner, spec = accept_heavy_case("variable-potential", dim)
    cut = spec.mean[dim // 2] + 0.15

    def phi(fields):
        return np.where(fields[:, dim // 2] > cut, np.inf, inner.phi(fields))

    problem = SimpleNamespace(phi=phi)
    monkeypatch.setattr(mcmc, "_BLOCK_ELEMENTS", 37 * dim)
    config = ChainConfig(steps=2000, beta=0.6, thin=1)
    got = fit_chain(problem, spec, config, np.random.default_rng(59))
    flags = []  # per oracle step: was the proposal non-finite

    def recorded(fields):
        out = residual_potential(problem, spec)(fields)
        flags.append(not np.isfinite(out[0]))
        return out

    want = naive_chain(recorded, spec.mean, partial(sample_centered, spec), config,
                       np.random.default_rng(59))
    nonfinite_steps = np.flatnonzero(flags[1:]) + 1  # steps, after the start's call
    moved = np.diff(want["accepts_cum"], prepend=0) > 0  # step k accepted, at index k - 1
    after_accept = [k for k in nonfinite_steps if k > 1 and moved[k - 2]]
    assert len(after_accept) > 5
    assert got.nonfinite_proposals == want["nonfinite"] == len(nonfinite_steps)
    assert got.acceptance_rate == want["acceptance"] > 0.5
    assert np.array_equal(got.accepts_cum, want["accepts_cum"])
    assert np.array_equal(got.probe, want["probe"])
    assert np.array_equal(got.final_state, want["final"])


def test_held_states_do_not_pin_innovation_blocks(monkeypatch):
    # a beta = 1 chain accepts rows of its whole-block window; the states it
    # holds for the node moments must be copies, or each would keep its block
    # alive until the next moment update, here 16 accepts later
    import tracemalloc

    import klgauss.mcmc as mcmc

    dim, rows = 256, 256
    monkeypatch.setattr(mcmc, "_BLOCK_ELEMENTS", rows * dim)
    monkeypatch.setattr(mcmc, "_HELD_ELEMENTS", 16 * dim)
    block_bytes = rows * dim * 8

    def rare(fields):  # once a state is past 2.5, accepts one proposal in 160
        return np.where(fields[:, 0] > 2.5, 0.0, 1e3 * (3.0 - fields[:, 0]))

    config = ChainConfig(steps=24 * rows, beta=1.0, thin=rows)
    tracemalloc.start()
    try:
        diag = run_chain(rare, np.zeros(dim), gaussian_sampler(dim), config,
                         np.random.default_rng(47))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 20 <= diag.acceptance_rate * config.steps < 100
    assert peak < 3 * block_bytes


def test_informed_chain_potential_does_not_drift():
    # 20000 beta < 1 steps update the carried terms on every accept
    problem, spec = informed_case("finite-rank", dim=128)
    config = ChainConfig(steps=20_000, beta=0.6, thin=100)
    diag = fit_chain(problem, spec, config, np.random.default_rng(23))
    assert diag.acceptance_rate > 0.1
    oracle = residual_potential(problem, spec)(diag.final_state[None])[0]
    assert diag.final_potential == pytest.approx(oracle, rel=1e-9)


def test_run_chain_rejects_gaussian_potential_off_its_mean():
    problem, spec = informed_case("scalar-variance")
    config = ChainConfig(steps=10, beta=0.5)
    with pytest.raises(ValueError):
        run_chain(problem.phi, spec.mean + 1.0, partial(sample_centered, spec), config,
                  np.random.default_rng(0), gaussian=GaussianPotential(spec))


def test_zero_potential_accepts_everything_and_preserves_marginals():
    n = 8
    ref = BridgeReference(n)
    config = ChainConfig(steps=30_000, beta=0.6, thin=100)
    diag = run_chain(lambda u: np.zeros(u.shape[0]), ref.mean0,
                     ref.sample_centered, config, np.random.default_rng(12))
    assert diag.acceptance_rate == 1.0
    kernel_diag = 2.0 * (ref.t - ref.t**2)
    assert np.abs(diag.node_mean).max() < 4 * np.sqrt(kernel_diag.max() / 30_000) * 10
    assert np.abs(diag.node_var / kernel_diag - 1.0).max() < 0.15


def test_nonfinite_proposals_are_rejected_and_counted():
    def spiky(fields):
        out = 0.1 * np.sum(fields**2, axis=-1)
        return np.where(fields[..., 0] > 0.8, np.inf, out)

    config = ChainConfig(steps=2_000, beta=1.0)
    diag = run_chain(spiky, np.zeros(1), gaussian_sampler(1), config,
                     np.random.default_rng(3))
    assert diag.nonfinite_proposals > 100
    assert diag.final_state[0] <= 0.8
    assert np.isfinite(diag.node_mean).all()

    with pytest.raises(NonFiniteObjectiveError):
        run_chain(lambda u: np.full(u.shape[0], np.nan), np.zeros(1),
                  gaussian_sampler(1), config, np.random.default_rng(0))


def test_nonfinite_proposals_below_beta_one_count_only_scanned_rows():
    # at beta < 1 a window's rows after an accept are thrown away unscanned;
    # the non-finite ones among them are not proposals the chain made
    returned = []

    def spiky(fields):
        out = np.where(fields[..., 0] > 0.5, np.inf, steep_potential(fields))
        returned.append(int((~np.isfinite(out)).sum()))
        return out

    config = ChainConfig(steps=3000, beta=0.7, thin=10)
    diag = run_chain(spiky, np.zeros(2), gaussian_sampler(2), config,
                     np.random.default_rng(3))
    batched = sum(returned)
    want = naive_chain(spiky, np.zeros(2), gaussian_sampler(2), config,
                       np.random.default_rng(3))
    assert diag.nonfinite_proposals == want["nonfinite"] > 100
    assert batched > diag.nonfinite_proposals
    assert np.array_equal(diag.accepts_cum, want["accepts_cum"])
    assert np.array_equal(diag.final_state, want["final"])
    assert diag.final_state[0] <= 0.5


def test_chain_batches_rejection_runs_within_blocks(monkeypatch):
    # a scripted potential accepts each step with probability 0.06 whatever the
    # field: it knows which row of a call the chain accepts, and so how many
    # rows of the current innovation block remain before every call
    import klgauss.mcmc as mcmc

    dim, block, steps = 3, 50, 5000
    monkeypatch.setattr(mcmc, "_BLOCK_ELEMENTS", block * dim)
    schedule = np.random.default_rng(41).random(steps) < 0.06
    calls = []  # (rows asked for, rows left in the innovation block)
    pos = {"step": 0, "left": 0}

    def sampler(rng, size):
        assert pos["left"] == 0  # the last block was used up
        pos["left"] = size
        return rng.standard_normal((size, dim))

    def scripted(fields):
        if not calls:
            calls.append(None)  # the potential at the chain's start
            return np.zeros(1)
        rows = fields.shape[0]
        calls.append((rows, pos["left"]))
        accept = schedule[pos["step"]: pos["step"] + rows]
        # a window right after an accept assumes accepts and ends at its first
        # reject; any other window ends at its first accept
        ends = ~accept if pos["step"] and schedule[pos["step"] - 1] else accept
        used = int(np.argmax(ends)) + 1 if ends.any() else rows
        pos["step"] += used
        pos["left"] -= used
        return np.where(accept, 0.0, 1e300)

    diag = run_chain(scripted, np.zeros(dim), sampler, ChainConfig(steps, 0.6),
                     np.random.default_rng(5))
    window_calls = calls[1:]
    assert diag.acceptance_rate == schedule.mean() <= 0.1
    assert pos["step"] == steps
    assert len(window_calls) <= steps / 3
    assert all(rows <= left for rows, left in window_calls)
    assert max(rows for rows, _ in window_calls) > 8


def test_chain_batches_accept_runs_within_blocks(monkeypatch):
    # the same scripted potential accepting with probability 0.85: windows that
    # start right after an accept run ahead on accepts, and a run of accepts
    # is scored with one call, never past the end of the innovation block
    import klgauss.mcmc as mcmc

    dim, block, steps = 3, 50, 5000
    monkeypatch.setattr(mcmc, "_BLOCK_ELEMENTS", block * dim)
    schedule = np.random.default_rng(41).random(steps) < 0.85
    calls = []  # (rows asked for, rows left in the innovation block)
    pos = {"step": 0, "left": 0}

    def sampler(rng, size):
        assert pos["left"] == 0  # the last block was used up
        pos["left"] = size
        return rng.standard_normal((size, dim))

    def scripted(fields):
        if not calls:
            calls.append(None)  # the potential at the chain's start
            return np.zeros(1)
        rows = fields.shape[0]
        calls.append((rows, pos["left"]))
        accept = schedule[pos["step"]: pos["step"] + rows]
        ends = ~accept if pos["step"] and schedule[pos["step"] - 1] else accept
        used = int(np.argmax(ends)) + 1 if ends.any() else rows
        pos["step"] += used
        pos["left"] -= used
        return np.where(accept, 0.0, 1e300)

    diag = run_chain(scripted, np.zeros(dim), sampler, ChainConfig(steps, 0.6),
                     np.random.default_rng(5))
    window_calls = calls[1:]
    assert diag.acceptance_rate == schedule.mean() > 0.8
    assert pos["step"] == steps
    assert all(rows <= left for rows, left in window_calls)
    assert len(window_calls) <= steps / 2
    assert max(rows for rows, _ in window_calls) > 4
    assert diag.potential_calls == len(calls)
    assert diag.potential_rows == 1 + sum(rows for rows, _ in window_calls)


def banded_potential(scale, bad_frac, bad_value):
    """``scale |u|^2``, with ``bad_value`` on a pseudo-random ``bad_frac`` of the rows.

    Whether a row is bad depends on the row alone, so the oracle's one-row
    calls see the values a batch call does. A row whose first coordinate is
    0.5 is bad only if ``bad_frac`` exceeds 0.5.
    """
    def pot(fields):
        out = scale * np.sum(fields**2, axis=-1)
        return np.where((fields[:, 0] * 7919.0) % 1.0 < bad_frac, bad_value, out)

    return pot


@settings(max_examples=150, deadline=None, derandomize=True)
@given(dim=st.integers(1, 4), steps=st.integers(1, 400), thin=st.integers(1, 25),
       burn_frac=st.floats(0.0, 0.9),
       scale=st.just(0.0) | st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
       bad_frac=st.floats(0.0, 0.2), bad_value=st.sampled_from([np.inf, -np.inf, np.nan]),
       block_rows=st.integers(1, 80), held_rows=st.integers(1, 12),
       seed=st.integers(0, 2**32 - 1))
# an accept on a block's last row, then a reject on the next block's first row
@example(dim=1, steps=300, thin=1, burn_frac=0.1, scale=1.0, bad_frac=0.0,
         bad_value=np.inf, block_rows=3, held_rows=2, seed=1)
# blocks with no accepts between blocks with some, and non-finite rows
@example(dim=2, steps=300, thin=7, burn_frac=0.3, scale=30.0, bad_frac=0.1,
         bad_value=np.inf, block_rows=5, held_rows=3, seed=2)
# every row accepted
@example(dim=3, steps=200, thin=3, burn_frac=0.5, scale=0.0, bad_frac=0.0,
         bad_value=np.nan, block_rows=7, held_rows=4, seed=3)
def test_independent_block_scan_matches_naive_chain(dim, steps, thin, burn_frac, scale,
                                                    bad_frac, bad_value, block_rows,
                                                    held_rows, seed):
    # at beta = 1 each innovation block is decided with array comparisons; every
    # decision, probe and held state must be the oracle's, bit for bit, whatever
    # the acceptance, the non-finite rows and the block and held-state sizes.
    # The budgets are set here, not with monkeypatch: a function-scoped fixture
    # is not reset between examples.
    import klgauss.mcmc as mcmc

    args = (banded_potential(scale, bad_frac, bad_value), np.full(dim, 0.5),
            gaussian_sampler(dim))
    config = ChainConfig(steps, 1.0, thin=thin, burn_frac=burn_frac)
    budgets = mcmc._BLOCK_ELEMENTS, mcmc._HELD_ELEMENTS
    mcmc._BLOCK_ELEMENTS, mcmc._HELD_ELEMENTS = block_rows * dim, held_rows * dim
    try:
        got = run_chain(*args, config, np.random.default_rng(seed))
    finally:
        mcmc._BLOCK_ELEMENTS, mcmc._HELD_ELEMENTS = budgets
    want = naive_chain(*args, config, np.random.default_rng(seed))
    assert got.acceptance_rate == want["acceptance"]
    assert got.nonfinite_proposals == want["nonfinite"]
    assert np.array_equal(got.probe_steps, want["probe_steps"])
    assert np.array_equal(got.probe, want["probe"])
    assert np.array_equal(got.accepts_cum, want["accepts_cum"])
    assert np.array_equal(got.final_state, want["final"])
    assert got.final_potential == args[0](got.final_state[None])[0]
    assert np.allclose(got.node_mean, want["node_mean"])
    assert np.allclose(got.node_var, want["node_var"], atol=1e-12)


@pytest.mark.parametrize("seed", [61, 62, 63])
@pytest.mark.parametrize("family", ["scalar-variance", "finite-rank"])
def test_informed_independent_chain_matches_naive_chain(family, seed, monkeypatch):
    # the informed chain at beta = 1 subtracts the Gaussian part of each block
    # at once and decides the block with array comparisons; 37-row blocks and
    # a held-state budget of five rows put run ends and moment updates at and
    # across block ends
    import klgauss.mcmc as mcmc

    problem, spec = informed_case(family)
    dim = spec.mean.size
    monkeypatch.setattr(mcmc, "_BLOCK_ELEMENTS", 37 * dim)
    monkeypatch.setattr(mcmc, "_HELD_ELEMENTS", 5 * dim)
    config = ChainConfig(steps=1500, beta=1.0, thin=7, burn_frac=0.1)
    got = fit_chain(problem, spec, config, np.random.default_rng(seed))
    want = naive_chain(residual_potential(problem, spec), spec.mean,
                       partial(sample_centered, spec), config, np.random.default_rng(seed))
    assert 0.0 < got.acceptance_rate == want["acceptance"] < 1.0
    assert got.nonfinite_proposals == want["nonfinite"]
    assert np.array_equal(got.probe_steps, want["probe_steps"])
    assert np.array_equal(got.probe, want["probe"])
    assert np.array_equal(got.accepts_cum, want["accepts_cum"])
    assert np.array_equal(got.final_state, want["final"])
    assert np.allclose(got.node_mean, want["node_mean"])
    assert np.allclose(got.node_var, want["node_var"], atol=1e-12)
    oracle = residual_potential(problem, spec)(got.final_state[None])[0]
    assert got.final_potential == pytest.approx(oracle, rel=1e-9, abs=1e-12)


def knife_edge_potentials(steps, seed, mix):
    """Potentials for a ``beta = 1`` chain whose decisions sit a few ulps from the threshold.

    Returns the start's potential followed by one per step, and the number of
    steps that ``pot + log_u < held`` decides otherwise than the chain's own
    ``log_u < held - pot``. The log uniforms are the ones ``run_chain`` draws
    from ``default_rng(seed)``. Each step is a sure accept, a sure reject or,
    in proportion ``mix[2]``, within three ulps of ``held - log_u``.
    """
    log_u = np.log(np.random.default_rng(seed).spawn(2)[1].random(steps)).tolist()
    rng = np.random.default_rng(seed + 1)
    kinds = rng.choice(3, size=steps, p=mix).tolist()
    held, values, splits = 0.0, [0.0], 0
    for u, kind in zip(log_u, kinds):
        if kind == 0:
            pot = held - 1.0
        elif kind == 1:
            pot = held + 50.0
        else:
            edge = held - u
            pot = float(edge + int(rng.integers(-3, 4)) * np.spacing(edge))
        accept = u < held - pot
        splits += accept != (pot + u < held)
        held = pot if accept else held
        values.append(pot)
    return values, splits


def replayed(values):
    """A potential that returns ``values`` in order, one per row scored."""
    pos = [0]

    def pot(fields):
        out = np.asarray(values[pos[0]: pos[0] + len(fields)])
        pos[0] += len(fields)
        return out

    return pot


@pytest.mark.parametrize("mix", [(0.85, 0.05, 0.1), (0.3, 0.4, 0.3)],
                         ids=["accept-heavy", "reject-heavy"])
def test_independent_block_scan_rounds_as_the_step_by_step_chain(mix, monkeypatch):
    # the comparison must be the step's own log_u < held - pot, in the array
    # that decides the rows after an accept and in the row-by-row scan after a
    # reject alike: ``pot + log_u < held`` rounds differently. Accept-heavy
    # blocks take the search over runs of accepts, reject-heavy ones the scan
    # of every row.
    import klgauss.mcmc as mcmc

    steps, seed = 3000, 67
    values, splits = knife_edge_potentials(steps, seed, mix)
    assert splits > 10
    monkeypatch.setattr(mcmc, "_BLOCK_ELEMENTS", 64)
    config = ChainConfig(steps, 1.0, thin=1)
    got = run_chain(replayed(values), np.zeros(1), gaussian_sampler(1), config,
                    np.random.default_rng(seed))
    want = naive_chain(replayed(values), np.zeros(1), gaussian_sampler(1), config,
                       np.random.default_rng(seed))
    assert got.acceptance_rate == want["acceptance"]
    assert np.array_equal(got.accepts_cum, want["accepts_cum"])
    assert np.array_equal(got.probe, want["probe"])
    assert np.array_equal(got.final_state, want["final"])


def test_independent_chain_draws_and_scores_each_block_once(monkeypatch):
    # at beta = 1 a block is drawn once and scored with one call, whatever its
    # decisions: two and a half 40-row blocks make three draws and three calls
    import klgauss.mcmc as mcmc

    dim, block, steps = 2, 40, 100
    monkeypatch.setattr(mcmc, "_BLOCK_ELEMENTS", block * dim)
    drawn, scored = [], []

    def sampler(rng, size):
        drawn.append(size)
        return rng.standard_normal((size, dim))

    def potential(fields):
        scored.append(len(fields))
        return soft_potential(fields)

    diag = run_chain(potential, np.zeros(dim), sampler, ChainConfig(steps, 1.0, thin=10),
                     np.random.default_rng(61))
    assert 0.0 < diag.acceptance_rate < 1.0
    assert drawn == [block, block, steps - 2 * block]
    assert scored == [1, *drawn]
    assert diag.potential_calls == len(drawn) + 1
    assert diag.potential_rows == steps + 1


@pytest.mark.parametrize("beta", [1.0, 0.6])
@pytest.mark.parametrize("wrong", ["column", "scalar", "column-after-start"])
def test_potential_of_the_wrong_shape_is_refused(wrong, beta):
    # a (B, 1) potential would broadcast against the (B,) log uniforms into a
    # matrix of decisions; every call's shape is checked against (B,) instead
    calls = []

    def potential(fields):
        calls.append(len(fields))
        out = soft_potential(fields)
        if wrong == "scalar":
            return out.sum()
        return out[:, None] if wrong == "column" or len(calls) > 1 else out

    config = ChainConfig(steps=50, beta=beta)
    with pytest.raises(ValueError, match=r"potential returned shape \((\d+, 1)?\)"):
        run_chain(potential, np.zeros(2), gaussian_sampler(2), config,
                  np.random.default_rng(0))
    assert len(calls) == (2 if wrong == "column-after-start" else 1)


def test_probe_index_bounds_checked():
    config = ChainConfig(steps=10, beta=1.0, probe_index=5)
    with pytest.raises(ValueError):
        run_chain(soft_potential, np.zeros(2), gaussian_sampler(2), config,
                  np.random.default_rng(0))


def test_residual_potential_subtracts_gaussian_part():
    spec = GaussianSpec(np.array([0.1]), ScalarVariance(0.4), ScalarReference())
    problem = ScalarDoubleWell(0.05)
    pot = residual_potential(problem, spec)
    u = np.array([[0.3], [-0.5], [1.0]])
    assert np.allclose(pot(u), problem.phi(u) - GaussianPotential(spec)(u))


def test_chain_wrappers_run():
    ref = ScalarReference()
    problem = ScalarDoubleWell(0.05)
    config = ChainConfig(steps=3_000, beta=1.0, burn_frac=0.1)
    d_ref = reference_chain(problem, ref, config, np.random.default_rng(4))
    spec = GaussianSpec(np.zeros(1), ScalarVariance(0.2), ref)
    d_fit = fit_chain(problem, spec, config, np.random.default_rng(5))
    assert 0 < d_ref.acceptance_rate < 1
    assert d_fit.acceptance_rate > d_ref.acceptance_rate
    assert d_fit.probe_post_burn.size == len(
        [s for s in d_fit.probe_steps if s > d_fit.burn])


def test_autocovariance_matches_direct_sum():
    rng = np.random.default_rng(6)
    x = rng.standard_normal(200).cumsum()
    got = autocovariance(x, 10)
    xc = x - x.mean()
    want = np.array([np.sum(xc[: len(x) - k] * xc[k:]) / len(x)
                     for k in range(11)])
    assert np.allclose(got, want)
    with pytest.raises(ValueError):
        autocovariance(np.array([1.0]), 3)


def test_iact_of_ar1_matches_closed_form():
    rho = 0.6
    rng = np.random.default_rng(7)
    x = np.empty(200_000)
    x[0] = 0.0
    noise = rng.standard_normal(len(x))
    for k in range(1, len(x)):
        x[k] = rho * x[k - 1] + noise[k]
    # geometric autocorrelations give 1 + 2 rho/(1-rho) = (1+rho)/(1-rho) = 4
    assert iact(x, 200) == pytest.approx((1 + rho) / (1 - rho), rel=0.1)
    assert iact(rng.standard_normal(50_000), 100) == pytest.approx(1.0, abs=0.1)


def test_acceptance_helpers():
    y = np.array([0.5, -0.5, 2.0, -3.0])
    want = np.mean([1.0, np.exp(-0.5), 1.0, np.exp(-3.0)])
    assert expected_acceptance(y) == pytest.approx(want)

    rng = np.random.default_rng(9)
    t = 0.1 + 0.4 * rng.standard_normal(100_000)  # mean > 0, mild spread
    emp = expected_acceptance(t)
    for gamma in (0.25, 0.5, 1.0):
        assert emp >= acceptance_lower_bound(t, gamma)
    with pytest.raises(ValueError):
        acceptance_lower_bound(t, 0.0)
