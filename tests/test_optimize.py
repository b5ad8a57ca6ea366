"""Projected stochastic descent: schedules, projections, convergence."""

import numpy as np
import pytest

from klgauss import (
    BridgeReference,
    DarcyProblem,
    FiniteRank,
    GaussianSpec,
    NonFiniteObjectiveError,
    NotACovarianceError,
    PeriodicReference,
    RMConfig,
    ScalarDoubleWell,
    ScalarReference,
    ScalarVariance,
    StepSchedule,
    VariablePotential,
    project_box,
    project_spd,
    rm_minimize,
    scalar_sigma_opt,
)


def small_config(iterations=200, **kw):
    args = dict(
        iterations=iterations,
        batch_size=50,
        schedule=StepSchedule(0.1, 0.6),
        mean_bounds=(-0.5, 0.5),
        cov_bounds=(1e-3, 1.0),
        snapshot_every=100,
    )
    args.update(kw)
    return RMConfig(**args)


def test_step_schedule():
    sched = StepSchedule(0.2, 0.75)
    assert sched.step_at(1) == pytest.approx(0.2)
    assert sched.step_at(16) == pytest.approx(0.2 * 16.0**-0.75)
    with pytest.raises(ValueError):
        StepSchedule(0.0, 0.6)
    with pytest.raises(ValueError):
        StepSchedule(0.1, 0.5)  # too slow to converge
    with pytest.raises(ValueError):
        StepSchedule(0.1, 1.1)
    with pytest.raises(ValueError):
        sched.step_at(0)


def test_rm_config_validation():
    with pytest.raises(ValueError):
        small_config(iterations=0)
    with pytest.raises(ValueError):
        small_config(batch_size=1)
    with pytest.raises(ValueError):
        small_config(mean_bounds=(1.0, -1.0))
    with pytest.raises(ValueError):
        small_config(snapshot_every=0)


def test_project_box():
    out, active = project_box(np.array([-2.0, 0.3, 5.0]), -1.0, 1.0)
    assert np.allclose(out, [-1.0, 0.3, 1.0]) and active
    out, active = project_box(0.3, 0.0, 1.0)
    assert isinstance(out, float) and out == 0.3 and not active


def test_project_spd_clamps_spectrum():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = rng.standard_normal((3, 3))
        p = project_spd(a, 0.2, 1.5)
        assert np.allclose(p, p.T)
        vals = np.linalg.eigvalsh(p)
        assert vals.min() >= 0.2 - 1e-12 and vals.max() <= 1.5 + 1e-12
        assert np.abs(project_spd(p, 0.2, 1.5) - p).max() < 1e-12  # idempotent
    sym = np.diag([0.05, 0.7, 9.0])
    assert np.allclose(project_spd(sym, 0.2, 1.5), np.diag([0.2, 0.7, 1.5]))
    with pytest.raises(ValueError):
        project_spd(np.eye(2), 1.0, 0.5)


def test_rm_scalar_converges_to_closed_form():
    eps = 0.01
    spec0 = GaussianSpec(np.array([0.25]), ScalarVariance(1.0), ScalarReference())
    final, trace = rm_minimize(
        spec0, ScalarDoubleWell(eps), small_config(iterations=2_000, batch_size=100),
        np.random.default_rng(0),
    )
    assert abs(final.mean[0]) < 0.03
    assert final.cov.sigma == pytest.approx(scalar_sigma_opt(eps), abs=0.01)
    # the recorded objective decreases from start to finish
    assert trace.dkl[-1] < 0.05 * trace.dkl[0]


def test_rm_trace_layout():
    spec0 = GaussianSpec(np.array([0.1]), ScalarVariance(0.8), ScalarReference())
    cfg = small_config(iterations=250, snapshot_every=100)
    _, trace = rm_minimize(spec0, ScalarDoubleWell(0.05), cfg,
                           np.random.default_rng(1))
    assert trace.steps == list(range(1, 251))
    assert np.allclose(trace.step_sizes,
                       [cfg.schedule.step_at(n) for n in trace.steps])
    # first row diagnoses the *incoming* parameters
    assert trace.mean_norm[0] == pytest.approx(0.1)
    assert trace.cov_summary[0] == pytest.approx(0.8)
    assert trace.snapshot_steps == [0, 100, 200, 250]
    assert all(m.shape == (1,) for m in trace.snapshot_means)
    assert all(c.shape == (1,) for c in trace.snapshot_covs)


def test_rm_projection_flags_fire_under_tight_bounds():
    spec0 = GaussianSpec(np.array([0.4]), ScalarVariance(1.0), ScalarReference())
    cfg = small_config(iterations=100, mean_bounds=(-0.02, 0.02),
                       cov_bounds=(0.3, 0.35))
    final, trace = rm_minimize(spec0, ScalarDoubleWell(0.01), cfg,
                               np.random.default_rng(2))
    assert any(p & 1 for p in trace.proj_active)  # mean box hit
    assert any(p & 2 for p in trace.proj_active)  # covariance clamp hit
    assert -0.02 <= final.mean[0] <= 0.02
    assert 0.3 <= final.cov.sigma <= 0.35


class _PoisonProblem:
    """Potential that turns non-finite once the mean moves."""

    dim = 1

    def phi(self, fields):
        out = np.sum(fields**2, axis=-1)
        return np.where(out > 1e-4, np.nan, out)

    def phi_and_grad(self, fields):
        return self.phi(fields), 2.0 * fields


def test_rm_nonfinite_carries_partial_trace():
    spec0 = GaussianSpec(np.array([0.3]), ScalarVariance(1.0), ScalarReference())
    with pytest.raises(NonFiniteObjectiveError) as info:
        rm_minimize(spec0, _PoisonProblem(), small_config(iterations=50),
                    np.random.default_rng(3))
    exc = info.value
    assert exc.iteration == 1
    assert exc.trace.snapshot_steps == [0]  # initial snapshot survives


class _CountingProblem:
    """Double-well target that counts its potential evaluations."""

    def __init__(self):
        self.inner = ScalarDoubleWell(0.01)
        self.calls = {"phi": 0, "phi_and_grad": 0}

    def phi(self, fields):
        self.calls["phi"] += 1
        return self.inner.phi(fields)

    def phi_and_grad(self, fields):
        self.calls["phi_and_grad"] += 1
        return self.inner.phi_and_grad(fields)


def test_rm_evaluates_phi_and_grad_once_per_iteration():
    problem = _CountingProblem()
    spec0 = GaussianSpec(np.array([0.2]), ScalarVariance(0.5), ScalarReference())
    rm_minimize(spec0, problem, small_config(iterations=25), np.random.default_rng(4))
    assert problem.calls == {"phi": 0, "phi_and_grad": 25}


def test_rm_finite_rank_respects_spectral_bounds():
    n, rank = 16, 2
    ref = PeriodicReference(n, 1.0)
    rng = np.random.default_rng(4)
    _, data = None, 0.4 * rng.standard_normal(4) + np.array([0.2, 0.8, 1.4, 1.8])
    problem = DarcyProblem(n, 0.2, data)
    spec0 = GaussianSpec(np.zeros(n), FiniteRank(np.diag(ref.lam[:rank])), ref)
    cfg = small_config(iterations=60, batch_size=20, mean_bounds=(-5, 5),
                       cov_bounds=(1e-4, 1.0))
    final, trace = rm_minimize(spec0, problem, cfg, np.random.default_rng(5))
    f = final.cov.factor
    assert np.allclose(f, f.T)
    vals = np.linalg.eigvalsh(f)
    assert vals.min() >= 1e-4 - 1e-12 and vals.max() <= 1.0 + 1e-12
    assert len(trace.steps) == 60


def test_rm_variable_potential_stays_in_box():
    n, eps = 15, 0.1
    t = np.arange(1, n + 1) / (n + 1)
    ref = BridgeReference(n, mean0=t)
    from klgauss import DiffusionProblem

    spec0 = GaussianSpec(t.copy(), VariablePotential(np.full(n, 2.0), eps), ref)
    cfg = small_config(iterations=60, batch_size=20, mean_bounds=(-1.0, 2.0),
                       cov_bounds=(0.5, 4.0))
    final, _ = rm_minimize(spec0, DiffusionProblem(eps, n), cfg,
                           np.random.default_rng(6))
    assert final.cov.values.min() >= 0.5
    assert final.cov.values.max() <= 4.0
    assert final.mean.min() >= -1.0 and final.mean.max() <= 2.0


def _small_darcy(n=16, rank=2):
    ref = PeriodicReference(n, 1.0)
    problem = DarcyProblem(n, 0.2, np.array([0.2, 0.8, 1.4, 1.8]))
    return GaussianSpec(np.zeros(n), FiniteRank(np.diag(ref.lam[:rank])), ref), problem


def test_darcy_rm_iteration_transforms_batch_once(monkeypatch):
    spec0, problem = _small_darcy()
    batch_size = 20
    calls = {"rfft": [], "irfft": [], "eigh": 0}

    def counting(name, fn):
        def wrapper(a, *args, **kwargs):
            calls[name].append(np.shape(a))
            return fn(a, *args, **kwargs)
        return wrapper

    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        calls["eigh"] += 1
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counting("rfft", np.fft.rfft))
    monkeypatch.setattr(np.fft, "irfft", counting("irfft", np.fft.irfft))
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    rm_minimize(spec0, problem, small_config(iterations=1, batch_size=batch_size,
                                             mean_bounds=(-5, 5), cov_bounds=(1e-4, 1.0)),
                np.random.default_rng(7))
    shapes = calls["rfft"] + calls["irfft"]
    assert sum(len(s) == 2 and s[0] == batch_size for s in shapes) == 1
    assert len(shapes) <= 5
    assert calls["eigh"] == 1


def test_rm_finite_rank_negative_spectrum_bound_is_not_a_covariance():
    # the eigenvalue clamp admits a negative spectrum under these bounds; the
    # family built from it must still refuse it
    spec0, problem = _small_darcy()
    cfg = small_config(iterations=20, batch_size=20, schedule=StepSchedule(50.0, 0.6),
                       mean_bounds=(-5, 5), cov_bounds=(-1.0, 1.0))
    with pytest.raises(NotACovarianceError):
        rm_minimize(spec0, problem, cfg, np.random.default_rng(8))
