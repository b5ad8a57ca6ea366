"""Each output check passes on right inputs and fails on a wrong one.

Run from the repository root::

    python3 -m pytest -q perfbench/test_checks.py
"""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import sqrtm

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import klgauss  # noqa: E402

EPS = 0.01


def test_sigma2_closed_form():
    s2 = checks.scalar_sigma2_opt(EPS)
    assert np.isclose(12 * s2**2 + s2, EPS, rtol=1e-14, atol=0)
    assert checks.check_sigma2(np.sqrt(s2), EPS)[0]
    assert not checks.check_sigma2(np.sqrt(1.2 * s2), EPS)[0]


def test_mean_bound():
    assert checks.check_abs_at_most(0.003, 0.02, "m")[0]
    assert not checks.check_abs_at_most(-0.05, 0.02, "m")[0]


@pytest.mark.parametrize("factor, ref, fit, ok", [
    (5.0, 0.12, 0.98, True), (5.0, 0.12, 0.50, False),
    (2.0, 0.11, 0.86, True), (2.0, 0.11, 0.20, False), (2.0, 0.0, 0.5, False),
])
def test_accept_ratio(factor, ref, fit, ok):
    assert checks.check_accept_ratio(ref, fit, factor)[0] is ok


def _double_well_draws(rng, size):
    """Rejection from N(0, eps): the target is the envelope times exp(-x^4/eps)."""
    x = rng.normal(0.0, np.sqrt(EPS), 3 * size)
    x = x[rng.random(x.size) < np.exp(-x**4 / EPS)]
    return x[:size]


def test_chain_variance():
    rng = np.random.default_rng(3)
    n = 36000
    right = _double_well_draws(rng, n)
    assert right.size == n
    assert checks.check_chain_variance(right.var(), 1.0, n, EPS)[0]
    # sigma = sqrt(eps): the Gaussian that drops the quartic term
    wrong = rng.normal(0.0, np.sqrt(EPS), n)
    assert not checks.check_chain_variance(wrong.var(), 1.0, n, EPS)[0]


@pytest.mark.parametrize("which", ["darcy", "diffusion"])
def test_gradient_fd(which):
    rng = np.random.default_rng(4)
    if which == "darcy":
        n = 128
        problem = klgauss.DarcyProblem(n, 0.1, np.array([0.3, 0.7, 1.1, 1.5]))
        point, weight = 0.3 * rng.standard_normal(n), 1.0 / n
    else:
        n = 255
        problem = klgauss.DiffusionProblem(0.05, n)
        point, weight = np.arange(1, n + 1) / (n + 1), 1.0 / (n + 1)
    assert checks.check_gradient_fd(problem.phi, problem.grad_phi, point, weight, rng)[0]
    scaled = lambda u: 1.2 * problem.grad_phi(u)  # noqa: E731
    assert not checks.check_gradient_fd(problem.phi, scaled, point, weight, rng)[0]


def test_factor_spectrum():
    good = np.array([[0.10, 0.01], [0.01, 0.09]])
    assert checks.check_factor_spectrum(good, 1e-4, 1.0)[0]
    assert not checks.check_factor_spectrum(good + np.array([[0, 1e-3], [0, 0]]), 1e-4, 1.0)[0]
    assert not checks.check_factor_spectrum(20.0 * good, 1e-4, 1.0)[0]
    assert not checks.check_factor_spectrum(good, 0.095, 1.0)[0]


def test_finite_rank_draws():
    ref = klgauss.PeriodicReference(128, 1.0)
    factor = np.array([[0.30, 0.05], [0.05, 0.20]])
    draws = klgauss.sample_finite_rank(factor, ref, np.random.default_rng(5), 4000)
    assert checks.check_finite_rank_draws(draws, factor, 1.0)[0]
    # the covariance scaled by 1.2
    assert not checks.check_finite_rank_draws(np.sqrt(1.2) * draws, factor, 1.0)[0]
    # draws whose leading block has covariance B, not B @ B
    assert not checks.check_finite_rank_draws(draws, sqrtm(factor).real, 1.0)[0]


def test_bridge_functionals():
    n, eps = 255, 0.05
    ref = klgauss.BridgeReference(n)
    potential = 2.0 + np.sin(2 * np.pi * ref.t)
    spec = klgauss.GaussianSpec(ref.mean0.copy(), klgauss.VariablePotential(potential, eps), ref)
    draws = klgauss.sample_centered(spec, np.random.default_rng(6), 4000)
    rng = np.random.default_rng(7)
    assert checks.check_bridge_functionals(draws, potential, eps, rng)[0]
    assert not checks.check_bridge_functionals(np.sqrt(1.2) * draws, potential, eps, rng)[0]
    assert not checks.check_bridge_functionals(draws, 2.0 * potential, eps, rng)[0]


def test_within_and_finite():
    assert checks.check_within([0.5, 9.9], 0.001, 10.0, "potential")[0]
    assert not checks.check_within([0.5, 10.1], 0.001, 10.0, "potential")[0]
    assert not checks.check_within([0.5, np.nan], 0.001, 10.0, "potential")[0]
    assert checks.check_all_finite({"a": np.ones(3)}, "trace")[0]
    assert not checks.check_all_finite({"a": np.array([1.0, np.inf, 2.0])}, "trace")[0]


def test_manifest(tmp_path):
    (tmp_path / "a.csv").write_text("x\n1\n")
    digest = hashlib.sha256(b"x\n1\n").hexdigest()
    (tmp_path / "manifest_compare.json").write_text(json.dumps({"outputs": {"a.csv": digest}}))
    assert checks.check_manifest(tmp_path)[0]
    (tmp_path / "a.csv").write_text("x\n2\n")
    assert not checks.check_manifest(tmp_path)[0]


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scalar", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
