"""The three structured Gaussian samplers and their exact covariances.

Every covariance family in the package has a sampler that avoids dense
factorizations: a spectral sampler for low-rank updates of a diagonal mode
covariance, and a banded-Cholesky sampler of the tridiagonal precision for
bridges with constant or varying curvature. The exact Ornstein-Uhlenbeck
recursion, which shares no code with the banded sampler, checks it on a
constant curvature. Each is checked here against its closed-form
covariance. Runs in a few seconds.
"""

import numpy as np

from klgauss import (
    BridgeReference,
    ConstantPotential,
    FiniteRank,
    GaussianSpec,
    PeriodicReference,
    VariablePotential,
    dirichlet_precision,
    sample_centered,
    sample_ou_bridge,
)

DRAWS = 200_000


def rel_fro(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def dense_path_precision(n, potential, eps):
    h = 1.0 / (n + 1)
    b = np.broadcast_to(np.asarray(potential, dtype=float), (n,))
    return h * (dirichlet_precision(n) + np.diag(b / (2.0 * eps**2)))


def empirical_cov(draws):
    c = draws - draws.mean(axis=0)
    return c.T @ c / len(draws)


print(f"== structured Gaussian samplers, {DRAWS} draws each ==")
print()

# -- spectral sampler: rank-2 update of a periodic random field --------------
ref = PeriodicReference(32, scale=1.0)
factor = np.array([[0.4, 0.15], [0.15, 0.25]])
spec = GaussianSpec(np.zeros(32), FiniteRank(factor), ref)
draws = sample_centered(spec, np.random.default_rng(31), DRAWS)
modes = ref.synth(np.eye(ref.n_modes))
coeff_cov = np.diag(np.concatenate([[0.0, 0.0], ref.lam[2:] ** 2]))
coeff_cov[:2, :2] = factor @ factor
exact = modes.T @ coeff_cov @ modes
print("finite-rank spectral sampler (periodic field, rank-2 update):")
print(f"  relative Frobenius error of the sample covariance: "
      f"{rel_fro(empirical_cov(draws), exact):.4f}")
print()

# -- OU recursion: bridge with constant curvature ----------------------------
bref = BridgeReference(24)
strength, eps = 4.0, 0.4
ou_draws = sample_ou_bridge(strength, eps, 24, np.random.default_rng(32), DRAWS)
exact_const = np.linalg.inv(dense_path_precision(24, strength, eps))
print("Ornstein-Uhlenbeck bridge recursion (constant curvature):")
print(f"  relative Frobenius error vs dense precision solve: "
      f"{rel_fro(empirical_cov(ou_draws), exact_const):.4f}")
a = np.sqrt(strength) / eps
mid = bref.t[12]
analytic_mid = 2.0 * np.sinh(a * mid) * np.sinh(a * (1 - mid)) / (a * np.sinh(a))
print(f"  midpoint variance {empirical_cov(ou_draws)[12, 12]:.5f}, "
      f"closed form 2 sinh(at) sinh(a(1-t)) / (a sinh a) = {analytic_mid:.5f}")
print()

# -- banded Cholesky sampler: bridge with varying curvature -------------------
b = 1.0 + 0.8 * np.sin(2 * np.pi * bref.t)
vp_spec = GaussianSpec(bref.mean0.copy(), VariablePotential(b, 0.35), bref)
vp_draws = sample_centered(vp_spec, np.random.default_rng(33), DRAWS)
exact_var = np.linalg.inv(dense_path_precision(24, b, 0.35))
print("banded-Cholesky bridge sampler (varying curvature):")
print(f"  relative Frobenius error vs dense precision solve: "
      f"{rel_fro(empirical_cov(vp_draws), exact_var):.4f}")
print()

# -- consistency: both bridge samplers on the same constant curvature --------
cp_spec = GaussianSpec(bref.mean0.copy(), ConstantPotential(strength, eps), bref)
cp_draws = sample_centered(cp_spec, np.random.default_rng(34), DRAWS)
print("cross-check on a shared constant-curvature target:")
print(f"  OU recursion vs banded Cholesky sample covariances differ by "
      f"{rel_fro(empirical_cov(cp_draws), empirical_cov(ou_draws)):.4f}")
