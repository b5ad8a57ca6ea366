"""Gaussian approximation of non-Gaussian measures and proposal-informed pCN.

The package fits a Gaussian ``N(m, C)`` to a target measure given by a
density ``exp(-phi)`` against a Gaussian reference, by projected stochastic
descent on the (relative-entropy) divergence of the fit from the target.
The fitted Gaussian then drives a preconditioned Crank-Nicolson sampler
whose proposals are centred on the fit instead of the reference, which
raises acceptance rates and shortens autocorrelation times.

Layering, bottom up: :mod:`~klgauss.sampling` (exact Gaussian samplers),
:mod:`~klgauss.reference` (reference measures and grids),
:mod:`~klgauss.gaussians` (one class per covariance family),
:mod:`~klgauss.objective` (divergence estimates and gradients),
:mod:`~klgauss.optimize` (projected stochastic descent),
:mod:`~klgauss.problems` (target measures), :mod:`~klgauss.mcmc` (chains
and diagnostics), :mod:`~klgauss.cli` (command-line front end).
"""

from .errors import (
    DegenerateWeightsError,
    NonFiniteObjectiveError,
    NotACovarianceError,
)
from .gaussians import (
    ConstantPotential,
    FiniteRank,
    GaussianSpec,
    ScalarVariance,
    VariablePotential,
    cov_param_derivative,
    descent_direction_cov,
    gamma_quad,
    log_density_ratio_centered,
    make_gaussian_potential,
    phi_nu,
    project_box,
    project_spd,
    sample_centered,
)
from .mcmc import (
    ChainConfig,
    ChainDiag,
    acceptance_lower_bound,
    expected_acceptance,
    fit_chain,
    iact,
    autocovariance,
    reference_chain,
    residual_potential,
    run_chain,
)
from .objective import (
    GradientPair,
    KLEstimate,
    estimate_dkl,
    estimate_gradients,
    grad_cov,
    grad_mean,
    reduced_discrepancy,
    scalar_acceptance_asymptote,
    scalar_dkl_analytic,
    scalar_sigma_opt,
)
from .sampling import (
    FieldSample,
    ReweightedExpectation,
    indexed_sample,
    reweighted_expectation,
    require_spd,
    sample_finite_rank,
    sample_ou_bridge,
    sample_tridiagonal_precision,
)
from .optimize import (
    RMConfig,
    RMTrace,
    StepSchedule,
    rm_minimize,
)
from .problems import (
    DarcyProblem,
    DiffusionProblem,
    ScalarDoubleWell,
    darcy_true_field,
    sample_double_well,
    synthesize_darcy_data,
)
from .reference import (
    BridgeReference,
    PeriodicReference,
    ScalarReference,
    dirichlet_precision,
    fourier_eigenvalues,
    fourier_mode,
)

__version__ = "0.1.0"

__all__ = [
    "BridgeReference",
    "ChainConfig",
    "ChainDiag",
    "ConstantPotential",
    "DarcyProblem",
    "DegenerateWeightsError",
    "DiffusionProblem",
    "FiniteRank",
    "GaussianSpec",
    "GradientPair",
    "KLEstimate",
    "NonFiniteObjectiveError",
    "NotACovarianceError",
    "PeriodicReference",
    "RMConfig",
    "RMTrace",
    "ScalarDoubleWell",
    "ScalarReference",
    "FieldSample",
    "ReweightedExpectation",
    "ScalarVariance",
    "StepSchedule",
    "VariablePotential",
    "acceptance_lower_bound",
    "autocovariance",
    "cov_param_derivative",
    "darcy_true_field",
    "descent_direction_cov",
    "dirichlet_precision",
    "estimate_dkl",
    "estimate_gradients",
    "expected_acceptance",
    "fit_chain",
    "fourier_eigenvalues",
    "fourier_mode",
    "gamma_quad",
    "grad_cov",
    "grad_mean",
    "iact",
    "indexed_sample",
    "log_density_ratio_centered",
    "make_gaussian_potential",
    "phi_nu",
    "project_box",
    "project_spd",
    "reduced_discrepancy",
    "reference_chain",
    "require_spd",
    "residual_potential",
    "reweighted_expectation",
    "rm_minimize",
    "run_chain",
    "sample_centered",
    "sample_double_well",
    "sample_finite_rank",
    "sample_ou_bridge",
    "sample_tridiagonal_precision",
    "scalar_acceptance_asymptote",
    "scalar_dkl_analytic",
    "scalar_sigma_opt",
    "synthesize_darcy_data",
]
