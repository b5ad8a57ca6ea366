"""Parameterized Gaussian fits against a reference measure.

A fit is a :class:`GaussianSpec`: a mean field, a covariance
parameterization, and the reference measure both live against. Four
covariance families are supported, one per target problem:

* :class:`ScalarVariance` -- ``N(m, sigma^2)`` on the real line against the
  unit normal.
* :class:`FiniteRank` -- on the periodic grid, the first ``K`` expansion
  coefficients get covariance ``B @ B`` (``B`` symmetric positive definite)
  while the tail keeps the reference spectrum.
* :class:`ConstantPotential` -- bridge measure with inverse covariance
  ``-(1/2) d^2/dt^2 + B/(2 eps^2)`` for scalar ``B``.
* :class:`VariablePotential` -- same with a per-node potential ``b(t)``.

The dispatch functions below expose exactly what the objective, the
optimizer and the samplers need: centred draws, the quadratic form
``<u, Gamma u>`` with ``Gamma = C^{-1} - C0^{-1}``, its per-sample
derivative in the covariance parameter, the preconditioned descent
direction, and the Gaussian potential used by proposal-informed pCN.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Union

import numpy as np
from scipy.linalg import solveh_banded

from .errors import NotACovarianceError
from .reference import BridgeReference, PeriodicReference, ScalarReference
from .sampling import (
    eigen_factorization,
    require_spd,
    sample_finite_rank,
    sample_tridiagonal_precision,
)

__all__ = [
    "ScalarVariance",
    "FiniteRank",
    "ConstantPotential",
    "VariablePotential",
    "CovParam",
    "GaussianSpec",
    "sample_centered",
    "gamma_quad",
    "cov_param_derivative",
    "descent_direction_cov",
    "cov_values",
    "cov_with_values",
    "theta_summary",
    "make_gaussian_potential",
    "phi_nu",
    "log_density_ratio_centered",
    "finite_rank_coefficient_derivative",
]


@dataclass(frozen=True)
class ScalarVariance:
    """Standard-deviation parameterization of a one-dimensional Gaussian."""

    sigma: float

    def __post_init__(self) -> None:
        if not self.sigma > 0:
            raise NotACovarianceError(f"sigma must be positive, got {self.sigma}")


@dataclass(frozen=True)
class FiniteRank:
    """Symmetric factor ``B`` for the leading expansion coefficients.

    The coefficient covariance of the fitted measure is ``B @ B``; the
    reference spectrum is kept beyond rank ``K = B.shape[0]``.
    """

    factor: np.ndarray

    def __post_init__(self) -> None:
        f = np.asarray(self.factor, dtype=float)
        if f.ndim != 2 or f.shape[0] != f.shape[1]:
            raise ValueError(f"factor must be square, got shape {f.shape}")
        if not np.allclose(f, f.T, atol=1e-12 * max(1.0, np.abs(f).max())):
            raise ValueError("factor must be symmetric")
        object.__setattr__(self, "factor", f)

    @property
    def rank(self) -> int:
        return self.factor.shape[0]


@dataclass(frozen=True)
class ConstantPotential:
    """Constant added potential ``strength/(2 eps^2)`` on the bridge."""

    strength: float
    eps: float

    def __post_init__(self) -> None:
        if not self.strength > 0:
            raise NotACovarianceError(f"potential strength must be positive, got {self.strength}")
        if not self.eps > 0:
            raise ValueError(f"temperature must be positive, got {self.eps}")


@dataclass(frozen=True)
class VariablePotential:
    """Per-node added potential ``values(t)/(2 eps^2)`` on the bridge.

    ``smoothing`` is the strength of the inverse-Laplacian preconditioner
    applied to the potential gradient during optimization (left boundary
    insulated, right boundary pinned).
    """

    values: np.ndarray
    eps: float
    smoothing: float = 1e-2

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1:
            raise ValueError(f"potential values must be a vector, got shape {v.shape}")
        if not np.all(v > 0):
            raise NotACovarianceError(
                f"potential must be positive everywhere; min is {float(v.min()):.6g}"
            )
        if not self.eps > 0:
            raise ValueError(f"temperature must be positive, got {self.eps}")
        if not self.smoothing > 0:
            raise ValueError(f"smoothing must be positive, got {self.smoothing}")
        object.__setattr__(self, "values", v)


CovParam = Union[ScalarVariance, FiniteRank, ConstantPotential, VariablePotential]


@dataclass(frozen=True)
class GaussianSpec:
    """A Gaussian fit: mean field, covariance parameterization, reference."""

    mean: np.ndarray
    cov: CovParam
    ref: ScalarReference | PeriodicReference | BridgeReference

    def __post_init__(self) -> None:
        m = np.asarray(self.mean, dtype=float)
        if m.shape != (self.ref.dim,):
            raise ValueError(f"mean must have shape ({self.ref.dim},), got {m.shape}")
        object.__setattr__(self, "mean", m)
        pairings = {
            ScalarVariance: ScalarReference,
            FiniteRank: PeriodicReference,
            ConstantPotential: BridgeReference,
            VariablePotential: BridgeReference,
        }
        want = pairings[type(self.cov)]
        if not isinstance(self.ref, want):
            raise ValueError(
                f"{type(self.cov).__name__} requires a {want.__name__} reference, "
                f"got {type(self.ref).__name__}"
            )
        if isinstance(self.cov, FiniteRank) and self.cov.rank > self.ref.n_modes:
            raise ValueError(
                f"rank {self.cov.rank} exceeds the {self.ref.n_modes} retained modes"
            )
        if isinstance(self.cov, VariablePotential) and self.cov.values.shape != (self.ref.dim,):
            raise ValueError(
                f"potential must have shape ({self.ref.dim},), got {self.cov.values.shape}"
            )

    def with_mean(self, mean: np.ndarray) -> "GaussianSpec":
        return replace(self, mean=np.asarray(mean, dtype=float))

    def with_cov(self, cov: CovParam) -> "GaussianSpec":
        return replace(self, cov=cov)


# ---------------------------------------------------------------------------
# sampling


def sample_centered(spec: GaussianSpec, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` centred fields from the fitted covariance, shape (size, dim)."""
    cov, ref = spec.cov, spec.ref
    if isinstance(cov, ScalarVariance):
        return cov.sigma * rng.standard_normal((size, 1))
    if isinstance(cov, FiniteRank):
        return sample_finite_rank(cov.factor, ref, rng, size)
    precision = ref.path_precision_banded(cov_values(cov), cov.eps)
    return sample_tridiagonal_precision(precision, rng, size)


# ---------------------------------------------------------------------------
# quadratic form <u, Gamma u> and its parameter derivative


def _finite_rank_gamma(cov: FiniteRank, ref: PeriodicReference) -> np.ndarray:
    fact = eigen_factorization(cov.factor)
    require_spd(fact, "finite-rank factor")
    b_inv2 = (fact.vectors / fact.values**2) @ fact.vectors.T
    return b_inv2 - np.diag(1.0 / ref.lam2[: cov.rank])


def gamma_quad(spec: GaussianSpec, u: np.ndarray) -> np.ndarray:
    """``<u, Gamma u>`` with ``Gamma = C^{-1} - C0^{-1}``, batched over rows."""
    cov, ref = spec.cov, spec.ref
    u = np.asarray(u, dtype=float)
    if isinstance(cov, ScalarVariance):
        return (1.0 / cov.sigma**2 - 1.0) * np.sum(u * u, axis=-1)
    if isinstance(cov, FiniteRank):
        v = ref.coeffs(u)[..., : cov.rank]
        gm = _finite_rank_gamma(cov, ref)
        return np.einsum("...i,ij,...j->...", v, gm, v)
    return (0.5 / cov.eps**2) * ref.h * np.sum(cov_values(cov) * u * u, axis=-1)


def cov_param_derivative(spec: GaussianSpec, u: np.ndarray) -> np.ndarray:
    """Per-sample derivative of ``-(1/2) <u, Gamma u>`` in the covariance parameter.

    This is the parameter derivative of the reduced discrepancy; shapes are
    ``(B,)`` for the scalar families, ``(B, K, K)`` for the finite-rank
    factor and ``(B, n)`` for the variable potential.
    """
    cov, ref = spec.cov, spec.ref
    u = np.atleast_2d(np.asarray(u, dtype=float))
    if isinstance(cov, ScalarVariance):
        return np.sum(u * u, axis=-1) / cov.sigma**3
    if isinstance(cov, FiniteRank):
        fact = eigen_factorization(cov.factor)
        require_spd(fact, "finite-rank factor")
        v = ref.coeffs(u)[:, : cov.rank]
        a = fact.apply_power(v, -1.0)
        c = fact.apply_power(v, -2.0)
        outer = np.einsum("bi,bj->bij", a, c)
        return 0.5 * (outer + outer.transpose(0, 2, 1))
    if isinstance(cov, ConstantPotential):
        return -(0.25 / cov.eps**2) * ref.h * np.sum(u * u, axis=-1)
    return -(0.25 / cov.eps**2) * u * u


def finite_rank_coefficient_derivative(factor: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """Factor derivative of the Gaussian potential ``(1/2) v' (B^-2 - L^-2) v``.

    Returns ``-(1/2)(B^{-1} v (B^{-2} v)' + B^{-2} v (B^{-1} v)')`` for a
    single coefficient vector ``v``; this is minus the per-sample derivative
    of the reduced discrepancy restricted to the leading block.
    """
    fact = eigen_factorization(np.asarray(factor, dtype=float))
    require_spd(fact, "finite-rank factor")
    v = np.atleast_2d(np.asarray(coeff, dtype=float))
    a = fact.apply_power(v, -1.0)
    c = fact.apply_power(v, -2.0)
    outer = np.einsum("bi,bj->bij", a, c)
    out = -0.5 * (outer + outer.transpose(0, 2, 1))
    return out[0] if np.asarray(coeff).ndim == 1 else out


# ---------------------------------------------------------------------------
# preconditioned covariance updates


def descent_direction_cov(spec: GaussianSpec, cov_term: np.ndarray | float):
    """Apply the family's preconditioner to the raw covariance gradient term.

    Scalar variance and constant potential use the identity; the finite-rank
    factor is scaled by the smallest retained reference amplitude; the
    variable potential is smoothed by an inverse Laplacian and regularized
    by adding the current potential back.
    """
    cov, ref = spec.cov, spec.ref
    if isinstance(cov, (ScalarVariance, ConstantPotential)):
        return float(cov_term)
    if isinstance(cov, FiniteRank):
        return ref.lam[ref.n_modes - 1] * np.asarray(cov_term, dtype=float)
    smoother = np.array([np.full(ref.dim, -1.0), np.full(ref.dim, 2.0)])  # banded -d^2/dt^2
    smoother[1, 0] = 1.0  # insulated (Neumann) left end; the right end stays pinned
    return solveh_banded(cov.smoothing / ref.h**2 * smoother, cov_term) + cov.values


def cov_values(cov: CovParam) -> np.ndarray | float:
    """Raw parameter content of a covariance parameterization."""
    if isinstance(cov, ScalarVariance):
        return cov.sigma
    if isinstance(cov, FiniteRank):
        return cov.factor
    if isinstance(cov, ConstantPotential):
        return cov.strength
    return cov.values


def cov_with_values(cov: CovParam, values: np.ndarray | float) -> CovParam:
    """Rebuild a covariance parameterization around new raw values."""
    if isinstance(cov, ScalarVariance):
        return ScalarVariance(sigma=float(values))
    if isinstance(cov, FiniteRank):
        return FiniteRank(factor=np.asarray(values, dtype=float))
    if isinstance(cov, ConstantPotential):
        return ConstantPotential(strength=float(values), eps=cov.eps)
    return VariablePotential(values=np.asarray(values, dtype=float), eps=cov.eps,
                             smoothing=cov.smoothing)


def theta_summary(cov: CovParam) -> float:
    """One scalar summarizing the covariance parameter for trace output."""
    if isinstance(cov, ScalarVariance):
        return cov.sigma
    if isinstance(cov, FiniteRank):
        return float(np.linalg.norm(cov.factor))
    if isinstance(cov, ConstantPotential):
        return cov.strength
    return float(cov.values.mean())


# ---------------------------------------------------------------------------
# Gaussian potential for proposal-informed pCN


def phi_nu(spec: GaussianSpec, u: np.ndarray) -> np.ndarray:
    """Potential of the fit against the reference, batched over rows of ``u``.

    ``phi_nu(u) = -<u - m, C0^{-1}(m - m0)> + (1/2) <u - m, Gamma (u - m)>
    - (1/2) |m - m0|^2_{C0}`` -- the log-density of the reference relative
    to the fit, up to the (dropped) normalizing constants.
    """
    return make_gaussian_potential(spec)(u)


def make_gaussian_potential(spec: GaussianSpec) -> Callable[[np.ndarray], np.ndarray]:
    """Precompute the static pieces of :func:`phi_nu` for tight chain loops."""
    ref = spec.ref
    shift = ref.precision_apply(spec.mean - ref.mean0)
    const = -0.5 * float(ref.cm_norm_sq(spec.mean - ref.mean0))
    mean = spec.mean

    def potential(u: np.ndarray) -> np.ndarray:
        w = np.asarray(u, dtype=float) - mean
        return -ref.inner(w, shift) + 0.5 * gamma_quad(spec, w) + const

    return potential


def log_density_ratio_centered(
    num: GaussianSpec, den: GaussianSpec, u: np.ndarray
) -> np.ndarray:
    """Unnormalized log density ratio of two centred fits at the rows of ``u``.

    Both specs must share a reference; the ratio of their centred measures
    is ``exp((1/2)(<u, Gamma_den u> - <u, Gamma_num u>))`` up to a constant.
    """
    if num.ref is not den.ref:
        raise ValueError("density ratio requires fits on the same reference")
    return 0.5 * (gamma_quad(den, u) - gamma_quad(num, u))
