"""Exact samplers for the Gaussian families used by the optimizer and pCN.

Three constructions, all exact in distribution on the grid:

* :func:`sample_finite_rank` -- truncated expansion on the periodic grid
  whose first ``K`` coefficients have covariance ``B @ B`` (``B`` a
  symmetric positive-definite factor) and whose tail keeps the reference
  amplitudes.
* :func:`sample_tridiagonal_precision` -- every bridge measure: banded Cholesky
  factor of its tridiagonal precision and one banded triangular solve, O(n).
* :func:`sample_ou_bridge` -- pinned Ornstein-Uhlenbeck path for a
  constant potential: a one-step autoregressive recursion in ``t`` plus a
  sinh-profile endpoint correction; the banded sampler's independent check.

:func:`reweighted_expectation` estimates expectations under a
variable-potential bridge by importance-reweighting constant-potential
paths (potential frozen at its maximum, so every weight is >= 1).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np
from scipy.linalg import LinAlgError, cholesky_banded, solve_banded

from .errors import DegenerateWeightsError, NotACovarianceError

if TYPE_CHECKING:  # reference.py imports this module for its own sampler
    from .reference import PeriodicReference

__all__ = [
    "EigenFactorization",
    "FieldSample",
    "ReweightedExpectation",
    "eigen_factorization",
    "sample_finite_rank",
    "sample_ou_bridge",
    "sample_tridiagonal_precision",
    "reweighted_expectation",
    "indexed_sample",
]


@dataclass(frozen=True)
class EigenFactorization:
    """Eigendecomposition ``matrix = vectors @ diag(values) @ vectors.T``."""

    values: np.ndarray
    vectors: np.ndarray

    def __post_init__(self) -> None:
        n = self.values.shape[0]
        if self.vectors.shape != (n, n):
            raise ValueError("eigenvector matrix shape does not match eigenvalues")
        gram = self.vectors.T @ self.vectors
        if not np.allclose(gram, np.eye(n), atol=1e-10):
            raise ValueError("eigenvectors are not orthonormal to 1e-10")

    def reconstruct(self) -> np.ndarray:
        return (self.vectors * self.values) @ self.vectors.T

    def apply_power(self, fields: np.ndarray, power: float) -> np.ndarray:
        """Apply ``matrix**power`` to rows of ``fields`` (negative powers allowed)."""
        proj = fields @ self.vectors
        return (proj * self.values**power) @ self.vectors.T


@dataclass(frozen=True)
class FieldSample:
    """A single draw together with its seed provenance."""

    values: np.ndarray
    seed: int
    index: int


@dataclass(frozen=True)
class ReweightedExpectation:
    """Self-normalized importance estimate with its weight diagnostics."""

    value: float
    weights: np.ndarray
    ess: float
    frozen_potential: float


_EIG_CACHE: OrderedDict[bytes, EigenFactorization] = OrderedDict()
_EIG_CACHE_MAX = 16


def eigen_factorization(matrix: np.ndarray, *, cache: bool = True) -> EigenFactorization:
    """Symmetric eigendecomposition with a small content-addressed cache."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    if not np.allclose(matrix, matrix.T, atol=1e-10 * max(1.0, np.abs(matrix).max())):
        raise ValueError("matrix is not symmetric")
    key = hashlib.blake2b(matrix.tobytes(), digest_size=16).digest() + bytes(
        str(matrix.shape), "ascii"
    )
    if cache and key in _EIG_CACHE:
        _EIG_CACHE.move_to_end(key)
        return _EIG_CACHE[key]
    values, vectors = np.linalg.eigh(matrix)
    fact = EigenFactorization(values=values, vectors=vectors)
    if cache:
        _EIG_CACHE[key] = fact
        while len(_EIG_CACHE) > _EIG_CACHE_MAX:
            _EIG_CACHE.popitem(last=False)
    return fact


def require_spd(fact: EigenFactorization, what: str) -> None:
    """Raise :class:`NotACovarianceError` if any eigenvalue is non-positive."""
    lo = float(fact.values.min())
    if lo <= 0.0:
        raise NotACovarianceError(
            f"{what} must be positive definite; smallest eigenvalue is {lo:.6g}"
        )


def sample_finite_rank(
    factor: np.ndarray,
    ref: PeriodicReference,
    rng: np.random.Generator,
    size: int,
) -> np.ndarray:
    """Draw fields whose first K expansion coefficients have covariance B @ B.

    Parameters
    ----------
    factor : ndarray, shape (K, K)
        Symmetric positive-definite factor ``B``; the coefficient block is
        ``B xi`` for standard normal ``xi``. Modes beyond K keep the
        reference amplitudes of ``ref``.
    ref : PeriodicReference
        Supplies the basis, the tail amplitudes and the synthesis FFT.
    size : int
        Number of independent fields; returned as shape ``(size, ref.n)``.
    """
    factor = np.asarray(factor, dtype=float)
    k = factor.shape[0]
    if factor.shape != (k, k):
        raise ValueError(f"factor must be square, got shape {factor.shape}")
    if k > ref.n_modes:
        raise ValueError(
            f"factor rank {k} exceeds the {ref.n_modes} retained modes of the grid"
        )
    fact = eigen_factorization(factor)
    require_spd(fact, "finite-rank factor")
    xi = rng.standard_normal((size, ref.n_modes))
    coeffs = np.empty_like(xi)
    coeffs[:, :k] = xi[:, :k] @ factor.T
    coeffs[:, k:] = ref.lam[k:] * xi[:, k:]
    return ref.synth(coeffs)


def _sinh_ratio(a: float, t: np.ndarray) -> np.ndarray:
    """``sinh(a t) / sinh(a)`` for t in (0, 1), stable for large ``a``."""
    return np.exp(a * (t - 1.0)) * np.expm1(-2.0 * a * t) / np.expm1(-2.0 * a)


def sample_ou_bridge(
    strength: float,
    eps: float,
    n: int,
    rng: np.random.Generator,
    size: int,
) -> np.ndarray:
    """Exact pinned paths for the constant-potential bridge measure.

    The measure has precision operator ``-(1/2) d^2/dt^2 + strength/(2 eps^2)``
    with zero boundary values. An unpinned Ornstein-Uhlenbeck path with rate
    ``a = sqrt(strength)/eps`` is generated by the stationary one-step
    recursion and pinned by subtracting the ``sinh(a t)/sinh(a)`` multiple of
    its endpoint value. Returns values at the ``n`` interior nodes,
    shape ``(size, n)``.
    """
    if strength <= 0:
        raise NotACovarianceError(f"potential strength must be positive, got {strength}")
    if eps <= 0:
        raise ValueError(f"temperature must be positive, got {eps}")
    h = 1.0 / (n + 1)
    a = np.sqrt(strength) / eps
    rho = np.exp(-a * h)
    step_sd = np.sqrt((1.0 - rho**2) / a)
    from scipy.signal import lfilter  # here: it takes most of a second to import
    noise = step_sd * rng.standard_normal((size, n + 1))
    z = lfilter([1.0], [1.0, -rho], noise, axis=-1)  # z_k = rho z_{k-1} + noise_k
    t = np.arange(1, n + 1) * h
    profile = _sinh_ratio(a, t)
    return z[:, :n] - np.outer(z[:, n], profile)


def sample_tridiagonal_precision(
    banded: np.ndarray,
    rng: np.random.Generator,
    size: int,
) -> np.ndarray:
    """Centred draws, shape ``(size, n)``, with tridiagonal SPD precision ``P``.

    ``banded`` is ``P`` in upper banded form ``(2, n)``, superdiagonal over
    diagonal. With ``P = U' U`` by banded Cholesky the draws are ``U^{-1} xi``
    for ``xi = rng.standard_normal((size, n))``, so their covariance is ``P^{-1}``.
    """
    try:
        factor = cholesky_banded(banded)
    except LinAlgError as exc:
        raise NotACovarianceError(f"precision is not positive definite: {exc}") from exc
    xi = rng.standard_normal((size, factor.shape[1]))
    return solve_banded((0, 1), factor, xi.T, check_finite=False).T


def reweighted_expectation(
    observable: Callable[[np.ndarray], np.ndarray],
    potential: np.ndarray,
    eps: float,
    rng: np.random.Generator,
    size: int,
    *,
    min_ess_fraction: float = 0.01,
) -> ReweightedExpectation:
    """Variable-potential bridge expectation via constant-potential paths.

    Paths are drawn with the potential frozen at its maximum ``b_max``; the
    density ratio to the target measure is ``exp(-Psi)`` with
    ``Psi = (1/(4 eps^2)) * integral (b - b_max) z^2 dt <= 0``, so every
    weight is at least one. Returns the self-normalized estimate of
    ``E[observable]`` along with the weights and effective sample size.
    """
    b = np.asarray(potential, dtype=float)
    n = b.shape[0]
    h = 1.0 / (n + 1)
    b_max = float(b.max())
    paths = sample_ou_bridge(b_max, eps, n, rng, size)
    psi = (h / (4.0 * eps**2)) * (paths**2 @ (b - b_max))
    with np.errstate(over="ignore"):  # overflow -> inf -> the error below
        weights = np.exp(-psi)
    if not np.all(np.isfinite(weights)):
        raise DegenerateWeightsError(
            f"non-finite importance weights; largest exponent {float(-psi.max()):.3g}"
        )
    total = weights.sum()
    ess = float(total**2 / np.sum(weights**2))
    if ess < min_ess_fraction * size:
        raise DegenerateWeightsError(
            f"effective sample size {ess:.1f} of {size} is below "
            f"{min_ess_fraction:.0%}; the potential varies too strongly"
        )
    values = np.asarray(observable(paths), dtype=float)
    return ReweightedExpectation(
        value=float(np.sum(weights * values) / total),
        weights=weights,
        ess=ess,
        frozen_potential=b_max,
    )


def indexed_sample(
    sampler: Callable[[np.random.Generator, int], np.ndarray],
    seed: int,
    index: int,
) -> FieldSample:
    """Reproduce the ``index``-th draw of ``sampler`` under ``seed``.

    ``sampler(rng, size)`` must be a batch sampler; the batch is re-generated
    up to the requested index, so this is a provenance helper, not a fast
    path.
    """
    if index < 0:
        raise ValueError(f"draw index must be non-negative, got {index}")
    rng = np.random.default_rng(seed)
    batch = sampler(rng, index + 1)
    return FieldSample(values=np.array(batch[index]), seed=seed, index=index)
