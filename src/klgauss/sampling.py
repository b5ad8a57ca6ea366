"""Exact samplers for the bridge measures, below the reference and the families.

Two constructions, both exact in distribution on the grid:

* :func:`sample_tridiagonal_precision` -- every bridge measure: banded Cholesky
  factor of its tridiagonal precision and one banded triangular solve, O(n).
* :func:`sample_ou_bridge` -- pinned Ornstein-Uhlenbeck path for a
  constant potential: a one-step autoregressive recursion in ``t`` plus a
  sinh-profile endpoint correction; the banded sampler's independent check.

The periodic grid's finite-rank draws belong to their family,
:class:`klgauss.gaussians.FiniteRank`; ``sample_finite_rank`` lives beside it.

scipy is imported inside the functions that call it, so importing this
module loads numpy only; ``scipy.linalg`` loads on the first banded draw.
"""

from __future__ import annotations

import numpy as np

from .errors import NotACovarianceError

__all__ = [
    "sample_ou_bridge",
    "sample_tridiagonal_precision",
]


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
    from scipy.signal import lfilter  # in the function, like every scipy import here
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
    from scipy.linalg import cholesky_banded, solve_banded
    try:
        factor = cholesky_banded(banded)
    except np.linalg.LinAlgError as exc:  # the class scipy.linalg raises
        raise NotACovarianceError(f"precision is not positive definite: {exc}") from exc
    xi = rng.standard_normal((size, factor.shape[1]))
    return solve_banded((0, 1), factor, xi.T, check_finite=False).T
