"""Independent references the tests check the package against.

No command runs these: each is a second construction of something the
package computes another way, kept here so the tests can compare the two.

* :func:`sample_double_well` -- exact double-well draws by rejection (C05).
* :func:`expected_acceptance` and :func:`acceptance_lower_bound` -- the mean
  acceptance of log-ratio samples and its lower bound (C04).
* :func:`fourier_mode` -- the orthonormal Fourier basis in closed form.
* :func:`reduced_discrepancy` -- ``phi(u + m) - (1/2) <u, Gamma u>`` through
  ``phi`` and the family's ``quad``, beside the ``phi_and_grad`` and
  ``quad_coords`` route of :func:`klgauss.estimate_gradients`.
* :func:`sample_ou_bridge` -- pinned Ornstein-Uhlenbeck paths for a constant
  potential, which share no code with the banded bridge sampler (C07).
"""

from __future__ import annotations

import numpy as np

from klgauss import GaussianSpec, NotACovarianceError


def sample_double_well(eps: float, rng: np.random.Generator, size: int) -> np.ndarray:
    """Exact draws from the double-well target by rejection from ``N(0, eps)``.

    The envelope density differs from the target by the factor
    ``exp(-x^4/eps) <= 1``, which at small temperature accepts nearly
    everything (about 97% at ``eps = 0.01``).
    """
    if not eps > 0:
        raise ValueError(f"temperature must be positive, got {eps}")
    out = np.empty(size)
    got = 0
    while got < size:
        ask = max(1024, int(1.1 * (size - got)))
        x = rng.normal(0.0, np.sqrt(eps), ask)
        keep = x[rng.random(ask) < np.exp(-(x**4) / eps)]
        take = min(keep.size, size - got)
        out[got: got + take] = keep[:take]
        got += take
    return out


def expected_acceptance(log_ratios: np.ndarray) -> float:
    """Monte Carlo mean of ``min(1, exp(Y))`` from log-ratio samples."""
    y = np.asarray(log_ratios, dtype=float)
    return float(np.mean(np.exp(np.minimum(y, 0.0))))


def acceptance_lower_bound(log_ratios: np.ndarray, gamma: float) -> float:
    """Lower bound ``exp(-gamma) (1 - E|Y|/gamma)`` on the mean acceptance.

    Valid for any ``gamma > 0`` whenever the log acceptance ratio ``Y``
    has ``E[Y] >= 0`` under proposal-from-target sampling; tight as the
    fit approaches the target (``E|Y| -> 0``).
    """
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    y = np.asarray(log_ratios, dtype=float)
    return float(np.exp(-gamma) * (1.0 - np.mean(np.abs(y)) / gamma))


def fourier_mode(mode: int, x: np.ndarray) -> np.ndarray:
    """Evaluate the ``mode``-th orthonormal Fourier basis function on ``x``.

    ``sqrt(2) sin(2 pi k x)`` for odd mode numbers, ``sqrt(2) cos(2 pi k x)``
    for even ones, with ``k = ceil(mode / 2)``.
    """
    if mode < 1:
        raise ValueError(f"mode numbers start at 1, got {mode}")
    k = (mode + 1) // 2
    phase = 2.0 * np.pi * k * np.asarray(x)
    if mode % 2 == 1:
        return np.sqrt(2.0) * np.sin(phase)
    return np.sqrt(2.0) * np.cos(phase)


def reduced_discrepancy(spec: GaussianSpec, problem, u: np.ndarray) -> np.ndarray:
    """``phi(u + m) - (1/2) <u, Gamma u>`` for centred rows ``u``."""
    u = np.asarray(u, dtype=float)
    return problem.phi(u + spec.mean) - 0.5 * spec.cov.quad(spec.ref, u)


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
    from scipy.signal import lfilter
    noise = step_sd * rng.standard_normal((size, n + 1))
    z = lfilter([1.0], [1.0, -rho], noise, axis=-1)  # z_k = rho z_{k-1} + noise_k
    t = np.arange(1, n + 1) * h
    profile = _sinh_ratio(a, t)
    return z[:, :n] - np.outer(z[:, n], profile)
