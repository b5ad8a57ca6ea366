"""Monte Carlo divergence estimates and their parameter gradients.

Everything here works with the *reduced discrepancy* of a fitted Gaussian
against a target: for a centred sample ``u`` from the fit,

    delta0(u) = phi(u + m) - (1/2) <u, Gamma u>,

where ``phi`` is the target's potential against the reference measure and
``Gamma = C^{-1} - C0^{-1}``. Up to the target's log partition function the
divergence of the fit from the target splits into the expectation of
``delta0``, a Cameron-Martin mean-shift penalty, and a log partition term
of the fit, each estimated from a single shared batch.

Gradients use the score-function form: the covariance-parameter gradient is
the batch covariance of ``delta0`` with its per-sample parameter derivative,
and the mean gradient averages the target's field gradient. With a frozen
batch and importance reweighting toward a perturbed covariance (see
``base=`` below) these are *exactly* the derivatives of
:func:`estimate_dkl`, which is what the finite-difference tests check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .gaussians import (
    GaussianSpec,
    cov_param_derivative,
    gamma_quad,
    log_density_ratio_centered,
    sample_centered,
)

__all__ = [
    "KLEstimate",
    "GradientPair",
    "reduced_discrepancy",
    "estimate_dkl",
    "estimate_gradients",
    "grad_mean",
    "grad_cov",
    "scalar_sigma_opt",
    "scalar_dkl_analytic",
    "scalar_acceptance_asymptote",
]

SHIFT_WARN_THRESHOLD = 30.0


@dataclass(frozen=True)
class KLEstimate:
    """One Monte Carlo divergence estimate, split into its three terms.

    ``value = discrepancy + mean_shift + log_partition`` estimates the
    divergence of the fit from the target up to the target's log partition
    function (so it can be negative). ``shift`` is the largest exponent
    seen inside the log-partition average; when it is large the batch is
    dominated by a few samples and the estimate is untrustworthy.
    """

    value: float
    discrepancy: float
    mean_shift: float
    log_partition: float
    stderr: float
    shift: float
    n_samples: int

    @property
    def shift_warning(self) -> bool:
        return self.shift > SHIFT_WARN_THRESHOLD


@dataclass(frozen=True)
class GradientPair:
    """Raw divergence gradients from one shared batch.

    ``mean`` is the gradient field in the flat inner product of the grid
    (pair it with a direction via ``ref.inner``); ``cov`` matches the shape
    of the covariance parameter. ``estimate`` is the divergence estimate
    from the same batch.
    """

    mean: np.ndarray
    cov: np.ndarray | float
    estimate: KLEstimate


def reduced_discrepancy(spec: GaussianSpec, problem, u: np.ndarray) -> np.ndarray:
    """``phi(u + m) - (1/2) <u, Gamma u>`` for centred rows ``u``."""
    return _discrepancy(spec, problem, np.asarray(u, dtype=float))[0]


def _discrepancy(spec: GaussianSpec, problem, u: np.ndarray):
    """Reduced discrepancies of the rows of ``u`` and their ``<u, Gamma u>``."""
    quad = gamma_quad(spec, u)
    return problem.phi(u + spec.mean) - 0.5 * quad, quad


def _normalized_log_weights(spec: GaussianSpec, base: GaussianSpec | None,
                            batch: np.ndarray) -> np.ndarray:
    if base is None or base.cov is spec.cov:
        return np.full(batch.shape[0], -np.log(batch.shape[0]))
    logw = log_density_ratio_centered(spec, base, batch)
    logw = logw - logw.max()
    return logw - np.log(np.exp(logw).sum())


def estimate_dkl(
    spec: GaussianSpec,
    problem,
    n_samples: int | None = None,
    rng: np.random.Generator | None = None,
    *,
    batch: np.ndarray | None = None,
    base: GaussianSpec | None = None,
) -> KLEstimate:
    """Estimate the divergence of the fit from the target, up to log Z.

    Either draw a fresh centred batch (``n_samples`` + ``rng``) or reuse a
    frozen one (``batch``). When the frozen batch was drawn under a
    different covariance, pass that fit as ``base``: the batch is then
    importance-reweighted to the current one, which keeps the estimate a
    smooth function of the covariance parameter on a fixed batch.
    """
    if batch is None:
        if n_samples is None or rng is None:
            raise ValueError("need n_samples and rng when no batch is supplied")
        batch = sample_centered(spec, rng, n_samples)
    else:
        batch = np.atleast_2d(np.asarray(batch, dtype=float))
    delta0, quad = _discrepancy(spec, problem, batch)
    return _kl_estimate(spec, _normalized_log_weights(spec, base, batch), delta0, quad)


def _kl_estimate(spec: GaussianSpec, logw: np.ndarray, delta0: np.ndarray,
                 quad: np.ndarray) -> KLEstimate:
    """The divergence terms from log weights, reduced discrepancies and ``<u, Gamma u>``."""
    w = np.exp(logw)
    disc = float(w @ delta0)
    se_disc = float(np.sqrt(np.sum(w**2 * (delta0 - disc) ** 2)))

    shift_term = 0.5 * float(spec.ref.cm_norm_sq(spec.mean - spec.ref.mean0))

    g = 0.5 * quad + logw
    gmax = float(g.max())
    r = np.exp(g - gmax)
    log_partition = gmax + float(np.log(r.sum()))
    # delta-method spread of log sum exp(g): relative spread of the summands
    se_lp = float(np.sqrt(np.sum((r / r.sum() - 1.0 / len(r)) ** 2)))

    return KLEstimate(
        value=disc + shift_term + log_partition,
        discrepancy=disc,
        mean_shift=shift_term,
        log_partition=log_partition,
        stderr=float(np.hypot(se_disc, se_lp)),
        shift=gmax,
        n_samples=len(delta0),
    )


def estimate_gradients(spec: GaussianSpec, problem, batch: np.ndarray) -> GradientPair:
    """Mean and covariance gradients from one shared centred batch.

    The mean gradient is ``mean(grad_phi(u + m)) + C0^{-1}(m - m0)`` as a
    field; the covariance gradient is the batch covariance (1/M
    normalization) of the reduced discrepancy with its per-sample parameter
    derivative. Both are exact derivatives of :func:`estimate_dkl` on the
    same frozen batch (the covariance one under ``base=`` reweighting),
    whose value on this batch comes along from the same ``phi`` evaluation.
    """
    batch = np.atleast_2d(np.asarray(batch, dtype=float))
    m_field = problem.grad_phi(batch + spec.mean).mean(axis=0)
    m_field = m_field + spec.ref.precision_apply(spec.mean - spec.ref.mean0)

    delta0, quad = _discrepancy(spec, problem, batch)
    dtheta = cov_param_derivative(spec, batch)
    centered = delta0 - delta0.mean()
    if dtheta.ndim == 1:
        cov_term = float(np.mean(centered * (dtheta - dtheta.mean())))
    else:
        dc = dtheta - dtheta.mean(axis=0)
        cov_term = np.tensordot(centered, dc, axes=(0, 0)) / batch.shape[0]

    return GradientPair(
        mean=m_field,
        cov=cov_term,
        estimate=_kl_estimate(spec, _normalized_log_weights(spec, None, batch), delta0, quad),
    )


def grad_mean(spec: GaussianSpec, problem, batch: np.ndarray) -> np.ndarray:
    """Mean-parameter gradient field on a frozen centred batch."""
    return estimate_gradients(spec, problem, batch).mean


def grad_cov(spec: GaussianSpec, problem, batch: np.ndarray) -> np.ndarray | float:
    """Covariance-parameter gradient on a frozen centred batch."""
    return estimate_gradients(spec, problem, batch).cov


# ---------------------------------------------------------------------------
# closed forms for the one-dimensional double-well target


def scalar_sigma_opt(eps: float) -> float:
    """Optimal fitted standard deviation for the double-well target.

    The stationarity condition ``12 s^4 + s^2 - eps = 0`` gives
    ``s^2 = (sqrt(1 + 48 eps) - 1) / 24``.
    """
    return float(np.sqrt((np.sqrt(1.0 + 48.0 * eps) - 1.0) / 24.0))


def scalar_dkl_analytic(m: float, sigma: float, eps: float, *,
                        absolute: bool = False) -> float:
    """Divergence of ``N(m, sigma^2)`` from the double-well target.

    By default this is the same "up to log Z" quantity that
    :func:`estimate_dkl` targets; with ``absolute=True`` the target's
    partition function is integrated numerically and added back, giving
    the true divergence.
    """
    if sigma <= 0 or eps <= 0:
        raise ValueError("sigma and eps must be positive")
    poly = 2.0 * m**4 + m**2 + 12.0 * m**2 * sigma**2 + sigma**2 + 6.0 * sigma**4
    value = poly / (2.0 * eps) - 0.5 - np.log(sigma)
    if absolute:
        z, _ = quad(lambda x: np.exp(-(x**4 + 0.5 * x**2) / eps), -np.inf, np.inf)
        value += np.log(z) - 0.5 * np.log(2.0 * np.pi)
    return float(value)


def scalar_acceptance_asymptote(eps: float) -> float:
    """Small-temperature limit of the reference-proposal acceptance rate.

    For the double-well target at temperature ``eps`` the independence
    sampler driven by the *reference* measure accepts at asymptotic rate
    ``(4/pi) arctan(sqrt(eps))`` as ``eps -> 0``.
    """
    return float(4.0 / np.pi * np.arctan(np.sqrt(eps)))
