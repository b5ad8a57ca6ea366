"""Monte Carlo divergence estimates and their parameter gradients.

Everything here works with the *reduced discrepancy* of a fitted Gaussian
against a target: for a centred sample ``u`` from the fit,

    delta0(u) = phi(u + m) - (1/2) <u, Gamma u>,

where ``phi`` is the target's potential against the reference measure and
``Gamma = C^{-1} - C0^{-1}``. Up to the target's log partition function the
divergence of the fit from the target splits into the expectation of
``delta0``, the Cameron-Martin mean-shift penalty ``(1/2) <m - m0, shift>``
with ``shift = C0^{-1}(m - m0)``, and a log partition term of the fit; the
first and last are estimated from a single shared batch. One path reads
those terms off a batch, :func:`estimate_gradients`; :func:`estimate_dkl` is
the estimate it makes. One row-batched formula computes the estimate from
the terms, for a block of batches at once: on one batch for
:func:`estimate_dkl`, and on a block of iterations for the optimizer.

Gradients use the score-function form: the covariance-parameter gradient is
the batch covariance of ``delta0`` with its per-sample parameter derivative,
and the mean gradient averages the target's field gradient, both from one
``phi_and_grad`` call on the batch. With a frozen batch reweighted by the
density ratio of the perturbed fit to the one it was drawn from (see
``base=`` below) these are *exactly* the derivatives of
:func:`estimate_dkl`, which is what the finite-difference tests check.
:func:`estimate_gradients` returns the estimate's terms with the gradients,
and computes the estimate itself only when asked for it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussians import GaussianSpec, sample_centered

__all__ = [
    "KLEstimate",
    "GradientPair",
    "estimate_dkl",
    "estimate_gradients",
    "uniform_weights",
    "scalar_sigma_opt",
    "scalar_dkl_analytic",
    "scalar_acceptance_asymptote",
]

@dataclass(frozen=True)
class KLEstimate:
    """One Monte Carlo divergence estimate, split into its three terms.

    ``value = discrepancy + mean_shift + log_partition`` estimates the
    divergence of the fit from the target up to the target's log partition
    function (so it can be negative).
    """

    value: float
    discrepancy: float
    mean_shift: float
    log_partition: float
    stderr: float
    n_samples: int


@dataclass(frozen=True)
class GradientPair:
    """Raw divergence gradients from one shared batch, with the terms of the
    batch's divergence estimate.

    ``mean`` is the gradient field in the flat inner product of the grid
    (pair it with a direction via ``ref.inner``); ``cov`` matches the shape
    of the covariance parameter. ``delta0``, ``quad``, ``mean_shift`` and
    ``weights`` are the batch's reduced discrepancies, its ``<u, Gamma u>``,
    the mean-shift penalty and the ``(log weights, weights)`` pair: what the
    divergence estimate is computed from. :attr:`estimate` computes it on
    demand; the optimizer computes it for a block of iterations at a time.
    """

    mean: np.ndarray
    cov: np.ndarray | float
    delta0: np.ndarray
    quad: np.ndarray
    mean_shift: float
    weights: tuple[np.ndarray, np.ndarray]

    @property
    def estimate(self) -> KLEstimate:
        """The divergence estimate from the same batch."""
        return _one_estimate(self.weights, self.delta0, self.quad, self.mean_shift)


def uniform_weights(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Log weights and weights of a batch of ``size`` equally weighted rows.

    They depend only on the batch size, so a caller that estimates on many
    batches of one size builds them once and passes them on.
    """
    logw = np.full(size, -np.log(size))
    return logw, np.exp(logw)


def _normalized_weights(spec: GaussianSpec, base: GaussianSpec | None,
                        batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Log weights and weights of a batch drawn under ``base``'s covariance,
    toward ``spec``'s: the normalized density ratio of the two centred fits,
    ``exp((1/2)(<u, Gamma_base u> - <u, Gamma_spec u>))`` up to a constant."""
    if base is None or base.cov is spec.cov:
        return uniform_weights(batch.shape[0])
    if base.ref is not spec.ref:
        raise ValueError("density ratio requires fits on the same reference")
    logw = 0.5 * (base.cov.quad(base.ref, batch) - spec.cov.quad(spec.ref, batch))
    logw = logw - logw.max()
    logw = logw - np.log(np.exp(logw).sum())
    return logw, np.exp(logw)


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
    The estimate is the one :func:`estimate_gradients` makes on the batch.
    """
    if batch is None:
        if n_samples is None or rng is None:
            raise ValueError("need n_samples and rng when no batch is supplied")
        batch = sample_centered(spec, rng, n_samples)
    else:
        batch = np.atleast_2d(np.asarray(batch, dtype=float))
    weights = _normalized_weights(spec, base, batch)
    return estimate_gradients(spec, problem, batch, weights=weights).estimate


def _mean_shift(ref, diff: np.ndarray, shift: np.ndarray) -> float:
    """The mean-shift penalty ``(1/2) <m - m0, shift>`` from ``diff = m - m0``
    and its shift ``C0^{-1}(m - m0)``."""
    return 0.5 * float(ref.inner(diff, shift))


def _kl_estimate(weights: tuple[np.ndarray, np.ndarray], delta0: np.ndarray,
                 quad: np.ndarray, mean_shift: float | np.ndarray) -> tuple[np.ndarray, ...]:
    """The divergence estimates of a block of batches, one per row.

    ``delta0`` and ``quad`` hold the reduced discrepancies and ``<u, Gamma u>``
    of one batch per row, shape ``(T, B)``, all weighted by the log weights
    and weights ``weights``; ``mean_shift`` holds each batch's mean-shift
    penalty. Returns the discrepancy, log-partition, value and standard
    error arrays, one entry per row.

    Each row gets the bits a block of that row alone gives it: the functions
    act elementwise or reduce along a contiguous row, and the discrepancy is
    one dot product per row (a stack of ``(1, B) @ (B, 1)`` products), where a
    matrix-vector product would round otherwise.
    """
    logw, w = weights
    size = delta0.shape[-1]
    disc = np.matmul(delta0[:, None, :], w[:, None])[:, 0, 0]
    spread = delta0 - disc[:, None]
    se_disc = np.sqrt((w * w * (spread * spread)).sum(axis=-1))

    g = 0.5 * quad + logw
    gmax = g.max(axis=-1)
    r = np.exp(g - gmax[:, None])
    total = r.sum(axis=-1)
    log_partition = gmax + np.log(total)
    # delta-method spread of log sum exp(g): relative spread of the summands
    rel = r / total[:, None] - 1.0 / size
    se_lp = np.sqrt((rel * rel).sum(axis=-1))
    return disc, log_partition, disc + mean_shift + log_partition, np.hypot(se_disc, se_lp)


def _one_estimate(weights: tuple[np.ndarray, np.ndarray], delta0: np.ndarray,
                  quad: np.ndarray, mean_shift: float) -> KLEstimate:
    """:func:`_kl_estimate` of one batch, as a :class:`KLEstimate`."""
    disc, log_partition, value, stderr = _kl_estimate(weights, delta0[None], quad[None],
                                                      mean_shift)
    return KLEstimate(
        value=float(value[0]),
        discrepancy=float(disc[0]),
        mean_shift=mean_shift,
        log_partition=float(log_partition[0]),
        stderr=float(stderr[0]),
        n_samples=delta0.shape[-1],
    )


def estimate_gradients(spec: GaussianSpec, problem, batch: np.ndarray,
                       coords: np.ndarray | None = None,
                       weights: tuple[np.ndarray, np.ndarray] | None = None) -> GradientPair:
    """Mean and covariance gradients from one shared centred batch.

    The mean gradient is ``mean(grad_phi(u + m)) + C0^{-1}(m - m0)`` as a
    field; the covariance gradient is the batch covariance (1/M
    normalization) of the reduced discrepancy with its per-sample parameter
    derivative. Both are exact derivatives of :func:`estimate_dkl` on the
    same frozen batch (the covariance one under ``base=`` reweighting).
    The terms of that estimate on this batch come along from the same
    ``phi`` evaluation; the pair's :attr:`~GradientPair.estimate` computes
    it from them.

    The target is evaluated once, on the shifted batch, by the problem's
    ``phi_and_grad``.
    ``<u, Gamma u>`` and the parameter derivative both read the batch's
    Gamma coordinates (see ``_Family.draw``); ``coords`` passes those the
    sampler returned, otherwise they are computed from the batch.
    ``weights`` passes :func:`uniform_weights` of the batch size, built here
    when omitted. Means are sums over the batch size: ``np.mean`` gives the
    same bits through several Python-level calls.
    """
    batch = np.asarray(batch, dtype=float)
    if batch.ndim < 2:
        batch = batch.reshape(1, -1)
    size = batch.shape[0]
    cov, ref = spec.cov, spec.ref
    if coords is None:
        coords = cov.gamma_coords(ref, batch)
    if weights is None:
        weights = uniform_weights(size)
    fields = batch + spec.mean
    phi, grad = problem.phi_and_grad(fields)
    diff = spec.mean - ref.mean0
    shift = ref.precision_apply(diff)
    m_field = grad.sum(axis=0) / size + shift

    quad = cov.quad_coords(ref, coords)
    delta0 = phi - 0.5 * quad
    dtheta = cov.quad_derivative(ref, coords)
    centered = delta0 - delta0.sum() / size
    if dtheta.ndim == 1:
        cov_term = float((centered * (dtheta - dtheta.sum() / size)).sum() / size)
    else:
        dc = dtheta - dtheta.sum(axis=0) / size
        cov_term = np.tensordot(centered, dc, axes=(0, 0)) / size

    return GradientPair(
        mean=m_field,
        cov=cov_term,
        delta0=delta0,
        quad=quad,
        mean_shift=_mean_shift(ref, diff, shift),
        weights=weights,
    )


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
        from scipy.integrate import quad
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
